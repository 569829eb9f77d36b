(** ldl — the lazy dynamic linker, and the Hemlock run-time service.

    [install] hooks the linker into a kernel:

    - a binfmt loader for the a.out images lds produces (maps the
      private static image and the retained link state);
    - the [ldl_run] syscall that crt0 traps into before [main]: it maps
      the static public modules, creates and instantiates the dynamic
      modules (public ones under a file lock, so the first process of a
      parallel application creates the shared data and the rest link
      it), and resolves the image's retained relocations against them;
    - the user-level SIGSEGV handler of §2: a faulting public address
      is translated to a path with the new kernel call and mapped —
      through the linker when the file is a module, as a plain mapping
      otherwise — and a faulting access to a module that was mapped
      without access permissions triggers resolution of all of that
      module's references (lazy linking), which may in turn map further
      modules, inaccessibly, recursively.

    Scoped linking: each instance resolves first against the modules on
    its own list (located through its own search path), then its
    parent's, up to the root; root-level resolution also sees the main
    image's exports.  References unresolved at the root are left to
    fault. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc

type t

(** Install the service on a kernel.  Call once per kernel. *)
val install : Kernel.t -> t

val kernel : t -> Kernel.t

(** LD_BIND_NOW-style eager mode: when set, ldl's start-up pass
    transitively links every reachable module instead of leaving them
    to fault.  The eager baseline of E8. *)
val set_bind_now : t -> bool -> unit

(** Runtime warnings accumulated (missing dynamic modules, unresolved
    references left at the root, ...). *)
val warnings : t -> string list

(** {1 Introspection (tests and benches)} *)

(** Instances mapped into a process, in load order. *)
val instances : t -> Proc.t -> Modinst.t list

(** The instance whose range contains an address, if any. *)
val instance_at : t -> Proc.t -> int -> Modinst.t option

(** Retained image relocations still unresolved for this process. *)
val pending_image_relocs : t -> Proc.t -> Hemlock_obj.Objfile.reloc list

(** {1 Native-process attachment}

    Native (harness) processes have no a.out, but still want the fault
    handler and the dlopen/dlsym interface. *)

val attach : t -> Proc.t -> unit

(** {1 Explicit dynamic loading (the dld-style interface)} *)

(** [dlopen t proc name] locates, instantiates and maps a module (lazy:
    unresolved modules are mapped without access).  May block on the
    creation lock. *)
val dlopen : t -> Proc.t -> string -> Modinst.t

(** [dlsym t proc name] resolves a symbol in the process's root scope. *)
val dlsym : t -> Proc.t -> string -> int option

(** Force a module's link pass now (what a fault would do). *)
val link_now : t -> Proc.t -> Modinst.t -> unit

(** {1 Stable linking}

    The in-memory plan store and decode caches die with [Kernel.reboot];
    {!stable_sync} makes [/shared/.stable] an exact copy of the store
    (see {!Stable_link}), and the reboot hook installed by {!install}
    reseeds the symbol indexes from it and, if [Fs.generation] has not
    moved since the copy was made, refills the store, so the first exec
    after reboot replays plans instead of walking scopes cold. *)

(** See {!Stable_link.sync_report}. *)
type sync_report = Stable_link.sync_report = {
  sync_plans : int;
  sync_objs : int;
  sync_skipped : int;
}

(** Make [/shared/.stable] an exact copy of the live link plans and of
    the symbol indexes of every instantiated template still in its
    file (see {!Stable_link.sync}), and remember the generation the copy
    was made at.  An explicit sync point: the writes are billed, so no
    exec path calls this.  A no-op (all zeros) when the plan cache is
    off.  Raises {!Hemlock_util.Fault.Crash} through (crash sweep). *)
val stable_sync : t -> sync_report

(** {1 Linkstat: resolution provenance}

    Host-side observability: every resolved symbol records how its last
    resolution was answered — the exporting module and scope, hash vs.
    linear vs. cached probe, and whether it came from a cold walk, an
    in-memory plan replay, a stable-boot replay, or dlsym. *)

(** Per-symbol provenance of one process, as a JSON array sorted by
    symbol: [{"symbol", "origin", "scope", "probe", "source",
    "count"}]. *)
val linkstat_proc_json : t -> Proc.t -> string

(** The kernel-wide linkstat dump: per-process aggregates (symbol
    counts by source and probe), kernel totals, and the full
    {!Hemlock_util.Stats} counter snapshot under ["stats"]. *)
val linkstat_json : t -> string

