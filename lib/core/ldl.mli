(** ldl — the lazy dynamic linker, and the Hemlock run-time service.

    [install] hooks the linker into a kernel:

    - a binfmt loader for the a.out images lds produces (maps the
      private static image and the retained link state); exec of an
      image that does not parse, whose entry, retained relocations or
      veneer pool lie outside its bytes, or that does not fit below the
      heap fails with [ENOEXEC];
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
    fault.  A listed module that cannot be instantiated (a template
    grown past its slot, a public template off [/shared], ...) is
    refused: the walk warns once and passes it, so the modules after it
    still answer, and the process does not try it again until the file
    system's namespace or its cwd changes. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc

type t

(** Install the service on a kernel.  Call once per kernel.  The
    linker's host-side memos of the kernel's files (decoded templates
    and images, placed masters) live in the result, so they die with
    the kernel. *)
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

(** Instances mapped into a process, in load order.  A process's link
    state lives until it is reaped (a zombie's stays inspectable); the
    reap drops it, and [[]] is the answer after. *)
val instances : t -> Proc.t -> Modinst.t list

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

    The in-memory plan store and the template decode memo die with
    [Kernel.reboot]; {!stable_sync} makes [/shared/.stable] an exact
    copy of the store (see {!Stable_link}), and the reboot hook
    installed by {!install} refills the store from it if [Fs.generation]
    has not moved since the copy was made, so the first exec after
    reboot replays plans instead of walking scopes cold.  Nothing else
    is persisted: that exec still decodes each template from its
    file. *)

(** See {!Stable_link.sync_report}. *)
type sync_report = Stable_link.sync_report = {
  sync_plans : int;
  sync_objs : int;
  sync_skipped : int;
}

(** Make [/shared/.stable] an exact copy of the live link plans (see
    {!Stable_link.sync}), and remember the generation the copy was made
    at.  An explicit sync point: the writes are billed, so no exec path
    calls this.  A no-op (all zeros) when the plan cache is off; its
    [sync_objs] is always 0.  Raises {!Hemlock_util.Fault.Crash}
    through. *)
val stable_sync : t -> sync_report

(** {1 Linkstat: resolution provenance}

    Host-side observability, recorded only while armed: every symbol
    resolved records how its last resolution was answered — the
    exporting module and scope, hash vs. linear vs. cached probe, and
    whether it came from a cold walk, an in-memory plan replay, a
    stable-boot replay, or dlsym.  Never billed: simulated costs are
    the same armed or not. *)

(** Arm or disarm provenance recording for every process of this
    linker (off after {!install}).  Disarmed, a resolution records
    nothing, so a process's rows are [[]] and its [n_symbols] 0.  Arm it
    before the execs to be observed: resolutions made while disarmed are
    not recorded later. *)
val set_linkstat : t -> bool -> unit

(** Per-symbol provenance of one process, as a JSON array sorted by
    symbol: [{"symbol", "origin", "scope", "probe", "source",
    "count"}]. *)
val linkstat_proc_json : t -> Proc.t -> string

(** The kernel-wide linkstat dump: per-process aggregates (symbol
    counts by source and probe) over the processes not yet reaped — a
    reaped process drops out — kernel totals over the same, and the
    full {!Hemlock_util.Stats} counter snapshot under ["stats"]. *)
val linkstat_json : t -> string

