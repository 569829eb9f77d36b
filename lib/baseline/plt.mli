(** The SunOS-style jump-table dynamic linker — the baseline Hemlock's
    fault-driven lazy linking is compared against (§3 "Lazy Dynamic
    Linking").

    Characteristics, per the paper:
    - every library must exist at load time (entry points are verified);
    - references to {e data} objects are all resolved at load time;
    - {e function} calls are bound lazily through jump-table stubs, with
      no fault-handling overhead (a cheap trap, here one syscall);
    - a flat symbol namespace: no scoped linking.

    Stubs live in a per-process jump table; the first call through a
    stub traps to the binder, which patches the stub into a direct
    jump and restarts at the target.  A process's loader state dies
    when it is reaped. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc

exception Link_error of string

type t

(** Syscall number used by unbound stubs. *)
val bind_sysno : int

val install : Kernel.t -> t

val kernel : t -> Kernel.t

(** [load t proc ~located] maps each template (in order) into the
    process's private arena, resolves all data relocations eagerly
    against the flat namespace, and routes every cross-module call
    through a fresh or shared stub.
    @raise Link_error if a template is missing, uses $gp, or a data
    reference cannot be resolved (libraries must be complete at load
    time). *)
val load : t -> Proc.t -> located:string list -> unit

(** Flat-namespace symbol lookup. *)
val dlsym : t -> Proc.t -> string -> int option

(** Number of stubs bound (first-call traps taken) so far. *)
val bound : t -> Proc.t -> int

(** Number of stubs created at load time. *)
val stubs : t -> Proc.t -> int
