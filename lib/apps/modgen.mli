(** Reachability-graph workload generator for the lazy-linking
    experiment (E8).

    Builds a chain of M modules: module i exports function [fI] and
    datum [dI]; [fI(x)] returns [dI] when [x = 0] and otherwise recurses
    into [f(I+1)(x-1)], also reading [d(I+1)].  Each template embeds a
    module list naming its successor (lds -r metadata), so the {e
    reachability graph} spans all M modules while a run that calls
    [f0(u)] only ever {e uses} modules 0..u — the situation §3 motivates
    lazy linking with.

    Three load strategies are driven over the same templates:
    Hemlock's fault-driven lazy linking, fully eager linking, and the
    jump-table (PLT) loader. *)

module Kernel = Hemlock_os.Kernel
module Ldl = Hemlock_linker.Ldl

(** Expected value of [f0(u)] over a chain built with [modules]
    modules. *)
val expected : modules:int -> used:int -> int

(** [install ldl ~dir ~modules] compiles the chain templates into [dir]
    (which must exist; use a directory under /shared for public
    modules), embedding each one's module-list metadata.  Returns the
    template paths in chain order.

    With [~deep:true] the per-module lists stay empty; pair it with
    {!link_driver}'s [~deep] so the driver names the whole chain and
    every inter-module reference walks the root scope's full module list
    — the deep-dependency workload of perfbench's link workloads. *)
val install : ?deep:bool -> Ldl.t -> dir:string -> modules:int -> string list

(** Driver program source calling [f0(used)] and printing the result. *)
val driver_source : used:int -> string

(** [link_driver ldl ~dir ~out ~used] links a driver program whose only
    dynamic module is the chain head; with [~deep:n > 0] the driver
    instead names all [n] chain modules as dynamic dependencies. *)
val link_driver : ?deep:int -> Ldl.t -> dir:string -> out:string -> used:int -> unit

(** Run the driver under normal (lazy) Hemlock linking; returns
    (printed result, modules linked, modules mapped). *)
val run_lazy : Ldl.t -> prog:string -> int * int * int

(** Same, but force every reachable module to be linked eagerly first. *)
val run_eager : Ldl.t -> prog:string -> int * int * int

(** Run under the jump-table loader: all modules loaded and data
    resolved at start, functions bound on first call.  Returns
    (printed result, stubs bound, stubs created). *)
val run_plt :
  Hemlock_baseline.Plt.t -> templates:string list -> used:int -> int * int * int
