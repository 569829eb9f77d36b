(** Memoized link plans — the Hemlock analogue of "stable linking":
    segments are linked into many programs repeatedly, so the second
    process to exec a program replays the recorded resolution outcome
    instead of re-walking scopes.  Decoded templates and images are not
    plans: [Ldl] memoizes those itself, one memo per kernel.

    Coherence contract (all host-side; the simulated cost model is
    unaffected):
    - the plan store is the only plan store.  It holds the plans for one
      {!Hemlock_sfs.Fs.generation} and is cleared wholesale when the
      generation moves; [/shared/.stable] is its copy on disk (see
      {!Stable_link}), which a reboot reads back into it only if the
      generation has not moved since the copy was written.  A key does
      not fix its plan, so each plan records what its file holds;
    - every plan dependency records the base address it was placed at
      {e and} the content identity (segment id, version) of the template
      it was decoded from, and replay verifies both, rejecting the plan
      on mismatch — so a template rewritten in place through a mapping
      (invisible to [Fs.generation]) can never be served a stale plan;
    - the caller additionally keys each plan on a digest of the
      already-instantiated module set, since recorded addresses may
      point into modules that were instantiated by {e earlier} regions
      and therefore appear in no dependency entry, and on the region's
      scope chain, so a dependency names its scope by depth;
    - replay re-performs instantiations through the ordinary path, so
      reads, mappings and lock acquisitions (and their counters) recur
      exactly; only symbol scope walks are replaced by the recorded
      dictionary, fed to the same relocation engine. *)

(** One instantiation performed during a recorded region. *)
type dep = {
  dep_located : string;
  dep_public : bool;
  dep_base : int;
  dep_src : int * int;
      (** template content identity at record time (see
          {!Hemlock_linker.Modinst.t.inst_src}) *)
  dep_depth : int;
      (** the scope the walk instantiated it under, as a number of
          parents above the region's scope (0: that scope); replay uses
          the live scope's, and a depth past its root rejects the plan *)
}

(** What the plan's file under [/shared/.stable] holds: nothing known
    ([Unsaved]), exactly this plan ([Saved]), or exactly this plan, read
    back at a reboot and not yet replayed ([Loaded]). *)
type copy = Unsaved | Saved | Loaded

type plan = {
  plan_deps : dep list;  (** in cold-path chronological order *)
  plan_addrs : (string, int) Hashtbl.t;  (** resolved symbol addresses *)
  mutable plan_copy : copy;
}

type store

val create_store : unit -> store

(** [lookup store ~fs key] returns a live plan, clearing the store first
    if [fs] has mutated since the plans were recorded. *)
val lookup : store -> fs:Hemlock_sfs.Fs.t -> string -> plan option

val record : store -> fs:Hemlock_sfs.Fs.t -> string -> plan -> unit

(** Drop one plan (its replay failed verification). *)
val remove : store -> string -> unit

(** All live (key, plan) pairs, sorted by key — the stable-link sync
    walks this to copy the store.  Validates against [fs] first, so
    only plans the store would actually serve are returned.  Empty when
    the plan cache is disabled. *)
val entries : store -> fs:Hemlock_sfs.Fs.t -> (string * plan) list

(** [keep store ~fs] declares the plans still valid at [fs]'s current
    generation: the mutations since {!entries} validated them were the
    stable-link sync's own, which no module lookup can see. *)
val keep : store -> fs:Hemlock_sfs.Fs.t -> unit

(** Drop every cached plan and forget the generation (reboot). *)
val reset_store : store -> unit

(** Bump the plan observability counters. *)
val hit : unit -> unit

val miss : unit -> unit
