(** Memoized link plans and parse caches — the Hemlock analogue of
    "stable linking": segments are linked into many programs repeatedly,
    so the second process to exec a program replays the recorded
    resolution outcome instead of re-walking scopes.

    Coherence contract (all host-side; the simulated cost model is
    unaffected):
    - decode caches are keyed by the backing segment's
      ([Segment.id], [Segment.version]) — a rewritten file gets a new
      version and so a fresh decode;
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
      and therefore appear in no dependency entry;
    - replay re-performs instantiations through the ordinary path, so
      reads, mappings and lock acquisitions (and their counters) recur
      exactly; only symbol scope walks are replaced by the recorded
      dictionary, fed to the same relocation engine. *)

(** Kill switch (set from [HEMLOCK_NO_PLANCACHE] at start-up). *)
val enabled : bool ref

(** [parse_obj ~seg bytes] decodes a template, memoized against [seg]'s
    identity and version.  [bytes] must be [seg]'s current contents. *)
val parse_obj : seg:Hemlock_vm.Segment.t -> Bytes.t -> Hemlock_obj.Objfile.t

(** Same for load images. *)
val parse_aout : seg:Hemlock_vm.Segment.t -> Bytes.t -> Aout.t

(** Drop the calling domain's decode caches (reboot: the kernel's
    host-resident state dies with it). *)
val clear_parse_caches : unit -> unit

(** Drop only the template (HOB2) decode memo — the piece of reboot
    teardown stable linking claims and re-warms from persisted
    symbol-index files.  The image (HEXE) memo models decoded content
    backed by a file that survives the reboot, so reboot keeps it. *)
val clear_obj_cache : unit -> unit

(** [seed_obj ~src obj] pre-warms the template decode cache with a
    template deserialized from a stable-link symbol-index file, keyed by
    the backing segment identity [src] = (id, version) it was verified
    against.  No-op when the plan cache is disabled. *)
val seed_obj : src:int * int -> Hemlock_obj.Objfile.t -> unit

(** One instantiation performed during a recorded region. *)
type 'scope dep = {
  dep_located : string;
  dep_public : bool;
  dep_base : int;
  dep_src : int * int;
      (** template content identity at record time (see
          {!Hemlock_linker.Modinst.t.inst_src}) *)
  dep_parent : 'scope;
}

(** What the plan's file under [/shared/.stable] holds: nothing known
    ([Unsaved]), exactly this plan ([Saved]), or exactly this plan, read
    back at a reboot and not yet replayed ([Loaded]). *)
type copy = Unsaved | Saved | Loaded

type 'scope plan = {
  plan_deps : 'scope dep list;  (** in cold-path chronological order *)
  plan_addrs : (string, int) Hashtbl.t;  (** resolved symbol addresses *)
  mutable plan_copy : copy;
}

type 'scope store

val create_store : unit -> 'scope store

(** [lookup store ~fs key] returns a live plan, clearing the store first
    if [fs] has mutated since the plans were recorded. *)
val lookup : 'scope store -> fs:Hemlock_sfs.Fs.t -> string -> 'scope plan option

val record : 'scope store -> fs:Hemlock_sfs.Fs.t -> string -> 'scope plan -> unit

(** Drop one plan (its replay failed verification). *)
val remove : 'scope store -> string -> unit

(** All live (key, plan) pairs, sorted by key — the stable-link sync
    walks this to copy the store.  Validates against [fs] first, so
    only plans the store would actually serve are returned.  Empty when
    the plan cache is disabled. *)
val entries : 'scope store -> fs:Hemlock_sfs.Fs.t -> (string * 'scope plan) list

(** [keep store ~fs] declares the plans still valid at [fs]'s current
    generation: the mutations since {!entries} validated them were the
    stable-link sync's own, which no module lookup can see. *)
val keep : 'scope store -> fs:Hemlock_sfs.Fs.t -> unit

(** Drop every cached plan and forget the generation (reboot). *)
val reset_store : 'scope store -> unit

(** Bump the plan observability counters. *)
val hit : unit -> unit

val miss : unit -> unit
