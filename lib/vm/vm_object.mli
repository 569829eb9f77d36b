(** Pager-side identity of a mapped {!Segment}: which pages are
    resident, how first touches materialise ({!kind}), and when resident
    pages are reclaimed under a bounded simulated RAM.

    The segment stays the page {e store}; a VmObject is pure residency
    accounting shared by every mapping of that segment through one
    {!pager} (page-cache semantics — the pager's registry is keyed by
    segment id).  Eviction never
    discards contents: it clears the residency bit, pushes dirty
    file-backed pages through the owning file system's journalled
    writeback barrier, and invalidates every attached address space so
    the next touch re-faults through the slow path.

    All pager work is kernel-internal, exactly like COW: pager faults
    are never delivered to user handlers, never billed to
    [Stats.faults], and consume no fuel — the golden transcripts are
    byte-identical with the pager on, off ({!Hemlock_util.Config.t.pager}),
    or squeezed ({!ram_pages}). *)

type kind =
  | Anonymous  (** no backing identity: stacks, heaps, private images *)
  | Pinned  (** always resident; never faults, never evicted.  The
                default for raw {!Address_space.map} callers, which may
                have no kernel around to resolve pager faults. *)
  | File_backed of { path : string; writeback : page:int -> unit }
      (** backed by a shared-partition file; [writeback] is the owning
          file system's journalled durability barrier for one page
          (see [Fs.page_writeback]) *)

type t

(** One machine's page cache: its objects, keyed by segment id, and a
    second-chance clock over a frame table of {!ram_pages} slots.  A
    kernel owns one, and each of its address spaces reaches it. *)
type pager

(** Simulated RAM in pages of each pager created after it is set
    ([None] = unbounded, the default; [HEMLOCK_RAM_PAGES] sets it at
    startup).  Values are clamped to {!min_ram_pages}. *)
val ram_pages : int option ref

(** Floor for {!ram_pages}: below this the clock would thrash the
    handful of pages one instruction needs simultaneously live. *)
val min_ram_pages : int

(** A pager with an empty registry and a frame table sized from
    {!ram_pages} as it stands now. *)
val create_pager : unit -> pager

(** [get_or_create pager seg kind] is [pager]'s object for [seg],
    creating it with [kind] on first sight.  A [Pinned] request {e promotes} an existing
    pageable object (its frames leave the clock uncounted): a raw
    mapper's eager expectations win over demand paging. *)
val get_or_create : pager -> Segment.t -> kind -> t

(** Whether the pager manages this object at all (the [pager] switch on and not
    pinned). *)
val pageable : t -> bool

(** Whether the object's kind is [Pinned] (independent of the switch) —
    the kind-inheritance test for fork's private copies. *)
val is_pinned : t -> bool

(** [resident t off] — is the page holding byte offset [off] resident?
    Always true for non-pageable objects. *)
val resident : t -> int -> bool

(** [touch t off ~write] marks the page referenced (clock second
    chance) and, for [write], dirty.  No-op if not pageable. *)
val touch : t -> int -> write:bool -> unit

(** [materialise t off ~write] makes the page holding [off] resident,
    billing [major_faults] (file-backed content to read) or
    [minor_faults] (zero-fill / in-memory) and evicting a victim of
    its pager first when the pager's frame table is full.  Idempotent on resident
    pages (degrades to {!touch}). *)
val materialise : t -> int -> write:bool -> unit

(** [attach t ~uid invalidate] registers an address space (by its
    unique id) mapping this object; [invalidate] is called — bumping
    the space's epoch — whenever one of the object's pages is evicted.
    Multiple mappings by one space are refcounted. *)
val attach : t -> uid:int -> (unit -> unit) -> unit

val detach : t -> uid:int -> unit

(** Drop [seg]'s object from [pager]'s registry: its frames leave the
    clock without being counted as evictions, residency clears, the
    entry disappears.  Called by {!Address_space.release} for each
    private segment it discards.  O(1) when the object holds no frame,
    else one scan of the frame table. *)
val forget : pager -> Segment.t -> unit

(** High-water mark of [Stats.resident_pages] since the last {!reset}. *)
val peak_resident : unit -> int

(** Zero the calling domain's [Stats.resident_pages] gauge and its peak.
    Pagers die with their kernels; the bench harness calls this between
    isolated kernel boots. *)
val reset : unit -> unit
