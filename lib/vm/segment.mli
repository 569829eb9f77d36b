(** A physical memory object — what the paper (following Mach) calls a
    segment.  Segments back both mapped memory and files; a shared file
    and the memory mapped from it are the {e same} segment, which is what
    makes Hemlock's write sharing genuine rather than copy-based.

    Storage grows on demand up to [max_size] and is zero-filled.  It is
    chunked into 4 KiB pages behind per-page reference counts: {!copy}
    normally shares every page (an O(pages) refcount walk), and the
    first diverging write to a shared page copies only that page.  A
    write that would store the bytes a shared page already holds is
    skipped entirely, so identical re-initialisation (relocation
    replays, image startup writes) never breaks sharing. *)

type t

(** [create ~name ~max_size ()] makes an empty segment. *)
val create : name:string -> max_size:int -> unit -> t

val id : t -> int
val name : t -> string
val max_size : t -> int

(** Current logical size in bytes (high-water mark of writes/resizes). *)
val size : t -> int

(** Monotonic write counter: bumped by every content mutation
    ([set_u8]/[set_u32]/[blit_in]/[write_from]/[resize]), whichever
    component performs it.  Caches of derived data (the trace JIT's
    compiled code) compare it to detect staleness without re-reading
    the bytes. *)
val version : t -> int

(** Page-table generation: bumped whenever the {e identity} or the
    {e sharing state} of any page chunk changes — a COW break swapping
    in a private copy, a zero page being allocated by a first write,
    pages dropped by [resize]/[replace], {!copy} sharing the pages out,
    [resize] moving the logical size — and never by in-place byte
    writes.  A caller holding a raw page from {!page_view} or
    {!owned_page_view} may keep using it while this counter stands
    still; the trace JIT's inline load and store caches ride on it. *)
val page_gen : t -> int

(** [page_view t off] is the raw 4 KiB page chunk holding [off] together
    with the current {!page_gen}, or [None] if [off] is out of bounds or
    the page is an (unallocated) zero page.  The bytes are live storage:
    they must be treated as read-only, and reused only while
    [page_gen t] equals the returned stamp. *)
val page_view : t -> int -> (Bytes.t * int) option

(** [owned_page_view t off] is like {!page_view} but only for a page
    that is exclusively owned (refcount 1), which makes it legal to
    {e write} through the bytes directly — provided every such write
    stays below [size t] as of the returned stamp and is paired with a
    {!bump_version}.  Valid only while [page_gen t] equals the stamp:
    anything that could invalidate a cached writable view ({!copy}
    sharing the page out, a COW break, {!resize}) bumps the counter. *)
val owned_page_view : t -> int -> (Bytes.t * int) option

(** [bump_version t] registers an out-of-band content mutation done
    through {!owned_page_view} bytes, keeping {!version}'s contract that
    it moves with every content write. *)
val bump_version : t -> unit

(** [resize t n] sets the logical size (zero-extends; truncation clears
    the dropped bytes so re-growth reads zeroes).
    @raise Invalid_argument if [n < 0] or [n > max_size t]. *)
val resize : t -> int -> unit

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit

(** [blit_in t ~dst_off src] copies [src] into the segment, growing it. *)
val blit_in : t -> dst_off:int -> Bytes.t -> unit

(** [blit_out t ~src_off ~len] copies bytes out (reads beyond [size] are
    zeroes, up to [max_size]). *)
val blit_out : t -> src_off:int -> len:int -> Bytes.t

(** [read_into t ~src_off dst ~dst_off ~len] copies [len] bytes out into
    [dst] (reads beyond [size] are zeroes, same as repeated [get_u8]). *)
val read_into : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit

(** [write_from t ~dst_off src ~src_off ~len] copies [len] bytes from
    [src] into the segment, growing it (same as repeated [set_u8]). *)
val write_from : t -> dst_off:int -> Bytes.t -> src_off:int -> len:int -> unit

(** [replace t b] swaps the whole contents for [b]: one content blit,
    one size update, one version bump.  Unlike [resize 0] + [blit_in]
    there is no intermediate state in which the segment is visibly empty
    or half-written — existing mappings observe either the old contents
    or the new.  Validation precedes any mutation.
    @raise Invalid_argument if [Bytes.length b > max_size t]. *)
val replace : t -> Bytes.t -> unit

(** [release t] drops every page (decrementing shared refcounts) and
    zeroes the logical size — the deterministic teardown for a private
    segment its owner discards.  A page still shared with another
    segment returns to sole ownership there, so its next write happens
    in place instead of COW-copying.  Called through
    {!Address_space.release} (reap, exec, the linker's unwind), never
    from a finaliser, keeping [pages_copied] independent of the host
    GC. *)
val release : t -> unit

(** [copy t] is a snapshot with identical contents and a fresh identity —
    the private half of fork.  With {!Hemlock_util.Config.t.cow} on
    (the default) the snapshot shares [t]'s pages by reference count and
    bills the skipped copying to [Stats.bytes_saved]; writes through
    either segment then copy single pages on demand (billed to
    [Stats.pages_copied]).  With it off, an eager deep copy billed to
    [Stats.bytes_copied], which [Stats.cycles] charges: COW lowers
    [cycles] by exactly the copies it saves. *)
val copy : t -> t

(** Number of 4 KiB pages currently allocated (holes read as zeroes and
    occupy nothing). *)
val allocated_pages : t -> int

(** Number of allocated pages currently shared with at least one other
    segment (refcount > 1). *)
val shared_pages : t -> int

(** Whole current contents (length = [size t]). *)
val contents : t -> Bytes.t

val pp : Format.formatter -> t -> unit
