(** A per-process virtual address space: a page-granular table mapping
    address ranges to {!Segment.t} windows with protections.

    Accesses that touch an unmapped address or violate protection raise
    {!Fault}; the kernel turns that into SIGSEGV delivery, which is the
    engine behind both of Hemlock's fault-handler duties (lazy linking
    and mapping shared segments on pointer dereference). *)

type t

(** Why an access faulted: the address had no mapping at all, the
    mapping's protection forbade the access, or the page is mapped but
    not materialised ([Not_resident] — resolved kernel-internally by
    {!resolve}, never delivered to user handlers and never billed,
    exactly like COW).  Checked in that order: bounds, then residency,
    then protection. *)
type fault_reason = Unmapped | Protection | Not_resident

exception Fault of { addr : int; access : Prot.access; reason : fault_reason }

(** Whether a mapping is copied or shared across [fork]; private-region
    addresses are overloaded per process, public ones globally unique. *)
type share = Private | Public

type mapping = {
  seg : Segment.t;
  seg_off : int;  (** segment offset backing the mapping's base *)
  prot : Prot.t;  (** logical protection (what {!pp} shows); a COW
                      mapping's {e effective} protection additionally
                      strips write until {!resolve} clears [cow] *)
  share : share;
  label : string;  (** human-readable provenance, e.g. a module path *)
  cow : bool;
      (** set by {!clone} on writable private mappings: pages are
          refcount-shared with the other space and the first store must
          fault into {!resolve} *)
  obj : Vm_object.t;
      (** pager-side identity: residency, backing kind, clock state.
          Shared by every mapping of the same segment through one
          pager. *)
}

(** Raised by {!read_cstring} when no NUL terminator appears within the
    64 KB bound; the kernel surfaces it as [EFAULT] at syscall
    boundaries. *)
exception Cstring_unterminated of int

(** [create ?pager ()] makes an empty space whose mappings' objects live
    in [pager] (default: a fresh one, for a raw space with no kernel; a
    kernel passes its own).  Its clones share the pager.  It has a
    software TLB when {!Hemlock_util.Config.t.tlb} is on at creation,
    and its clones inherit the choice; without one every access takes
    the interval-map slow path.  The TLB and {!read_cstring}'s bulk
    reads are observability-only: simulated costs are identical either
    way. *)
val create : ?pager:Vm_object.pager -> unit -> t

(** The pager this space maps through. *)
val pager : t -> Vm_object.pager

(** Invalidation epoch: bumped by every [map]/[unmap]/[protect], COW
    resolution and pager eviction.  Derived caches (the TLB, the trace
    JIT's compiled code and inline caches) must be revalidated when it
    changes; the TLB's entries each record the epoch they were filled
    at, so a bump alone retires them all. *)
val epoch : t -> int

(** [map t ~base ~len ~seg ~prot ~share ~label] installs a mapping.
    [base] and [len] must be page-aligned; the range must be unmapped
    user space.  @raise Invalid_argument otherwise.

    [?kind] (default [Vm_object.Pinned]) selects how pages materialise.
    The default keeps raw callers — tests, libraries with no kernel
    around to resolve pager faults — on the seed's eager always-resident
    behaviour; kernel-managed sites opt into [Anonymous] (stack, heap,
    exec images, private module instances) or [File_backed] (shared-file
    mappings, public module instances). *)
val map :
  t ->
  base:int ->
  len:int ->
  seg:Segment.t ->
  ?seg_off:int ->
  ?kind:Vm_object.kind ->
  prot:Prot.t ->
  share:share ->
  label:string ->
  unit ->
  unit

(** [unmap t addr] removes the mapping containing [addr] (no-op if
    none), detaching its {!Vm_object.t}. *)
val unmap : t -> int -> unit

(** [detach_all t] drops every {!Vm_object.t} attachment (eviction
    stops invalidating this space) but keeps the mapping table — what
    process exit wants, so a zombie's mappings stay inspectable until
    it is reaped. *)
val detach_all : t -> unit

(** [release ?only t] gives up the mappings containing the addresses in
    [only] (default: every mapping) for good.  Each [Private] mapping's
    segment drops its page refcounts ({!Segment.release}) and its pager
    identity ({!Vm_object.forget}), so its frames leave the clock
    without being counted as evictions; each [Public] mapping is only
    detached.  The one release point for process memory: the kernel's
    reap and exec, and the linker's instantiation unwind.  A private
    segment must not be mapped by any other space. *)
val release : ?only:int list -> t -> unit

(** [protect t addr prot] changes the protection of the whole mapping
    containing [addr].  @raise Not_found if unmapped. *)
val protect : t -> int -> Prot.t -> unit

(** The mapping containing [addr], with its [(lo, hi)] range. *)
val mapping_at : t -> int -> (int * int * mapping) option

(** All mappings in address order. *)
val mappings : t -> (int * int * mapping) list

(** [find_gap t ~lo ~hi ~size] finds a free page-aligned range. *)
val find_gap : t -> lo:int -> hi:int -> size:int -> int option

(** Checked accesses; raise {!Fault}. *)

val load_u8 : t -> int -> int
val load_u32 : t -> int -> int
val store_u8 : t -> int -> int -> unit
val store_u32 : t -> int -> int -> unit

(** Instruction fetch: a 32-bit load requiring execute permission. *)
val fetch : t -> int -> int

(** [exec_view t addr] validates a 4-byte exec access at [addr] exactly
    like {!fetch} (raising the same faults) and returns the mapping
    geometry [(seg, delta, hi)], where [addr' + delta] is the segment
    offset of any [addr'] in the same mapping and [hi] is its exclusive
    bound.  The result is valid until {!epoch} changes.  Used by the
    trace JIT. *)
val exec_view : t -> int -> Segment.t * int * int

(** [data_view t addr access] is the mapping geometry [(seg, delta, hi)]
    behind [addr] when its {e effective} protection allows [access]
    (a COW mapping's stripped write counts as not allowing it), else
    [None].  Unlike the checked accessors it never raises and never
    touches the TLB; the result is valid until {!epoch} changes.  Used
    by the trace JIT to fill its inline load/store caches. *)
val data_view : t -> int -> Prot.access -> (Segment.t * int * int) option

(** Read a NUL-terminated string (bounded at 64 KB), one translation
    and blit per mapping run rather than per byte.  Pager faults inside
    the string are resolved in place (the run streams through a budget
    smaller than the string); any other fault is raised at the address
    a byte loop would fault at. *)
val read_cstring : t -> int -> string

(** [clone t] implements the memory half of fork: private mappings get
    fresh copied segments, public mappings alias the originals.

    With {!Hemlock_util.Config.t.cow} on the copies share pages by
    reference count, writable private mappings are flagged [cow] in
    {e both} spaces (effective protection loses write, and both TLBs are
    flushed via the epoch), and nothing is billed to [bytes_copied];
    the first store on either side faults into {!resolve}.  With it
    off, eager deep copies billed to [bytes_copied], as before. *)
val clone : t -> t

(** [resolve t ~addr ~access reason] is the kernel's half of the pager
    and COW protocols, the one rule every kernel path that touches user
    memory applies before SIGSEGV delivery.  It answers whether the
    faulting access should be retried:
    - a [Not_resident] fault in a pageable mapping materialises the page
      (evicting a victim first when the RAM budget is full) and bills
      [major_faults]/[minor_faults];
    - a [Write] [Protection] fault on a [cow] mapping whose logical
      protection allows the write clears the flag (restoring the
      original protection), bumps the {!epoch} and bills one
      [cow_faults]; the retried store un-shares pages one by one at the
      segment layer as it writes;
    - anything else (unmapped, a pinned object, a genuine protection
      fault) answers [false]: deliver SIGSEGV. *)
val resolve : t -> addr:int -> access:Prot.access -> fault_reason -> bool

val pp : Format.formatter -> t -> unit
