module Interval_map = Hemlock_util.Interval_map
module Stats = Hemlock_util.Stats
module Config = Hemlock_util.Config

type fault_reason = Unmapped | Protection | Not_resident

exception Fault of { addr : int; access : Prot.access; reason : fault_reason }

type share = Private | Public

type mapping = {
  seg : Segment.t;
  seg_off : int;
  prot : Prot.t;
  share : share;
  label : string;
  cow : bool;
  obj : Vm_object.t;
}

exception Cstring_unterminated of int

(* A COW mapping keeps its logical protection (what [pp] prints, what a
   later [protect] replaces) but its *effective* protection — what the
   TLB caches and every access checks — has write stripped, so the
   first store traps into the kernel, whose [resolve] clears the flag. *)
let effective m = if m.cow then Prot.strip_write m.prot else m.prot

(* --- Software TLB ---------------------------------------------------

   A direct-mapped translation cache in front of [Interval_map.find].
   Each entry caches one page's mapping: its page base, the mapping's
   [hi] bound (accesses never straddle mapping boundaries), the constant
   [seg_off - lo] delta, and the protection.  Protection is re-checked
   on every hit, so a cached no-access page still faults — the entry is
   a cached {e translation}, not a cached {e permission}.

   Invalidation is epoch-based and conservative: [map], [unmap],
   [protect], a COW resolution and a pager eviction bump [epoch], and
   that alone retires every entry, because each entry records the
   epoch it was filled at and every hit path requires it to be the
   current one.  [clone] builds a child with a fresh (empty) TLB.  The
   [epoch] is exported so the trace JIT can ride the same protocol. *)

let tlb_bits = 8
let tlb_size = 1 lsl tlb_bits

type tlb_entry = {
  mutable te_page : int;  (* page base address; -1 = invalid *)
  mutable te_hi : int;  (* mapping's exclusive upper bound *)
  mutable te_delta : int;  (* seg_off - lo; offset = addr + delta *)
  mutable te_prot : Prot.t;
  mutable te_mask : int;  (* te_prot as bits (1 r / 2 w / 4 x): branch-free guard *)
  mutable te_seg : Segment.t option;  (* None = never filled *)
  mutable te_epoch : int;  (* [epoch] at the fill; valid only while current *)
}

type t = {
  mutable table : mapping Interval_map.t;
  tlb : tlb_entry array;
  mutable epoch : int;
  caching : bool;
  uid : int;  (* identity for Vm_object attachment (eviction -> epoch) *)
  pager : Vm_object.pager;  (* the page cache its mappings' objects live in *)
}

let next_uid = Atomic.make 0

let fresh_tlb () =
  Array.init tlb_size (fun _ ->
      {
        te_page = -1;
        te_hi = 0;
        te_delta = 0;
        te_prot = Prot.No_access;
        te_mask = 0;
        te_seg = None;
        te_epoch = -1;
      })

let create ?(pager = Vm_object.create_pager ()) () =
  {
    table = Interval_map.empty;
    tlb = fresh_tlb ();
    epoch = 0;
    caching = Config.current.tlb;
    uid = Atomic.fetch_and_add next_uid 1 + 1;
    pager;
  }

let epoch t = t.epoch

let pager t = t.pager

let invalidate t = t.epoch <- t.epoch + 1

(* The default kind is [Pinned]: raw mappers (tests, examples, runtime
   libraries that touch segments with no kernel around to resolve pager
   faults) get the seed's eager always-resident behaviour.  Only
   kernel-managed sites opt into pageable kinds. *)
let map t ~base ~len ~seg ?(seg_off = 0) ?(kind = Vm_object.Pinned) ~prot ~share ~label
    () =
  if not (Layout.is_page_aligned base && Layout.is_page_aligned len) then
    invalid_arg "Address_space.map: unaligned base or length";
  if len <= 0 then invalid_arg "Address_space.map: empty mapping";
  if not (Layout.is_user base && Layout.is_user (base + len - 1)) then
    invalid_arg "Address_space.map: outside user space";
  if Interval_map.overlaps ~lo:base ~hi:(base + len) t.table then
    invalid_arg (Printf.sprintf "Address_space.map: 0x%x+0x%x overlaps" base len);
  let obj = Vm_object.get_or_create t.pager seg kind in
  Vm_object.attach obj ~uid:t.uid (fun () -> invalidate t);
  t.table <-
    Interval_map.add ~lo:base ~hi:(base + len)
      { seg; seg_off; prot; share; label; cow = false; obj }
      t.table;
  invalidate t;
  let s = Stats.cur () in
  s.pages_mapped <- s.pages_mapped + (len / Layout.page_size)

let unmap t addr =
  match Interval_map.find addr t.table with
  | None ->
    (* nothing to remove; flush anyway to match the historical path *)
    invalidate t
  | Some (_, _, m) ->
    Vm_object.detach m.obj ~uid:t.uid;
    t.table <- Interval_map.remove addr t.table;
    invalidate t

(* Drop every object attachment so eviction stops invalidating a dead
   space.  Process exit uses this alone: the mapping table survives for
   post-mortem inspection until the reap releases it (reads stay
   correct — the segments hold the contents regardless of residency). *)
let detach_all t =
  Interval_map.fold
    (fun _ _ m () -> Vm_object.detach m.obj ~uid:t.uid)
    t.table ()

(* The one release point for process memory.  A private segment is this
   space's alone (a fresh segment or a fork/master copy), so it is
   discarded outright: its page refcounts and its pager identity go.  A
   public segment is a file other spaces may map, so it is only
   detached. *)
let release ?only t =
  let release_one m =
    Vm_object.detach m.obj ~uid:t.uid;
    match m.share with
    | Private ->
      Segment.release m.seg;
      Vm_object.forget t.pager m.seg
    | Public -> ()
  in
  (match only with
  | None ->
    Interval_map.fold (fun _ _ m () -> release_one m) t.table ();
    t.table <- Interval_map.empty
  | Some bases ->
    List.iter
      (fun base ->
        match Interval_map.find base t.table with
        | Some (_, _, m) ->
          release_one m;
          t.table <- Interval_map.remove base t.table
        | None -> ())
      bases);
  (* The epoch bump retires every entry; dropping their segments too
     keeps the TLB from holding released page tables reachable. *)
  Array.iter (fun e -> e.te_seg <- None) t.tlb;
  invalidate t

let protect t addr prot =
  t.table <- Interval_map.update addr (fun m -> { m with prot }) t.table;
  invalidate t

let mapping_at t addr = Interval_map.find addr t.table

let mappings t = Interval_map.to_list t.table

let find_gap t ~lo ~hi ~size =
  Interval_map.first_gap ~lo ~hi ~size:(Layout.page_up size) t.table

(* [lookup] resolves the mapping covering [addr] and returns
   [(seg, off, run, prot)] where [run] is the number of mapped bytes
   from [addr] to the mapping's end.  It fills the TLB but performs no
   protection check — callers check in the same order as the historical
   slow path (bounds before protection) so fault reasons are stable. *)

(* Public-region mappings are 1 MB-aligned, so their base pages all share
   the same low page-number bits; folding in higher bits keeps a working
   set of shared modules from colliding on one TLB entry. *)
let tlb_entry t addr =
  let p = addr lsr Layout.page_shift in
  (* the mask keeps the index in bounds, so skip the array check *)
  Array.unsafe_get t.tlb ((p lxor (p lsr 8)) land (tlb_size - 1))

let prot_mask p =
  (if Prot.allows p Prot.Read then 1 else 0)
  lor (if Prot.allows p Prot.Write then 2 else 0)
  lor (if Prot.allows p Prot.Exec then 4 else 0)

let lookup_slow t addr access =
  match Interval_map.find addr t.table with
  | None -> raise (Fault { addr; access; reason = Unmapped })
  | Some (lo, hi, m) ->
    let off = m.seg_off + (addr - lo) in
    (* Residency comes after bounds but before protection: a page that
       is mapped but not materialised faults [Not_resident], which the
       kernel resolves internally (never delivered, never billed) —
       the same protocol as COW.  Raising {e before} the TLB fill keeps
       the invariant that a valid TLB entry implies a resident page:
       eviction bumps the epoch of every attached space. *)
    if not (Vm_object.resident m.obj off) then
      raise (Fault { addr; access; reason = Not_resident });
    let prot = effective m in
    if t.caching then begin
      let e = tlb_entry t addr in
      e.te_page <- Layout.page_down addr;
      e.te_hi <- hi;
      e.te_delta <- m.seg_off - lo;
      e.te_prot <- prot;
      e.te_mask <- prot_mask prot;
      e.te_seg <- Some m.seg;
      e.te_epoch <- t.epoch;
      (* Later writes through this entry bypass the slow path, so a
         write-granting fill marks the page dirty conservatively. *)
      Vm_object.touch m.obj off
        ~write:(access = Prot.Write || e.te_mask land 2 <> 0)
    end
    else Vm_object.touch m.obj off ~write:(access = Prot.Write);
    (m.seg, off, hi - addr, prot)

let lookup t addr access =
  if not t.caching then lookup_slow t addr access
  else begin
    let e = tlb_entry t addr in
    match e.te_seg with
    | Some seg when e.te_page = Layout.page_down addr && e.te_epoch = t.epoch ->
      let s = Stats.cur () in
      s.tlb_hits <- s.tlb_hits + 1;
      (seg, addr + e.te_delta, e.te_hi - addr, e.te_prot)
    | Some _ | None ->
      let s = Stats.cur () in
      s.tlb_misses <- s.tlb_misses + 1;
      lookup_slow t addr access
  end

let translate t addr access width =
  let seg, off, run, prot = lookup t addr access in
  if width > run then raise (Fault { addr; access; reason = Unmapped });
  if not (Prot.allows prot access) then
    raise (Fault { addr; access; reason = Protection });
  (seg, off)

(* The mapping geometry behind a (validated) 4-byte exec access at
   [addr]: [(seg, delta, hi)] with [delta = off - addr].  The trace JIT
   pins these per run of compiled code words. *)
let exec_view t addr =
  let seg, off, run, prot = lookup t addr Prot.Exec in
  if 4 > run then raise (Fault { addr; access = Prot.Exec; reason = Unmapped });
  if not (Prot.allows prot Prot.Exec) then
    raise (Fault { addr; access = Prot.Exec; reason = Protection });
  (seg, off - addr, addr + run)

(* Like [exec_view] but for data accesses and non-raising: the mapping
   geometry behind [addr] when its *effective* protection (so never a
   COW mapping, for writes) allows [access], else [None].  Goes straight
   to the interval map — no TLB fill, no stats — because it only runs on
   the trace JIT's inline-cache miss path, after the authoritative
   access already succeeded. *)
let data_view t addr access =
  match Interval_map.find addr t.table with
  | None -> None
  | Some (lo, hi, m) ->
    if Prot.allows (effective m) access then Some (m.seg, m.seg_off - lo, hi)
    else None

(* Single-access entry points.  Each checks the TLB inline and, on a
   full hit (right page, current epoch, in bounds, access allowed),
   goes straight to the segment — no intermediate tuples on the hot
   path.  Everything else (miss, fault, caching off: such a space never
   fills an entry) falls back to [translate], which re-resolves and
   raises the precise fault. *)

let load_u8 t addr =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when e.te_page = Layout.page_down addr
         && e.te_epoch = t.epoch
         && addr < e.te_hi
         && e.te_mask land 1 <> 0 ->
    let s = Stats.cur () in
    s.tlb_hits <- s.tlb_hits + 1;
    Segment.get_u8 seg (addr + e.te_delta)
  | _ ->
    let seg, off = translate t addr Prot.Read 1 in
    Segment.get_u8 seg off

let load_u32 t addr =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when e.te_page = Layout.page_down addr
         && e.te_epoch = t.epoch
         && addr + 4 <= e.te_hi
         && e.te_mask land 1 <> 0 ->
    let s = Stats.cur () in
    s.tlb_hits <- s.tlb_hits + 1;
    Segment.get_u32 seg (addr + e.te_delta)
  | _ ->
    let seg, off = translate t addr Prot.Read 4 in
    Segment.get_u32 seg off

let store_u8 t addr v =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when e.te_page = Layout.page_down addr
         && e.te_epoch = t.epoch
         && addr < e.te_hi
         && e.te_mask land 2 <> 0 ->
    let s = Stats.cur () in
    s.tlb_hits <- s.tlb_hits + 1;
    Segment.set_u8 seg (addr + e.te_delta) v
  | _ ->
    let seg, off = translate t addr Prot.Write 1 in
    Segment.set_u8 seg off v

let store_u32 t addr v =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when e.te_page = Layout.page_down addr
         && e.te_epoch = t.epoch
         && addr + 4 <= e.te_hi
         && e.te_mask land 2 <> 0 ->
    let s = Stats.cur () in
    s.tlb_hits <- s.tlb_hits + 1;
    Segment.set_u32 seg (addr + e.te_delta) v
  | _ ->
    let seg, off = translate t addr Prot.Write 4 in
    Segment.set_u32 seg off v

let fetch t addr =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when e.te_page = Layout.page_down addr
         && e.te_epoch = t.epoch
         && addr + 4 <= e.te_hi
         && e.te_mask land 4 <> 0 ->
    let s = Stats.cur () in
    s.tlb_hits <- s.tlb_hits + 1;
    Segment.get_u32 seg (addr + e.te_delta)
  | _ ->
    let seg, off = translate t addr Prot.Exec 4 in
    Segment.get_u32 seg off

(* The kernel's half of the pager and COW protocols: whether a fault
   at [addr] is one the kernel resolves itself, so the faulting access
   should be retried.  A [Not_resident] fault in a pageable mapping
   materialises the page (evicting under a full RAM budget).  A write
   [Protection] fault on a COW mapping whose logical protection allows
   the write clears the flag (restoring the original protection) and
   bumps the epoch, so every cached translation and compiled trace is
   revalidated; the retried store diverges pages at the segment layer,
   copying each written page at most once, and not at all when the
   write is identical to the shared bytes.  Anything else — unmapped, a
   pinned object, a genuine protection fault — answers false, and the
   caller delivers SIGSEGV. *)
let resolve t ~addr ~access reason =
  match (reason, Interval_map.find addr t.table) with
  | Not_resident, Some (lo, _, m) when Vm_object.pageable m.obj ->
    Vm_object.materialise m.obj (m.seg_off + (addr - lo)) ~write:(access = Prot.Write);
    true
  | Protection, Some (_, _, m)
    when access = Prot.Write && m.cow && Prot.allows m.prot Prot.Write ->
    t.table <- Interval_map.update addr (fun m -> { m with cow = false }) t.table;
    invalidate t;
    let s = Stats.cur () in
    s.cow_faults <- s.cow_faults + 1;
    true
  | (Unmapped | Protection | Not_resident), _ -> false

(* --- Bulk fast path -------------------------------------------------

   [read_cstring] translates once per mapping run and blits within the
   segment instead of translating every byte.  The observable behaviour
   — fault addresses, and the [Invalid_argument] raised when a run
   crosses the backing segment's [max_size] — matches a byte loop
   exactly: runs are clamped to segment capacity, and a zero-capacity
   run performs a single byte read to raise the identical exception. *)

(* Returns the usable read run at [addr] ([>= 1]), after the same
   bounds-then-protection checks a 1-byte [translate] does.

   Pager interaction: the run self-serves its pager faults — routing
   [Not_resident] out to the kernel here would restart the whole string
   per page (or exhaust the bounded syscall retry fuel on strings longer
   than it).  The first page is materialised directly if needed; the
   run is then clamped to the resident prefix, so each following page is
   materialised by its own [bulk_run] call — a single forward pass even
   when the span exceeds the RAM budget and early pages are evicted
   while later ones fault in. *)
let bulk_run t addr ~want =
  let seg, off, run, prot =
    try lookup t addr Prot.Read
    with Fault { reason = Not_resident; _ }
      when resolve t ~addr ~access:Prot.Read Not_resident ->
      lookup t addr Prot.Read
  in
  if not (Prot.allows prot Prot.Read) then
    raise (Fault { addr; access = Prot.Read; reason = Protection });
  let cap = Segment.max_size seg - off in
  if cap <= 0 then begin
    (* Out of backing capacity: raise the same [Invalid_argument] the
       equivalent single-byte read would. *)
    ignore (Segment.get_u8 seg off);
    assert false
  end;
  let n = min want (min run cap) in
  let n =
    match Interval_map.find addr t.table with
    | Some (lo, _, m) when Vm_object.pageable m.obj ->
      let moff = m.seg_off + (addr - lo) in
      let first = Layout.page_size - (addr land (Layout.page_size - 1)) in
      let rec resident_prefix k =
        if k >= n then n
        else if Vm_object.resident m.obj (moff + k) then begin
          Vm_object.touch m.obj (moff + k) ~write:false;
          resident_prefix (k + Layout.page_size)
        end
        else k
      in
      resident_prefix first
    | Some _ | None -> n
  in
  (seg, off, n)

let read_cstring t addr =
  let limit = 0x1_0000 in
  let buf = Buffer.create 32 in
  let chunk = Bytes.create 256 in
  let rec go i =
    if i >= limit then raise (Cstring_unterminated addr);
    let seg, off, n =
      bulk_run t (addr + i) ~want:(min 256 (limit - i))
    in
    Segment.read_into seg ~src_off:off chunk ~dst_off:0 ~len:n;
    match Bytes.index_from_opt chunk 0 '\000' with
    | Some j when j < n ->
      Buffer.add_subbytes buf chunk 0 j;
      Buffer.contents buf
    | Some _ | None ->
      Buffer.add_subbytes buf chunk 0 n;
      go (i + n)
  in
  go 0

let rebuild f table =
  Interval_map.fold
    (fun lo hi m acc -> Interval_map.add ~lo ~hi (f m) acc)
    table Interval_map.empty

let clone t =
  let cow = Config.current.cow in
  let child =
    {
      table = Interval_map.empty;
      tlb = fresh_tlb ();
      epoch = 0;
      caching = t.caching;
      uid = Atomic.fetch_and_add next_uid 1 + 1;
      pager = t.pager;
    }
  in
  (* Flag a private mapping COW when its logical protection permits
     writes — those are the mappings whose next store must trap so the
     kernel can break the sharing.  Read-only/no-access mappings keep
     their refcount-shared pages without a flag: if a later [protect]
     opens them up, writes still diverge correctly at the segment layer
     (the pages are shared), just without a fault. *)
  let mark m =
    if cow && m.share = Private && Prot.allows m.prot Prot.Write then
      { m with cow = true }
    else m
  in
  let clone_mapping m =
    match m.share with
    | Public ->
      (* Shared object, shared residency: the child sees the same page
         cache. *)
      Vm_object.attach m.obj ~uid:child.uid (fun () -> invalidate child);
      m
    | Private ->
      let seg = Segment.copy m.seg in
      if not cow then begin
        let s = Stats.cur () in
        s.bytes_copied <- s.bytes_copied + Segment.size seg
      end;
      (* A fresh segment gets a fresh object; the copy has no backing
         file of its own, so a pageable parent yields an [Anonymous]
         child (its pages fault in as minor faults — fork is itself
         demand-paged), while a pinned parent stays pinned. *)
      let kind =
        if Vm_object.is_pinned m.obj then Vm_object.Pinned else Vm_object.Anonymous
      in
      let obj = Vm_object.get_or_create t.pager seg kind in
      Vm_object.attach obj ~uid:child.uid (fun () -> invalidate child);
      mark { m with seg; obj }
  in
  child.table <- rebuild clone_mapping t.table;
  if cow then begin
    (* The parent's private pages are now shared with the child: strip
       its effective write permission too, and flush its TLB. *)
    t.table <- rebuild mark t.table;
    invalidate t
  end;
  child

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (lo, hi, m) ->
      Format.fprintf ppf "%a-%a %a %s %-8s %s@,"
        Layout.pp_addr lo Layout.pp_addr hi Prot.pp m.prot
        (match m.share with Private -> "priv" | Public -> "pub ")
        (Layout.region_name lo) m.label)
    (mappings t);
  Format.fprintf ppf "@]"
