module Interval_map = Hemlock_util.Interval_map
module Stats = Hemlock_util.Stats

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
   first store traps into the kernel's [resolve_cow] path. *)
let effective m = if m.cow then Prot.strip_write m.prot else m.prot

(* --- Software TLB ---------------------------------------------------

   A direct-mapped translation cache in front of [Interval_map.find].
   Each entry caches one page's mapping: its page base, the mapping's
   [hi] bound (accesses never straddle mapping boundaries), the constant
   [seg_off - lo] delta, and the protection.  Protection is re-checked
   on every hit, so a cached no-access page still faults — the entry is
   a cached {e translation}, not a cached {e permission}.

   Invalidation is epoch-based and conservative: [map], [unmap] and
   [protect] bump [epoch] and flush every entry.  [clone] builds a
   child with a fresh (empty) TLB.  The [epoch] is exported so the
   CPU's decoded-instruction cache can ride the same protocol. *)

let tlb_bits = 8
let tlb_size = 1 lsl tlb_bits

type tlb_entry = {
  mutable te_page : int;  (* page base address; -1 = invalid *)
  mutable te_hi : int;  (* mapping's exclusive upper bound *)
  mutable te_delta : int;  (* seg_off - lo; offset = addr + delta *)
  mutable te_prot : Prot.t;
  mutable te_mask : int;  (* te_prot as bits (1 r / 2 w / 4 x): branch-free guard *)
  mutable te_seg : Segment.t option;  (* None = invalid (no seg pinned) *)
}

type t = {
  mutable table : mapping Interval_map.t;
  tlb : tlb_entry array;
  mutable epoch : int;
  caching : bool;
  uid : int;  (* identity for Vm_object attachment (eviction -> epoch) *)
}

(* Flipped off by setting HEMLOCK_NO_TLB, which keeps the slow path
   testable and lets the determinism tests compare both. *)
let caching_default = ref (Sys.getenv_opt "HEMLOCK_NO_TLB" = None)

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
      })

let create ?caching () =
  let caching = match caching with Some c -> c | None -> !caching_default in
  {
    table = Interval_map.empty;
    tlb = fresh_tlb ();
    epoch = 0;
    caching;
    uid = Atomic.fetch_and_add next_uid 1 + 1;
  }

let epoch t = t.epoch

let invalidate t =
  t.epoch <- t.epoch + 1;
  Array.iter
    (fun e ->
      e.te_page <- -1;
      e.te_seg <- None)
    t.tlb

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
  let obj = Vm_object.get_or_create seg kind in
  Vm_object.attach obj ~uid:t.uid (fun () -> invalidate t);
  t.table <-
    Interval_map.add ~lo:base ~hi:(base + len)
      { seg; seg_off; prot; share; label; cow = false; obj }
      t.table;
  invalidate t;
  (Stats.cur ()).pages_mapped <-
    (Stats.cur ()).pages_mapped + (len / Layout.page_size)

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
   post-mortem inspection (reads stay correct — the segments hold the
   contents regardless of residency).  Segment page refcounts are
   deliberately {e not} released — see the rule in [Segment]. *)
let detach_all t =
  Interval_map.fold
    (fun _ _ m () -> Vm_object.detach m.obj ~uid:t.uid)
    t.table ()

(* Full deterministic teardown: exec discarding the replaced image. *)
let teardown t =
  detach_all t;
  t.table <- Interval_map.empty;
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
    | Some seg when e.te_page = Layout.page_down addr ->
      (Stats.cur ()).tlb_hits <- (Stats.cur ()).tlb_hits + 1;
      (seg, addr + e.te_delta, e.te_hi - addr, e.te_prot)
    | Some _ | None ->
      (Stats.cur ()).tlb_misses <- (Stats.cur ()).tlb_misses + 1;
      lookup_slow t addr access
  end

let translate t addr access width =
  let seg, off, run, prot = lookup t addr access in
  if width > run then raise (Fault { addr; access; reason = Unmapped });
  if not (Prot.allows prot access) then
    raise (Fault { addr; access; reason = Protection });
  (seg, off)

(* The mapping geometry behind a (validated) 4-byte exec access at
   [addr]: [(seg, delta, hi)] with [delta = off - addr].  The CPU's
   decode cache pins these per page. *)
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
   full hit (right page, in bounds, access allowed), goes straight to
   the segment — no intermediate tuples on the hot path.  Everything
   else (miss, fault, caching off) falls back to [translate], which
   re-resolves and raises the precise fault. *)

let load_u8 t addr =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when t.caching
         && e.te_page = Layout.page_down addr
         && addr < e.te_hi
         && e.te_mask land 1 <> 0 ->
    (Stats.cur ()).tlb_hits <- (Stats.cur ()).tlb_hits + 1;
    Segment.get_u8 seg (addr + e.te_delta)
  | _ ->
    let seg, off = translate t addr Prot.Read 1 in
    Segment.get_u8 seg off

let load_u32 t addr =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when t.caching
         && e.te_page = Layout.page_down addr
         && addr + 4 <= e.te_hi
         && e.te_mask land 1 <> 0 ->
    (Stats.cur ()).tlb_hits <- (Stats.cur ()).tlb_hits + 1;
    Segment.get_u32 seg (addr + e.te_delta)
  | _ ->
    let seg, off = translate t addr Prot.Read 4 in
    Segment.get_u32 seg off

let store_u8 t addr v =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when t.caching
         && e.te_page = Layout.page_down addr
         && addr < e.te_hi
         && e.te_mask land 2 <> 0 ->
    (Stats.cur ()).tlb_hits <- (Stats.cur ()).tlb_hits + 1;
    Segment.set_u8 seg (addr + e.te_delta) v
  | _ ->
    let seg, off = translate t addr Prot.Write 1 in
    Segment.set_u8 seg off v

let store_u32 t addr v =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when t.caching
         && e.te_page = Layout.page_down addr
         && addr + 4 <= e.te_hi
         && e.te_mask land 2 <> 0 ->
    (Stats.cur ()).tlb_hits <- (Stats.cur ()).tlb_hits + 1;
    Segment.set_u32 seg (addr + e.te_delta) v
  | _ ->
    let seg, off = translate t addr Prot.Write 4 in
    Segment.set_u32 seg off v

let fetch t addr =
  let e = tlb_entry t addr in
  match e.te_seg with
  | Some seg
    when t.caching
         && e.te_page = Layout.page_down addr
         && addr + 4 <= e.te_hi
         && e.te_mask land 4 <> 0 ->
    (Stats.cur ()).tlb_hits <- (Stats.cur ()).tlb_hits + 1;
    Segment.get_u32 seg (addr + e.te_delta)
  | _ ->
    let seg, off = translate t addr Prot.Exec 4 in
    Segment.get_u32 seg off

(* --- Bulk fast paths ------------------------------------------------

   The byte-at-a-time loops translated every single byte.  These
   translate once per mapping run and blit within the segment.  The
   observable behaviour — partial effects before a fault, fault
   addresses, and the [Invalid_argument] raised when a run crosses the
   backing segment's [max_size] — matches the byte loops exactly: runs
   are clamped to segment capacity, and a zero-capacity run performs a
   single byte access to raise the identical exception. *)

(* Returns the usable run length at [addr] for [access] ([>= 1]), after
   the same bounds-then-protection checks a 1-byte [translate] does.

   Pager interaction: bulk spans self-serve their pager faults — the
   syscall layer never delivered per-page faults for these, and routing
   [Not_resident] out to the kernel here would restart the whole copy
   per page (or exhaust the bounded ISA retry fuel on spans longer than
   it).  The first page is materialised directly if needed; the run is
   then clamped to the resident prefix, so each following page is
   materialised by its own [bulk_run] call — a single forward pass even
   when the span exceeds the RAM budget and early pages are evicted
   while later ones fault in. *)
let bulk_run t addr access ~want =
  let seg, off, run, prot =
    try lookup t addr access
    with Fault { reason = Not_resident; _ } ->
      (match Interval_map.find addr t.table with
      | Some (lo, _, m) ->
        Vm_object.materialise m.obj
          (m.seg_off + (addr - lo))
          ~write:(access = Prot.Write)
      | None -> ());
      lookup t addr access
  in
  if not (Prot.allows prot access) then
    raise (Fault { addr; access; reason = Protection });
  let cap = Segment.max_size seg - off in
  if cap <= 0 then begin
    (* Out of backing capacity: raise the same [Invalid_argument] the
       equivalent single-byte access would. *)
    (match access with
    | Prot.Write -> Segment.set_u8 seg off 0
    | Prot.Read | Prot.Exec -> ignore (Segment.get_u8 seg off));
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
          Vm_object.touch m.obj (moff + k) ~write:(access = Prot.Write);
          resident_prefix (k + Layout.page_size)
        end
        else k
      in
      resident_prefix first
    | Some _ | None -> n
  in
  (seg, off, n)

let read_bytes t addr len =
  let out = Bytes.make len '\000' in
  let i = ref 0 in
  while !i < len do
    let seg, off, n = bulk_run t (addr + !i) Prot.Read ~want:(len - !i) in
    Segment.read_into seg ~src_off:off out ~dst_off:!i ~len:n;
    i := !i + n
  done;
  out

let write_bytes t addr b =
  let len = Bytes.length b in
  let i = ref 0 in
  while !i < len do
    let seg, off, n = bulk_run t (addr + !i) Prot.Write ~want:(len - !i) in
    Segment.write_from seg ~dst_off:off b ~src_off:!i ~len:n;
    i := !i + n
  done

let read_cstring t addr =
  let limit = 0x1_0000 in
  let buf = Buffer.create 32 in
  let chunk = Bytes.create 256 in
  let rec go i =
    if i >= limit then raise (Cstring_unterminated addr);
    let seg, off, n =
      bulk_run t (addr + i) Prot.Read ~want:(min 256 (limit - i))
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
  let cow = !Segment.cow_enabled in
  let child =
    {
      table = Interval_map.empty;
      tlb = fresh_tlb ();
      epoch = 0;
      caching = t.caching;
      uid = Atomic.fetch_and_add next_uid 1 + 1;
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
      if not cow then
        (Stats.cur ()).bytes_copied <- (Stats.cur ()).bytes_copied + Segment.size seg;
      (* A fresh segment gets a fresh object; the copy has no backing
         file of its own, so a pageable parent yields an [Anonymous]
         child (its pages fault in as minor faults — fork is itself
         demand-paged), while a pinned parent stays pinned. *)
      let kind =
        if Vm_object.is_pinned m.obj then Vm_object.Pinned else Vm_object.Anonymous
      in
      let obj = Vm_object.get_or_create seg kind in
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

(* Kernel-side resolution of a [Not_resident] fault: if [addr] lies in
   a pageable mapping, materialise the page (evicting under a full RAM
   budget) and let the caller retry the access.  Returns false when the
   fault cannot be a pager fault — unmapped, or a pinned object — so
   the caller falls through to COW/SIGSEGV handling. *)
let resolve_pager t addr access =
  match Interval_map.find addr t.table with
  | Some (lo, _, m) when Vm_object.pageable m.obj ->
    Vm_object.materialise m.obj (m.seg_off + (addr - lo)) ~write:(access = Prot.Write);
    true
  | Some _ | None -> false

(* Kernel-side resolution of a COW write fault: if [addr] lies in a COW
   mapping whose logical protection allows the write, clear the flag
   (restoring the original protection), bump the epoch so every cached
   translation and decode is refetched, and let the caller retry the
   access.  The retried store diverges pages at the segment layer —
   copying each written page at most once, and not at all when the
   write is identical to the shared bytes.  Returns false for genuine
   protection faults, which the caller must deliver as SIGSEGV. *)
let resolve_cow t addr =
  match Interval_map.find addr t.table with
  | Some (_, _, m) when m.cow && Prot.allows m.prot Prot.Write ->
    t.table <- Interval_map.update addr (fun m -> { m with cow = false }) t.table;
    invalidate t;
    (Stats.cur ()).cow_faults <- (Stats.cur ()).cow_faults + 1;
    true
  | Some _ | None -> false

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
