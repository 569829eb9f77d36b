module Stats = Hemlock_util.Stats
module Config = Hemlock_util.Config
module Fault = Hemlock_util.Fault

(* --- VmObjects: residency and backing identity ------------------------

   A VmObject sits between a mapping and its [Segment]: the segment is
   the page {e store} (contents, refcounts, COW breaks), the object owns
   the pager state — which pages are resident, referenced and dirty,
   and what kind of backing materialises them.  All mappings of one
   segment share one object (page-cache semantics: a page faulted in
   through any space is resident for every space), so the registry is
   keyed by segment id.

   Residency is pure accounting.  Eviction never discards contents —
   the segment keeps them, standing in for the backing store — it
   clears the residency bit, pushes a dirty file-backed page through
   the owning file system's journalled writeback barrier, and bumps the
   epoch of every attached address space so TLBs and compiled traces
   refetch through the slow path (which is where the next touch
   faults).  A missed residency check can therefore skew the
   observability counters but can never corrupt data. *)

type kind =
  | Anonymous  (** no backing identity: stacks, heaps, private images *)
  | Pinned  (** always resident; never faults, never evicted *)
  | File_backed of { path : string; writeback : page:int -> unit }
      (** backed by a shared-partition file; [writeback] is the owning
          file system's journalled durability barrier for one page *)

type t = {
  obj_seg : Segment.t;
  mutable obj_kind : kind;
  pager : pager;  (* the pager whose registry holds this object *)
  resident : Bytes.t;  (* 1 bit per page of the segment's max_size *)
  refbit : Bytes.t;  (* clock reference bits *)
  dirty : Bytes.t;  (* written since materialise/last writeback *)
  spaces : (int, int ref * (unit -> unit)) Hashtbl.t;
      (* attached address spaces: uid -> (mapping count, epoch bump) *)
  mutable frames : int;  (* resident pageable pages of this object *)
}

(* One machine's page cache: the objects of the segments its address
   spaces map, keyed by segment id, and a fixed circular frame table
   (one slot per page of simulated RAM) with a second-chance hand.  An
   empty table is unbounded RAM: pages stay resident forever.  The
   kernel owns its pager, so its frames, its budget and its clock are
   the same whichever domain runs it. *)
and pager = {
  registry : (int, t) Hashtbl.t;
  table : (t * int) option array;
  mutable used : int;
  mutable hand : int;
}

(* Simulated-RAM budget in pages ([None] = unbounded).  The clamp keeps
   the clock from thrashing the handful of pages a single instruction
   needs live (fetch page + up to two data pages + retry slack). *)
let min_ram_pages = 8
let ram_pages = ref Config.env.ram_pages

let create_pager () =
  let n = match !ram_pages with Some n -> max min_ram_pages n | None -> 0 in
  { registry = Hashtbl.create 64; table = Array.make n None; used = 0; hand = 0 }

(* --- bitmaps --------------------------------------------------------- *)

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_clear b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.chr (Char.code (Bytes.unsafe_get b (i lsr 3)) land lnot (1 lsl (i land 7))))

let npages seg = (Segment.max_size seg + Layout.page_size - 1) lsr Layout.page_shift

(* --- the clock ------------------------------------------------------- *)

(* The resident gauge and its peak are the calling domain's [Stats]
   fields, counted like the fault counters beside them. *)
let gauge delta =
  let c = Stats.cur () in
  c.resident_pages <- c.resident_pages + delta;
  if c.resident_pages > c.peak_resident_pages then c.peak_resident_pages <- c.resident_pages

let peak_resident () = (Stats.cur ()).peak_resident_pages

let reset () =
  let c = Stats.cur () in
  c.resident_pages <- 0;
  c.peak_resident_pages <- 0

let is_pinned t =
  match t.obj_kind with Pinned -> true | Anonymous | File_backed _ -> false

let pageable t = Config.current.pager && not (is_pinned t)

let resident t off =
  (not (pageable t))
  ||
  let i = off lsr Layout.page_shift in
  i lsr 3 >= Bytes.length t.resident || bit_get t.resident i

let touch t off ~write =
  if pageable t then begin
    let i = off lsr Layout.page_shift in
    if i lsr 3 < Bytes.length t.resident then begin
      bit_set t.refbit i;
      if write then bit_set t.dirty i
    end
  end

(* Reclaim the frame in [slot].  A dirty file-backed page first goes
   through the journalled writeback barrier; a transient injected
   failure there aborts the eviction (the page simply stays resident
   and the hand moves on), while a [Fault.Crash] propagates — the
   machine stopped mid-writeback, and the journal entry is the
   evidence fsck recovers from. *)
let try_evict p slot =
  match p.table.(slot) with
  | None -> true
  | Some (o, pg) -> (
    let write_back () =
      if bit_get o.dirty pg then
        match o.obj_kind with
        | File_backed { writeback; _ } ->
          writeback ~page:pg;
          let s = Stats.cur () in
          s.pages_written_back <- s.pages_written_back + 1
        | Anonymous | Pinned -> ()
    in
    match write_back () with
    | () ->
      bit_clear o.dirty pg;
      bit_clear o.refbit pg;
      bit_clear o.resident pg;
      o.frames <- o.frames - 1;
      p.table.(slot) <- None;
      p.used <- p.used - 1;
      let s = Stats.cur () in
      s.pages_evicted <- s.pages_evicted + 1;
      gauge (-1);
      Hashtbl.iter (fun _ (_, invalidate) -> invalidate ()) o.spaces;
      true
    | exception Fault.Injected _ -> false)

let place_frame t i =
  let p = t.pager in
  let n = Array.length p.table in
  if n > 0 then
    if p.used >= n then begin
      (* second chance: clear reference bits until an unreferenced,
         evictable victim turns up; two full sweeps with no victim
         means everything is both hot and unevictable, and the table
         briefly overcommits rather than deadlocks *)
      let victim = ref None in
      let steps = ref 0 in
      while !victim = None && !steps < 2 * n do
        (match p.table.(p.hand) with
        | None -> victim := Some p.hand
        | Some (o, pg) ->
          if bit_get o.refbit pg then bit_clear o.refbit pg
          else if try_evict p p.hand then victim := Some p.hand);
        if !victim = None then p.hand <- (p.hand + 1) mod n;
        incr steps
      done;
      match !victim with
      | Some slot ->
        p.table.(slot) <- Some (t, i);
        p.used <- p.used + 1;
        p.hand <- (slot + 1) mod n
      | None -> ()
    end
    else begin
      (* free slot: first fit from the hand, wrapping *)
      let slot = ref p.hand in
      while p.table.(!slot) <> None do
        slot := (!slot + 1) mod n
      done;
      p.table.(!slot) <- Some (t, i);
      p.used <- p.used + 1
    end

let materialise t off ~write =
  if pageable t then begin
    let i = off lsr Layout.page_shift in
    if i lsr 3 < Bytes.length t.resident then
      if bit_get t.resident i then touch t off ~write
      else begin
        (* Major = the backing file already holds content for this page
           (a simulated device read); minor = zero-fill or an in-memory
           anonymous page.  Neither is billed: like COW faults they are
           kernel-internal, consume no fuel and never reach [faults]. *)
        let s = Stats.cur () in
        (match t.obj_kind with
        | File_backed _ when Segment.page_view t.obj_seg (i lsl Layout.page_shift) <> None
          ->
          s.major_faults <- s.major_faults + 1
        | _ -> s.minor_faults <- s.minor_faults + 1);
        bit_set t.resident i;
        bit_set t.refbit i;
        if write then bit_set t.dirty i;
        t.frames <- t.frames + 1;
        gauge 1;
        place_frame t i
      end
  end

(* Take [t]'s frames off the clock without counting them as evictions.
   Every table slot holding [t] is counted in [t.frames], so an object
   with no frames skips the scan. *)
let drop_frames t =
  if t.frames > 0 then begin
    let p = t.pager in
    Array.iteri
      (fun slot -> function
        | Some (o, _) when o == t ->
          p.table.(slot) <- None;
          p.used <- p.used - 1
        | Some _ | None -> ())
      p.table;
    gauge (-t.frames);
    t.frames <- 0
  end

(* Pin an object in place: raw mappers (tests, examples, libraries that
   access segments without a kernel to resolve faults) must see the
   seed's eager behaviour even when the segment was first mapped
   pageable.  Its frames leave the clock without being counted as
   evictions. *)
let pin t =
  if not (is_pinned t) then begin
    t.obj_kind <- Pinned;
    drop_frames t
  end

(* --- registry -------------------------------------------------------- *)

(* An object lives as long as some address space may map its segment:
   [forget] removes it when the owner releases a private segment for
   good ([Address_space.release]: reap, exec replacing an image, the
   linker unwinding an instantiation), never from a finaliser, so no
   counter depends on the host GC.  Objects of public segments (file
   pages, which any later process may map) stay. *)

let get_or_create pager seg kind =
  match Hashtbl.find_opt pager.registry (Segment.id seg) with
  | Some t ->
    (match kind with Pinned -> pin t | Anonymous | File_backed _ -> ());
    t
  | None ->
    let bytes = (npages seg + 7) lsr 3 in
    let t =
      {
        obj_seg = seg;
        obj_kind = kind;
        pager;
        resident = Bytes.make bytes '\000';
        refbit = Bytes.make bytes '\000';
        dirty = Bytes.make bytes '\000';
        spaces = Hashtbl.create 4;
        frames = 0;
      }
    in
    Hashtbl.replace pager.registry (Segment.id seg) t;
    t

let forget pager seg =
  match Hashtbl.find_opt pager.registry (Segment.id seg) with
  | None -> ()
  | Some t ->
    drop_frames t;
    Bytes.fill t.resident 0 (Bytes.length t.resident) '\000';
    Hashtbl.remove pager.registry (Segment.id seg)

let attach t ~uid invalidate =
  match Hashtbl.find_opt t.spaces uid with
  | Some (n, _) -> incr n
  | None -> Hashtbl.replace t.spaces uid (ref 1, invalidate)

let detach t ~uid =
  match Hashtbl.find_opt t.spaces uid with
  | Some (n, _) ->
    decr n;
    if !n <= 0 then Hashtbl.remove t.spaces uid
  | None -> ()
