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
  resident : Bytes.t;  (* 1 bit per page of the segment's max_size *)
  refbit : Bytes.t;  (* clock reference bits *)
  dirty : Bytes.t;  (* written since materialise/last writeback *)
  spaces : (int, int ref * (unit -> unit)) Hashtbl.t;
      (* attached address spaces: uid -> (mapping count, epoch bump) *)
  mutable frames : int;  (* resident pageable pages of this object *)
}

(* Simulated-RAM budget in pages ([None] = unbounded).  The clamp keeps
   the clock from thrashing the handful of pages a single instruction
   needs live (fetch page + up to two data pages + retry slack). *)
let min_ram_pages = 8
let ram_pages = ref Config.env.ram_pages

let budget () = Option.map (max min_ram_pages) !ram_pages

(* --- bitmaps --------------------------------------------------------- *)

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_clear b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.chr (Char.code (Bytes.unsafe_get b (i lsr 3)) land lnot (1 lsl (i land 7))))

let npages seg = (Segment.max_size seg + Layout.page_size - 1) lsr Layout.page_shift

(* --- registry -------------------------------------------------------- *)

(* An object lives as long as some address space may map its segment:
   [forget] removes it when the owner releases a private segment for
   good ([Address_space.release]: reap, exec replacing an image, the
   linker unwinding an instantiation), never from a finaliser, so no
   counter depends on the host GC.  Objects of public segments (file
   pages, which any later process may map) stay.

   The registry and the clock below are {e per-domain} (a DLS-keyed
   record): each domain owns an independent page cache and
   second-chance hand, the simulator's analogue of per-CPU page-frame
   pools.  Residency is pure accounting (eviction never discards
   contents), so domains disagreeing about which pages are "in RAM" can
   skew observability counters but never data.  The main domain's
   instance is the instance the seed had, so single-domain runs are
   bit-for-bit unchanged. *)
type state = {
  registry : (int, t) Hashtbl.t;
  (* Fixed circular frame table (one slot per page of simulated RAM)
     with a second-chance hand, lazily sized from [budget ()].
     Unbounded mode keeps no table: pages stay resident forever. *)
  mutable table : (t * int) option array;
  mutable used : int;
  mutable hand : int;
  mutable peak : int;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { registry = Hashtbl.create 64; table = [||]; used = 0; hand = 0; peak = 0 })

let st () = Domain.DLS.get state_key

(* --- the clock ------------------------------------------------------- *)

let gauge delta =
  let s = st () and c = Stats.cur () in
  c.resident_pages <- c.resident_pages + delta;
  if c.resident_pages > s.peak then s.peak <- c.resident_pages

let peak_resident () = (st ()).peak

let reset () =
  let s = st () in
  Hashtbl.reset s.registry;
  s.table <- [||];
  s.used <- 0;
  s.hand <- 0;
  s.peak <- 0;
  (Stats.cur ()).resident_pages <- 0

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
let try_evict slot =
  let s = st () in
  match s.table.(slot) with
  | None -> true
  | Some (o, p) -> (
    let write_back () =
      if bit_get o.dirty p then
        match o.obj_kind with
        | File_backed { writeback; _ } ->
          writeback ~page:p;
          (Stats.cur ()).pages_written_back <- (Stats.cur ()).pages_written_back + 1
        | Anonymous | Pinned -> ()
    in
    match write_back () with
    | () ->
      bit_clear o.dirty p;
      bit_clear o.refbit p;
      bit_clear o.resident p;
      o.frames <- o.frames - 1;
      s.table.(slot) <- None;
      s.used <- s.used - 1;
      (Stats.cur ()).pages_evicted <- (Stats.cur ()).pages_evicted + 1;
      gauge (-1);
      Hashtbl.iter (fun _ (_, invalidate) -> invalidate ()) o.spaces;
      true
    | exception Fault.Injected _ -> false)

let place_frame t i =
  match budget () with
  | None -> ()
  | Some n ->
    let s = st () in
    if Array.length s.table <> n then begin
      (* budget changed since the last placement: start a fresh clock
         (callers change [ram_pages] only around [reset ()]) *)
      s.table <- Array.make n None;
      s.used <- 0;
      s.hand <- 0
    end;
    if s.used >= n then begin
      (* second chance: clear reference bits until an unreferenced,
         evictable victim turns up; two full sweeps with no victim
         means everything is both hot and unevictable, and the table
         briefly overcommits rather than deadlocks *)
      let victim = ref None in
      let steps = ref 0 in
      while !victim = None && !steps < 2 * n do
        (match s.table.(s.hand) with
        | None -> victim := Some s.hand
        | Some (o, p) ->
          if bit_get o.refbit p then bit_clear o.refbit p
          else if try_evict s.hand then victim := Some s.hand);
        if !victim = None then s.hand <- (s.hand + 1) mod n;
        incr steps
      done;
      match !victim with
      | Some slot ->
        s.table.(slot) <- Some (t, i);
        s.used <- s.used + 1;
        s.hand <- (slot + 1) mod n
      | None -> ()
    end
    else begin
      (* free slot: first fit from the hand, wrapping *)
      let slot = ref s.hand in
      while s.table.(!slot) <> None do
        slot := (!slot + 1) mod n
      done;
      s.table.(!slot) <- Some (t, i);
      s.used <- s.used + 1
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
        (match t.obj_kind with
        | File_backed _ when Segment.page_view t.obj_seg (i lsl Layout.page_shift) <> None
          ->
          (Stats.cur ()).major_faults <- (Stats.cur ()).major_faults + 1
        | _ -> (Stats.cur ()).minor_faults <- (Stats.cur ()).minor_faults + 1);
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
    let s = st () in
    Array.iteri
      (fun slot -> function
        | Some (o, _) when o == t ->
          s.table.(slot) <- None;
          s.used <- s.used - 1
        | Some _ | None -> ())
      s.table;
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

let get_or_create seg kind =
  match Hashtbl.find_opt (st ()).registry (Segment.id seg) with
  | Some t ->
    (match kind with Pinned -> pin t | Anonymous | File_backed _ -> ());
    t
  | None ->
    let bytes = (npages seg + 7) lsr 3 in
    let t =
      {
        obj_seg = seg;
        obj_kind = kind;
        resident = Bytes.make bytes '\000';
        refbit = Bytes.make bytes '\000';
        dirty = Bytes.make bytes '\000';
        spaces = Hashtbl.create 4;
        frames = 0;
      }
    in
    Hashtbl.replace (st ()).registry (Segment.id seg) t;
    t

let forget seg =
  let s = st () in
  match Hashtbl.find_opt s.registry (Segment.id seg) with
  | None -> ()
  | Some t ->
    drop_frames t;
    Bytes.fill t.resident 0 (Bytes.length t.resident) '\000';
    Hashtbl.remove s.registry (Segment.id seg)

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
