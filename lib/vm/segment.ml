module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats

(* --- Page-chunked, refcounted storage --------------------------------

   Contents live in 4 KiB pages ([Layout.page_size]) behind per-page
   reference counts.  A slot of [None] is the zero page: never
   allocated, reads as zeroes.  [copy] in COW mode bumps every
   allocated page's refcount and shares it; the first {e diverging}
   write through either side copies just that page ([writable_page]).
   A write that stores exactly the bytes already present on a shared
   page is skipped outright — no copy, no version bump — so processes
   replaying identical initialisation (relocation patching of a module
   placed at the same base, an exec'd image writing its startup
   globals) keep sharing every byte.

   Refcounts are released when a page is dropped by [resize]/[replace].
   There is deliberately no release on process exit: tying refcounts to
   OCaml finalisation would make [pages_copied] depend on the host GC.
   The cost of the leak is bounded — an unreleased count only means a
   later write copies a page it could have reclaimed.

   Concurrency: a segment belongs to one kernel, and a kernel is
   touched by one domain at a time (see [Cluster.run]), so [version],
   [page_gen] and the page table are plain fields read and written by
   their owner only.  The id allocator is atomic because every domain
   allocates segments.  Refcounts are atomic because a page can outlive
   that ownership: the per-domain master-image memo shares pages with
   instances in several kernels, and a later run at another domain
   count can put those kernels on different domains. *)

type page = { pbytes : Bytes.t; prc : int Atomic.t }

type t = {
  id : int;
  name : string;
  max_size : int;
  mutable pages : page option array;
  mutable size : int;
  mutable version : int; (* bumped by every content write; see [version] *)
  mutable page_gen : int;
      (* bumped whenever a slot of [pages] changes identity (COW break,
         zero-fill allocation, drop, replace) — never by in-place byte
         writes; see [page_gen]/[page_view] *)
}

(* HEMLOCK_NO_COW restores eager deep copies (and, with them, the
   seed's exact billing of fork into [bytes_copied]) for A/B in CI. *)
let cow_enabled = ref (Sys.getenv_opt "HEMLOCK_NO_COW" = None)

let next_id = Atomic.make 0

let npages max_size = (max_size + Layout.page_size - 1) lsr Layout.page_shift

let create ~name ~max_size () =
  if max_size <= 0 then invalid_arg "Segment.create: max_size <= 0";
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    name;
    max_size;
    pages = Array.make (npages max_size) None;
    size = 0;
    version = 0;
    page_gen = 0;
  }

let id t = t.id
let name t = t.name
let max_size t = t.max_size
let size t = t.size
let version t = t.version
let page_gen t = t.page_gen

let page_view t off =
  if off < 0 || off >= t.max_size then None
  else
    match t.pages.(off lsr Layout.page_shift) with
    | Some p -> Some (p.pbytes, t.page_gen)
    | None -> None

(* Like [page_view], but only for pages that are exclusively owned
   (refcount 1), so the caller may write through the bytes directly.
   Soundness rests on [page_gen] being bumped by everything that could
   turn the view stale: page identity changes, [copy] sharing the pages
   out, and [resize] shrinking the logical size. *)
let owned_page_view t off =
  if off < 0 || off >= t.max_size then None
  else
    match t.pages.(off lsr Layout.page_shift) with
    | Some p when Atomic.get p.prc = 1 -> Some (p.pbytes, t.page_gen)
    | Some _ | None -> None

let bump_version t = t.version <- t.version + 1

let allocated_pages t =
  Array.fold_left (fun n p -> if p = None then n else n + 1) 0 t.pages

let shared_pages t =
  Array.fold_left
    (fun n -> function Some p when Atomic.get p.prc > 1 -> n + 1 | Some _ | None -> n)
    0 t.pages

let check_off t off len =
  if off < 0 || off + len > t.max_size then
    invalid_arg
      (Printf.sprintf "Segment %s: offset %d+%d out of bounds (max %d)" t.name off
         len t.max_size)

let page_index off = off lsr Layout.page_shift
let page_off off = off land (Layout.page_size - 1)

let alloc_page () = { pbytes = Bytes.make Layout.page_size '\000'; prc = Atomic.make 1 }

(* The page containing [off], made safe to mutate: a zero page is
   allocated, a shared page is copied (the COW break — the only place a
   page is ever physically duplicated). *)
let writable_page t off =
  let i = page_index off in
  match Array.unsafe_get t.pages i with
  | Some p when Atomic.get p.prc = 1 -> p
  | Some p ->
    Atomic.decr p.prc;
    let q = { pbytes = Bytes.copy p.pbytes; prc = Atomic.make 1 } in
    (Stats.cur ()).pages_copied <- (Stats.cur ()).pages_copied + 1;
    Array.unsafe_set t.pages i (Some q);
    t.page_gen <- t.page_gen + 1;
    q
  | None ->
    let q = alloc_page () in
    Array.unsafe_set t.pages i (Some q);
    t.page_gen <- t.page_gen + 1;
    q

let drop_page t i =
  match t.pages.(i) with
  | None -> ()
  | Some p ->
    Atomic.decr p.prc;
    t.pages.(i) <- None;
    t.page_gen <- t.page_gen + 1

let resize t n =
  if n < 0 || n > t.max_size then invalid_arg "Segment.resize: bad size";
  if n < t.size then begin
    (* Clear the dropped suffix so re-growth reads zeroes: whole pages
       beyond [n] are released, the boundary page's tail is zeroed. *)
    for i = page_index (n + Layout.page_size - 1) to Array.length t.pages - 1 do
      drop_page t i
    done;
    if page_off n <> 0 then begin
      match t.pages.(page_index n) with
      | None -> ()
      | Some _ ->
        let p = writable_page t n in
        Bytes.fill p.pbytes (page_off n) (Layout.page_size - page_off n) '\000'
    end
  end;
  t.size <- n;
  t.version <- t.version + 1;
  (* Invalidate raw page views: a shrink lowers the write limit an
     [owned_page_view] holder derived from [size]. *)
  t.page_gen <- t.page_gen + 1

let get_u8 t off =
  check_off t off 1;
  match Array.unsafe_get t.pages (page_index off) with
  | None -> 0
  | Some p -> Codec.get_u8 p.pbytes (page_off off)

let set_u8 t off v =
  check_off t off 1;
  (match Array.unsafe_get t.pages (page_index off) with
  | Some p when Atomic.get p.prc = 1 ->
    (* Exclusively owned page: write in place, no COW machinery. *)
    Codec.set_u8 p.pbytes (page_off off) v;
    t.version <- t.version + 1
  | Some p when off < t.size && Codec.get_u8 p.pbytes (page_off off) = v land 0xFF
    ->
    (* Identical write to a shared page: keep sharing it. *)
    ()
  | _ ->
    let p = writable_page t off in
    Codec.set_u8 p.pbytes (page_off off) v;
    t.version <- t.version + 1);
  if off + 1 > t.size then t.size <- off + 1

let get_u32 t off =
  check_off t off 4;
  if page_off off <= Layout.page_size - 4 then
    match Array.unsafe_get t.pages (page_index off) with
    | None -> 0
    | Some p -> Codec.get_u32 p.pbytes (page_off off)
  else
    get_u8 t off
    lor (get_u8 t (off + 1) lsl 8)
    lor (get_u8 t (off + 2) lsl 16)
    lor (get_u8 t (off + 3) lsl 24)

let set_u32 t off v =
  check_off t off 4;
  if page_off off <= Layout.page_size - 4 then begin
    (match Array.unsafe_get t.pages (page_index off) with
    | Some p when Atomic.get p.prc = 1 ->
      Codec.set_u32 p.pbytes (page_off off) v;
      t.version <- t.version + 1
    | Some p
      when off + 4 <= t.size
           && Codec.get_u32 p.pbytes (page_off off) = Codec.mask32 v -> ()
    | _ ->
      let p = writable_page t off in
      Codec.set_u32 p.pbytes (page_off off) v;
      t.version <- t.version + 1);
    if off + 4 > t.size then t.size <- off + 4
  end
  else
    for k = 0 to 3 do
      set_u8 t (off + k) ((v lsr (8 * k)) land 0xFF)
    done

let sub_equal a ao b bo n =
  let rec go i =
    i >= n || (Bytes.unsafe_get a (ao + i) = Bytes.unsafe_get b (bo + i) && go (i + 1))
  in
  go 0

let write_from t ~dst_off src ~src_off ~len =
  if len > 0 then begin
    check_off t dst_off len;
    let i = ref 0 in
    while !i < len do
      let off = dst_off + !i in
      let po = page_off off in
      let n = min (len - !i) (Layout.page_size - po) in
      (match Array.unsafe_get t.pages (page_index off) with
      | Some p
        when Atomic.get p.prc > 1
             && off + n <= t.size
             && sub_equal p.pbytes po src (src_off + !i) n -> ()
      | _ ->
        let p = writable_page t off in
        Bytes.blit src (src_off + !i) p.pbytes po n;
        t.version <- t.version + 1);
      i := !i + n
    done;
    if dst_off + len > t.size then t.size <- dst_off + len
  end

let blit_in t ~dst_off src = write_from t ~dst_off src ~src_off:0 ~len:(Bytes.length src)

let read_into t ~src_off dst ~dst_off ~len =
  if len > 0 then begin
    check_off t src_off len;
    let i = ref 0 in
    while !i < len do
      let off = src_off + !i in
      let po = page_off off in
      let n = min (len - !i) (Layout.page_size - po) in
      (match Array.unsafe_get t.pages (page_index off) with
      | None -> Bytes.fill dst (dst_off + !i) n '\000'
      | Some p -> Bytes.blit p.pbytes po dst (dst_off + !i) n);
      i := !i + n
    done
  end

let blit_out t ~src_off ~len =
  let out = Bytes.make len '\000' in
  read_into t ~src_off out ~dst_off:0 ~len;
  out

let replace t b =
  let len = Bytes.length b in
  if len > t.max_size then invalid_arg "Segment.replace: larger than max_size";
  for i = 0 to Array.length t.pages - 1 do
    drop_page t i
  done;
  let i = ref 0 in
  while !i < len do
    let n = min (len - !i) Layout.page_size in
    let p = alloc_page () in
    Bytes.blit b !i p.pbytes 0 n;
    t.pages.(page_index !i) <- Some p;
    i := !i + n
  done;
  t.size <- len;
  t.version <- t.version + 1;
  t.page_gen <- t.page_gen + 1

(* Explicit-teardown refcount release.  [drop_page] decrements each
   shared page's count, so a surviving sharer whose count returns to 1
   writes in place again instead of COW-copying.  This is only called
   from deterministic teardown paths (the linker unwinding a private
   instance it just mapped, [replace]) — never from process exit or a
   finaliser, which would make [pages_copied] depend on the host GC. *)
let release t =
  for i = 0 to Array.length t.pages - 1 do
    drop_page t i
  done;
  t.size <- 0;
  t.version <- t.version + 1

let contents t = blit_out t ~src_off:0 ~len:t.size

let copy t =
  let id = Atomic.fetch_and_add next_id 1 + 1 in
  if !cow_enabled then begin
    (* O(pages): bump each allocated page's refcount and share it.  The
       saving is what an eager copy would have moved.  The source's
       pages just went from owned to shared with unchanged identity, so
       its [page_gen] must move to retire any [owned_page_view]. *)
    Array.iter (function Some p -> Atomic.incr p.prc | None -> ()) t.pages;
    (Stats.cur ()).bytes_saved <- (Stats.cur ()).bytes_saved + t.size;
    t.page_gen <- t.page_gen + 1;
    { t with id; pages = Array.copy t.pages }
  end
  else
    {
      t with
      id;
      pages =
        Array.map
          (Option.map (fun p -> { pbytes = Bytes.copy p.pbytes; prc = Atomic.make 1 }))
          t.pages;
    }

let pp ppf t = Format.fprintf ppf "segment#%d(%s, %d/%d bytes)" t.id t.name t.size t.max_size
