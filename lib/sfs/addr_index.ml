type backend = Linear | Btree_index

type entry = { e_base : int; e_bytes : int; e_path : string }

type repr =
  | Lin of entry list ref (* unordered, scanned in full: the prototype *)
  | Bt of entry Btree.t

type t = {
  mutable repr : repr;
  mutable probes : int;
  mutable count : int;
}

let create backend =
  let repr =
    match backend with
    | Linear -> Lin (ref [])
    | Btree_index -> Bt (Btree.create ())
  in
  { repr; probes = 0; count = 0 }

let size t = t.count

let overlaps a b = a.e_base < b.e_base + b.e_bytes && b.e_base < a.e_base + a.e_bytes

let register t ~base ~bytes path =
  if bytes <= 0 then invalid_arg "Addr_index.register: empty segment";
  let entry = { e_base = base; e_bytes = bytes; e_path = path } in
  (match t.repr with
  | Lin entries ->
    if List.exists (overlaps entry) !entries then
      invalid_arg "Addr_index.register: overlap";
    entries := entry :: !entries
  | Bt bt ->
    (* neighbours on either side are the only overlap candidates *)
    (match Btree.find_leq bt (base + bytes - 1) with
    | Some (_, other) when overlaps entry other -> invalid_arg "Addr_index.register: overlap"
    | _ -> ());
    Btree.insert bt base entry);
  t.count <- t.count + 1

let unregister t ~base =
  let removed =
    match t.repr with
    | Lin entries ->
      let before = List.length !entries in
      entries := List.filter (fun e -> e.e_base <> base) !entries;
      List.length !entries < before
    | Bt bt -> Btree.remove bt base
  in
  if removed then t.count <- t.count - 1;
  removed

let translate t addr =
  match t.repr with
  | Lin entries ->
    (* The prototype's approach: walk the whole table. *)
    let rec scan = function
      | [] -> None
      | e :: rest ->
        t.probes <- t.probes + 1;
        if addr >= e.e_base && addr < e.e_base + e.e_bytes then
          Some (e.e_path, addr - e.e_base)
        else scan rest
    in
    scan !entries
  | Bt bt -> (
    (* O(log n): predecessor search, ~log2(n)/log2(2t) node probes. *)
    t.probes <- t.probes + max 1 (int_of_float (ceil (log (float_of_int (max 2 t.count)) /. log 7.)));
    match Btree.find_leq bt addr with
    | Some (_, e) when addr < e.e_base + e.e_bytes -> Some (e.e_path, addr - e.e_base)
    | Some _ | None -> None)

let to_list t =
  let entries =
    match t.repr with
    | Lin entries -> !entries
    | Bt bt -> List.map snd (Btree.to_list bt)
  in
  List.sort compare
    (List.map (fun e -> (e.e_base, e.e_bytes, e.e_path)) entries)

let clear t =
  (match t.repr with
  | Lin entries -> entries := []
  | Bt _ -> t.repr <- Bt (Btree.create ()));
  t.count <- 0

let probes t = t.probes

let reset_probes t = t.probes <- 0
