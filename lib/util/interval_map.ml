module M = Map.Make (Int)

(* Keyed by [lo]; the value carries [hi] (exclusive).  The non-overlap
   invariant is enforced by [add], so stabbing queries only need to look
   at the binding with the greatest [lo <= p]. *)
type 'a t = (int * 'a) M.t

let empty = M.empty

let is_empty = M.is_empty

let cardinal = M.cardinal

let pred_binding p t = M.find_last_opt (fun lo -> lo <= p) t

let find p t =
  match pred_binding p t with
  | Some (lo, (hi, v)) when p < hi -> Some (lo, hi, v)
  | Some _ | None -> None

let mem p t = Option.is_some (find p t)

let overlaps ~lo ~hi t =
  if lo >= hi then false
  else
    match pred_binding (hi - 1) t with
    | Some (_, (bhi, _)) when bhi > lo -> true
    | Some _ | None -> false

let add ~lo ~hi v t =
  if lo >= hi then invalid_arg "Interval_map.add: empty interval";
  if overlaps ~lo ~hi t then invalid_arg "Interval_map.add: overlap";
  M.add lo (hi, v) t

let remove p t =
  match find p t with
  | Some (lo, _, _) -> M.remove lo t
  | None -> t

let update p f t =
  match find p t with
  | Some (lo, hi, v) -> M.add lo (hi, f v) t
  | None -> raise Not_found

let iter f t = M.iter (fun lo (hi, v) -> f lo hi v) t

let fold f t init = M.fold (fun lo (hi, v) acc -> f lo hi v acc) t init

let to_list t = List.rev (fold (fun lo hi v acc -> (lo, hi, v) :: acc) t [])

(* Walks the underlying map in key order without materialising it as a
   list; [Found] short-circuits as soon as a gap fits before a binding. *)
exception Found of int

let first_gap ~lo ~hi ~size t =
  if size <= 0 then invalid_arg "Interval_map.first_gap: size <= 0";
  match
    M.fold
      (fun blo (bhi, _) base ->
        if bhi <= base then base
        else if base + size <= blo then raise (Found base)
        else max base bhi)
      t lo
  with
  | base -> if base + size <= hi then Some base else None
  | exception Found base -> Some base
