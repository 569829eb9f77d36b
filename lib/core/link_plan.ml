module Fs = Hemlock_sfs.Fs
module Stats = Hemlock_util.Stats
module Config = Hemlock_util.Config

(* ----- memoized link plans ------------------------------------------------

   A plan records the outcome of one resolution region (a module's link
   pass, or an image's pending-relocation sweep): the instantiations it
   performed, in order, and the symbol addresses it resolved.  Replay
   re-performs the instantiations through the ordinary path — so every
   simulated cost (file reads, mappings, lock protocol) recurs exactly —
   and feeds the recorded addresses to the same relocation engine,
   skipping only the scope walks. *)

type dep = {
  dep_located : string;
  dep_public : bool;
  dep_base : int;  (* verified on replay; a mismatch rejects the plan *)
  dep_src : int * int;  (* template (segment id, version) — also verified *)
  dep_depth : int;  (* parents above the region's scope; past the root rejects *)
}

type copy = Unsaved | Saved | Loaded

type plan = {
  plan_deps : dep list;
  plan_addrs : (string, int) Hashtbl.t;
  mutable plan_copy : copy;  (* what /shared/.stable holds of it *)
}

type store = {
  mutable st_gen : int;  (* FS generation the cached plans assume *)
  st_tbl : (string, plan) Hashtbl.t;
}

let create_store () = { st_gen = -1; st_tbl = Hashtbl.create 32 }

let validate store ~fs =
  let gen = Fs.generation fs in
  if gen <> store.st_gen then begin
    Hashtbl.reset store.st_tbl;
    store.st_gen <- gen
  end

let lookup store ~fs key =
  if not Config.current.plans then None
  else begin
    validate store ~fs;
    Hashtbl.find_opt store.st_tbl key
  end

let record store ~fs key plan =
  if Config.current.plans then begin
    validate store ~fs;
    Hashtbl.replace store.st_tbl key plan
  end

let remove store key = Hashtbl.remove store.st_tbl key

let entries store ~fs =
  if not Config.current.plans then []
  else begin
    validate store ~fs;
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) store.st_tbl [])
  end

let keep store ~fs = store.st_gen <- Fs.generation fs

let reset_store store =
  store.st_gen <- -1;
  Hashtbl.reset store.st_tbl

let hit () =
  let s = Stats.cur () in
  s.plan_hits <- s.plan_hits + 1

let miss () =
  let s = Stats.cur () in
  s.plan_misses <- s.plan_misses + 1
