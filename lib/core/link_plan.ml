module Fs = Hemlock_sfs.Fs
module Segment = Hemlock_vm.Segment
module Objfile = Hemlock_obj.Objfile
module Stats = Hemlock_util.Stats
module Config = Hemlock_util.Config

(* ----- parse caches -------------------------------------------------------

   Templates and load images are re-read on every instantiation/exec;
   the simulated machine pays for the read ([Fs.read_file] bumps
   bytes_copied/files_opened either way), but decoding the bytes into an
   OCaml structure is host work, memoizable against the backing
   segment's (id, version): [Segment.id] is process-unique so caches are
   safe across kernels, and [Segment.version] advances on every content
   write, so a rewritten file can never serve a stale decode. *)

(* per-domain decode caches: memoisation only *)
let obj_cache_key : (int * int, Objfile.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let parse_obj ~seg bytes =
  if not Config.current.plans then Objfile.parse bytes
  else begin
    let key = (Segment.id seg, Segment.version seg) in
    let obj_cache = Domain.DLS.get obj_cache_key in
    match Hashtbl.find_opt obj_cache key with
    | Some obj -> obj
    | None ->
      if Hashtbl.length obj_cache > 1024 then Hashtbl.reset obj_cache;
      let obj = Objfile.parse bytes in
      Hashtbl.replace obj_cache key obj;
      obj
  end

let aout_cache_key : (int * int, Aout.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

(* Reboot clears only the template decode memo: nothing persists a
   decoded template, so a boot's first exec decodes each template from
   its file again.  The image (HEXE) memo is keyed by the content
   identity of a file that itself survives the reboot, so it stays. *)
let clear_obj_cache () = Hashtbl.reset (Domain.DLS.get obj_cache_key)

let parse_aout ~seg bytes =
  if not Config.current.plans then Aout.parse bytes
  else begin
    let key = (Segment.id seg, Segment.version seg) in
    let aout_cache = Domain.DLS.get aout_cache_key in
    match Hashtbl.find_opt aout_cache key with
    | Some aout -> aout
    | None ->
      if Hashtbl.length aout_cache > 256 then Hashtbl.reset aout_cache;
      let aout = Aout.parse bytes in
      Hashtbl.replace aout_cache key aout;
      aout
  end

(* ----- memoized link plans ------------------------------------------------

   A plan records the outcome of one resolution region (a module's link
   pass, or an image's pending-relocation sweep): the instantiations it
   performed, in order, and the symbol addresses it resolved.  Replay
   re-performs the instantiations through the ordinary path — so every
   simulated cost (file reads, mappings, lock protocol) recurs exactly —
   and feeds the recorded addresses to the same relocation engine,
   skipping only the scope walks.  Plans are parametric in the scope
   type so this module stays below [Modinst] in the dependency order. *)

type 'scope dep = {
  dep_located : string;
  dep_public : bool;
  dep_base : int;  (* verified on replay; a mismatch rejects the plan *)
  dep_src : int * int;  (* template (segment id, version) — also verified *)
  dep_parent : 'scope;
}

type copy = Unsaved | Saved | Loaded

type 'scope plan = {
  plan_deps : 'scope dep list;
  plan_addrs : (string, int) Hashtbl.t;
  mutable plan_copy : copy;  (* what /shared/.stable holds of it *)
}

type 'scope store = {
  mutable st_gen : int;  (* FS generation the cached plans assume *)
  st_tbl : (string, 'scope plan) Hashtbl.t;
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

let hit () = (Stats.cur ()).plan_hits <- (Stats.cur ()).plan_hits + 1

let miss () = (Stats.cur ()).plan_misses <- (Stats.cur ()).plan_misses + 1
