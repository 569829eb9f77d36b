module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path

type ctx = {
  fs : Fs.t;
  cwd : Path.t;
  env : (string * string) list;
}

let default_dirs = [ "/usr/lib"; "/shared/lib" ]

let cache_enabled = ref (Sys.getenv_opt "HEMLOCK_NO_SYMHASH" = None)

(* Splitting is a pure function of the raw string, so parse each
   distinct LD_LIBRARY_PATH value once per process lifetime. *)
(* per-domain: memoisation only, safe to rebuild per domain *)
let llp_memo_key : (string, string list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let split_llp v = List.filter (fun d -> d <> "") (String.split_on_char ':' v)

let ld_library_path env =
  match List.assoc_opt "LD_LIBRARY_PATH" env with
  | None | Some "" -> []
  | Some v ->
    if not !cache_enabled then split_llp v
    else (
      let llp_memo = Domain.DLS.get llp_memo_key in
      match Hashtbl.find_opt llp_memo v with
      | Some dirs -> dirs
      | None ->
        if Hashtbl.length llp_memo > 256 then Hashtbl.reset llp_memo;
        let dirs = split_llp v in
        Hashtbl.add llp_memo v dirs;
        dirs)

let static_dirs ctx ~cli_dirs =
  (Path.to_string ctx.cwd :: cli_dirs) @ ld_library_path ctx.env @ default_dirs

let runtime_dirs ctx ~recorded = ld_library_path ctx.env @ recorded

let has_slash name = String.contains name '/'

(* Path-resolution cache.  [locate] is a pure function of the FS
   namespace, the cwd, the directory list and the name: nothing in it
   touches the cost counters, so serving a memoized answer (including a
   negative one) is invisible to the simulated machine.  Entries are
   validated against the owning FS's mutation generation — any
   write/create/rename anywhere invalidates conservatively. *)
(* per-domain: memoisation only, safe to rebuild per domain *)
let locate_cache_key :
    (int * string * string * string, int * string option) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let clear_locate_cache () =
  Hashtbl.reset (Domain.DLS.get locate_cache_key);
  Hashtbl.reset (Domain.DLS.get llp_memo_key)

let locate_uncached ctx ~dirs name =
  let exists_file p =
    Fs.exists ctx.fs ~cwd:ctx.cwd p
    &&
    match (Fs.stat ctx.fs ~cwd:ctx.cwd p).Fs.st_kind with
    | Fs.Regular -> true
    | Fs.Directory | Fs.Symlink -> false
  in
  if has_slash name then
    if exists_file name then Some (Path.to_string (Path.of_string ~cwd:ctx.cwd name))
    else None
  else
    let try_dir dir =
      let candidate = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
      if exists_file candidate then
        (* Return the lexical location (symlinks not chased): public
           modules are created next to the template *as found*. *)
        Some (Path.to_string (Path.of_string ~cwd:ctx.cwd candidate))
      else None
    in
    List.find_map try_dir dirs

(* Length-prefixed join: [dirs] components may themselves contain ':'
   (cli_dirs, a template's own search path), so a separator-based
   encoding would let ["a:b"] and ["a"; "b"] alias one cache entry. *)
let dirs_key dirs =
  String.concat ""
    (List.map (fun d -> string_of_int (String.length d) ^ ":" ^ d) dirs)

let locate ctx ~dirs name =
  if not !cache_enabled then locate_uncached ctx ~dirs name
  else begin
    let locate_cache = Domain.DLS.get locate_cache_key in
    let gen = Fs.generation ctx.fs in
    let key = (Fs.uid ctx.fs, Path.to_string ctx.cwd, dirs_key dirs, name) in
    match Hashtbl.find_opt locate_cache key with
    | Some (g, result) when g = gen ->
      Hemlock_util.(Stats.cur ()).search_cache_hits <-
        Hemlock_util.(Stats.cur ()).search_cache_hits + 1;
      result
    | Some _ | None ->
      if Hashtbl.length locate_cache > 8192 then Hashtbl.reset locate_cache;
      let result = locate_uncached ctx ~dirs name in
      Hashtbl.replace locate_cache key (gen, result);
      result
  end
