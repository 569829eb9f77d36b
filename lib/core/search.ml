module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path

type ctx = {
  fs : Fs.t;
  cwd : Path.t;
  env : (string * string) list;
}

let default_dirs = [ "/usr/lib"; "/shared/lib" ]

let ld_library_path env =
  match List.assoc_opt "LD_LIBRARY_PATH" env with
  | None | Some "" -> []
  | Some v -> List.filter (fun d -> d <> "") (String.split_on_char ':' v)

let static_dirs ctx ~cli_dirs =
  (Path.to_string ctx.cwd :: cli_dirs) @ ld_library_path ctx.env @ default_dirs

let runtime_dirs ctx ~recorded = ld_library_path ctx.env @ recorded

let has_slash name = String.contains name '/'

let locate ctx ~dirs name =
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
