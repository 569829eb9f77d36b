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

(* One lookup per candidate; one that does not resolve, or is not a
   regular file, is skipped. *)
let locate ctx ~dirs name =
  let regular p =
    match Fs.lookup ctx.fs ~cwd:ctx.cwd p with
    | Some (spelled, { Fs.st_kind = Fs.Regular; _ }) -> Some spelled
    | Some _ | None -> None
  in
  if has_slash name then regular name
  else List.find_map (fun dir -> regular (if dir = "/" then "/" ^ name else dir ^ "/" ^ name)) dirs
