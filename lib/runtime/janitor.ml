module Kernel = Hemlock_os.Kernel
module Fs = Hemlock_sfs.Fs
module Layout = Hemlock_vm.Layout
module Segment = Hemlock_vm.Segment
module Modinst = Hemlock_linker.Modinst
module Aout = Hemlock_linker.Aout
module Stable_link = Hemlock_linker.Stable_link

type kind = Module | Heap | Template | Executable | Stable | Plain

type entry = {
  j_slot : int;
  j_path : string;
  j_addr : int;
  j_bytes : int;
  j_kind : kind;
  j_heap_live : int option;
  j_template : string option;
}

let kind_to_string = function
  | Module -> "module"
  | Heap -> "heap"
  | Template -> "template"
  | Executable -> "executable"
  | Stable -> "stable"
  | Plain -> "plain"

let starts_with seg s =
  Segment.size seg >= String.length s
  && List.for_all
       (fun i -> Segment.get_u8 seg i = Char.code s.[i])
       (List.init (String.length s) Fun.id)

(* Header sniffing must survive whatever a crash left behind: a
   truncated or garbled segment is [Plain] data to be perused, never an
   exception out of the survey. *)
let classify seg =
  try
    if Modinst.Header.is_module_file seg then Module
    else if Shm_heap.is_heap_segment seg then Heap
    else if starts_with seg "HOBJ" then Template
    else if starts_with seg "HEXE" then Executable
    else Plain
  with _ -> Plain

(* Files under the reserved stable-link namespace are classified by
   where they live, not by their header: a truncated plan file has no
   recognizable header left, and it must still be identified as
   stable-link state so the policy below can judge it. *)
let in_stable_dir path =
  let prefix = Stable_link.dir ^ "/" in
  String.length path > String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

let survey k =
  let fs = Kernel.fs k in
  List.map
    (fun (slot, path) ->
      let seg = Fs.segment_of fs path in
      let kind = if in_stable_dir path then Stable else classify seg in
      {
        j_slot = slot;
        j_path = path;
        j_addr = Layout.addr_of_slot slot;
        j_bytes = Segment.size seg;
        j_kind = kind;
        j_heap_live =
          (if kind = Heap then
             try Some (Shm_heap.live_bytes_of_segment seg) with _ -> None
           else None);
        j_template =
          (if kind = Module then try Some (Modinst.Header.template seg) with _ -> None
           else None);
      })
    (Fs.shared_table fs)

let remove k path = Fs.unlink (Kernel.fs k) path

let orphaned_modules k =
  let fs = Kernel.fs k in
  List.filter
    (fun e ->
      match e.j_template with
      | Some template -> not (Fs.exists fs template)
      | None -> false)
    (survey k)

(* ----- reaping policy ----------------------------------------------------- *)

type policy = entry -> bool

let orphan_policy k ~flagged =
  let fs = Kernel.fs k in
  fun e ->
    match e.j_kind with
    | Module -> (
      (* a module whose template is gone can never be re-verified *)
      match e.j_template with
      | Some template -> not (Fs.exists fs template)
      | None -> true (* unreadable header: corrupt module *))
    | Plain ->
      (* Conservative: only reap plain files that fsck flagged as
         unacknowledged creations — a published module whose creator
         crashed after the commit point is left alone. *)
      List.mem e.j_path flagged
    | Stable ->
      (* Stable-link files are pure cache: a file that no longer
         decodes (truncated header, garbled body) can never be loaded
         again and is reaped; a well-formed one is kept — the next
         sync unlinks it if it is not part of the copy, and a replay
         that fails verification reaps it. *)
      not
        (try Stable_link.valid_segment (Fs.segment_of fs e.j_path) with _ -> false)
    | Heap | Template | Executable -> false

let reap k ~policy =
  let victims = List.filter policy (survey k) in
  List.iter (fun e -> remove k e.j_path) victims;
  victims

let pp_entry ppf e =
  Format.fprintf ppf "slot %4d  0x%08x  %-10s %7dB  %s%s" e.j_slot e.j_addr
    (kind_to_string e.j_kind) e.j_bytes e.j_path
    (match (e.j_heap_live, e.j_template) with
    | Some live, _ -> Printf.sprintf "  (live %dB)" live
    | _, Some t -> Printf.sprintf "  (from %s)" t
    | None, None -> "")
