module Objfile = Hemlock_obj.Objfile
module Segment = Hemlock_vm.Segment
module Layout = Hemlock_vm.Layout
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Fault = Hemlock_util.Fault

exception Link_error = Reloc_engine.Link_error

let errf fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

type scope = {
  sc_label : string;
  sc_modules : string list;
  sc_search : string list;
  sc_parent : scope option;
}

type t = {
  inst_key : string;
  inst_module_file : string option;
  inst_obj : Objfile.t;
  inst_src : int * int;
  inst_base : int;
  inst_image_off : int;
  inst_seg : Segment.t;
  inst_public : bool;
  inst_scope : scope;
  mutable inst_linked : bool;
  mutable inst_veneer_next : int;
  inst_veneer_off : int;
  inst_veneer_cap : int;
  inst_applied : bool array;
}

let align16 n = (n + 15) land lnot 15

let veneer_capacity obj =
  let jumps =
    List.length (List.filter (fun r -> r.Objfile.rel_kind = Objfile.Jump26) obj.Objfile.relocs)
  in
  jumps + 4

let placed_size obj =
  align16 (Objfile.load_size obj) + (veneer_capacity obj * Reloc_engine.veneer_slot_bytes)

let image_base t = t.inst_base + t.inst_image_off

let limit t = t.inst_base + t.inst_image_off + placed_size t.inst_obj

let symbol_addr t sym =
  let text_b, data_b, bss_b = Objfile.section_bases t.inst_obj in
  let section_base = function
    | Objfile.Text -> text_b
    | Objfile.Data -> data_b
    | Objfile.Bss -> bss_b
  in
  image_base t + section_base sym.Objfile.sym_section + sym.Objfile.sym_offset

let find_export t name =
  match Objfile.find_symbol t.inst_obj name with
  | Some sym when sym.Objfile.sym_binding = Objfile.Global -> Some (symbol_addr t sym)
  | Some _ | None -> None

let find_own t name = Option.map (symbol_addr t) (Objfile.find_symbol t.inst_obj name)

let iter_exports t f =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun sym ->
      let name = sym.Objfile.sym_name in
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.replace seen name ();
        if sym.Objfile.sym_binding = Objfile.Global then f name (symbol_addr t sym)
      end)
    t.inst_obj.Objfile.symbols

let sink_of_segment seg ~vaddr_base =
  {
    Reloc_engine.get32 = (fun addr -> Segment.get_u32 seg (addr - vaddr_base));
    set32 = (fun addr v -> Segment.set_u32 seg (addr - vaddr_base) v);
  }

(* ----- public module file header ----------------------------------------- *)

module Header = struct
  let size = Layout.page_size

  let magic = "HMOD"

  (* offsets within the header page *)
  let off_magic = 0
  let off_image = 4 (* u32: image offset within the file *)
  let off_veneer = 8 (* u32: veneer pool offset within the file *)
  let off_veneer_next = 12
  let off_veneer_cap = 16
  let off_nrelocs = 20
  let off_applied_count = 24
  let off_template_len = 28 (* u16 *)
  let off_template = 30
  let off_bitmap = 1024

  (* [size] (not 4) is the floor: the magic is written last, so any
     segment carrying it holds at least the full header page — and a
     crash-truncated file can never carry it. *)
  let is_module_file seg =
    Segment.size seg >= size
    && List.for_all
         (fun i -> Segment.get_u8 seg (off_magic + i) = Char.code magic.[i])
         [ 0; 1; 2; 3 ]

  let write_magic seg =
    String.iteri (fun i c -> Segment.set_u8 seg (off_magic + i) (Char.code c)) magic

  let template seg =
    let len = Segment.get_u8 seg off_template_len lor (Segment.get_u8 seg (off_template_len + 1) lsl 8) in
    String.init len (fun i -> Char.chr (Segment.get_u8 seg (off_template + i)))

  let set_template seg path =
    let len = String.length path in
    if len > off_bitmap - off_template then errf "template path too long: %s" path;
    Segment.set_u8 seg off_template_len (len land 0xFF);
    Segment.set_u8 seg (off_template_len + 1) (len lsr 8);
    String.iteri (fun i c -> Segment.set_u8 seg (off_template + i) (Char.code c)) path

  let nrelocs seg = Segment.get_u32 seg off_nrelocs

  let applied seg i =
    Segment.get_u8 seg (off_bitmap + (i / 8)) land (1 lsl (i mod 8)) <> 0

  let set_applied seg i =
    if not (applied seg i) then begin
      Segment.set_u8 seg (off_bitmap + (i / 8))
        (Segment.get_u8 seg (off_bitmap + (i / 8)) lor (1 lsl (i mod 8)));
      Segment.set_u32 seg off_applied_count (Segment.get_u32 seg off_applied_count + 1)
    end

  let applied_count seg = Segment.get_u32 seg off_applied_count

  let fully_linked seg = applied_count seg >= nrelocs seg

  (* The header is read back from /shared, so it is hostile input: counts
     that disagree with the template or with the bitmap would have ldl
     map a module it never relocated as fully linked. *)
  let check seg ~path ~nrelocs:n =
    let cap = (size - off_bitmap) * 8 and set = ref 0 in
    for i = 0 to min n cap - 1 do
      if applied seg i then incr set
    done;
    if n > cap || nrelocs seg <> n || applied_count seg <> !set then
      errf "corrupt module header in %s" path

  (* [init] fills every header field EXCEPT the magic; [publish] writes
     the magic as the commit point of module creation.  Until published,
     [is_module_file] is false and fsck treats the file as a partial
     creation to roll back. *)
  let init seg ~template_path ~nrelocs:n ~veneer_off ~veneer_cap =
    if n > (size - off_bitmap) * 8 then errf "too many relocations for module header";
    Segment.set_u32 seg off_image size;
    Segment.set_u32 seg off_veneer veneer_off;
    Segment.set_u32 seg off_veneer_next 0;
    Segment.set_u32 seg off_veneer_cap veneer_cap;
    Segment.set_u32 seg off_nrelocs n;
    Segment.set_u32 seg off_applied_count 0;
    set_template seg template_path

  let publish seg = write_magic seg

  let veneer_pool seg ~base =
    {
      Reloc_engine.vp_base = base + Segment.get_u32 seg off_veneer;
      vp_cap = Segment.get_u32 seg off_veneer_cap;
      vp_get_next = (fun () -> Segment.get_u32 seg off_veneer_next);
      vp_set_next = (fun n -> Segment.set_u32 seg off_veneer_next n);
    }
end

let veneer_pool t =
  if t.inst_public then Header.veneer_pool t.inst_seg ~base:t.inst_base
  else
    {
      Reloc_engine.vp_base = t.inst_base + t.inst_veneer_off;
      vp_cap = t.inst_veneer_cap;
      vp_get_next = (fun () -> t.inst_veneer_next);
      vp_set_next = (fun n -> t.inst_veneer_next <- n);
    }

(* ----- placement ----------------------------------------------------------- *)

(* Copy the template's initialised sections into [seg] at [image_off]. *)
let place_sections seg ~image_off obj =
  let _, data_b, bss_b = Objfile.section_bases obj in
  Segment.blit_in seg ~dst_off:image_off obj.Objfile.text;
  Segment.blit_in seg ~dst_off:(image_off + data_b) obj.Objfile.data;
  (* Zero-extend through bss and the veneer pool. *)
  let total = image_off + placed_size obj in
  ignore bss_b;
  if Segment.size seg < total then Segment.resize seg total

let require_shared what path =
  if not (Path.is_prefix ~prefix:[ "shared" ] (Path.of_string ~cwd:Path.root path)) then
    errf "%s %s must reside on the shared partition" what path

(* A template read back from /shared is hostile input too: one grown
   past its slot would place an instance over the next slot's. *)
let check_fits module_path obj =
  if Header.size + placed_size obj > Layout.shared_slot_size then
    errf "module %s exceeds the %d-byte shared file limit" module_path
      Layout.shared_slot_size

let module_file_of_template located =
  if Filename.check_suffix located ".o" then Filename.chop_suffix located ".o"
  else errf "public module template %s does not end in .o" located

let published fs module_path =
  match Fs.lookup fs module_path with
  | Some (_, { Fs.st_kind = Fs.Regular; st_addr = Some _; _ }) ->
    Header.is_module_file (Fs.segment_of fs module_path)
  | Some _ | None -> false

let create_public_file ctx ~template_path ~obj ~module_path =
  require_shared "public module template" template_path;
  require_shared "public module" module_path;
  if obj.Objfile.uses_gp then
    errf "module %s uses the $gp register: public modules must be compiled with gp disabled"
      template_path;
  check_fits module_path obj;
  let fs = ctx.Search.fs in
  (* Callers create only where none is [published], so anything under the
     name (a directory, a loop, a link off /shared) is not ours to use. *)
  (match Fs.lstat fs module_path with
  | (_ : Fs.stat) -> errf "%s exists but is not a Hemlock module" module_path
  | exception Fs.Error _ -> ());
  Fault.hit "mod.create";
  (* Module creation is multi-step (create → header/sections/relocs →
     publish); the journal entry lets fsck tell an unpublished partial
     from a completed module, and the magic — written by [publish],
     last — is the commit point. *)
  let canonical = Path.to_string (Path.of_string ~cwd:Path.root module_path) in
  let jid = Fs.journal_begin fs (Fs.Intent_module { module_path = canonical }) in
  try
    Fs.create_file fs module_path;
    let base = Fs.addr_of_path fs module_path in
    let seg = Fs.segment_of fs module_path in
    let veneer_off = Header.size + align16 (Objfile.load_size obj) in
    Header.init seg ~template_path ~nrelocs:(List.length obj.Objfile.relocs) ~veneer_off
      ~veneer_cap:(veneer_capacity obj);
    place_sections seg ~image_off:Header.size obj;
    (* Apply internal relocations: those naming symbols the template itself
       defines.  External references stay pending in the shared bitmap. *)
    let text_b, data_b, bss_b = Objfile.section_bases obj in
    let image = base + Header.size in
    let bases = function
      | Objfile.Text -> image + text_b
      | Objfile.Data -> image + data_b
      | Objfile.Bss -> image + bss_b
    in
    let sink = sink_of_segment seg ~vaddr_base:base in
    let resolve name =
      match Objfile.find_symbol obj name with
      | Some sym ->
        Some
          (image
          + (match sym.Objfile.sym_section with
            | Objfile.Text -> text_b
            | Objfile.Data -> data_b
            | Objfile.Bss -> bss_b)
          + sym.Objfile.sym_offset)
      | None -> None
    in
    let pool = Header.veneer_pool seg ~base in
    let _pending =
      Reloc_engine.link_pass
        ~relocs:(Reloc_engine.group obj.Objfile.relocs)
        ~bases ~resolve
        ~epoch:(fun () -> 0)
        ~already:(Header.applied seg)
        ~mark:(Header.set_applied seg)
        sink ~gp:None ~veneer:(Some pool)
    in
    Fault.hit "mod.create.mid";
    Header.publish seg;
    Fs.journal_end fs jid;
    base
  with
  | Fault.Crash _ as e -> raise e (* the journal entry is fsck's evidence *)
  | e ->
    (* Injected failure or link error mid-creation: remove the partial
       (unpublished) module so the failure is all-or-nothing. *)
    (try Fs.unlink fs canonical with Fs.Error _ | Fault.Injected _ -> ());
    Fs.journal_end fs jid;
    raise e

(* Read and decode a template.  Its content identity, the backing
   segment's (id, version), comes back with it, so callers can tell two
   decodes of one path apart after an in-place rewrite; [decode] gets
   the identity too, so a caller may memoize on it, and the file's bytes
   as a thunk, so a memo hit copies nothing.  The read is billed either
   way. *)
let load_template ?(decode = fun _ bytes -> Objfile.parse (bytes ())) ctx path =
  match Fs.read_segment ctx.Search.fs ~cwd:ctx.Search.cwd path with
  | seg -> (
    let src = (Segment.id seg, Segment.version seg) in
    let bytes () = Segment.blit_out seg ~src_off:0 ~len:(Segment.size seg) in
    match decode src bytes with
    | obj -> (obj, src)
    | exception Failure msg -> errf "bad template %s: %s" path msg)
  | exception Fs.Error { kind; _ } ->
    errf "cannot read template %s: %s" path (Fs.err_kind_to_string kind)

let public_instance ?decode ctx ~module_path ~scope =
  let fs = ctx.Search.fs in
  let base = Fs.addr_of_path fs module_path in
  let canonical = Fs.path_of_addr fs base in
  let seg = Fs.segment_of fs canonical in
  if not (Header.is_module_file seg) then
    errf "%s is not a created Hemlock module" module_path;
  let template_path = Header.template seg in
  let obj, src = load_template ?decode ctx template_path in
  Header.check seg ~path:canonical ~nrelocs:(List.length obj.Objfile.relocs);
  check_fits canonical obj;
  {
    inst_key = template_path;
    inst_module_file = Some canonical;
    inst_obj = obj;
    inst_src = src;
    inst_base = base;
    inst_image_off = Header.size;
    inst_seg = seg;
    inst_public = true;
    inst_scope = scope;
    inst_linked = false;
    inst_veneer_next = 0;
    inst_veneer_off = 0;
    inst_veneer_cap = 0;
    inst_applied = [||];
  }

let placed_image ~name obj =
  let seg = Segment.create ~name ~max_size:(Layout.page_up (placed_size obj)) () in
  place_sections seg ~image_off:0 obj;
  seg

let private_instance ?(src = (-1, -1)) ?master ~located ~obj ~base ~scope () =
  let seg =
    match master with
    | Some master -> Segment.copy master
    | None -> placed_image ~name:("module:" ^ located) obj
  in
  {
    inst_key = located;
    inst_module_file = None;
    inst_obj = obj;
    inst_src = src;
    inst_base = base;
    inst_image_off = 0;
    inst_seg = seg;
    inst_public = false;
    inst_scope = scope;
    inst_linked = false;
    inst_veneer_next = 0;
    inst_veneer_off = align16 (Objfile.load_size obj);
    inst_veneer_cap = veneer_capacity obj;
    inst_applied = Array.make (List.length obj.Objfile.relocs) false;
  }
