module Objfile = Hemlock_obj.Objfile
module Segment = Hemlock_vm.Segment
module Layout = Hemlock_vm.Layout
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Fault = Hemlock_util.Fault

exception Link_error of string

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

let contains t addr = addr >= t.inst_base && addr < limit t

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

let create_public_file ctx ~template_path ~obj ~module_path =
  require_shared "public module template" template_path;
  require_shared "public module" module_path;
  if obj.Objfile.uses_gp then
    errf "module %s uses the $gp register: public modules must be compiled with gp disabled"
      template_path;
  if Header.size + placed_size obj > Layout.shared_slot_size then
    errf "module %s exceeds the %d-byte shared file limit" module_path
      Layout.shared_slot_size;
  let fs = ctx.Search.fs in
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
      Reloc_engine.link_pass ~obj ~bases ~resolve
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

let load_template ctx path =
  match Fs.read_file ctx.Search.fs ~cwd:ctx.Search.cwd path with
  | bytes -> (
    let seg = Fs.segment_of ctx.Search.fs ~cwd:ctx.Search.cwd path in
    match Link_plan.parse_obj ~seg bytes with
    | obj -> (obj, (Segment.id seg, Segment.version seg))
    | exception Failure msg -> errf "bad template %s: %s" path msg)
  | exception Fs.Error _ -> errf "cannot read template %s" path

let public_instance ctx ~module_path ~scope =
  let fs = ctx.Search.fs in
  let base = Fs.addr_of_path fs module_path in
  let canonical = Fs.path_of_addr fs base in
  let seg = Fs.segment_of fs canonical in
  if not (Header.is_module_file seg) then
    errf "%s is not a created Hemlock module" module_path;
  let template_path = Header.template seg in
  let obj, src = load_template ctx template_path in
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

(* Zero-copy private instantiation: the placed (sections laid out,
   veneer area reserved) image of a template, built once per template
   content identity [src = (file segment id, version)] and COW-copied
   into every later instance.  Masters are never handed out directly —
   relocation scribbles on instances, and those writes must not reach
   the shared master. *)
(* per-domain: a worker that misses the memo places its own master copy
   (the COW sharing it buys is per-domain, like the page caches) *)
let placed_masters_key : (int * int, Segment.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)
let placed_masters () = Domain.DLS.get placed_masters_key

let clear_placed_masters () = Hashtbl.reset (placed_masters ())

let private_instance ?(src = (-1, -1)) ~located ~obj ~base ~scope () =
  let size = placed_size obj in
  let build name =
    let seg = Segment.create ~name ~max_size:(Layout.page_up size) () in
    place_sections seg ~image_off:0 obj;
    seg
  in
  let seg =
    if !Segment.cow_enabled && src <> (-1, -1) then begin
      let master =
        match Hashtbl.find_opt (placed_masters ()) src with
        | Some master when Segment.max_size master = Layout.page_up size -> master
        | Some _ | None ->
          let master = build ("module-master:" ^ located) in
          Hashtbl.replace (placed_masters ()) src master;
          master
      in
      Segment.copy master
    end
    else build ("module:" ^ located)
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
