module Objfile = Hemlock_obj.Objfile
module Asm = Hemlock_isa.Asm
module Fs = Hemlock_sfs.Fs
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats

exception Link_error = Reloc_engine.Link_error

let errf fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

type spec = { sp_name : string; sp_class : Sharing.t }

let crt0_source =
  String.concat "\n"
    [
      "        .text";
      "        .globl _start";
      "_start:";
      "        la   $gp, __gp_base";
      "        li   $v0, " ^ string_of_int Hemlock_os.Sysno.ldl_run;
      "        syscall";
      "        jal  main";
      "        move $a0, $v0";
      "        li   $v0, " ^ string_of_int Hemlock_os.Sysno.exit;
      "        syscall";
      "";
    ]

let align4 n = (n + 3) land lnot 3
let align16 n = (n + 15) land lnot 15

(* A static private module placed in the image. *)
type placed = {
  pl_obj : Objfile.t;
  pl_text : int;  (** image offsets *)
  pl_data : int;
  pl_bss : int;
}

(* Create-or-find a static public module; returns (module_path, instance). *)
let ensure_static_public ctx warnings located =
  let obj, _ = Modinst.load_template ctx located in
  let module_path = Modinst.module_file_of_template located in
  if not (Modinst.published ctx.Search.fs module_path) then begin
    ignore (Modinst.create_public_file ctx ~template_path:located ~obj ~module_path);
    let unresolved = Objfile.undefined obj in
    if unresolved <> [] then
      warnings :=
        Printf.sprintf "public module %s created with unresolved references: %s"
          module_path (String.concat ", " unresolved)
        :: !warnings
  end;
  let scope =
    {
      Modinst.sc_label = module_path;
      sc_modules = obj.Objfile.own_modules;
      sc_search = obj.Objfile.own_search_path;
      sc_parent = None;
    }
  in
  (module_path, Modinst.public_instance ctx ~module_path ~scope)

let link ctx ?(cli_dirs = []) ?(duplicate_policy = `Error) ~specs ~output () =
  let warnings = ref [] in
  let dirs = Search.static_dirs ctx ~cli_dirs in
  let locate_static name =
    match Search.locate ctx ~dirs name with
    | Some p -> p
    | None -> errf "cannot find static module %s" name
  in
  (* crt0 first, then the static private modules in command-line order. *)
  let crt0 = Asm.assemble ~name:"crt0.o" crt0_source in
  let statics_priv =
    List.filter_map
      (fun s ->
        match s.sp_class with
        | Sharing.Static_private ->
          Some (fst (Modinst.load_template ctx (locate_static s.sp_name)))
        | Sharing.Static_public | Sharing.Dynamic_private | Sharing.Dynamic_public -> None)
      specs
  in
  let image_objs = crt0 :: statics_priv in
  (* Static public modules: create the missing ones, collect exports. *)
  let static_pubs =
    List.filter_map
      (fun s ->
        match s.sp_class with
        | Sharing.Static_public ->
          let located = locate_static s.sp_name in
          let module_path, inst = ensure_static_public ctx warnings located in
          Some
            ( { Aout.sp_template = located; sp_module = module_path; sp_base = inst.Modinst.inst_base },
              inst )
        | Sharing.Static_private | Sharing.Dynamic_private | Sharing.Dynamic_public -> None)
      specs
  in
  (* Dynamic modules: record descriptors; warn when not yet findable. *)
  let dynamics =
    List.filter_map
      (fun s ->
        match s.sp_class with
        | Sharing.Dynamic_private | Sharing.Dynamic_public ->
          if Search.locate ctx ~dirs s.sp_name = None then
            warnings :=
              Printf.sprintf "dynamic module %s does not exist yet" s.sp_name :: !warnings;
          Some { Aout.dd_name = s.sp_name; dd_class = s.sp_class }
        | Sharing.Static_private | Sharing.Static_public -> None)
      specs
  in
  (* ---- image layout: texts, veneer pool, datas, bsses ---- *)
  let text_total = List.fold_left (fun acc o -> acc + align4 (Bytes.length o.Objfile.text)) 0 image_objs in
  let veneer_off = align16 text_total in
  let veneer_cap =
    8
    + List.fold_left
        (fun acc o ->
          acc
          + List.length
              (List.filter (fun r -> r.Objfile.rel_kind = Objfile.Jump26) o.Objfile.relocs))
        0 image_objs
  in
  let data_start = veneer_off + (veneer_cap * Reloc_engine.veneer_slot_bytes) in
  let place (next_text, next_data) obj =
    let pl_text = next_text in
    let pl_data = next_data in
    ( (next_text + align4 (Bytes.length obj.Objfile.text),
       next_data + align4 (Bytes.length obj.Objfile.data)),
      { pl_obj = obj; pl_text; pl_data; pl_bss = 0 } )
  in
  let (_, data_end), placed = List.fold_left_map place (0, data_start) image_objs in
  let bss_start = align4 data_end in
  let placed, bss_end =
    let f (acc, next) pl =
      (( { pl with pl_bss = next } :: acc, next + align4 pl.pl_obj.Objfile.bss_size ))
    in
    let acc, bss_end = List.fold_left f ([], bss_start) placed in
    (List.rev acc, bss_end)
  in
  let gp_off = data_start in
  (* ---- merged global symbol table ---- *)
  let globals = Hashtbl.create 64 in
  let add_global pl sym =
    let off =
      (match sym.Objfile.sym_section with
      | Objfile.Text -> pl.pl_text
      | Objfile.Data -> pl.pl_data
      | Objfile.Bss -> pl.pl_bss)
      + sym.Objfile.sym_offset
    in
    match Hashtbl.find_opt globals sym.Objfile.sym_name with
    | None -> Hashtbl.replace globals sym.Objfile.sym_name off
    | Some _ -> (
      match duplicate_policy with
      | `Error ->
        errf "symbol %s multiply defined (in %s)" sym.Objfile.sym_name
          pl.pl_obj.Objfile.obj_name
      | `First ->
        warnings :=
          Printf.sprintf "symbol %s multiply defined; keeping the first" sym.Objfile.sym_name
          :: !warnings)
  in
  List.iter (fun pl -> List.iter (add_global pl) (Objfile.exports pl.pl_obj)) placed;
  Hashtbl.replace globals "__gp_base" gp_off;
  (* ---- build image bytes (text..data; bss implicit) ---- *)
  let image = Bytes.make bss_start '\000' in
  List.iter
    (fun pl ->
      Bytes.blit pl.pl_obj.Objfile.text 0 image pl.pl_text (Bytes.length pl.pl_obj.Objfile.text);
      Bytes.blit pl.pl_obj.Objfile.data 0 image pl.pl_data (Bytes.length pl.pl_obj.Objfile.data))
    placed;
  let base = Aout.image_base in
  let sink =
    {
      Reloc_engine.get32 = (fun addr -> Codec.get_u32 image (addr - base));
      set32 = (fun addr v -> Codec.set_u32 image (addr - base) v);
    }
  in
  let veneer_next = ref 0 in
  let pool =
    {
      Reloc_engine.vp_base = base + veneer_off;
      vp_cap = veneer_cap;
      vp_get_next = (fun () -> !veneer_next);
      vp_set_next = (fun n -> veneer_next := n);
    }
  in
  (* Resolve: module-own symbols, then image globals, then public exports. *)
  let pub_export name = List.find_map (fun (_, inst) -> Modinst.find_export inst name) static_pubs in
  let pending = ref [] in
  let link_module pl =
    let bases = function
      | Objfile.Text -> base + pl.pl_text
      | Objfile.Data -> base + pl.pl_data
      | Objfile.Bss -> base + pl.pl_bss
    in
    let own name =
      Option.map
        (fun sym ->
          bases sym.Objfile.sym_section + sym.Objfile.sym_offset)
        (Objfile.find_symbol pl.pl_obj name)
    in
    let resolve name =
      match own name with
      | Some a -> Some a
      | None -> (
        match Hashtbl.find_opt globals name with
        | Some off -> Some (base + off)
        | None -> pub_export name)
    in
    let gp = if pl.pl_obj.Objfile.uses_gp then Some (base + gp_off) else None in
    let relocs = Reloc_engine.group pl.pl_obj.Objfile.relocs in
    let left =
      Reloc_engine.link_pass ~relocs ~bases ~resolve
        ~epoch:(fun () -> 0)
        ~already:(fun _ -> false)
        ~mark:(fun _ -> ())
        sink ~gp ~veneer:(Some pool)
    in
    (* Retain unresolved relocations, rebased to image coordinates. *)
    List.iter
      (fun i ->
        let r = relocs.Reloc_engine.rl_all.(i) in
        let section_off =
          match r.Objfile.rel_section with
          | Objfile.Text -> pl.pl_text
          | Objfile.Data -> pl.pl_data
          | Objfile.Bss -> pl.pl_bss
        in
        pending :=
          { r with Objfile.rel_section = Objfile.Text; rel_offset = section_off + r.Objfile.rel_offset }
          :: !pending)
      left
  in
  List.iter link_module placed;
  let s = Stats.cur () in
  s.modules_linked <- s.modules_linked + List.length placed;
  (* ---- emit ---- *)
  let text_and_pool = Bytes.sub image 0 data_start in
  let data_bytes = Bytes.sub image data_start (bss_start - data_start) in
  let entry_off =
    match Hashtbl.find_opt globals "_start" with
    | Some off -> off
    | None -> errf "no _start in image (crt0 missing?)"
  in
  let aout =
    {
      Aout.entry_off;
      text = text_and_pool;
      data = data_bytes;
      bss_size = bss_end - bss_start;
      veneer_off;
      veneer_cap;
      symbols = Hashtbl.fold (fun n off acc -> (n, off) :: acc) globals [];
      pending = List.rev !pending;
      dynamics;
      static_pubs = List.map fst static_pubs;
      static_dirs = dirs;
      gp_base_off = Some gp_off;
    }
  in
  Fs.write_file ctx.Search.fs ~cwd:ctx.Search.cwd output (Aout.serialize aout);
  List.rev !warnings

let embed_metadata ctx ~template ~modules ~search_path =
  let obj, _ = Modinst.load_template ctx template in
  let obj = { obj with Objfile.own_modules = modules; own_search_path = search_path } in
  Fs.write_file ctx.Search.fs ~cwd:ctx.Search.cwd template (Objfile.serialize obj)
