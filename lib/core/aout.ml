module Codec = Hemlock_util.Codec
module Objfile = Hemlock_obj.Objfile

type dyn_descr = { dd_name : string; dd_class : Sharing.t }

type static_pub = { sp_template : string; sp_module : string; sp_base : int }

type t = {
  entry_off : int;
  text : Bytes.t;
  data : Bytes.t;
  bss_size : int;
  veneer_off : int;
  veneer_cap : int;
  symbols : (string * int) list;
  pending : Objfile.reloc list;
  dynamics : dyn_descr list;
  static_pubs : static_pub list;
  static_dirs : string list;
  gp_base_off : int option;
}

let image_base = 0x1000

let private_arena_lo = 0x0200_0000
let private_arena_hi = 0x1000_0000

let align4 n = (n + 3) land lnot 3

let image_size t = align4 (Bytes.length t.text) + align4 (Bytes.length t.data) + align4 t.bss_size

let find_symbol t name = List.assoc_opt name t.symbols

let magic = "HEXE"

let class_code = function
  | Sharing.Static_private -> 0
  | Sharing.Dynamic_private -> 1
  | Sharing.Static_public -> 2
  | Sharing.Dynamic_public -> 3

let class_of_code = function
  | 0 -> Sharing.Static_private
  | 1 -> Sharing.Dynamic_private
  | 2 -> Sharing.Static_public
  | 3 -> Sharing.Dynamic_public
  | n -> failwith (Printf.sprintf "Aout.parse: bad class %d" n)

let kind_code = function
  | Objfile.Abs32 -> 0
  | Objfile.Hi16 -> 1
  | Objfile.Lo16 -> 2
  | Objfile.Jump26 -> 3
  | Objfile.Gprel16 -> 4

let kind_of_code = function
  | 0 -> Objfile.Abs32
  | 1 -> Objfile.Hi16
  | 2 -> Objfile.Lo16
  | 3 -> Objfile.Jump26
  | 4 -> Objfile.Gprel16
  | n -> failwith (Printf.sprintf "Aout.parse: bad reloc kind %d" n)

let serialize t =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u32 w t.entry_off;
  Codec.Writer.u32 w (Bytes.length t.text);
  Codec.Writer.bytes w t.text;
  Codec.Writer.u32 w (Bytes.length t.data);
  Codec.Writer.bytes w t.data;
  Codec.Writer.u32 w t.bss_size;
  Codec.Writer.u32 w t.veneer_off;
  Codec.Writer.u32 w t.veneer_cap;
  Codec.Writer.u32 w (List.length t.symbols);
  List.iter
    (fun (name, off) ->
      Codec.Writer.str w name;
      Codec.Writer.u32 w off)
    t.symbols;
  Codec.Writer.u32 w (List.length t.pending);
  List.iter
    (fun r ->
      Codec.Writer.u32 w r.Objfile.rel_offset;
      Codec.Writer.u8 w (kind_code r.Objfile.rel_kind);
      Codec.Writer.str w r.Objfile.rel_symbol;
      Codec.Writer.u32 w (r.Objfile.rel_addend land 0xFFFF_FFFF))
    t.pending;
  Codec.Writer.u32 w (List.length t.dynamics);
  List.iter
    (fun d ->
      Codec.Writer.str w d.dd_name;
      Codec.Writer.u8 w (class_code d.dd_class))
    t.dynamics;
  Codec.Writer.u32 w (List.length t.static_pubs);
  List.iter
    (fun s ->
      Codec.Writer.str w s.sp_template;
      Codec.Writer.str w s.sp_module;
      Codec.Writer.u32 w s.sp_base)
    t.static_pubs;
  Codec.Writer.u32 w (List.length t.static_dirs);
  List.iter (Codec.Writer.str w) t.static_dirs;
  (match t.gp_base_off with
  | None -> Codec.Writer.u8 w 0
  | Some off ->
    Codec.Writer.u8 w 1;
    Codec.Writer.u32 w off);
  Codec.Writer.contents w

let looks_like bytes =
  Bytes.length bytes >= 4 && String.equal (Bytes.sub_string bytes 0 4) magic

let parse bytes =
  let r = Codec.Reader.create bytes in
  let m = Bytes.to_string (Codec.Reader.bytes r 4) in
  if not (String.equal m magic) then failwith "Aout.parse: bad magic";
  let entry_off = Codec.Reader.u32 r in
  let text = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  let data = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  let bss_size = Codec.Reader.u32 r in
  let veneer_off = Codec.Reader.u32 r in
  let veneer_cap = Codec.Reader.u32 r in
  let symbols =
    List.init (Codec.Reader.u32 r) (fun _ ->
        let name = Codec.Reader.str r in
        let off = Codec.Reader.u32 r in
        (name, off))
  in
  let pending =
    List.init (Codec.Reader.u32 r) (fun _ ->
        let rel_offset = Codec.Reader.u32 r in
        let rel_kind = kind_of_code (Codec.Reader.u8 r) in
        let rel_symbol = Codec.Reader.str r in
        let rel_addend = Codec.sext32 (Codec.Reader.u32 r) in
        { Objfile.rel_section = Objfile.Text; rel_offset; rel_kind; rel_symbol; rel_addend })
  in
  let dynamics =
    List.init (Codec.Reader.u32 r) (fun _ ->
        let dd_name = Codec.Reader.str r in
        let dd_class = class_of_code (Codec.Reader.u8 r) in
        { dd_name; dd_class })
  in
  let static_pubs =
    List.init (Codec.Reader.u32 r) (fun _ ->
        let sp_template = Codec.Reader.str r in
        let sp_module = Codec.Reader.str r in
        let sp_base = Codec.Reader.u32 r in
        { sp_template; sp_module; sp_base })
  in
  let static_dirs = List.init (Codec.Reader.u32 r) (fun _ -> Codec.Reader.str r) in
  let gp_base_off = if Codec.Reader.u8 r = 1 then Some (Codec.Reader.u32 r) else None in
  {
    entry_off;
    text;
    data;
    bss_size;
    veneer_off;
    veneer_cap;
    symbols;
    pending;
    dynamics;
    static_pubs;
    static_dirs;
    gp_base_off;
  }

let pp ppf t =
  let p fmt = Format.fprintf ppf fmt in
  p "@[<v>a.out: entry at image+0x%x, loaded at %a@," t.entry_off
    Hemlock_util.Codec.(fun ppf v -> Format.fprintf ppf "0x%08x" (mask32 v)) image_base;
  p "text %d bytes (veneer pool at +0x%x, %d slots), data %d, bss %d@,"
    (Bytes.length t.text) t.veneer_off t.veneer_cap (Bytes.length t.data) t.bss_size;
  (match t.gp_base_off with
  | Some off -> p "$gp base at image+0x%x@," off
  | None -> ());
  p "exported symbols:@,";
  List.iter (fun (name, off) -> p "  %-24s image+0x%x@," name off)
    (List.sort compare t.symbols);
  if t.pending <> [] then begin
    p "retained relocations (for ldl):@,";
    List.iter
      (fun r ->
        p "  +0x%-6x %-8s %s%+d@," r.Objfile.rel_offset
          (Objfile.reloc_kind_to_string r.Objfile.rel_kind)
          r.Objfile.rel_symbol r.Objfile.rel_addend)
      t.pending
  end;
  if t.dynamics <> [] then begin
    p "dynamic modules:@,";
    List.iter
      (fun d -> p "  %-24s %s@," d.dd_name (Sharing.to_string d.dd_class))
      t.dynamics
  end;
  if t.static_pubs <> [] then begin
    p "static public modules:@,";
    List.iter
      (fun s -> p "  %-24s at 0x%08x (template %s)@," s.sp_module s.sp_base s.sp_template)
      t.static_pubs
  end;
  p "recorded search path: %s@]" (String.concat ":" t.static_dirs)
