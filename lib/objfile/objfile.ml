module Codec = Hemlock_util.Codec

type section = Text | Data | Bss

type binding = Local | Global

type symbol = { sym_name : string; sym_section : section; sym_offset : int; sym_binding : binding }

type reloc_kind = Abs32 | Hi16 | Lo16 | Jump26 | Gprel16

type reloc = {
  rel_section : section;
  rel_offset : int;
  rel_kind : reloc_kind;
  rel_symbol : string;
  rel_addend : int;
}

type t = {
  obj_name : string;
  text : Bytes.t;
  data : Bytes.t;
  bss_size : int;
  symbols : symbol list;
  relocs : reloc list;
  uses_gp : bool;
  own_modules : string list;
  own_search_path : string list;
}

let section_to_string = function Text -> "text" | Data -> "data" | Bss -> "bss"

let reloc_kind_to_string = function
  | Abs32 -> "ABS32"
  | Hi16 -> "HI16"
  | Lo16 -> "LO16"
  | Jump26 -> "JUMP26"
  | Gprel16 -> "GPREL16"

let empty ~name =
  {
    obj_name = name;
    text = Bytes.empty;
    data = Bytes.empty;
    bss_size = 0;
    symbols = [];
    relocs = [];
    uses_gp = false;
    own_modules = [];
    own_search_path = [];
  }

let align4 n = (n + 3) land lnot 3

let section_bases t =
  let text_base = 0 in
  let data_base = align4 (Bytes.length t.text) in
  let bss_base = data_base + align4 (Bytes.length t.data) in
  (text_base, data_base, bss_base)

let load_size t =
  let _, _, bss_base = section_bases t in
  bss_base + align4 t.bss_size

let find_symbol t name = List.find_opt (fun s -> String.equal s.sym_name name) t.symbols

let exports t = List.filter (fun s -> s.sym_binding = Global) t.symbols

let undefined t =
  let defined = List.map (fun s -> s.sym_name) t.symbols in
  let referenced = List.map (fun r -> r.rel_symbol) t.relocs in
  List.sort_uniq String.compare
    (List.filter (fun n -> not (List.mem n defined)) referenced)

(* Binary encoding *)

let magic = "HOBJ"

let section_code = function Text -> 0 | Data -> 1 | Bss -> 2

let section_of_code = function
  | 0 -> Text
  | 1 -> Data
  | 2 -> Bss
  | n -> failwith (Printf.sprintf "Objfile.parse: bad section code %d" n)

let kind_code = function Abs32 -> 0 | Hi16 -> 1 | Lo16 -> 2 | Jump26 -> 3 | Gprel16 -> 4

let kind_of_code = function
  | 0 -> Abs32
  | 1 -> Hi16
  | 2 -> Lo16
  | 3 -> Jump26
  | 4 -> Gprel16
  | n -> failwith (Printf.sprintf "Objfile.parse: bad reloc kind %d" n)

let serialize t =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.str w t.obj_name;
  Codec.Writer.u8 w (if t.uses_gp then 1 else 0);
  Codec.Writer.u32 w (Bytes.length t.text);
  Codec.Writer.bytes w t.text;
  Codec.Writer.u32 w (Bytes.length t.data);
  Codec.Writer.bytes w t.data;
  Codec.Writer.u32 w t.bss_size;
  Codec.Writer.u32 w (List.length t.symbols);
  List.iter
    (fun s ->
      Codec.Writer.str w s.sym_name;
      Codec.Writer.u8 w (section_code s.sym_section);
      Codec.Writer.u32 w s.sym_offset;
      Codec.Writer.u8 w (match s.sym_binding with Local -> 0 | Global -> 1))
    t.symbols;
  Codec.Writer.u32 w (List.length t.relocs);
  List.iter
    (fun r ->
      Codec.Writer.u8 w (section_code r.rel_section);
      Codec.Writer.u32 w r.rel_offset;
      Codec.Writer.u8 w (kind_code r.rel_kind);
      Codec.Writer.str w r.rel_symbol;
      Codec.Writer.u32 w (r.rel_addend land 0xFFFF_FFFF))
    t.relocs;
  Codec.Writer.u32 w (List.length t.own_modules);
  List.iter (Codec.Writer.str w) t.own_modules;
  Codec.Writer.u32 w (List.length t.own_search_path);
  List.iter (Codec.Writer.str w) t.own_search_path;
  Codec.Writer.contents w

let parse bytes =
  let r = Codec.Reader.create bytes in
  let m = Bytes.to_string (Codec.Reader.bytes r 4) in
  if not (String.equal m magic) then failwith "Objfile.parse: bad magic";
  let obj_name = Codec.Reader.str r in
  let uses_gp = Codec.Reader.u8 r = 1 in
  let text = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  let data = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  let bss_size = Codec.Reader.u32 r in
  let nsyms = Codec.Reader.u32 r in
  let read_symbol () =
    let sym_name = Codec.Reader.str r in
    let sym_section = section_of_code (Codec.Reader.u8 r) in
    let sym_offset = Codec.Reader.u32 r in
    let sym_binding = if Codec.Reader.u8 r = 1 then Global else Local in
    { sym_name; sym_section; sym_offset; sym_binding }
  in
  let symbols = List.init nsyms (fun _ -> read_symbol ()) in
  let nrels = Codec.Reader.u32 r in
  let read_reloc () =
    let rel_section = section_of_code (Codec.Reader.u8 r) in
    let rel_offset = Codec.Reader.u32 r in
    let rel_kind = kind_of_code (Codec.Reader.u8 r) in
    let rel_symbol = Codec.Reader.str r in
    let rel_addend = Codec.sext32 (Codec.Reader.u32 r) in
    { rel_section; rel_offset; rel_kind; rel_symbol; rel_addend }
  in
  let relocs = List.init nrels (fun _ -> read_reloc ()) in
  let own_modules = List.init (Codec.Reader.u32 r) (fun _ -> Codec.Reader.str r) in
  let own_search_path = List.init (Codec.Reader.u32 r) (fun _ -> Codec.Reader.str r) in
  { obj_name; text; data; bss_size; symbols; relocs; uses_gp; own_modules; own_search_path }

let pp ppf t =
  Format.fprintf ppf "@[<v>object %s%s@,text %d bytes, data %d bytes, bss %d bytes@,"
    t.obj_name (if t.uses_gp then " (uses gp)" else "")
    (Bytes.length t.text) (Bytes.length t.data) t.bss_size;
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-6s %s+0x%x %s@,"
        (match s.sym_binding with Global -> "global" | Local -> "local")
        (section_to_string s.sym_section) s.sym_offset s.sym_name)
    t.symbols;
  List.iter
    (fun r ->
      Format.fprintf ppf "  reloc %s+0x%x %s -> %s%+d@,"
        (section_to_string r.rel_section) r.rel_offset
        (reloc_kind_to_string r.rel_kind) r.rel_symbol r.rel_addend)
    t.relocs;
  Format.fprintf ppf "@]"
