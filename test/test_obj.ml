open Harness
module Objfile = Hemlock_obj.Objfile
module Aout = Hemlock_linker.Aout
module Sharing = Hemlock_linker.Sharing

let sample_obj () =
  {
    (Objfile.empty ~name:"sample.o") with
    Objfile.text = Bytes.of_string "TEXTTEXT";
    data = Bytes.of_string "DATA";
    bss_size = 12;
    symbols =
      [
        { Objfile.sym_name = "f"; sym_section = Objfile.Text; sym_offset = 0; sym_binding = Objfile.Global };
        { Objfile.sym_name = "d"; sym_section = Objfile.Data; sym_offset = 0; sym_binding = Objfile.Global };
        { Objfile.sym_name = "b"; sym_section = Objfile.Bss; sym_offset = 4; sym_binding = Objfile.Local };
      ];
    relocs =
      [
        {
          Objfile.rel_section = Objfile.Text;
          rel_offset = 4;
          rel_kind = Objfile.Jump26;
          rel_symbol = "g";
          rel_addend = 0;
        };
        {
          Objfile.rel_section = Objfile.Data;
          rel_offset = 0;
          rel_kind = Objfile.Abs32;
          rel_symbol = "d";
          rel_addend = -8;
        };
      ];
    uses_gp = true;
    own_modules = [ "next.o" ];
    own_search_path = [ "/shared/lib" ];
  }

let obj_roundtrip () =
  let obj = sample_obj () in
  let obj' = Objfile.parse (Objfile.serialize obj) in
  check_bool "equal" true (obj = obj')

let obj_bad_magic () =
  match Objfile.parse (Bytes.of_string "NOPE....") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

let obj_layout () =
  let obj = sample_obj () in
  let text_b, data_b, bss_b = Objfile.section_bases obj in
  check_int "text base" 0 text_b;
  check_int "data base" 8 data_b;
  check_int "bss base" 12 bss_b;
  check_int "load size" 24 (Objfile.load_size obj);
  (* alignment: odd text length pads *)
  let obj2 = { obj with Objfile.text = Bytes.of_string "12345" } in
  let _, data_b, _ = Objfile.section_bases obj2 in
  check_int "padded" 8 data_b

let obj_undefined_exports () =
  let obj = sample_obj () in
  Alcotest.(check (list string)) "undefined" [ "g" ] (Objfile.undefined obj);
  check_int "exports exclude locals" 2 (List.length (Objfile.exports obj))

let aout_sample () =
  {
    Aout.entry_off = 4;
    text = Bytes.of_string "texttext";
    data = Bytes.of_string "dd";
    bss_size = 8;
    veneer_off = 8;
    veneer_cap = 3;
    symbols = [ ("_start", 4); ("main", 0) ];
    pending =
      [
        {
          Objfile.rel_section = Objfile.Text;
          rel_offset = 0;
          rel_kind = Objfile.Hi16;
          rel_symbol = "x";
          rel_addend = 2;
        };
      ];
    dynamics =
      [
        { Aout.dd_name = "lib.o"; dd_class = Sharing.Dynamic_public };
        { Aout.dd_name = "priv.o"; dd_class = Sharing.Dynamic_private };
      ];
    static_pubs = [ { Aout.sp_template = "/shared/t.o"; sp_module = "/shared/t"; sp_base = 0x3000_0000 } ];
    static_dirs = [ "/home"; "/usr/lib" ];
    gp_base_off = Some 8;
  }

let aout_roundtrip () =
  let a = aout_sample () in
  let a' = Aout.parse (Aout.serialize a) in
  check_bool "equal" true (a = a')

let aout_magic () =
  check_bool "looks_like yes" true (Aout.looks_like (Aout.serialize (aout_sample ())));
  check_bool "looks_like no" false (Aout.looks_like (Bytes.of_string "HOBJxxxx"));
  check_bool "short" false (Aout.looks_like (Bytes.of_string "HE"))

let aout_helpers () =
  let a = aout_sample () in
  check_bool "find" true (Aout.find_symbol a "main" = Some 0);
  check_bool "miss" true (Aout.find_symbol a "zzz" = None);
  check_int "image size" (8 + 4 + 8) (Aout.image_size a)

(* Both lookups answer the first symbol of a name in declaration order,
   so a Local shadows a later Global of the same name. *)
let first_match_lookups () =
  let sym sym_name sym_binding sym_offset =
    { Objfile.sym_name; sym_section = Objfile.Text; sym_offset; sym_binding }
  in
  let local_a = sym "a" Objfile.Local 0 and b = sym "b" Objfile.Global 8 in
  let obj =
    {
      (Objfile.empty ~name:"dup.o") with
      Objfile.symbols = [ local_a; sym "a" Objfile.Global 4; b ];
    }
  in
  check_bool "the Local a, not the later Global" true (Objfile.find_symbol obj "a" = Some local_a);
  check_bool "b" true (Objfile.find_symbol obj "b" = Some b);
  check_bool "absent" true (Objfile.find_symbol obj "c" = None);
  let a = { (aout_sample ()) with Aout.symbols = [ ("a", 0); ("a", 4); ("b", 8) ] } in
  check_bool "image: the first binding of a" true (Aout.find_symbol a "a" = Some 0)

let prop_obj_roundtrip =
  let gen =
    QCheck2.Gen.(
      let section = oneofl [ Objfile.Text; Objfile.Data; Objfile.Bss ] in
      let kind =
        oneofl [ Objfile.Abs32; Objfile.Hi16; Objfile.Lo16; Objfile.Jump26; Objfile.Gprel16 ]
      in
      let ident = map (fun n -> Printf.sprintf "sym%d" n) (int_bound 50) in
      let symbol =
        map3
          (fun name sect off ->
            { Objfile.sym_name = name; sym_section = sect; sym_offset = off; sym_binding = Objfile.Global })
          ident section (int_bound 1000)
      in
      let reloc =
        map3
          (fun (sect, k) sym (off, add) ->
            {
              Objfile.rel_section = sect;
              rel_offset = off;
              rel_kind = k;
              rel_symbol = sym;
              rel_addend = add;
            })
          (pair section kind) ident
          (pair (int_bound 1000) (int_range (-100) 100))
      in
      let bytes = map Bytes.of_string (string_size ~gen:printable (int_bound 40)) in
      map3
        (fun (text, data) symbols relocs ->
          {
            (Objfile.empty ~name:"prop.o") with
            Objfile.text;
            data;
            bss_size = 16;
            symbols;
            relocs;
          })
        (pair bytes bytes)
        (list_size (int_bound 6) symbol)
        (list_size (int_bound 6) reloc))
  in
  prop "objfile: serialize/parse roundtrip" ~count:150 gen (fun obj ->
      Objfile.parse (Objfile.serialize obj) = obj)

let suite =
  [
    test "objfile: roundtrip" obj_roundtrip;
    test "objfile: bad magic rejected" obj_bad_magic;
    test "objfile: section layout" obj_layout;
    test "objfile: undefined/exports" obj_undefined_exports;
    test "aout: roundtrip" aout_roundtrip;
    test "aout: magic checks" aout_magic;
    test "aout: helpers" aout_helpers;
    test "objfile, aout: lookups answer the first match" first_match_lookups;
    prop_obj_roundtrip;
  ]
