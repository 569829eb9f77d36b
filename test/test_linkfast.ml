(* Linker fast path: hashed symbol lookup vs the linear oracle, the
   persisted v2 export index, and link-plan / search-cache coherence
   under filesystem mutation. *)

open Harness
module Stats = Hemlock_util.Stats
module Codec = Hemlock_util.Codec
module Segment = Hemlock_vm.Segment
module Modgen = Hemlock_apps.Modgen
module Modinst = Hemlock_linker.Modinst
module Link_plan = Hemlock_linker.Link_plan

(* ----- hashed lookup vs linear oracle ------------------------------------- *)

(* A small name alphabet so duplicate definitions (and Local shadowing a
   later Global) are common. *)
let names = [ "a"; "b"; "ab"; "f0"; "f1"; "d0"; "longer_symbol_name"; "x" ]

let gen_symtab =
  QCheck2.Gen.(
    let symbol =
      map3
        (fun name (sect, binding) off ->
          {
            Objfile.sym_name = name;
            sym_section = sect;
            sym_offset = off;
            sym_binding = binding;
          })
        (oneofl names)
        (pair
           (oneofl [ Objfile.Text; Objfile.Data; Objfile.Bss ])
           (oneofl [ Objfile.Local; Objfile.Global ]))
        (int_bound 500)
    in
    list_size (int_bound 24) symbol)

let obj_of_symbols symbols =
  {
    (Objfile.empty ~name:"linkfast.o") with
    Objfile.text = Bytes.of_string "TEXT";
    symbols;
  }

let agree obj =
  List.for_all
    (fun n -> Objfile.find_symbol obj n = Objfile.find_symbol_linear obj n)
    ("missing" :: names)

let prop_hash_oracle =
  prop "hashed find_symbol matches the linear oracle" ~count:300 gen_symtab
    (fun symbols -> agree (obj_of_symbols symbols))

let prop_index_roundtrip =
  prop "v2 index survives serialize/parse and still matches the oracle" ~count:300
    gen_symtab (fun symbols ->
      let obj = obj_of_symbols symbols in
      let v2 = Objfile.parse (Objfile.serialize ~with_index:true obj) in
      let v1 = Objfile.parse (Objfile.serialize obj) in
      v2 = obj && v1 = obj && agree v2 && agree v1)

let index_versioning () =
  let obj = obj_of_symbols [] in
  let v1 = Objfile.serialize obj and v2 = Objfile.serialize ~with_index:true obj in
  check_string "v1 magic" "HOBJ" (Bytes.sub_string v1 0 4);
  check_string "v2 magic" "HOB2" (Bytes.sub_string v2 0 4);
  (* The default encoding must stay byte-identical to the pre-index
     format: same bytes after the magic. *)
  check_string "same payload"
    (Bytes.sub_string v1 4 (Bytes.length v1 - 4))
    (Bytes.sub_string v2 4 (Bytes.length v1 - 4))

(* ----- link-plan memoization across execs --------------------------------- *)

let exec_measured k prog =
  let out = ref "" in
  let (), d =
    Stats.measure (fun () ->
        let _, console = run_program k prog in
        out := console)
  in
  (String.trim !out, d)

let plan_cache_replay_and_invalidation () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  ignore (Modgen.install ldl ~dir:"/home/lib" ~modules:4);
  Modgen.link_driver ldl ~dir:"/home/lib" ~out:"/home/d/prog" ~used:0;
  let want = string_of_int (Modgen.expected ~modules:4 ~used:0) in
  let out1, d1 = exec_measured k "/home/d/prog" in
  check_string "cold exec output" want out1;
  let out2, d2 = exec_measured k "/home/d/prog" in
  check_string "warm exec output" want out2;
  if !Hemlock_linker.Link_plan.enabled then begin
    check_bool "first exec records, no hits" true (d1.Stats.plan_hits = 0);
    check_bool "second exec replays plans" true (d2.Stats.plan_hits > 0);
    (* Replay must leave the simulated cost model untouched. *)
    check_int "same faults" d1.Stats.faults d2.Stats.faults;
    check_int "same symbols resolved" d1.Stats.symbols_resolved d2.Stats.symbols_resolved;
    check_int "same modules linked" d1.Stats.modules_linked d2.Stats.modules_linked
  end;
  (* Rewrite mod0's template in place: the FS generation bump must
     reject every recorded plan, and the next exec must see the new
     data, not a replay of the old resolution. *)
  install_c k "/home/lib/mod0.o"
    {|
extern int f1(int x);
extern int d1;
int d0 = 999;
int f0(int x) {
  if (x < 1) { return d0; }
  return f1(x - 1) + d0 + d1;
}
|};
  Lds.embed_metadata (ctx_in k "/" ()) ~template:"/home/lib/mod0.o"
    ~modules:[ "mod1.o" ] ~search_path:[ "/home/lib" ];
  let out3, d3 = exec_measured k "/home/d/prog" in
  check_string "rewritten template visible" "999" out3;
  if !Hemlock_linker.Link_plan.enabled then
    check_bool "stale plans rejected, not replayed" true (d3.Stats.plan_hits = 0)

(* A rewrite that goes through the file's backing segment — the way a
   store through a read-write mapping does — bumps Segment.version but
   not Fs.generation.  Plans must still never serve the old resolution:
   each dependency's recorded (segment id, version) no longer matches
   the fresh decode, and every pre-existing-instance digest moves. *)
let mapped_template_rewrite_rejects_plans () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  ignore (Modgen.install ldl ~dir:"/home/lib" ~modules:4);
  Modgen.link_driver ldl ~dir:"/home/lib" ~out:"/home/d/prog" ~used:0;
  let want = string_of_int (Modgen.expected ~modules:4 ~used:0) in
  let out1, _ = exec_measured k "/home/d/prog" in
  check_string "cold exec output" want out1;
  let out2, _ = exec_measured k "/home/d/prog" in
  check_string "warm exec output" want out2;
  let obj =
    {
      (Cc.to_object ~name:"mod0.o"
         {|
extern int f1(int x);
extern int d1;
int d0 = 999;
int f0(int x) {
  if (x < 1) { return d0; }
  return f1(x - 1) + d0 + d1;
}
|})
      with
      Objfile.own_modules = [ "mod1.o" ];
      own_search_path = [ "/home/lib" ];
    }
  in
  let gen0 = Fs.generation fs in
  let seg = Fs.segment_of fs "/home/lib/mod0.o" in
  Segment.resize seg 0;
  Segment.blit_in seg ~dst_off:0 (Objfile.serialize obj);
  check_int "mapped rewrite is invisible to the FS generation" gen0 (Fs.generation fs);
  let out3, d3 = exec_measured k "/home/d/prog" in
  check_string "exec after mapped rewrite sees the new data" "999" out3;
  if !Link_plan.enabled then
    check_bool "stale plans rejected, not replayed" true (d3.Stats.plan_hits = 0);
  (* And the fallback agrees with the plan machinery switched off. *)
  let saved = !Link_plan.enabled in
  Link_plan.enabled := false;
  let out4, d4 =
    Fun.protect
      ~finally:(fun () -> Link_plan.enabled := saved)
      (fun () -> exec_measured k "/home/d/prog")
  in
  check_string "cold path agrees" out3 out4;
  check_int "same faults" d4.Stats.faults d3.Stats.faults;
  check_int "same symbols resolved" d4.Stats.symbols_resolved d3.Stats.symbols_resolved;
  check_int "same modules linked" d4.Stats.modules_linked d3.Stats.modules_linked

(* Lazy-link fault order is execution-dependent, and the plan key's
   program identity cannot see what drives it (here: a byte of public
   module data flipped between execs, invisibly to Fs.generation).  A
   region recorded when a module was already instantiated bakes that
   module's addresses into the plan without a dependency entry; the
   same region reached first in a later exec must not replay them. *)
let fault_order_independence () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  if not (Fs.exists fs "/shared/lib") then Fs.mkdir fs "/shared/lib";
  install_c k "/home/lib/a.o" {|
extern int c(int x);
int fa(int x) { return c(x) + 1; }
|};
  install_c k "/home/lib/b.o" {|
extern int c(int x);
int fb(int x) { return c(x) + 2; }
|};
  install_c k "/home/lib/c.o" {|
int c(int x) { return 40; }
|};
  let ctx = ctx_in k "/" () in
  Lds.embed_metadata ctx ~template:"/home/lib/a.o" ~modules:[ "c.o" ]
    ~search_path:[ "/home/lib" ];
  Lds.embed_metadata ctx ~template:"/home/lib/b.o" ~modules:[ "c.o" ]
    ~search_path:[ "/home/lib" ];
  install_c k "/shared/lib/flag.o" {|
int flagv = 0;
|};
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o"
    {|
extern int fa(int x);
extern int fb(int x);
extern int flagv;
int main() {
  if (flagv < 1) {
    print_int(fb(0) + fa(0));
  } else {
    print_int(fa(0) + fb(0));
  }
  return 0;
}
|};
  ignore
    (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ]
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("a.o", Sharing.Dynamic_private);
           ("b.o", Sharing.Dynamic_private);
           ("/shared/lib/flag.o", Sharing.Dynamic_public);
         ]
       "prog");
  (* fb and fa each pull in c on their first call: whichever links first
     instantiates it, the other finds it pre-existing. *)
  let out1, _ = exec_measured k "/home/t/prog" in
  check_string "first order links" "83" out1;
  (* Flip the flag through the module file's segment: module data, so
     neither Fs.generation nor any template decode changes. *)
  let set_flag v =
    let obj = Objfile.parse (Fs.read_file fs "/shared/lib/flag.o") in
    let off =
      match Objfile.find_symbol_linear obj "flagv" with
      | None -> Alcotest.fail "flagv not exported"
      | Some s ->
        let _, data_b, bss_b = Objfile.section_bases obj in
        let base =
          match s.Objfile.sym_section with
          | Objfile.Text -> 0
          | Objfile.Data -> data_b
          | Objfile.Bss -> bss_b
        in
        Modinst.Header.size + base + s.Objfile.sym_offset
    in
    let gen0 = Fs.generation fs in
    Segment.set_u32 (Fs.segment_of fs "/shared/lib/flag") off v;
    check_int "flag flip is invisible to the FS generation" gen0 (Fs.generation fs)
  in
  set_flag 1;
  let out2, _ = exec_measured k "/home/t/prog" in
  check_string "reversed fault order still links correctly" "83" out2;
  (* Back to the original order: the first exec's plans replay. *)
  set_flag 0;
  let out3, d3 = exec_measured k "/home/t/prog" in
  check_string "original order again" "83" out3;
  if !Link_plan.enabled then
    check_bool "matching fault order replays plans" true (d3.Stats.plan_hits > 0)

(* ----- scope index vs the linear walk --------------------------------------- *)

(* Generated scope graphs.  Data modules are hand-built objects, as
   [gen_symtab] builds them, over a four-name alphabet: one list often
   holds several exporters of a name, and one object a Local before a
   Global of the same name.  Code modules read data names and call their
   code children; their own lists mix data modules, code children and
   absent names, nest two deep, and search either the main library, a
   directory of shadowing copies first, or only their parents' dirs.  A
   public data module is created mid-walk, moving the FS generation. *)

let data_names = [ "s0"; "s1"; "s2"; "s3" ]

type entry = Data of int | Absent of int | Code of node

and node = { reads : string list; entries : entry list; search : int }

type data_mod = {
  slots : (string * Objfile.binding) list;
  public : bool;
  shadowed : bool;  (* a copy with other values in /home/lib2 *)
}

type graph = { datas : data_mod list; root : node }

let n_data = 5

let gen_graph =
  QCheck2.Gen.(
    let gen_data =
      map3
        (fun slots public shadowed -> { slots; public; shadowed })
        (list_size (int_range 1 4)
           (pair (oneofl data_names) (oneofl [ Objfile.Local; Objfile.Global ])))
        (frequencyl [ (4, false); (1, true) ])
        (frequencyl [ (3, false); (1, true) ])
    in
    let rec gen_node depth =
      let entry =
        frequency
          ([
             (4, map (fun i -> Data i) (int_bound (n_data - 1)));
             (1, map (fun i -> Absent i) (int_bound 1));
           ]
          @ if depth = 0 then [] else [ (2, map (fun n -> Code n) (gen_node (depth - 1))) ])
      in
      map3
        (fun reads entries search -> { reads; entries; search })
        (list_size (int_range 1 3) (oneofl data_names))
        (list_size (int_range 1 4) entry)
        (int_bound 2)
    in
    map2 (fun datas root -> { datas; root }) (list_repeat n_data gen_data) (gen_node 2))

let print_graph g =
  let binding = function Objfile.Local -> "L" | Objfile.Global -> "G" in
  let rec node n =
    Printf.sprintf "{reads=%s; search=%d; list=[%s]}" (String.concat "," n.reads) n.search
      (String.concat "; "
         (List.map
            (function
              | Data i -> Printf.sprintf "d%d" i
              | Absent i -> Printf.sprintf "gone%d" i
              | Code c -> node c)
            n.entries))
  in
  String.concat "\n"
    (List.mapi
       (fun i d ->
         Printf.sprintf "d%d%s%s: %s" i
           (if d.public then " public" else "")
           (if d.shadowed then " shadowed" else "")
           (String.concat " "
              (List.map (fun (n, b) -> n ^ ":" ^ binding b) d.slots)))
       g.datas
    @ [ "root " ^ node g.root ])

(* Every slot holds a distinct value, so the console shows which module,
   slot and copy each read was bound to. *)
let data_obj ~name ~value slots =
  let data = Bytes.create (4 * List.length slots) in
  List.iteri (fun j _ -> Codec.set_u32 data (4 * j) (value j)) slots;
  {
    (Objfile.empty ~name) with
    Objfile.text = Bytes.of_string "TEXT";
    data;
    symbols =
      List.mapi
        (fun j (sym_name, sym_binding) ->
          { Objfile.sym_name; sym_section = Objfile.Data; sym_offset = 4 * j; sym_binding })
        slots;
  }

let entry_name ids = function
  | Data i -> Printf.sprintf "d%d.o" i
  | Absent i -> Printf.sprintf "gone%d.o" i
  | Code c -> Printf.sprintf "c%d.o" (List.assq c ids)

let install_graph k g =
  let fs = Kernel.fs k in
  List.iter (Fs.mkdir fs) [ "/home/lib"; "/home/lib2"; "/home/t" ];
  if not (Fs.exists fs "/shared/lib") then Fs.mkdir fs "/shared/lib";
  List.iteri
    (fun i d ->
      let name = Printf.sprintf "d%d.o" i in
      let dir = if d.public then "/shared/lib" else "/home/lib" in
      write_obj k (dir ^ "/" ^ name)
        (data_obj ~name ~value:(fun j -> (1000 * (i + 1)) + (10 * j)) d.slots);
      if d.shadowed then
        write_obj k ("/home/lib2/" ^ name)
          (data_obj ~name ~value:(fun j -> (1000 * (i + 1)) + (10 * j) + 5) d.slots))
    g.datas;
  write_obj k "/home/lib/all.o"
    (data_obj ~name:"all.o" ~value:(fun j -> 9000 + j)
       (List.map (fun n -> (n, Objfile.Global)) data_names));
  (* Code modules are numbered in preorder. *)
  let ids = ref [] in
  let rec number n =
    List.iter
      (function
        | Code c ->
          ids := (c, List.length !ids) :: !ids;
          number c
        | Data _ | Absent _ -> ())
      n.entries
  in
  number g.root;
  let ids = !ids in
  let body n =
    let children =
      List.filter_map (function Code c -> Some (List.assq c ids) | Data _ | Absent _ -> None)
        n.entries
    in
    let reads = List.sort_uniq compare n.reads in
    ( String.concat ""
        (List.map (Printf.sprintf "extern int %s;\n") reads
        @ List.map (Printf.sprintf "extern int f%d();\n") children),
      reads @ List.map (Printf.sprintf "f%d()") children )
  in
  List.iter
    (fun (c, id) ->
      let name = Printf.sprintf "c%d.o" id in
      let externs, terms = body c in
      let src =
        Printf.sprintf "%sint f%d() {\n  return %s;\n}\n" externs id (String.concat " + " terms)
      in
      write_obj k ("/home/lib/" ^ name)
        {
          (Cc.to_object ~name src) with
          Objfile.own_modules = List.map (entry_name ids) c.entries;
          own_search_path =
            (match c.search with
            | 0 -> [ "/home/lib" ]
            | 1 -> [ "/home/lib2"; "/home/lib" ]
            | _ -> []);
        })
    ids;
  let externs, terms = body g.root in
  install_c k "/home/t/main.o"
    (Printf.sprintf "%sint main() {\n%s  return 0;\n}\n" externs
       (String.concat "" (List.map (Printf.sprintf "  print_int(%s);\n") terms)));
  let dynamic e =
    let cls =
      match e with
      | Data i when (List.nth g.datas i).public -> Sharing.Dynamic_public
      | Data _ | Absent _ | Code _ -> Sharing.Dynamic_private
    in
    (entry_name ids e, cls)
  in
  ignore
    (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ]
       ~specs:
         ((("main.o", Sharing.Static_private) :: List.map dynamic g.root.entries)
         @ [ ("all.o", Sharing.Dynamic_private) ])
       "prog")

(* The linear walk with plans and the locate memo off is the reference;
   [indexed] turns all three on, whatever the environment says. *)
let with_link_path ~indexed f =
  let sh = !Objfile.sym_hash_enabled
  and sc = !Search.cache_enabled
  and pc = !Link_plan.enabled in
  Objfile.sym_hash_enabled := indexed;
  Search.cache_enabled := indexed;
  Link_plan.enabled := indexed;
  Fun.protect
    ~finally:(fun () ->
      Objfile.sym_hash_enabled := sh;
      Search.cache_enabled := sc;
      Link_plan.enabled := pc)
    f

(* What a run shows of its links: console, exit code, instance keys and
   bases in load order, and its bill (instructions, faults, syscalls,
   bytes copied, modules linked, symbols resolved, cycles), for a cold
   exec and a second exec (which replays plans when they are on); then
   the warnings. *)
let observe k ldl prog =
  let exec () =
    let (proc, console), d = Stats.measure (fun () -> run_program k prog) in
    let code = match proc.Proc.state with Proc.Zombie c -> c | _ -> -1 in
    ( console,
      code,
      List.map (fun i -> (i.Modinst.inst_key, i.Modinst.inst_base)) (Ldl.instances ldl proc),
      [
        d.Stats.instructions;
        d.Stats.faults;
        d.Stats.syscalls;
        d.Stats.bytes_copied;
        d.Stats.modules_linked;
        d.Stats.symbols_resolved;
        Stats.cycles d;
      ] )
  in
  let first = exec () in
  let second = exec () in
  (first, second, Ldl.warnings ldl)

let run_graph ~indexed g =
  with_link_path ~indexed (fun () ->
      let k, ldl = boot () in
      install_graph k g;
      observe k ldl "/home/t/prog")

let prop_index_is_the_linear_walk =
  prop "scope index: generated scope graphs link as the linear walk does" ~count:150
    ~print:print_graph gen_graph (fun g ->
      run_graph ~indexed:false g = run_graph ~indexed:true g)

(* The 96-module deep chain: the driver names every module, so each of
   its ~2N references resolves through the root scope's full list. *)
let deep_chain_links_as_the_linear_walk () =
  let modules = 96 in
  let run ~indexed =
    with_link_path ~indexed (fun () ->
        let k, ldl = boot () in
        Fs.mkdir (Kernel.fs k) "/home/lib";
        ignore (Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules);
        Modgen.link_driver ~deep:modules ldl ~dir:"/home/lib" ~out:"/home/t/prog"
          ~used:(modules - 1);
        observe k ldl "/home/t/prog")
  in
  let ((first, second, _) as indexed) = run ~indexed:true in
  let want = string_of_int (Modgen.expected ~modules ~used:(modules - 1)) in
  List.iter
    (fun (exec, (console, code, _, _)) ->
      check_string (exec ^ " exec console") want (String.trim console);
      check_int (exec ^ " exec exit") 0 code)
    [ ("first", first); ("second", second) ];
  check_bool "links and bills as the linear walk" true (indexed = run ~indexed:false)

(* A parent scope indexed before a shadowing template appears in the same
   process: the child's later link pass must find the new copy, as a
   fresh walk of the parent's list would. *)
let index_sees_shadow_in_parent_scope () =
  let scenario () =
    let k, ldl = boot () in
    let fs = Kernel.fs k in
    List.iter (Fs.mkdir fs) [ "/home/lib"; "/home/lib2"; "/home/t" ];
    write_obj k "/home/lib/x.o"
      {
        (Cc.to_object ~name:"x.o"
           "extern int g;\nextern int fy();\nint fx() { return g; }\nint fxy() { return fy(); }\n")
        with
        Objfile.own_modules = [ "y.o"; "z.o" ];
        own_search_path = [ "/home/lib2"; "/home/lib" ];
      };
    install_c k "/home/lib/y.o" "extern int g;\nint fy() { return g * 10; }\n";
    install_c k "/home/lib/z.o" "int g = 1;\n";
    install_c k "/home/t/main.o"
      {|
extern int fx();
extern int fxy();
int main() {
  int a = fx();
  yield();
  yield();
  yield();
  print_int(a);
  print_int(fxy());
  return 0;
}
|};
    ignore
      (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ]
         ~specs:[ ("main.o", Sharing.Static_private); ("x.o", Sharing.Dynamic_private) ]
         "prog");
    Kernel.console_clear k;
    let prog = Kernel.spawn_exec k "/home/t/prog" in
    (* Once fx's link pass has walked x's list (instantiating z), a
       shadowing z appears ahead of it on x's search path. *)
    ignore
      (Kernel.spawn_native k ~name:"shadower" (fun _k _proc ->
           while
             not
               (List.exists
                  (fun i -> i.Modinst.inst_key = "/home/lib/z.o")
                  (Ldl.instances ldl prog))
           do
             Proc.yield ()
           done;
           install_c k "/home/lib2/z.o" "int g = 2;\n";
           0));
    Kernel.run k;
    ( Kernel.console k,
      List.map (fun i -> i.Modinst.inst_key) (Ldl.instances ldl prog) )
  in
  let indexed = with_link_path ~indexed:true scenario in
  check_string "y binds the shadowing z" "120" (fst indexed);
  check_bool "the shadowing z is instantiated" true
    (List.mem "/home/lib2/z.o" (snd indexed));
  check_bool "same as the linear walk" true (indexed = with_link_path ~indexed:false scenario)

(* A walk that reaches a public module while another process holds its
   creation lock blocks; the holder releases the lock without creating
   the file, and the retried walk must create that module, not skip to
   the next exporter. *)
let index_retries_module_after_lock_release () =
  let scenario () =
    let k, _ldl = boot () in
    let fs = Kernel.fs k in
    List.iter (Fs.mkdir fs) [ "/home/lib"; "/home/t" ];
    if not (Fs.exists fs "/shared/lib") then Fs.mkdir fs "/shared/lib";
    install_c k "/shared/lib/p.o" "int n = 7;\n";
    install_c k "/home/lib/q.o" "int n = 3;\n";
    write_obj k "/home/lib/x.o"
      {
        (Cc.to_object ~name:"x.o" "extern int n;\nint fx() { return n; }\n") with
        Objfile.own_modules = [ "p.o"; "q.o" ];
        own_search_path = [ "/shared/lib"; "/home/lib" ];
      };
    install_c k "/home/t/main.o" "extern int fx();\nint main() { print_int(fx()); return 0; }\n";
    ignore
      (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ]
         ~specs:[ ("main.o", Sharing.Static_private); ("x.o", Sharing.Dynamic_private) ]
         "prog");
    Kernel.console_clear k;
    let prog = ref None in
    let blocked = ref false in
    ignore
      (Kernel.spawn_native k ~name:"holder" (fun k proc ->
           check_bool "lock taken" true (Kernel.try_flock k proc "/shared/lib/p.lock");
           for _ = 1 to 5 do
             Proc.yield ()
           done;
           (match !prog with
           | Some p -> blocked := (match p.Proc.state with Proc.Blocked _ -> true | _ -> false)
           | None -> ());
           Kernel.funlock k proc "/shared/lib/p.lock";
           0));
    prog := Some (Kernel.spawn_exec k "/home/t/prog");
    Kernel.run k;
    check_bool "the walk blocked on the creation lock" true !blocked;
    (Kernel.console k, Fs.exists fs "/shared/lib/p")
  in
  let indexed = with_link_path ~indexed:true scenario in
  check_string "x binds the public module" "7" (fst indexed);
  check_bool "the public module was created" true (snd indexed);
  check_bool "same as the linear walk" true (indexed = with_link_path ~indexed:false scenario)

(* ----- corrupt persisted index --------------------------------------------- *)

let corrupt_index_word_count () =
  let obj =
    obj_of_symbols
      [
        {
          Objfile.sym_name = "a";
          sym_section = Objfile.Text;
          sym_offset = 0;
          sym_binding = Objfile.Global;
        };
      ]
  in
  let v1 = Objfile.serialize obj in
  let v2 = Objfile.serialize ~with_index:true obj in
  (* The trailer follows the v1 payload: u32 bucket count, then the u32
     bloom word count we zero out. *)
  let bad = Bytes.copy v2 in
  Codec.set_u32 bad (Bytes.length v1 + 4) 0;
  match Objfile.parse bad with
  | _ -> Alcotest.fail "zero bloom word count accepted"
  | exception Failure _ -> ()

(* ----- search-cache coherence --------------------------------------------- *)

(* The locate memo resets itself when it grows past its bound; two
   domains sharing one table would index past a shrunken array.  Each
   domain drives its own kernel, as the ownership rule requires. *)
let locate_memo_per_domain () =
  let ready = Atomic.make 0 in
  let worker id () =
    let k = Kernel.create () in
    let fs = Kernel.fs k in
    Fs.mkdir fs "/home/lib";
    Fs.write_file fs "/home/lib/m.o" (Bytes.of_string "x");
    let ctx = { Search.fs; cwd = Path.root; env = [] } in
    let wrong = ref 0 in
    (* start together, so the two loops overlap *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for i = 0 to 99_999 do
      let dirs = [ Printf.sprintf "/d%d/%d" id i; "/home/lib" ] in
      if Search.locate ctx ~dirs "m.o" <> Some "/home/lib/m.o" then incr wrong
    done;
    !wrong
  in
  let domains = List.init 2 (fun id -> Domain.spawn (worker id)) in
  List.iter (fun d -> check_int "every answer right" 0 (Domain.join d)) domains


let search_dirs_do_not_alias () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/a:b";
  Fs.write_file fs "/home/a:b/x.o" (Bytes.of_string "x");
  let ctx = ctx_in k "/" () in
  check_bool "found via the literal directory" true
    (Search.locate ctx ~dirs:[ "/home/a:b" ] "x.o" = Some "/home/a:b/x.o");
  (* A directory list that happens to concatenate to the same string
     must not be served the cached entry. *)
  check_bool "split directory list misses" true
    (Search.locate ctx ~dirs:[ "/home/a"; "b" ] "x.o" = None)

let search_cache_sees_new_files () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  let ctx = ctx_in k "/" () in
  let dirs = [ "/home/lib" ] in
  check_bool "absent" true (Search.locate ctx ~dirs "late.o" = None);
  (* A cached negative result must not survive the file's creation. *)
  Fs.write_file fs "/home/lib/late.o" (Bytes.of_string "x");
  check_bool "appears after create" true
    (Search.locate ctx ~dirs "late.o" = Some "/home/lib/late.o");
  Fs.unlink fs "/home/lib/late.o";
  check_bool "gone after unlink" true (Search.locate ctx ~dirs "late.o" = None)

let suite =
  [
    prop_hash_oracle;
    prop_index_roundtrip;
    test "objfile: index is versioned and opt-in" index_versioning;
    test "link plans: replay then invalidation on rewrite" plan_cache_replay_and_invalidation;
    test "link plans: mapped template rewrite rejects stale plans"
      mapped_template_rewrite_rejects_plans;
    test "link plans: correct under execution-dependent fault order"
      fault_order_independence;
    test "objfile: corrupt index word count fails at parse time" corrupt_index_word_count;
    test "search cache: epoch-coherent with the FS" search_cache_sees_new_files;
    test "search cache: directory lists do not alias" search_dirs_do_not_alias;
    test "search cache: one memo per domain" locate_memo_per_domain;
    prop_index_is_the_linear_walk;
    test "scope index: the 96-module deep chain links as the linear walk does"
      deep_chain_links_as_the_linear_walk;
    test "scope index: a shadow seen through an indexed parent scope"
      index_sees_shadow_in_parent_scope;
    test "scope index: a module whose creation lock was released is retried"
      index_retries_module_after_lock_release;
  ]
