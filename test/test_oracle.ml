(* The oracle harness: a kernel workload run in a fresh world under
   Config.oracle and under any other configuration, JIT threshold and
   RAM budget shows the same consoles, exit codes, links, fsck'd /shared
   tree and Stats.cycles terms.  COW moves fork and exec copies from
   bytes_copied into bytes_saved, so bytes_copied (and cycles) is
   compared only between runs that agree on [cow], and cycles -
   bytes_copied otherwise.  One generator builds the workloads; the old
   kernel-level on/off tests are fixed inputs with their own extra
   checks.  A switch shrinks towards off, so the switches a shrunk
   counterexample leaves on name the fast path at fault. *)

open Harness
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault
module Codec = Hemlock_util.Codec
module Trace = Hemlock_isa.Trace
module Insn = Hemlock_isa.Insn
module Reg = Hemlock_isa.Reg
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module Vm_object = Hemlock_vm.Vm_object
module Modinst = Hemlock_linker.Modinst
module Cluster = Hemlock_os.Cluster
module Modgen = Hemlock_apps.Modgen

(* ----- settings and observations ----------------------------------------- *)

type setting = { cfg : Config.t; threshold : int; ram : int option }

let oracle = { cfg = Config.oracle; threshold = 50; ram = None }
let all_on ?(threshold = 50) ?ram () = { cfg = Config.all_on; threshold; ram }

let show_setting { cfg = c; threshold; ram } =
  let on =
    [ ("tlb", c.tlb); ("jit", c.jit); ("symhash", c.symhash); ("plans", c.plans);
      ("cow", c.cow); ("pager", c.pager) ]
  in
  Printf.sprintf "{%s} threshold=%d ram=%s"
    (String.concat "," (List.filter_map (fun (n, b) -> if b then Some n else None) on))
    threshold (Option.fold ~none:"unbounded" ~some:string_of_int ram)

type step = {
  label : string;
  shown : string;  (* console, fsck report, /shared tree or warnings *)
  code : int;  (* the program's exit code; 0 for other steps *)
  links : (string * int) list;  (* instance keys and bases, in load order *)
  bill : Stats.t option;
}

let note ?bill label shown = { label; shown; code = 0; links = []; bill }

(* A workload builds its world and logs one step per observation. *)
type workload = (step -> unit) -> unit

(* Run [f] under [cfg], a JIT threshold (by default the current one)
   and a RAM budget for the pagers it creates (by default unbounded),
   with the resident gauge and its peak zeroed and the fault engine
   disarmed on the way out. *)
let under ?(threshold = !Trace.threshold) ?ram cfg f =
  Config.with_ cfg (fun () ->
      let old_threshold = !Trace.threshold and old_ram = !Vm_object.ram_pages in
      Trace.threshold := threshold;
      Vm_object.ram_pages := ram;
      Vm_object.reset ();
      Fun.protect
        ~finally:(fun () ->
          Trace.threshold := old_threshold;
          Vm_object.ram_pages := old_ram;
          Vm_object.reset ();
          Fault.clear ())
        f)

let run_under s (w : workload) =
  under ~threshold:s.threshold ?ram:s.ram s.cfg (fun () ->
      let log = ref [] in
      w (fun st -> log := st :: !log);
      List.rev !log)

(* Every Stats.cycles term, bytes_copied only when [same_cow], and
   modules_linked. *)
let terms ~same_cow (d : Stats.t) =
  [
    ("instructions", d.instructions); ("syscalls", d.syscalls); ("faults", d.faults);
    ("pages_mapped", d.pages_mapped); ("relocs_applied", d.relocs_applied);
    ("symbols_resolved", d.symbols_resolved); ("files_opened", d.files_opened);
    ("messages_sent", d.messages_sent); ("context_switches", d.context_switches);
    ("modules_linked", d.modules_linked);
  ]
  @
  if same_cow then [ ("bytes_copied", d.bytes_copied); ("cycles", Stats.cycles d) ]
  else [ ("cycles - bytes_copied", Stats.cycles d - d.bytes_copied) ]

let differences (sa, a) (sb, b) =
  let same_cow = sa.cfg.cow = sb.cfg.cow in
  let view obs =
    List.concat_map
      (fun st ->
        List.map
          (fun (what, v) -> (st.label ^ ": " ^ what, v))
          ([
             ("output", st.shown); ("exit", string_of_int st.code);
             ( "links",
               String.concat " " (List.map (fun (k, b) -> Printf.sprintf "%s@%x" k b) st.links) );
           ]
          @ List.map
              (fun (n, v) -> (n, string_of_int v))
              (Option.fold ~none:[] ~some:(terms ~same_cow) st.bill)))
      obs
  in
  let va = view a and vb = view b in
  let labels obs = String.concat ", " (List.map (fun st -> st.label) obs) in
  if List.map fst va <> List.map fst vb then [ Printf.sprintf "steps %s vs %s" (labels a) (labels b) ]
  else
    List.concat
      (List.map2
         (fun (what, x) (_, y) -> if x = y then [] else [ Printf.sprintf "%s %S vs %S" what x y ])
         va vb)

(* The tick budget stops a program a broken fast path sent into a loop. *)
let exec k ldl ?env label prog =
  Kernel.console_clear k;
  let proc, d =
    Stats.measure (fun () ->
        let proc = Kernel.spawn_exec k ?env ~name:prog prog in
        Kernel.run ~max_ticks:20_000 k;
        proc)
  in
  {
    label;
    shown = Kernel.console k;
    code = (match proc.Proc.state with Proc.Zombie c -> c | _ -> -1);
    links = List.map (fun i -> (i.Modinst.inst_key, i.Modinst.inst_base)) (Ldl.instances ldl proc);
    bill = Some d;
  }

let fsck_note fs label =
  let r = Fs.fsck fs in
  note label
    (Printf.sprintf "replayed=%d rolled_back=%d clean=%b repairs=[%s] orphans=[%s]"
       r.Fs.fsck_replayed r.fsck_rolled_back r.fsck_clean
       (String.concat "; " r.fsck_repairs) (String.concat "; " r.fsck_orphans))

let rec tree fs dir =
  List.concat_map
    (fun name ->
      let path = dir ^ "/" ^ name in
      if Fs.is_dir fs path then (path ^ "/") :: tree fs path
      else [ path ^ " " ^ Digest.to_hex (Digest.bytes (Fs.read_file fs path)) ])
    (Fs.readdir fs dir)

let tree_note fs = note "/shared" (String.concat "\n" (tree fs "/shared"))

(* ----- generated workloads ------------------------------------------------ *)

(* Scope graphs.  Data modules are hand-built objects over a four-name
   alphabet: one list often holds several exporters of a name, and one
   object a Local before a Global of the same name.  Code modules read
   data names and call their code children; their own lists mix data
   modules, code children and absent names, nest two deep, and search
   either the main library, a directory of shadowing copies first, or
   only their parents' dirs.  A public data module is created mid-walk,
   moving the FS generation. *)

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
  let slot (n, b) = n ^ if b = Objfile.Local then ":L" else ":G" in
  String.concat "\n"
    (List.mapi
       (fun i d ->
         Printf.sprintf "d%d%s%s: %s" i
           (if d.public then " public" else "")
           (if d.shadowed then " shadowed" else "")
           (String.concat " " (List.map slot d.slots)))
       g.datas
    @ [ "root " ^ node g.root ])

(* Every slot holds a distinct value, so the console shows which module,
   slot and copy each read was bound to. *)
let data_obj ~name ~value slots =
  let data = Bytes.create (4 * List.length slots) in
  List.iteri (fun j _ -> Codec.set_u32 data (4 * j) (value j)) slots;
  Objfile.serialize
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

let data_path g i =
  Printf.sprintf "%s/d%d.o" (if (List.nth g.datas i).public then "/shared/lib" else "/home/lib") i

(* Data module [i] holds [(1000 * (i + 1)) + (10 * j) + copy]: copy 0 is
   the original, 5 the shadowing copy, 1 and 2 the rewrites, whose slots
   come in reverse order so every name moves. *)
let data_bytes g i ~copy =
  let slots = (List.nth g.datas i).slots in
  data_obj ~name:(Printf.sprintf "d%d.o" i)
    ~value:(fun j -> (1000 * (i + 1)) + (10 * j) + copy)
    (if copy = 1 || copy = 2 then List.rev slots else slots)

(* The [n]th data module the graph names, counting round. *)
let named g n =
  let rec data acc node =
    List.fold_left
      (fun acc -> function Data i -> i :: acc | Absent _ -> acc | Code c -> data acc c)
      acc node.entries
  in
  match List.sort_uniq compare (data [] g.root) with
  | [] -> n
  | l -> List.nth l (n mod List.length l)

(* /shared traffic before the reboot: [(kind, a, b)] writes or appends
   [1 + b] bytes to file [a], renames [a] to [b] or unlinks [a], over a
   pool of three files. *)
let fs_op fs (kind, a, b) =
  let f i = Printf.sprintf "/shared/w/f%d" (i mod 3) in
  match kind with
  | 0 -> Fs.write_file fs (f a) (Bytes.make (1 + b) (Char.chr (97 + a)))
  | 1 -> Fs.append_file fs (f a) (Bytes.make (1 + b) (Char.chr (100 + a)))
  | 2 -> Fs.rename fs ~src:(f a) (f b)
  | _ -> Fs.unlink fs (f a)

type case = {
  graph : graph;
  heap : int;  (* pages the parent dirties before it forks *)
  pre_fork : int;  (* root terms the parent prints before it forks *)
  in_place : int;  (* [named] data module rewritten through the FS *)
  mapped : int;  (* [named] data module rewritten through its segment *)
  writes : (int * int * int) list;  (* [fs_op]s *)
  crash : (string * int) option;  (* site and hit armed to crash the writes *)
  datagrams : int;  (* broadcasts per machine in the cluster exchange *)
}

let gen_case =
  QCheck2.Gen.(
    let site =
      oneofl
        [
          "fs.create"; "fs.create.mid"; "fs.create.commit"; "fs.write"; "fs.append"; "fs.rename";
          "fs.rename.mid"; "fs.rename.commit"; "fs.unlink"; "fs.unlink.mid";
        ]
    in
    let+ graph = gen_graph
    and+ heap = int_bound 3
    and+ pre_fork = int_bound 2
    and+ in_place = int_bound (n_data - 1)
    and+ mapped = int_bound (n_data - 1)
    and+ writes = list_size (int_range 2 8) (triple (int_bound 3) (int_bound 2) (int_bound 5))
    and+ crash = option (pair site (int_range 1 2))
    and+ datagrams = int_range 1 3 in
    { graph; heap; pre_fork; in_place; mapped; writes; crash; datagrams })

let print_case c =
  Printf.sprintf "%s\nheap=%d pre_fork=%d in_place=d%d mapped=d%d datagrams=%d\nwrites %s crash %s"
    (print_graph c.graph) c.heap c.pre_fork (named c.graph c.in_place) (named c.graph c.mapped)
    c.datagrams
    (String.concat " " (List.map (fun (k, a, b) -> Printf.sprintf "%d.%d.%d" k a b) c.writes))
    (match c.crash with None -> "none" | Some (site, n) -> Printf.sprintf "%s@%d" site n)

(* The main program forks after dirtying [heap] pages and printing
   [pre_fork] terms.  The child first takes and releases a lock on a
   word of the heap's first page, which it still shares copy-on-write,
   and prints both results; only then does it store to that page.  The
   child and the parent print the other terms in opposite orders,
   chosen by [order]: flag.o exports 0 from /home/lib and 1 from
   /home/lib2, so an exec with LD_LIBRARY_PATH naming /home/lib2 links
   its modules in another order. *)
let main_src c ~externs ~terms =
  let prints ts =
    String.concat "" (List.map (Printf.sprintf "    print_int(%s); print_str(\" \");\n") ts)
  in
  let before = List.filteri (fun i _ -> i < c.pre_fork) terms
  and after = List.filteri (fun i _ -> i >= c.pre_fork) terms in
  let ordered fwd =
    Printf.sprintf "  if (order == 0) {\n%s  } else {\n%s  }\n" (prints fwd) (prints (List.rev fwd))
  in
  Printf.sprintf
    "%sextern int order;\n\
     int main() {\n\
    \  int pid; int *p; int i;\n\
    \  p = sbrk(%d); i = 0;\n\
    \  while (i < %d) { p[i] = i; i = i + 1024; }\n\
     %s  pid = fork();\n\
    \  if (pid == 0) {\n\
    \    print_int(lock_acquire(&p[1])); print_str(\" \");\n\
    \    print_int(lock_release(&p[1])); print_str(\" \");\n\
    \    if (%d > 0) { p[0] = 99; }\n\
     %s    exit(3);\n\
    \  }\n\
    \  wait();\n\
     %s  if (%d > 0) { print_int(p[0]); }\n\
    \  return 7;\n\
     }\n"
    externs
    (max 4 (c.heap * Layout.page_size))
    (c.heap * Layout.page_size / 4)
    (prints before) c.heap (ordered after) (ordered (List.rev after)) c.heap

(* Every template the case installs, built once for both of its runs,
   and the link specs of its main program. *)
let files_of c =
  let g = c.graph in
  let files = ref [] and next = ref 0 in
  (* [visit n] adds the code modules below [n], numbered in preorder,
     and returns [n]'s list entries, externs and terms. *)
  let rec visit n =
    let entry = function
      | Data i -> (Printf.sprintf "d%d.o" i, [])
      | Absent i -> (Printf.sprintf "gone%d.o" i, [])
      | Code ch ->
        let id = !next in
        incr next;
        let name = Printf.sprintf "c%d.o" id in
        let own_modules, externs, terms = visit ch in
        let src = Printf.sprintf "%sint f%d() {\n  return %s;\n}\n" externs id (String.concat " + " terms) in
        let dirs = List.nth [ [ "/home/alias" ]; [ "/home/lib2"; "/home/lib" ]; [] ] ch.search in
        let obj = { (Cc.to_object ~name src) with Objfile.own_modules; own_search_path = dirs } in
        files := ("/home/lib/" ^ name, Objfile.serialize obj) :: !files;
        (name, [ id ])
    in
    let entries = List.map entry n.entries in
    let children = List.concat_map snd entries and reads = List.sort_uniq compare n.reads in
    ( List.map fst entries,
      String.concat ""
        (List.map (Printf.sprintf "extern int %s;\n") reads
        @ List.map (Printf.sprintf "extern int f%d();\n") children),
      reads @ List.map (Printf.sprintf "f%d()") children )
  in
  let names, externs, terms = visit g.root in
  let data i d =
    (data_path g i, data_bytes g i ~copy:0)
    :: (if d.shadowed then [ (Printf.sprintf "/home/lib2/d%d.o" i, data_bytes g i ~copy:5) ] else [])
  in
  let flag v = data_obj ~name:"flag.o" ~value:(fun _ -> v) [ ("order", Objfile.Global) ] in
  let dynamic e name =
    match e with
    | Data i when (List.nth g.datas i).public -> (name, Sharing.Dynamic_public)
    | Data _ | Absent _ | Code _ -> (name, Sharing.Dynamic_private)
  in
  ( List.concat (List.mapi data g.datas)
    @ !files
    @ [
        ("/home/lib/flag.o", flag 0); ("/home/lib2/flag.o", flag 1);
        ( "/home/lib/all.o",
          data_obj ~name:"all.o" ~value:(fun j -> 9000 + j)
            (List.map (fun n -> (n, Objfile.Global)) data_names) );
        ( "/home/t/main.o",
          Objfile.serialize (Cc.to_object ~name:"main.o" (main_src c ~externs ~terms)) );
      ],
    (("main.o", Sharing.Static_private) :: List.map2 dynamic g.root.entries names)
    @ [ ("flag.o", Sharing.Dynamic_private); ("all.o", Sharing.Dynamic_private) ] )

let exchange ~datagrams =
  let c = Cluster.create ~machines:2 () in
  let heard = Array.make 2 [] in
  for i = 0 to 1 do
    let k = Cluster.machine c i in
    Kernel.set_daemon k
      (Kernel.spawn_native k ~name:"rx" (fun k proc ->
           while true do
             heard.(i) <- Bytes.to_string (Kernel.msg_recv k proc Cluster.inbox) :: heard.(i)
           done;
           0));
    ignore
      (Kernel.spawn_native k ~name:"tx" (fun _ _ ->
           for r = 1 to datagrams do
             Cluster.broadcast c ~from:i (Bytes.of_string (Printf.sprintf "m%d.%d" i r))
           done;
           0))
  done;
  let (), d = Stats.measure (fun () -> Cluster.run c) in
  note ~bill:d "cluster" (String.concat " | " (Array.to_list (Array.map (String.concat ",") heard)))

(* A cold exec; one under another LD_LIBRARY_PATH, which also reaches
   the public modules the cold exec created through a symlinked
   directory; one after an in-place and one after a mapped template
   rewrite; one after /shared traffic (crashed and fsck'd when armed)
   and a reboot; a two-machine exchange; then the fsck'd /shared tree.
   Code modules of search list 0 reach /home/lib through its alias. *)
let case_workload c (files, specs) log =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  List.iter (Fs.mkdir fs) [ "/home/lib"; "/home/lib2"; "/home/t"; "/shared/lib"; "/shared/w" ];
  Fs.symlink fs ~target:"/shared/lib" "/shared/alias";
  Fs.symlink fs ~target:"/home/lib" "/home/alias";
  List.iter (fun (path, bytes) -> Fs.write_file fs path bytes) files;
  ignore (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ] ~specs "prog");
  let run ?env label = log (exec k ldl ?env label "/home/t/prog") in
  run "cold";
  run ~env:[ ("LD_LIBRARY_PATH", "/home/lib2:/shared/alias") ] "other order";
  let g = c.graph in
  let i = named g c.in_place and m = named g c.mapped in
  Fs.write_file fs (data_path g i) (data_bytes g i ~copy:1);
  run "in-place rewrite";
  let seg = Fs.segment_of fs (data_path g m) in
  Segment.resize seg 0;
  Segment.blit_in seg ~dst_off:0 (data_bytes g m ~copy:2);
  run "mapped rewrite";
  Option.iter (fun (site, n) -> Fault.configure (Printf.sprintf "%s@%d=crash" site n)) c.crash;
  (try List.iter (fun op -> try fs_op fs op with Fs.Error _ -> ()) c.writes
   with Fault.Crash { site } ->
     Fault.clear ();
     Fs.rescan_shared fs;
     log (fsck_note fs ("crashed at " ^ site)));
  Fault.clear ();
  Kernel.reboot k;
  run "after reboot";
  log (exchange ~datagrams:c.datagrams);
  log (fsck_note fs "fsck");
  log (tree_note fs);
  log (note "warnings" (String.concat "\n" (Ldl.warnings ldl)))

let gen_setting =
  QCheck2.Gen.(
    let switch = frequencyl [ (1, false); (2, true) ] in
    let+ tlb = switch
    and+ jit = switch
    and+ symhash = switch
    and+ plans = switch
    and+ cow = switch
    and+ pager = switch
    and+ threshold = oneofl [ 1; 50 ]
    and+ ram = oneofl [ None; Some 8; Some 32 ] in
    { cfg = { Config.tlb; jit; symhash; plans; cow; pager }; threshold; ram })

let prop_generated =
  prop "oracle: generated workloads run as under the oracle" ~count:150
    ~print:(fun (c, s) -> show_setting s ^ "\n" ^ print_case c)
    QCheck2.Gen.(pair gen_case gen_setting)
    (fun (c, s) ->
      let w = case_workload c (files_of c) in
      match differences (oracle, run_under oracle w) (s, run_under s w) with
      | [] -> true
      | ds -> QCheck2.Test.fail_reportf "%s" (String.concat "\n" ds))

(* ----- fixed inputs ------------------------------------------------------- *)

let find obs label = List.find (fun st -> st.label = label) obs
let bill obs label = Option.get (find obs label).bill

(* [check_fixed settings w] compares [w] under each setting with the
   oracle, then runs [extra setting oracle_steps steps]. *)
let check_fixed ?(extra = fun _ _ _ -> ()) settings (w : workload) () =
  let base = run_under oracle w in
  List.iter
    (fun s ->
      let obs = run_under s w in
      (match differences (oracle, base) (s, obs) with
      | [] -> ()
      | ds -> Alcotest.failf "under %s:\n%s" (show_setting s) (String.concat "\n" ds));
      extra s base obs)
    settings

let fixed name ?extra settings w = test ("oracle: " ^ name) (check_fixed ?extra settings w)

(* Link [src] as /home/t/prog against [libs], public modules in
   /shared/lib, and exec it once per label. *)
let program ?(libs = []) src labels log =
  let k, ldl = boot () in
  Fs.mkdir (Kernel.fs k) "/shared/lib";
  Fs.mkdir (Kernel.fs k) "/home/t";
  List.iter (fun (name, lib) -> install_c k ("/shared/lib/" ^ name) lib) libs;
  install_c k "/home/t/main.o" src;
  let lib (name, _) = ("/shared/lib/" ^ name, Sharing.Dynamic_public) in
  ignore
    (link k ~dir:"/home/t" ~specs:(("main.o", Sharing.Static_private) :: List.map lib libs) "prog");
  List.iter (fun label -> log (exec k ldl label "/home/t/prog")) labels;
  (k, ldl)

(* Fork + COW with a lazily linked public module: the TLB alone carries
   the interpreter, billed to the byte; at threshold 1 traces exist
   before the lazy linker patches the jump slots and before the fork
   breaks COW sharing.  test_scenarios runs it under the TLB alone,
   test_jit under the JIT. *)
let fork_check settings =
  check_fixed settings
    ~extra:(fun s base obs ->
      let tlb_hits = List.fold_left (fun n { bill; _ } -> n + (Option.get bill).tlb_hits) 0 in
      if not s.cfg.jit then begin
        check_bool "fast path exercised" true (tlb_hits obs > 0);
        check_bool "slow path records no cache hits" true (tlb_hits base = 0)
      end;
      if s.threshold = 1 then
        check_bool "threshold=1 compiles traces" true ((bill obs "first").Stats.jit_compiles > 0))
    (fun log ->
      ignore
        (program
           ~libs:[ ("counter.o", counter_template) ]
           {|
extern int bump();
int main() {
  int pid; int i; int acc;
  acc = 0; pid = fork(); i = 0;
  while (i < 200) { acc = acc + bump(); i = i + 1; }
  if (pid == 0) { print_int(acc); exit(0); }
  wait(); print_int(acc); return 0;
}
|}
           [ "first"; "second" ] log))

(* Another process patches a public module's code, through its /shared
   file, while a program calls it in a loop: the JIT must see the write
   through the shared segment as the plain interpreter does. *)
let patched_code_input =
  fixed "code patched through a shared segment mid-run"
    [ all_on (); all_on ~threshold:1 () ]
    ~extra:(fun _ base _ ->
      let acc = int_of_string (find base "patched").shown in
      check_bool "the patch lands mid-run" true (acc > 60 * 40 && acc < 60 * 41))
    (fun log ->
      let k, ldl =
        program
          ~libs:[ ("val.o", "int val() { return 40; }") ]
          {|
extern int val();
int main() {
  int i; int acc;
  acc = 0; i = 0;
  while (i < 60) { acc = acc + val(); yield(); i = i + 1; }
  print_int(acc); return 0;
}
|}
          [] log
      in
      let fs = Kernel.fs k in
      let patch () =
        let seg = Fs.segment_of fs "/shared/lib/val" in
        for i = 0 to (Segment.size seg / 4) - 1 do
          match Insn.decode (Segment.get_u32 seg (4 * i)) with
          | Insn.Addi (rd, rs, 40) when rs = Reg.zero ->
            Segment.set_u32 seg (4 * i) (Insn.encode (Insn.Addi (rd, rs, 41)))
          | _ | (exception Failure _) -> ()
        done
      in
      ignore
        (Kernel.spawn_native k ~name:"patcher" (fun _ _ ->
             while not (Fs.exists fs "/shared/lib/val") do
               Proc.yield ()
             done;
             for _ = 1 to 20 do
               Proc.yield ()
             done;
             patch ();
             0));
      log (exec k ldl "patched" "/home/t/prog"))

(* One exec of [src], compared with the oracle under every fast path,
   then with every block compiled and 32 pages of RAM, and the oracle's
   console pinned to [expect]. *)
let console_probe name ~expect src =
  fixed name
    [ all_on (); all_on ~threshold:1 ~ram:32 () ]
    ~extra:(fun _ base _ -> check_string "the oracle's console" expect (find base "run").shown)
    (fun log -> ignore (program src [ "run" ] log))

(* A forked child locks a private global it still shares copy-on-write
   with its parent: the acquire probe takes the lock and releases it,
   the release probe releases the lock its parent took before the fork.
   POSIX fork has the child write its own copy whichever path does the
   write, here a registered syscall rather than a store instruction, so
   each syscall returns 0 and the word reads back what it stored.  Under
   both settings the syscall's store takes a copy-on-write fault. *)
let lock_acquire_input =
  console_probe "a forked child's lock_acquire writes its own copy" ~expect:"0 1 0 0"
    {|
int w;
int main() {
  int r;
  if (fork() == 0) {
    r = lock_acquire(&w);
    print_int(r); print_str(" "); print_int(w == getpid()); print_str(" ");
    r = lock_release(&w);
    print_int(r); print_str(" "); print_int(w);
    exit(0);
  }
  wait();
  return 0;
}
|}

let lock_release_input =
  console_probe "a forked child's lock_release writes its own copy" ~expect:"0 0"
    {|
int w;
int main() {
  int r;
  lock_acquire(&w);
  if (fork() == 0) {
    r = lock_release(&w);
    print_int(r); print_str(" "); print_int(w);
    exit(0);
  }
  wait();
  return 0;
}
|}

(* The built-in [write] and [read] with a buffer of 98 pages of fresh
   heap, none resident under the pager: each page faults in the
   syscall, more pages than one syscall access may retry, and at 32
   pages of RAM the buffer's first pages are evicted before its last
   fault in.  The read's sum samples a word of every page it filled. *)
let big_write_input =
  console_probe "a 400,000-byte write from fresh heap" ~expect:"400000"
    {|
int main() {
  int p; int fd;
  p = sbrk(400000);
  fd = open("/tmp/out", 1);
  print_int(write(fd, p, 400000));
  return 0;
}
|}

let big_read_input =
  console_probe "a 400,000-byte read into fresh heap" ~expect:"200000 200000 400000 1271175"
    {|
int main() {
  int *p; int fd; int i; int sum;
  p = sbrk(200000); i = 0;
  while (i < 50000) { p[i] = i; i = i + 997; }
  fd = open("/tmp/out", 1);
  print_int(write(fd, p, 200000)); print_str(" ");
  print_int(write(fd, p, 200000)); print_str(" ");
  lseek(fd, 0);
  p = sbrk(400000);
  print_int(read(fd, p, 400000)); print_str(" ");
  sum = 0; i = 0;
  while (i < 100000) { sum = sum + p[i]; i = i + 997; }
  print_int(sum);
  return 0;
}
|}

(* Syscall errnos reach the program as negative v0 whatever serves its
   fetches and loads. *)
let errno_input =
  fixed "ISA syscalls report the same errnos" [ all_on () ] (fun log ->
      ignore (program Test_errno.errno_program [ "run" ] log))

(* A 24-page heap written and summed, then eight 1 MB /shared files
   mapped by a native process, registered in a B-tree address index and
   swept three times: every page translated through the index, read and
   written. *)
let pager_input =
  let files = 8 and bytes = Layout.shared_slot_size in
  fixed "console and billed costs identical under squeeze"
    [ all_on (); all_on ~ram:256 (); all_on ~ram:32 (); all_on ~ram:8 () ]
    ~extra:(fun s _ obs ->
      if s.ram = Some 32 then begin
        let d = bill obs "sweep" in
        check_bool "32 pages evict" true (d.Stats.pages_evicted > 0);
        check_bool "dirty file pages are written back" true (d.Stats.pages_written_back > 0)
      end)
    (fun log ->
      let module Addr_index = Hemlock_sfs.Addr_index in
      let k, _ =
        program
          {|
int main() {
  int *p; int i; int sum;
  p = sbrk(98304); i = 0;
  while (i < 24576) { p[i] = i; i = i + 97; }
  sum = 0; i = 0;
  while (i < 24576) { sum = sum + p[i]; i = i + 97; }
  print_int(sum); return 0;
}|}
          [ "heap" ] log
      in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/ws";
      let path i = Printf.sprintf "/shared/ws/f%d" i in
      for i = 0 to files - 1 do
        Fs.write_file fs (path i) (Bytes.make bytes (Char.chr (65 + i)))
      done;
      let sweep k proc =
        let idx = Addr_index.create Addr_index.Btree_index in
        let map i =
          let base = Kernel.map_shared_file k proc ~path:(path i) ~prot:Prot.Read_write in
          Addr_index.register idx ~base ~bytes (path i);
          base
        in
        let bases = Array.init files map in
        for round = 1 to 3 do
          Array.iteri
            (fun f base ->
              for pg = 0 to (bytes / Layout.page_size) - 1 do
                let addr = base + (pg * Layout.page_size) in
                if Addr_index.translate idx addr = None then Alcotest.fail "index lost a mapping";
                ignore (Kernel.load_u32 k proc addr);
                Kernel.store_u32 k proc addr (round + f + pg)
              done)
            bases
        done
      in
      let (), d = Stats.measure (fun () -> run_native k sweep) in
      log (note ~bill:d "sweep" "");
      log (tree_note fs))

(* The parent dirties a 64-page heap, then forks and waits 8 times; each
   child writes one heap page and exits.  Eager fork copies heap, image
   and stack every time; COW copies the pages written.  Each program
   runs once to warm the image master, then once more. *)
let cow_fork_input =
  fixed "fork copies the pages written, not the heap" [ all_on () ]
    ~extra:(fun _ base obs ->
      let eager = bill base "run" and cow = bill obs "run" in
      check_string "parent's heap untouched by its children" "0" (find obs "run").shown;
      check_bool "COW copies under a quarter of the eager traffic" true
        (cow.Stats.pages_copied * Layout.page_size * 4 <= eager.Stats.bytes_copied);
      check_bool "eager forks bill at least 5x the COW cycles" true
        (Stats.cycles eager >= 5 * Stats.cycles cow))
    (fun log ->
      ignore
        (program
           {|
int main() {
  int *p; int i; int pid; int kids;
  p = sbrk(262144); i = 0;
  while (i < 65536) { p[i] = i; i = i + 1024; }
  kids = 0;
  while (kids < 8) {
    pid = fork();
    if (pid == 0) { p[0] = kids + 1; exit(0); }
    wait(); kids = kids + 1;
  }
  print_int(p[0]); return 0;
}
|}
           [ "warm"; "run" ] log))

(* An image several pages long (200 padding functions) that writes
   nothing but its stack: exec maps a COW copy of its image master. *)
let multi_page_image_src =
  String.concat "" (List.init 200 (fun i -> Printf.sprintf "int f%d() { return %d; }\n" i i))
  ^ "int main() { return f0() + f1() - 1; }\n"

let cow_exec_input =
  fixed "exec from an image master" [ all_on () ] (fun log ->
      ignore (program multi_page_image_src [ "warm"; "run" ] log))

(* The other inputs compare configurations with each other, so a count
   that every configuration bills alike (a template read that stops
   billing its file, say) shows only against constants: the 4-module
   deep chain's cold and warm exec, under the oracle. *)
let pinned_bill_input =
  let pinned d =
    [ ("instructions", d.Stats.instructions); ("syscalls", d.syscalls); ("faults", d.faults);
      ("files_opened", d.files_opened); ("bytes_copied", d.bytes_copied);
      ("modules_linked", d.modules_linked); ("symbols_resolved", d.symbols_resolved);
      ("cycles", Stats.cycles d) ]
  in
  fixed "the deep chain's execs bill pinned costs" [ all_on () ]
    ~extra:(fun _ base _ ->
      List.iter
        (fun label ->
          check_string (label ^ ": console")
            (string_of_int (Modgen.expected ~modules:4 ~used:3))
            (find base label).shown;
          Alcotest.(check (list (pair string int)))
            (label ^ ": bill")
            [ ("instructions", 196); ("syscalls", 4); ("faults", 4); ("files_opened", 5);
              ("bytes_copied", 2255); ("modules_linked", 4); ("symbols_resolved", 30);
              ("cycles", 13689) ]
            (pinned (bill base label)))
        [ "cold"; "warm" ])
    (fun log ->
      let k, ldl = boot () in
      Fs.mkdir (Kernel.fs k) "/home/lib";
      ignore (Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules:4);
      Modgen.link_driver ~deep:4 ldl ~dir:"/home/lib" ~out:"/home/t/prog" ~used:3;
      List.iter (fun label -> log (exec k ldl label "/home/t/prog")) [ "cold"; "warm" ])

(* One program creates b's public module through a symlinked directory
   (/shared/alias -> /shared/lib), and another links it through the
   real one, resolving three of its names: both spell it
   /shared/lib/b.o, so the second process holds one instance, billed
   alike by the linear walk and the scope index. *)
let alias_input =
  fixed "a module created under one spelling links under another" [ all_on () ]
    ~extra:(fun _ base obs ->
      List.iter
        (fun o ->
          let st = find o "through /shared/lib" in
          check_int "exit" 42 st.code;
          check_int "one instance" 1 (List.length st.links))
        [ base; obs ])
    (fun log ->
      let k, ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      Fs.mkdir fs "/home/t";
      Fs.symlink fs ~target:"/shared/lib" "/shared/alias";
      install_c k "/shared/lib/b.o"
        "int b1() { return 1; } int b2() { return 2; } int b3() { return 39; }";
      install_c k "/home/t/main.o"
        "extern int b1(); extern int b2(); extern int b3();\n\
         int main() { return b1() + b2() + b3(); }";
      List.iter
        (fun dir ->
          ignore
            (link k ~dir:"/home/t"
               ~specs:[ ("main.o", Sharing.Static_private); (dir ^ "/b.o", Sharing.Dynamic_public) ]
               (Filename.basename dir));
          log (exec k ldl ("through " ^ dir) ("/home/t/" ^ Filename.basename dir)))
        [ "/shared/alias"; "/shared/lib" ])

(* A module refused in the middle of the root's list: a template grown
   past its slot, listed before the module that exports both of main's
   references.  Each exec's walk refuses it once and passes it for both
   names, so every configuration reads its template as often as the
   oracle does, and each exec exits 42; a region that refused it is
   never planned, so the second exec walks it again. *)
let refused_input =
  fixed "a refused module is passed, and read as often as under the oracle"
    [ all_on (); { (all_on ()) with cfg = { Config.all_on with symhash = false } } ]
    ~extra:(fun _ base obs ->
      List.iter
        (fun o -> List.iter (fun label -> check_int (label ^ ": exit") 42 (find o label).code)
            [ "first"; "second" ])
        [ base; obs ])
    (fun log ->
      let k, ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      Fs.mkdir fs "/home/t";
      install_c k "/shared/lib/a.o" "int a() { return 1; }";
      install_c k "/shared/lib/b.o" "int b() { return 2; } int c() { return 38; }";
      run_native k (fun _ proc ->
          List.iter (fun m -> ignore (Ldl.dlopen ldl proc ("/shared/lib/" ^ m))) [ "a.o"; "b.o" ]);
      install_c k "/home/t/main.o" "extern int b(); extern int c(); int main() { return b() + c() + 2; }";
      ignore
        (link k ~dir:"/home/t"
           ~specs:
             [ ("main.o", Sharing.Static_private); ("/shared/lib/a.o", Sharing.Dynamic_public);
               ("/shared/lib/b.o", Sharing.Dynamic_public) ]
           "prog");
      install_c k "/shared/lib/a.o" "int big[300000]; int a() { return 1; }";
      log (exec k ldl "first" "/home/t/prog");
      log (exec k ldl "second" "/home/t/prog");
      log (note "warnings" (String.concat "\n" (Ldl.warnings ldl))))

(* Compiled stores to an image page the image master still shares: the
   first loop writes the value the page already holds, which keeps it
   shared, the second writes new values, which copies it once.  Exits
   42 only if both loops stored what they should. *)
let shared_store_input =
  fixed "compiled stores to a page the image master shares" [ all_on ~threshold:1 () ]
    ~extra:(fun _ _ obs ->
      check_int "exit" 42 (find obs "run").code;
      check_int "pages copied" 1 (bill obs "run").Stats.pages_copied)
    (fun log ->
      ignore
        (program
           {|
int g = 5;
int main() {
  int first; int i;
  first = g;
  i = 0;
  while (i < 3000) { g = 5; i = i + 1; }
  i = 0;
  while (i < 3000) { g = i; i = i + 1; }
  if (first == 5 && g == 2999) return 42;
  return 1;
}
|}
           [ "warm"; "run" ] log))

(* A compiled load after its own run's copy-on-write store: [g]'s image
   page stays shared with the image master while the loop stores the 5
   it already holds, so the load's inline cache reads the master's page;
   at i = 2000 the store writes 6 and copies the page inside compiled
   code, and every later load must read the copy.  The store is a word
   store to [g] or a byte store to its low byte.  Exits 42 only if the
   sum saw each new value. *)
let cow_in_run_input =
  let src store =
    Printf.sprintf
      {|
int g = 5;
int main() {
  int i; int s; char *b;
  b = &g; i = 0; s = 0;
  while (i < 3000) { s = s + g; %s = 5 + i / 2000; i = i + 1; }
  if (s == 15999) return 42;
  return 1;
}
|}
      store
  in
  fixed "a compiled load after its own run's copy-on-write store"
    [ all_on ~threshold:1 () ]
    ~extra:(fun _ _ obs ->
      check_int "word store: exit" 42 (find obs "word").code;
      check_int "byte store: exit" 42 (find obs "byte").code)
    (fun log ->
      ignore (program (src "g") [ "warm"; "word" ] log);
      ignore (program (src "b[0]") [ "warm"; "byte" ] log))

(* Hot loops stay in compiled code across quanta: a trace runs to the
   end of the kernel's quantum and the next quantum resumes where it
   stopped, so the interpreter serves only warm-up and cold code. *)
let compiled_input name ?max_exits ?libs src =
  fixed name [ all_on () ]
    ~extra:(fun _ _ obs ->
      let d = bill obs "run" in
      check_bool
        (Printf.sprintf "decode hits %d within 1%% of %d instructions" d.Stats.decode_hits
           d.Stats.instructions)
        true
        (100 * d.Stats.decode_hits <= d.Stats.instructions);
      Option.iter
        (fun m ->
          check_bool
            (Printf.sprintf "%d side exits, at most %d" d.Stats.jit_exits m)
            true (d.Stats.jit_exits <= m))
        max_exits)
    (fun log -> ignore (program ?libs src [ "run" ] log))

(* [n] iterations, each calling two public modules through their jump
   slots; exits 42. *)
let loop_libs =
  [ ("inc_a.o", "int inc_a() { return 3; }"); ("inc_b.o", "int inc_b() { return 4; }") ]

let loop_src n =
  Printf.sprintf
    {|
extern int inc_a();
extern int inc_b();
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < %d) {
    s = s + inc_a();
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s + inc_b();
    i = i + 1;
  }
  return s - %d;
}
|}
    n ((7 * n) - 42)

let loop_input =
  compiled_input "a cross-module loop stays compiled across quanta" ~max_exits:16
    ~libs:loop_libs (loop_src 16000)

(* Compiled code allocates nothing per instruction: a word access reads
   or writes its page's bytes in place, with no boxed [Int32], and every
   link of a chain is built before it runs.  The 0.1-word budget covers
   the exec, lazy linking and trace compilation around 4.5M instructions
   of loop; one allocation per access would exceed 1. *)
let loop_allocation =
  test "oracle: compiled code allocates nothing per instruction" (fun () ->
      let s = all_on () in
      under ~threshold:s.threshold s.cfg (fun () ->
          let k, ldl = program ~libs:loop_libs (loop_src 16000) [] ignore in
          let before = Gc.minor_words () in
          let st = exec k ldl "run" "/home/t/prog" in
          let words = Gc.minor_words () -. before in
          let n = (Option.get st.bill).Stats.instructions in
          check_int "exit" 42 st.code;
          check_bool
            (Printf.sprintf "%.0f minor words over %d instructions, under 0.1 each" words n)
            true
            (words < 0.1 *. float n)))

(* The 96-module deep chain, its driver linked as /home/t/prog, for the
   allocation budgets below: [measured] runs one exec and checks its
   console, and [budget] bounds its minor words.  Words are exact where
   host time is not, and one sequence of tests reads the same counts on
   every run, but a count moves by a few dozen words with what ran
   earlier in the process, so each bound sits just above its count. *)
let deep_chain_budgets f =
  let s = all_on () in
  under ~threshold:s.threshold ?ram:s.ram s.cfg (fun () ->
      let modules = 96 in
      let k, ldl = boot () in
      Fs.mkdir (Kernel.fs k) "/home/lib";
      let templates = Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules in
      Modgen.link_driver ~deep:modules ldl ~dir:"/home/lib" ~out:"/home/t/prog"
        ~used:(modules - 1);
      let want = string_of_int (Modgen.expected ~modules ~used:(modules - 1)) in
      let measured label f =
        let before = Gc.minor_words () in
        let st = f () in
        let words = Gc.minor_words () -. before in
        check_string (label ^ ": console") want st.shown;
        (words, Option.get st.bill)
      in
      let budget label (words, bill) ~bound =
        check_bool
          (Printf.sprintf "%s: %.0f minor words (%.0f per relocation), under %d" label words
             (words /. float bill.Stats.relocs_applied) bound)
          true
          (words < float bound)
      in
      f k ldl (Array.of_list templates) ~measured ~budget)

(* The link-plan path: a warm exec, which replays its plans from the
   store, and a reboot plus the first exec after a sync, which reads the
   plans back from /shared/.stable and replays them.  They read 151,374
   and 244,554 words (86 and 138 per relocation). *)
let plan_allocation =
  test "oracle: the deep chain's plan path stays within its allocation budgets" (fun () ->
      deep_chain_budgets (fun k ldl _ ~measured ~budget ->
          ignore (measured "cold" (fun () -> exec k ldl "cold" "/home/t/prog"));
          let warm = measured "warm" (fun () -> exec k ldl "warm" "/home/t/prog") in
          check_bool "the warm exec replays every region" true
            ((snd warm).Stats.plan_hits > 0 && (snd warm).Stats.plan_misses = 0);
          budget "warm exec" warm ~bound:152_900;
          ignore (Ldl.stable_sync ldl);
          let stable =
            measured "stable" (fun () ->
                Kernel.reboot k;
                exec k ldl "stable" "/home/t/prog")
          in
          check_bool "the stable boot replays every region" true
            ((snd stable).Stats.stable_loads = (snd stable).Stats.plan_hits
            && (snd stable).Stats.plan_misses = 0);
          budget "reboot and exec" stable ~bound:245_300))

(* The cold walk, which every exec takes once plans are gone: the first
   exec after one template is rewritten in place, which moves the
   generation, so every region walks its scopes cold and is recorded,
   and a warm exec with plans off.  They read 205,612 and 182,729 words
   (116 and 103 per relocation). *)
let walk_allocation =
  test "oracle: the deep chain's cold walk stays within its allocation budgets" (fun () ->
      deep_chain_budgets (fun k ldl templates ~measured ~budget ->
          let fs = Kernel.fs k in
          let rewritten = templates.(Array.length templates / 2) in
          let bytes = Fs.read_file fs rewritten in
          ignore (measured "cold" (fun () -> exec k ldl "cold" "/home/t/prog"));
          ignore (measured "warm" (fun () -> exec k ldl "warm" "/home/t/prog"));
          Fs.write_file fs rewritten bytes;
          let first = measured "rewritten" (fun () -> exec k ldl "rewritten" "/home/t/prog") in
          check_bool "the first exec after the rewrite walks every region cold" true
            ((snd first).Stats.plan_hits = 0 && (snd first).Stats.plan_misses > 0);
          budget "first exec after a rewrite" first ~bound:206_600;
          Config.with_ { Config.current with plans = false } (fun () ->
              ignore (measured "plans off" (fun () -> exec k ldl "plans off" "/home/t/prog"));
              let off = measured "plans off, warm" (fun () -> exec k ldl "off" "/home/t/prog") in
              budget "plans-off warm exec" off ~bound:183_600)))

(* A leaf loop of 12000 iterations; exits 42. *)
let compute_input =
  compiled_input "a leaf loop stays compiled across quanta"
    {|
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < 12000) {
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s - i; s = s - i; s = s - i; s = s + 1;
    i = i + 1;
  }
  return s - 72006000 + 42;
}
|}

let suite =
  [
    prop_generated; patched_code_input; errno_input; pager_input; cow_fork_input; cow_exec_input;
    pinned_bill_input; alias_input; refused_input;
    shared_store_input; cow_in_run_input; loop_input; loop_allocation; plan_allocation;
    walk_allocation;
    compute_input;
    lock_acquire_input; lock_release_input; big_write_input; big_read_input;
  ]
