(* The experiment harness: one runner per table/figure/claim of the
   paper (see DESIGN.md and EXPERIMENTS.md for the index).

   Usage:
     bench/main.exe            run every experiment
     bench/main.exe e5 e8      run selected experiments
     bench/main.exe perf       interpreter throughput with and without the
                               TLB + decode cache and the trace JIT;
                               gates the JIT's floors over both
     bench/main.exe crash-sweep [seeds]
                               deterministic fault sweep: per seed, drive
                               /shared op traffic (and a cluster broadcast
                               burst with the net sites armed) under a
                               PRNG fault plan and require every recovery
                               fsck to come back clean

   Host-time benchmarking of the simulator lives in perfbench/. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Cpu = Hemlock_isa.Cpu
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Layout = Hemlock_vm.Layout
module As = Hemlock_vm.Address_space
module Stats = Hemlock_util.Stats
module Trace = Hemlock_isa.Trace
module Objfile = Hemlock_obj.Objfile
module Cc = Hemlock_cc.Cc
module Lds = Hemlock_linker.Lds
module Ldl = Hemlock_linker.Ldl
module Search = Hemlock_linker.Search
module Sharing = Hemlock_linker.Sharing
module Modinst = Hemlock_linker.Modinst
module Reloc_engine = Hemlock_linker.Reloc_engine
module Stable_link = Hemlock_linker.Stable_link
module Plt = Hemlock_baseline.Plt
module Channels = Hemlock_baseline.Channels
module Rwho = Hemlock_apps.Rwho
module Presto = Hemlock_apps.Presto
module Symtab = Hemlock_apps.Symtab
module Xfig = Hemlock_apps.Xfig
module Modgen = Hemlock_apps.Modgen

let boot () =
  let k = Kernel.create () in
  let ldl = Ldl.install k in
  Hemlock_runtime.Sync.install k;
  (k, ldl)

let write_obj k path obj = Fs.write_file (Kernel.fs k) path (Objfile.serialize obj)

let install_c k path src = write_obj k path (Cc.to_object ~name:(Filename.basename path) src)

let ctx_in k dir ?(env = []) () =
  { Search.fs = Kernel.fs k; cwd = Path.of_string ~cwd:Path.root dir; env }

let link k ~dir ~specs out =
  Lds.link (ctx_in k dir ())
    ~specs:(List.map (fun (n, c) -> { Lds.sp_name = n; sp_class = c }) specs)
    ~output:out ()

let run_native k f =
  let result = ref None in
  ignore
    (Kernel.spawn_native k ~name:"bench" (fun k proc ->
         result := Some (f k proc);
         0));
  Kernel.run k;
  Option.get !result

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

(* ---------------------------------------------------------------------- *)
(* E1: Table 1 — sharing-class semantics, observed                          *)
(* ---------------------------------------------------------------------- *)

let counter_src = {|
int counter;
int bump() { counter = counter + 1; return counter; }
|}

let bump_main = {|
extern int bump();
int main() { return bump(); }
|}

let e1 () =
  header "E1 (Table 1): class creation and link times, observed on live processes";
  Printf.printf "%-16s | %-16s | %-22s | %-8s\n" "Sharing class" "When linked"
    "New instance/process" "Portion";
  Printf.printf "-----------------+------------------+------------------------+---------\n";
  List.iter
    (fun cls ->
      let k, ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      install_c k "/shared/lib/counter.o" counter_src;
      Fs.mkdir fs "/home/t";
      install_c k "/home/t/main.o" bump_main;
      ignore
        (link k ~dir:"/home/t"
           ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", cls) ]
           "prog");
      (* "When linked": does the created module file exist before any
         process runs (static link time) or only after (run time)?
         Private classes never create a file at all. *)
      let file_after_link = Fs.exists fs "/shared/lib/counter" in
      ignore (Kernel.spawn_exec k "/home/t/prog");
      Kernel.run k;
      let p2 = Kernel.spawn_exec k "/home/t/prog" in
      Kernel.run k;
      let code p = match p.Proc.state with Proc.Zombie c -> c | _ -> -99 in
      (* "New instance per process": the second process sees 1 iff it got
         its own fresh counter. *)
      let fresh_instance = code p2 = 1 in
      let when_linked =
        match Sharing.link_time cls with
        | Sharing.Static_link_time ->
          if Sharing.is_public cls && not file_after_link then "run time(!)"
          else "static link time"
        | Sharing.Run_time -> "run time"
      in
      (* "Portion": where did the module land? *)
      let portion =
        match Ldl.instances ldl p2 with
        | inst :: _ -> if Layout.is_public inst.Modinst.inst_base then "public" else "private"
        | [] -> if Sharing.is_public cls then "public" else "private(image)"
      in
      Printf.printf "%-16s | %-16s | %-22s | %-8s\n" (Sharing.to_string cls) when_linked
        (if fresh_instance then "yes" else "no") portion)
    [ Sharing.Static_private; Sharing.Dynamic_private; Sharing.Static_public; Sharing.Dynamic_public ];
  Printf.printf
    "\n(static-private shown as 'private(image)': it is combined into the load image)\n"

(* ---------------------------------------------------------------------- *)
(* E2: Figure 1 — building a program with linked-in shared objects          *)
(* ---------------------------------------------------------------------- *)

let e2 () =
  header "E2 (Figure 1): two programs built against the same shared .o";
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/shared1.o" counter_src;
  Fs.mkdir fs "/home/p1";
  Fs.mkdir fs "/home/p2";
  install_c k "/home/p1/main.o"
    {|extern int bump(); int main() { print_str("program1 sees "); print_int(bump()); print_str("\n"); return 0; }|};
  install_c k "/home/p2/main.o"
    {|extern int bump(); int main() { print_str("program2 sees "); print_int(bump()); print_str("\n"); return 0; }|};
  ignore
    (link k ~dir:"/home/p1"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/shared1.o", Sharing.Dynamic_public) ]
       "prog1");
  ignore
    (link k ~dir:"/home/p2"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/shared1.o", Sharing.Dynamic_public) ]
       "prog2");
  Printf.printf "after lds: module file exists? %b  (created by ldl on first use)\n"
    (Fs.exists fs "/shared/lib/shared1");
  ignore (Kernel.spawn_exec k "/home/p1/prog1");
  Kernel.run k;
  Printf.printf "after prog1: module file exists? %b\n" (Fs.exists fs "/shared/lib/shared1");
  ignore (Kernel.spawn_exec k "/home/p2/prog2");
  Kernel.run k;
  ignore (Kernel.spawn_exec k "/home/p1/prog1");
  Kernel.run k;
  print_string (Kernel.console k);
  Printf.printf "ldl warnings: %s\n"
    (match Ldl.warnings ldl with [] -> "(none)" | w -> String.concat "; " w)

(* ---------------------------------------------------------------------- *)
(* E3: Figure 2 — hierarchical inclusion with scoped linking                *)
(* ---------------------------------------------------------------------- *)

let e3 () =
  header "E3 (Figure 2): scoped linking over the A..G module DAG";
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  (* The figure's structure: the executable links A (shared), B, C;
     A pulls D (private) and E (shared); D pulls G; C pulls F and E;
     F pulls its own, different G.  The two G.o files live in different
     directories and export the same symbol. *)
  List.iter (Fs.mkdir fs) [ "/shared/sysA"; "/shared/sysC"; "/home/fig2" ];
  let ctx = ctx_in k "/" () in
  install_c k "/shared/sysA/g.o" "int g_value() { return 1000; }";
  install_c k "/shared/sysA/d.o" "extern int g_value(); int d_fn() { return g_value() + 1; }";
  Lds.embed_metadata ctx ~template:"/shared/sysA/d.o" ~modules:[ "g.o" ]
    ~search_path:[ "/shared/sysA" ];
  install_c k "/shared/sysA/e.o" "int e_fn() { return 50; }";
  install_c k "/shared/sysA/a.o"
    "extern int d_fn(); extern int e_fn(); int a_fn() { return d_fn() + e_fn(); }";
  Lds.embed_metadata ctx ~template:"/shared/sysA/a.o" ~modules:[ "d.o"; "e.o" ]
    ~search_path:[ "/shared/sysA" ];
  install_c k "/shared/sysC/g.o" "int g_value() { return 2000; }";
  install_c k "/shared/sysC/f.o" "extern int g_value(); int f_fn() { return g_value() + 2; }";
  Lds.embed_metadata ctx ~template:"/shared/sysC/f.o" ~modules:[ "g.o" ]
    ~search_path:[ "/shared/sysC" ];
  install_c k "/shared/sysC/c.o"
    "extern int f_fn(); extern int e_fn(); int c_fn() { return f_fn() + e_fn(); }";
  Lds.embed_metadata ctx ~template:"/shared/sysC/c.o" ~modules:[ "f.o"; "e.o" ]
    ~search_path:[ "/shared/sysC"; "/shared/sysA" ];
  install_c k "/home/fig2/b.o" "int b_fn() { return 7; }";
  install_c k "/home/fig2/main.o"
    {|
extern int a_fn();
extern int b_fn();
extern int c_fn();
int main() {
  print_str("A (via its own G): ");
  print_int(a_fn());
  print_str("\nC (via its own G): ");
  print_int(c_fn());
  print_str("\nB (private):       ");
  print_int(b_fn());
  print_str("\n");
  return 0;
}|};
  ignore
    (link k ~dir:"/home/fig2"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("b.o", Sharing.Static_private);
           ("/shared/sysA/a.o", Sharing.Dynamic_public);
           ("/shared/sysC/c.o", Sharing.Dynamic_public);
         ]
       "prog");
  ignore (Kernel.spawn_exec k "/home/fig2/prog");
  Kernel.run k;
  print_string (Kernel.console k);
  Printf.printf
    "both subsystems export g_value; scoped linking resolved each against its own list:\n\
    \  A = 1001 + 50 (sysA's G=1000), C = 2002 + 50 (sysC's G=2000)\n"

(* ---------------------------------------------------------------------- *)
(* E4: Figure 3 — address-space layout                                      *)
(* ---------------------------------------------------------------------- *)

let e4 () =
  header "E4 (Figure 3): Hemlock address spaces of two processes";
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/shareda.o" "int a_var; int touch_a() { a_var = 1; return a_var; }";
  install_c k "/shared/lib/sharedb.o" "int b_var; int touch_b() { b_var = 1; return b_var; }";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/m1.o" "extern int touch_a(); int main() { return touch_a(); }";
  install_c k "/home/t/m2.o"
    "extern int touch_a(); extern int touch_b(); int main() { return touch_a() + touch_b(); }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("m1.o", Sharing.Static_private); ("/shared/lib/shareda.o", Sharing.Dynamic_public) ]
       "p1");
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("m2.o", Sharing.Static_private);
           ("/shared/lib/shareda.o", Sharing.Dynamic_public);
           ("/shared/lib/sharedb.o", Sharing.Dynamic_public);
         ]
       "p2");
  let p1 = Kernel.spawn_exec k "/home/t/p1" in
  let p2 = Kernel.spawn_exec k "/home/t/p2" in
  Kernel.run k;
  Printf.printf "--- program 1 ---\n%s\n" (Format.asprintf "%a" As.pp p1.Proc.space);
  Printf.printf "--- program 2 ---\n%s\n" (Format.asprintf "%a" As.pp p2.Proc.space);
  Printf.printf
    "shared segment A sits at the same public address in both; private\n\
     images and stacks overload the same private addresses.\n"

(* ---------------------------------------------------------------------- *)
(* E5: rwho — files vs shared database                                      *)
(* ---------------------------------------------------------------------- *)

let e5 () =
  header "E5 (s4, rwho): spool files vs shared database";
  Printf.printf "%6s | %12s %12s | %12s %12s | %7s\n" "hosts" "rwho(files)" "rwho(shm)"
    "upd(files)" "upd(shm)" "speedup";
  Printf.printf "       |   ~cycles per rwho call   |  ~cycles per daemon upd   | (rwho)\n";
  Printf.printf "-------+---------------------------+---------------------------+--------\n";
  List.iter
    (fun n_hosts ->
      let (r1, _), (updf, rwhof, _) =
        Rwho.run_simulation ~style:Rwho.File_spool ~n_hosts ~rounds:2 ~max_users:4
      in
      let (r2, _), (upds, rwhos, _) =
        Rwho.run_simulation ~style:Rwho.Shared_db ~n_hosts ~rounds:2 ~max_users:4
      in
      assert (String.equal r1 r2);
      let total_updates = 2 * n_hosts in
      Printf.printf "%6d | %12d %12d | %12d %12d | %6.1fx\n" n_hosts (Stats.cycles rwhof)
        (Stats.cycles rwhos)
        (Stats.cycles updf / total_updates)
        (Stats.cycles upds / total_updates)
        (float_of_int (Stats.cycles rwhof) /. float_of_int (max 1 (Stats.cycles rwhos))))
    [ 8; 16; 32; 65; 128 ];
  Printf.printf
    "\n(the paper reports the shared rwho saving 'a little over a second' per\n\
     call on 65 machines; reports are byte-identical across both versions)\n";
  Printf.printf
    "\ntrue cluster deployment (one kernel per machine, broadcast network):\n";
  Printf.printf "%9s | %12s %12s | %7s\n" "machines" "rwho(files)" "rwho(shm)" "speedup";
  Printf.printf "----------+---------------------------+--------\n";
  List.iter
    (fun machines ->
      let (r1, _), d_files =
        Rwho.run_cluster ~style:Rwho.File_spool ~machines ~rounds:1 ~max_users:3
      in
      let (r2, _), d_shm =
        Rwho.run_cluster ~style:Rwho.Shared_db ~machines ~rounds:1 ~max_users:3
      in
      assert (String.equal r1 r2);
      Printf.printf "%9d | %12d %12d | %6.1fx\n" machines (Stats.cycles d_files)
        (Stats.cycles d_shm)
        (float_of_int (Stats.cycles d_files) /. float_of_int (max 1 (Stats.cycles d_shm))))
    [ 8; 16; 33; 65 ]

(* ---------------------------------------------------------------------- *)
(* E6: Lynx tables                                                          *)
(* ---------------------------------------------------------------------- *)

let e6 () =
  header "E6 (s4, Lynx): table transfer between generator and compiler";
  Printf.printf "%8s | %-18s | %10s | %10s | %9s\n" "entries" "style" "~cycles" "copies(B)"
    "src lines";
  Printf.printf "---------+--------------------+------------+------------+----------\n";
  List.iter
    (fun entries ->
      let _, ldl = boot () in
      let row name f =
        Stats.reset ();
        let outcome, d = Stats.measure f in
        Printf.printf "%8d | %-18s | %10d | %10d | %9d\n" entries name (Stats.cycles d)
          d.Stats.bytes_copied outcome.Symtab.oc_generated_lines
      in
      row "generated source" (fun () ->
          Symtab.run_generated_source ldl ~entries ~app_id:(string_of_int entries));
      row "linearised file" (fun () ->
          Symtab.run_linearized ldl ~entries ~app_id:(string_of_int entries));
      row "hemlock (init)" (fun () ->
          Symtab.run_hemlock ldl ~entries ~app_id:(string_of_int entries) ~first_run:true);
      row "hemlock (rerun)" (fun () ->
          Symtab.run_hemlock ldl ~entries ~app_id:(string_of_int entries) ~first_run:false))
    [ 128; 512; 2048 ];
  Printf.printf
    "\n(paper: tables = 5400 generated lines taking 18 s to compile, and 20-25%%\n\
     of utility code exists only to linearise; the hemlock rerun row is the\n\
     steady state - the persistent module is simply linked and used)\n"

(* ---------------------------------------------------------------------- *)
(* E7: xfig                                                                 *)
(* ---------------------------------------------------------------------- *)

let e7 () =
  header "E7 (s4, xfig): save/load vs persistent shared figure";
  Printf.printf "%8s | %-12s | %10s | %10s | %9s\n" "objects" "style" "~cycles" "copies(B)"
    "files";
  Printf.printf "---------+--------------+------------+------------+----------\n";
  List.iter
    (fun n ->
      let k, ldl = boot () in
      let session style f =
        let d =
          run_native k (fun k proc ->
              Ldl.attach ldl proc;
              Stats.reset ();
              snd (Stats.measure (fun () -> ignore (f k proc))))
        in
        Printf.printf "%8d | %-12s | %10d | %10d | %9d\n" n style (Stats.cycles d)
          d.Stats.bytes_copied d.Stats.files_opened
      in
      session "file .fig" (fun k proc ->
          Xfig.file_session k proc ~path:"/tmp/bench.fig" ~n_new:n ~dup:true);
      session "shared seg" (fun k proc ->
          Xfig.shm_session k proc ~path:"/shared/benchfig" ~n_new:n ~dup:true))
    [ 10; 100; 500 ];
  Printf.printf
    "\n(the shared figure needs no save/load translation at all - the paper's\n\
     xfig dropped >800 lines of it; the cost that remains is the in-place\n\
     pointer work both versions share)\n"

(* ---------------------------------------------------------------------- *)
(* E8: lazy linking                                                         *)
(* ---------------------------------------------------------------------- *)

let e8 () =
  header "E8 (s3): fault-driven lazy linking vs eager vs jump tables";
  let modules = 32 in
  Printf.printf "chain of %d modules; the driver uses a prefix of them\n\n" modules;
  Printf.printf "%6s | %-8s | %8s %8s | %8s | %10s | %s\n" "used" "strategy" "linked"
    "mapped" "faults" "~cycles" "notes";
  Printf.printf "-------+----------+-------------------+----------+------------+------\n";
  List.iter
    (fun used ->
      let lazy_run () =
        let _, ldl = boot () in
        Fs.mkdir (Kernel.fs (Ldl.kernel ldl)) "/home/chain";
        ignore (Modgen.install ldl ~dir:"/home/chain" ~modules);
        Modgen.link_driver ldl ~dir:"/home/chain" ~out:"/home/prog" ~used;
        Stats.reset ();
        let (r, linked, mapped), d =
          Stats.measure (fun () -> Modgen.run_lazy ldl ~prog:"/home/prog")
        in
        assert (r = Modgen.expected ~modules ~used);
        (linked, mapped, d)
      in
      let eager_run () =
        let _, ldl = boot () in
        Fs.mkdir (Kernel.fs (Ldl.kernel ldl)) "/home/chain";
        ignore (Modgen.install ldl ~dir:"/home/chain" ~modules);
        Modgen.link_driver ldl ~dir:"/home/chain" ~out:"/home/prog" ~used;
        Stats.reset ();
        let (r, linked, mapped), d =
          Stats.measure (fun () -> Modgen.run_eager ldl ~prog:"/home/prog")
        in
        assert (r = Modgen.expected ~modules ~used);
        (linked, mapped, d)
      in
      let plt_run () =
        let k, ldl = boot () in
        let plt = Plt.install k in
        Fs.mkdir (Kernel.fs k) "/home/chain";
        let templates = Modgen.install ldl ~dir:"/home/chain" ~modules in
        Stats.reset ();
        let (r, bound, stubs), d = Stats.measure (fun () -> Modgen.run_plt plt ~templates ~used) in
        assert (r = Modgen.expected ~modules ~used);
        (bound, stubs, d)
      in
      let linked, mapped, d = lazy_run () in
      Printf.printf "%6d | %-8s | %8d %8d | %8d | %10d |\n" used "lazy" linked mapped
        d.Stats.faults (Stats.cycles d);
      let linked, mapped, d = eager_run () in
      Printf.printf "%6d | %-8s | %8d %8d | %8d | %10d |\n" used "eager" linked mapped
        d.Stats.faults (Stats.cycles d);
      let bound, stubs, d = plt_run () in
      Printf.printf "%6d | %-8s | %8s %8d | %8d | %10d | %d/%d stubs bound\n" used "plt" "-"
        modules d.Stats.faults (Stats.cycles d) bound stubs)
    [ 0; 4; 8; 16; 31 ];
  Printf.printf
    "\n(lazy pays one fault per touched module and never links the rest; the\n\
     jump table binds functions cheaply but loads every library and resolves\n\
     all data eagerly, and cannot handle libraries that do not exist yet)\n"

(* ---------------------------------------------------------------------- *)
(* E9: presto                                                               *)
(* ---------------------------------------------------------------------- *)

let e9 () =
  header "E9 (s4, Presto): linker-based sharing vs assembly post-processing";
  Printf.printf "%8s | %-15s | %10s | %10s | %s\n" "workers" "style" "~cycles" "faults"
    "tooling";
  Printf.printf "---------+-----------------+------------+------------+---------------------\n";
  List.iter
    (fun workers ->
      let _, ldl = boot () in
      Stats.reset ();
      let r1, d1 =
        Stats.measure (fun () ->
            Presto.run_hemlock ldl ~workers ~work_iters:40 ~app_id:("h" ^ string_of_int workers))
      in
      assert (
        List.sort compare r1
        = List.sort compare (Presto.expected_results ~workers ~work_iters:40));
      Printf.printf "%8d | %-15s | %10d | %10d | %s\n" workers "hemlock" (Stats.cycles d1)
        d1.Stats.faults "a few lds arguments";
      Stats.reset ();
      let (r2, (lines, rewritten)), d2 =
        Stats.measure (fun () ->
            Presto.run_postprocessed ldl ~workers ~work_iters:40
              ~app_id:("p" ^ string_of_int workers))
      in
      assert (
        List.sort compare r2
        = List.sort compare (Presto.expected_results ~workers ~work_iters:40));
      Printf.printf "%8d | %-15s | %10d | %10d | %d asm lines, %d refs rewritten\n" workers
        "post-processor" (Stats.cycles d2) d2.Stats.faults lines rewritten)
    [ 2; 8; 32 ];
  Printf.printf
    "\n(the paper's post-processor was 432 lines of lex, consumed 1/4-1/3 of\n\
     compile time, and broke on compiler updates; with the linkers, selective\n\
     sharing is a link-time annotation plus the temp-dir symlink protocol)\n"

(* ---------------------------------------------------------------------- *)
(* E10: client/server interaction styles                                    *)
(* ---------------------------------------------------------------------- *)

let e10 () =
  header "E10 (s1 claims 3-4): shared memory vs messages vs files";
  Printf.printf "%8s | %-14s | %10s | %10s | %9s | %9s\n" "payload" "style" "~cycles"
    "copies(B)" "syscalls" "messages";
  Printf.printf "---------+----------------+------------+------------+-----------+----------\n";
  List.iter
    (fun payload ->
      List.iter
        (fun kind ->
          Stats.reset ();
          let d = Channels.run_exchange ~kind ~payload ~rounds:8 in
          Printf.printf "%8d | %-14s | %10d | %10d | %9d | %9d\n" payload
            (Channels.kind_to_string kind) (Stats.cycles d) d.Stats.bytes_copied
            d.Stats.syscalls d.Stats.messages_sent)
        Channels.all_kinds)
    [ 64; 1024; 16384 ];
  Printf.printf
    "\n(shared memory writes the request in place: zero copies, no per-round\n\
     kernel traffic; messages and files pay two copies per round plus\n\
     syscalls, files also pay opens - translation cost grows with payload)\n"

(* ---------------------------------------------------------------------- *)
(* E11: veneers and the gp register                                         *)
(* ---------------------------------------------------------------------- *)

let e11 () =
  header "E11 (s3): 28-bit jumps, veneers, and the banished $gp";
  (* Place two mutually-calling public modules on opposite sides of the
     0x4000_0000 region boundary by padding the shared partition. *)
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/pad";
  (* pads fill slots 0..252; the two templates take 253 and 254, so the
     created modules land in slots 255 (0x3ff00000) and 256 (0x40000000),
     straddling the 256MB jump-region boundary *)
  for i = 0 to 252 do
    Fs.create_file fs (Printf.sprintf "/shared/pad/f%03d" i)
  done;
  Fs.mkdir fs "/shared/far";
  install_c k "/shared/far/near.o"
    "extern int far_fn(); int near_fn() { return far_fn() + 1; }";
  install_c k "/shared/far/far.o" "int far_fn() { return 41; }";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int near_fn(); int main() { return near_fn(); }";
  Reloc_engine.reset_veneer_count ();
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/far/near.o", Sharing.Dynamic_public);
           ("/shared/far/far.o", Sharing.Dynamic_public);
         ]
       "prog");
  let p = Kernel.spawn_exec k "/home/t/prog" in
  Kernel.run k;
  Printf.printf "near module at %s, far module at %s\n"
    (Format.asprintf "%a" Layout.pp_addr (Fs.addr_of_path fs "/shared/far/near"))
    (Format.asprintf "%a" Layout.pp_addr (Fs.addr_of_path fs "/shared/far/far"));
  Printf.printf "program exit code: %d (expected 42)\n"
    (match p.Proc.state with Proc.Zombie c -> c | _ -> -1);
  Printf.printf "veneers created for out-of-range jumps: %d\n" (Reloc_engine.veneers_created ());
  (* gp rejection *)
  Fs.mkdir fs "/shared/gp";
  write_obj k "/shared/gp/gpmod.o"
    (Cc.to_object ~use_gp:true ~name:"gpmod.o" "int g; int f() { return g; }");
  (match
     link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/gp/gpmod.o", Sharing.Static_public) ]
       "prog2"
   with
  | _ -> Printf.printf "ERROR: gp module accepted!\n"
  | exception Modinst.Link_error msg -> Printf.printf "gp module rejected by lds:\n  %s\n" msg);
  (* gp still fine for a private image *)
  Fs.mkdir fs "/home/gp";
  write_obj k "/home/gp/main.o"
    (Cc.to_object ~use_gp:true ~name:"main.o" "int g; int main() { g = 42; return g; }");
  ignore (link k ~dir:"/home/gp" ~specs:[ ("main.o", Sharing.Static_private) ] "prog");
  let p = Kernel.spawn_exec k "/home/gp/prog" in
  Kernel.run k;
  Printf.printf "gp-relative private image exit code: %d (expected 42)\n"
    (match p.Proc.state with Proc.Zombie c -> c | _ -> -1)

(* ---------------------------------------------------------------------- *)
(* E12: the 64-bit address index - linear table vs B-tree (future work)   *)
(* ---------------------------------------------------------------------- *)

let e12 () =
  header "E12 (s3 future work): addr->segment translation, linear table vs B-tree";
  let module Addr_index = Hemlock_sfs.Addr_index in
  Printf.printf "%9s | %14s | %14s | %7s\n" "segments" "linear probes" "b-tree probes"
    "ratio";
  Printf.printf "----------+----------------+----------------+--------\n";
  List.iter
    (fun n ->
      let run backend =
        let t = Addr_index.create backend in
        for i = 0 to n - 1 do
          Addr_index.register t ~base:(i * 0x4000) ~bytes:0x3000 (string_of_int i)
        done;
        Addr_index.reset_probes t;
        let rng = Hemlock_util.Prng.create ~seed:3 in
        let hits = ref 0 in
        for _ = 1 to 1000 do
          match Addr_index.translate t (Hemlock_util.Prng.int rng (n * 0x4000)) with
          | Some _ -> incr hits
          | None -> ()
        done;
        (Addr_index.probes t, !hits)
      in
      let lin, hits_lin = run Addr_index.Linear in
      let bt, hits_bt = run Addr_index.Btree_index in
      assert (hits_lin = hits_bt);
      Printf.printf "%9d | %14d | %14d | %6.0fx\n" n lin bt
        (float_of_int lin /. float_of_int (max 1 bt)))
    [ 64; 256; 1024; 4096; 16384 ];
  Printf.printf
    "\n(1000 random translations each; the 32-bit prototype's linear table is\n\
     fine at 1024 slots but the planned 64-bit system - every segment\n\
     addressable, arbitrary sizes - needs the B-tree, whose probes stay\n\
     logarithmic)\n"

(* ---------------------------------------------------------------------- *)
(* E13: creation-race scaling (ldl's file locking, s4 footnote 3)          *)
(* ---------------------------------------------------------------------- *)

let e13 () =
  header "E13 (ablation): N processes racing to create one shared module";
  Printf.printf "%6s | %10s | %8s | %10s | %s\n" "procs" "~cycles" "faults" "locks held"
    "counter reaches";
  Printf.printf "-------+------------+----------+------------+----------------\n";
  List.iter
    (fun n ->
      let k, _ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      install_c k "/shared/lib/counter.o" counter_src;
      Fs.mkdir fs "/home/t";
      install_c k "/home/t/main.o" bump_main;
      ignore
        (link k ~dir:"/home/t"
           ~specs:
             [
               ("main.o", Sharing.Static_private);
               ("/shared/lib/counter.o", Sharing.Dynamic_public);
             ]
           "prog");
      Stats.reset ();
      let procs = List.init n (fun _ -> Kernel.spawn_exec k "/home/t/prog") in
      Kernel.run k;
      let d = Stats.snapshot () in
      let top =
        List.fold_left
          (fun acc p -> match p.Proc.state with Proc.Zombie c -> max acc c | _ -> acc)
          0 procs
      in
      Printf.printf "%6d | %10d | %8d | %10d | %d\n" n (Stats.cycles d) d.Stats.faults
        d.Stats.syscalls top)
    [ 1; 4; 16; 64 ];
  Printf.printf
    "\n(exactly one process creates and initialises the module under the file\n\
     lock; the counter always reaches N - no lost updates, no double\n\
     creation, however wide the race)\n"

(* ---------------------------------------------------------------------- *)
(* perf: interpreter throughput with/without the memory-system fast path   *)
(* ---------------------------------------------------------------------- *)

(* The hot loop calls into two dynamically linked public modules, so
   every iteration crosses mapping boundaries — the access pattern the
   fast path is for: instruction fetch from three code mappings plus
   stack loads/stores for the locals (the +i/-i runs cancel, leaving
   s = 16000 * 7 = 112000). *)
let perf_inc_a = "int inc_a() { return 3; }"

let perf_inc_b = "int inc_b() { return 4; }"

let perf_workload =
  {|
extern int inc_a();
extern int inc_b();
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < 16000) {
    s = s + inc_a();
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s + inc_b();
    i = i + 1;
  }
  return s - 111958;
}
|}

(* One switch per layer: [caches] is the memory-system fast path (TLB +
   decode cache), [jit] the trace compiler on top of it. *)
let with_profile ~caches ~jit f =
  let tlb = !As.caching_default
  and dc = !Cpu.decode_cache_enabled
  and je = !Trace.enabled in
  As.caching_default := caches;
  Cpu.decode_cache_enabled := caches;
  Trace.enabled := jit;
  Fun.protect
    ~finally:(fun () ->
      As.caching_default := tlb;
      Cpu.decode_cache_enabled := dc;
      Trace.enabled := je)
    f

(* Each round runs every configuration once, in an order that rotates
   from round to round, so a drift in host speed moves all three
   configurations alike; the gates read the median per-round ratio. *)
let perf_rounds = 9

let perf () =
  header "PERF: interpreter throughput — TLB + decode cache + trace JIT";
  (* One kernel per configuration.  The switches are set while it is
     built and around every run: an exec's address space captures the
     caching flag when it is created, and the CPU reads the
     decode-cache and JIT switches as it steps. *)
  let config ~caches ~jit =
    let k =
      with_profile ~caches ~jit (fun () ->
          let k, _ldl = boot () in
          let fs = Kernel.fs k in
          Fs.mkdir fs "/shared/lib";
          install_c k "/shared/lib/inc_a.o" perf_inc_a;
          install_c k "/shared/lib/inc_b.o" perf_inc_b;
          Fs.mkdir fs "/home/perf";
          install_c k "/home/perf/main.o" perf_workload;
          ignore
            (link k ~dir:"/home/perf"
               ~specs:
                 [
                   ("main.o", Sharing.Static_private);
                   ("/shared/lib/inc_a.o", Sharing.Dynamic_public);
                   ("/shared/lib/inc_b.o", Sharing.Dynamic_public);
                 ]
               "prog");
          k)
    in
    fun () ->
      with_profile ~caches ~jit (fun () ->
          let p = Kernel.spawn_exec k "/home/perf/prog" in
          Kernel.run k;
          match p.Proc.state with
          | Proc.Zombie 42 -> ()
          | _ -> failwith "perf: workload did not exit 42")
  in
  let runs =
    [|
      config ~caches:false ~jit:false; config ~caches:true ~jit:false;
      config ~caches:true ~jit:true;
    |]
  in
  (* A warm-up run each, then the billed costs of one more. *)
  let deltas =
    Array.map
      (fun run ->
        run ();
        snd (Stats.measure run))
      runs
  in
  let d_off = deltas.(0) and d_on = deltas.(1) and d_jit = deltas.(2) in
  (* Neither fast path may be visible to the simulated cost model. *)
  let same a b =
    a.Stats.instructions = b.Stats.instructions
    && a.Stats.faults = b.Stats.faults
    && a.Stats.syscalls = b.Stats.syscalls
    && a.Stats.context_switches = b.Stats.context_switches
    && Stats.cycles a = Stats.cycles b
  in
  if not (same d_on d_off) then
    failwith "perf: simulated costs differ with caches on vs off";
  if not (same d_jit d_off) then
    failwith "perf: simulated costs differ with the JIT on vs off";
  let secs = Array.make_matrix perf_rounds 3 0.0 in
  for r = 0 to perf_rounds - 1 do
    for j = 0 to 2 do
      let c = (r + j) mod 3 in
      let t0 = Unix.gettimeofday () in
      runs.(c) ();
      secs.(r).(c) <- Unix.gettimeofday () -. t0
    done
  done;
  let median f =
    let a = Array.map f secs in
    Array.sort compare a;
    a.(perf_rounds / 2)
  in
  let ns c = 1e9 *. median (fun t -> t.(c)) in
  let ratio a b = median (fun t -> t.(a) /. t.(b)) in
  let ns_off = ns 0 and ns_on = ns 1 and ns_jit = ns 2 in
  let speedup = ratio 0 1 and jit_vs_nocache = ratio 0 2 and jit_vs_cache = ratio 1 2 in
  let insns = d_on.Stats.instructions in
  let ips ns = float_of_int insns /. (ns *. 1e-9) in
  Printf.printf "workload: %d simulated instructions per run (deterministic all ways)\n" insns;
  Printf.printf "median of %d interleaved rounds\n\n" perf_rounds;
  Printf.printf "%-12s | %14s | %16s | %s\n" "config" "ns/run" "insns/sec" "fast-path hits";
  Printf.printf "-------------+----------------+------------------+---------------------------\n";
  Printf.printf "%-12s | %14.0f | %16.0f | (none)\n" "nocache" ns_off (ips ns_off);
  Printf.printf "%-12s | %14.0f | %16.0f | tlb %d, decode %d\n" "cached" ns_on (ips ns_on)
    d_on.Stats.tlb_hits d_on.Stats.decode_hits;
  Printf.printf "%-12s | %14.0f | %16.0f | jit %d hits / %d compiles / %d exits\n" "jit"
    ns_jit (ips ns_jit) d_jit.Stats.jit_hits d_jit.Stats.jit_compiles
    d_jit.Stats.jit_exits;
  Printf.printf "\ncache speedup:          %.2fx\n" speedup;
  Printf.printf "jit over nocache:       %.2fx (floor 10x)\n" jit_vs_nocache;
  Printf.printf "jit over decode cache:  %.2fx (floor 3x)\n" jit_vs_cache;
  if jit_vs_nocache < 10.0 then
    failwith "perf: JIT throughput under the 10x-over-nocache acceptance floor";
  if jit_vs_cache < 3.0 then
    failwith "perf: JIT throughput under the 3x-over-decode-cache acceptance floor"

(* ---------------------------------------------------------------------- *)
(* crash-sweep: deterministic fault plans over /shared op traffic         *)
(* ---------------------------------------------------------------------- *)

module Fault = Hemlock_util.Fault
module Prng = Hemlock_util.Prng

let sweep_pool = [| "/shared/a"; "/shared/b"; "/shared/d/c"; "/shared/d/e"; "/shared/f" |]

(* One seed = one reproducible run: the seed derives both the op stream
   and the fault plan (Fault.configure_random).  A simulated crash is
   recovered with rescan + fsck; the gate is that a second fsck is
   always clean — recovery converged, nothing left half-done. *)
let crash_sweep seeds =
  header "CRASH-SWEEP: deterministic fault plans over /shared op traffic";
  Printf.printf "%6s | %4s | %7s | %7s | %8s | %8s | %s\n" "seed" "ops" "faults"
    "crashes" "replayed" "rolled" "verdict";
  Printf.printf "-------+------+---------+---------+----------+----------+--------\n";
  let failures = ref 0 in
  List.iter
    (fun seed ->
      let fs = Fs.create () in
      Fs.mkdir fs "/shared/d";
      let prng = Prng.create ~seed in
      let nops = 12 + Prng.int prng 12 in
      let payload () =
        String.init (1 + Prng.int prng 12) (fun _ -> Char.chr (97 + Prng.int prng 26))
      in
      let pick () = Prng.choose prng sweep_pool in
      let injected_before = Stats.global.Stats.faults_injected in
      Fault.configure_random seed;
      let crashes = ref 0 and replayed = ref 0 and rolled = ref 0 in
      let ok = ref true in
      for _ = 1 to nops do
        let op () =
          match Prng.int prng 7 with
          | 0 -> Fs.create_file fs (pick ())
          | 1 -> Fs.write_file fs (pick ()) (Bytes.of_string (payload ()))
          | 2 -> Fs.append_file fs (pick ()) (Bytes.of_string (payload ()))
          | 3 -> Fs.rename fs ~src:(pick ()) (pick ())
          | 4 -> Fs.unlink fs (pick ())
          | 5 ->
            (* stable-link persist traffic: the fs.stable site fires
               before the journalled write, so plans arming it get to
               crash mid-persist like any other /shared writer *)
            Stable_link.persist_raw fs ~key:(payload ())
          | _ ->
            (* pager traffic: the eviction writeback barrier, so plans
               arming [fs.pageout] get to crash mid-flush too *)
            let path = pick () in
            let seg = Fs.segment_of fs path in
            Fs.page_writeback fs ~path ~seg ~page:(Prng.int prng 4)
        in
        match op () with
        | () | (exception Fs.Error _) | (exception Fault.Injected _) -> ()
        | exception Fault.Crash _ ->
          incr crashes;
          Fault.clear ();
          Fs.rescan_shared fs;
          let r = Fs.fsck fs in
          replayed := !replayed + r.Fs.fsck_replayed;
          rolled := !rolled + r.Fs.fsck_rolled_back;
          if not (Fs.fsck fs).Fs.fsck_clean then ok := false
      done;
      (* a short cluster burst so the net.send / net.deliver sites fire
         under the same plan: drops just vanish (datagram loss is not a
         consistency event), a crash kills the mid-operation machine *)
      (let module Cluster = Hemlock_os.Cluster in
       match
         let c = Cluster.create ~profile:Hemlock_os.Net.Ideal ~seed ~machines:2 () in
         for i = 0 to 1 do
           ignore
             (Kernel.spawn_native (Cluster.machine c i) ~name:"burst" (fun _k _proc ->
                  for r = 1 to 3 do
                    Cluster.broadcast c ~from:i (Bytes.make (8 + r) 'b')
                  done;
                  0))
         done;
         Cluster.run c
       with
       | () | (exception Fault.Injected _) | (exception Kernel.Deadlock _) -> ()
       | exception Fault.Crash _ -> incr crashes);
      Fault.clear ();
      if not (Fs.fsck fs).Fs.fsck_clean then ok := false;
      if not !ok then incr failures;
      Printf.printf "%6d | %4d | %7d | %7d | %8d | %8d | %s\n" seed nops
        (Stats.global.Stats.faults_injected - injected_before)
        !crashes !replayed !rolled
        (if !ok then "clean" else "FSCK NOT CLEAN"))
    seeds;
  if !failures > 0 then begin
    Printf.printf "\ncrash-sweep: %d seed(s) left the file system dirty\n" !failures;
    exit 1
  end;
  Printf.printf "\ncrash-sweep: every recovery fsck came back clean\n"

(* ---------------------------------------------------------------------- *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let sweep_seeds = List.filter_map int_of_string_opt args in
  let wanted =
    List.filter
      (fun a -> a <> "perf" && a <> "crash-sweep" && int_of_string_opt a = None)
      args
  in
  let run_perf = List.mem "perf" args in
  let run_crash_sweep = List.mem "crash-sweep" args in
  let selected =
    (* `perf`/`crash-sweep` alone run just those, not every experiment *)
    if wanted = [] && (run_perf || run_crash_sweep) then []
    else if wanted = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %s (have: %s)\n" name
              (String.concat " " (List.map fst experiments));
            None)
        wanted
  in
  List.iter (fun (_, f) -> f ()) selected;
  if run_perf then perf ();
  if run_crash_sweep then
    crash_sweep (if sweep_seeds = [] then List.init 10 (fun i -> i + 1) else sweep_seeds);
  Printf.printf "\nAll experiments completed.\n"
