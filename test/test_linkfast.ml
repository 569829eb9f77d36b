(* Linker fast path: link-plan and locate coherence under filesystem
   mutation, ldl's per-scope export index against the linear walk, and
   linkstat's provenance of cold and replayed resolutions. *)

open Harness
module Stats = Hemlock_util.Stats
module Segment = Hemlock_vm.Segment
module Modgen = Hemlock_apps.Modgen
module Modinst = Hemlock_linker.Modinst

(* ----- link-plan memoization across execs --------------------------------- *)

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
  if Config.current.plans then begin
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
  if Config.current.plans then
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
  (* test_oracle runs mapped rewrites against the plans-off oracle. *)
  if Config.current.plans then
    check_bool "stale plans rejected, not replayed" true (d3.Stats.plan_hits = 0)

(* Flip /shared/lib/flag.o's [flagv] through its module file's segment:
   module data, so neither Fs.generation nor any template decode
   changes, and the plan keys' program identity cannot see it. *)
let set_flag fs v =
  let obj = Objfile.parse (Fs.read_file fs "/shared/lib/flag.o") in
  let off =
    match Objfile.find_symbol obj "flagv" with
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
  set_flag fs 1;
  let out2, _ = exec_measured k "/home/t/prog" in
  check_string "reversed fault order still links correctly" "83" out2;
  (* Back to the original order: the first exec's plans replay. *)
  set_flag fs 0;
  let out3, d3 = exec_measured k "/home/t/prog" in
  check_string "original order again" "83" out3;
  if Config.current.plans then
    check_bool "matching fault order replays plans" true (d3.Stats.plan_hits > 0)

(* A template under /home/lib whose own module list is [modules] and
   whose search path is /home/lib. *)
let install_lib k name ~modules src =
  write_obj k ("/home/lib/" ^ name)
    { (Cc.to_object ~name src) with Objfile.own_modules = modules; own_search_path = [ "/home/lib" ] }

(* A plan key names its region's scope node and, by digest, every node
   above it.  p1's list is [y; z1] and p2's is [y; z2]; whichever of g1
   and g2 runs first instantiates y under its own scope, y's pass puts m
   under y, and m's z is then z1's (1) or z2's (2).  Both orders build
   the same instance set at the same bases, and y's node is spelled the
   same, so only the digest of y's parent tells m's two regions apart:
   the second order must not replay the first's plan. *)
let key_pins_the_scope_chain () =
  Config.with_ { Config.current with plans = true } (fun () ->
      let k, _ldl = boot () in
      let fs = Kernel.fs k in
      List.iter (Fs.mkdir fs) [ "/home/lib"; "/home/t"; "/shared/lib" ];
      install_lib k "p1.o" ~modules:[ "y.o"; "z1.o" ] "extern int fy(); int g1() { return fy(); }";
      install_lib k "p2.o" ~modules:[ "y.o"; "z2.o" ] "extern int fy(); int g2() { return fy(); }";
      install_lib k "y.o" ~modules:[ "m.o" ] "extern int fm(); int fy() { return fm(); }";
      install_lib k "m.o" ~modules:[] "extern int z; int fm() { return z; }";
      install_lib k "z1.o" ~modules:[] "int z = 1;";
      install_lib k "z2.o" ~modules:[] "int z = 2;";
      install_c k "/shared/lib/flag.o" "int flagv = 0;";
      install_c k "/home/t/main.o"
        {|
extern int g1();
extern int g2();
extern int flagv;
int main() {
  if (flagv < 1) { print_int(g1() * 10 + g2()); } else { print_int(g2() * 10 + g1()); }
  return 0;
}
|};
      ignore
        (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ]
           ~specs:
             [
               ("main.o", Sharing.Static_private); ("p1.o", Sharing.Dynamic_private);
               ("p2.o", Sharing.Dynamic_private); ("/shared/lib/flag.o", Sharing.Dynamic_public);
             ]
           "prog");
      check_string "m under p1's chain binds z1" "11" (fst (exec_measured k "/home/t/prog"));
      set_flag fs 1;
      check_string "m under p2's chain binds z2" "22" (fst (exec_measured k "/home/t/prog"));
      set_flag fs 0;
      let out, d = exec_measured k "/home/t/prog" in
      check_string "p1's chain again" "11" out;
      check_bool "the first order replays" true (d.Stats.plan_hits > 0))

(* A module that a region's walk instantiates under an ancestor of the
   region's scope must hang off that ancestor when the region replays,
   since its own walk goes through the scope it hangs off.  a's list is
   [b; e] and b's is [c]: a's pass instantiates b only; b's pass, looking
   for fe, instantiates c under b's scope, then e under a's.  e's x is
   then b's (1), where a walk through b's list would find c's (2).  The
   replayed exec must print what the cold one printed, and every
   instance hangs off the live scope node of its parent. *)
let replayed_dependency_keeps_its_scope () =
  Config.with_ { Config.current with plans = true } (fun () ->
      let k, ldl = boot () in
      let fs = Kernel.fs k in
      List.iter (Fs.mkdir fs) [ "/home/lib"; "/home/t" ];
      install_lib k "a.o" ~modules:[ "b.o"; "e.o" ] "extern int fb(); int fa() { return fb() + 100; }";
      install_lib k "b.o" ~modules:[ "c.o" ]
        "int x = 1; extern int fe(); int fb() { return fe() + 10; }";
      install_lib k "c.o" ~modules:[] "int x = 2; int fc() { return 0; }";
      install_lib k "e.o" ~modules:[] "extern int x; int fe() { return x; }";
      install_c k "/home/t/main.o" "extern int fa(); int main() { print_int(fa()); return 0; }";
      ignore
        (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ]
           ~specs:[ ("main.o", Sharing.Static_private); ("a.o", Sharing.Dynamic_private) ]
           "prog");
      let exec label =
        let (proc, console), d = Stats.measure (fun () -> run_program k "/home/t/prog") in
        check_string (label ^ ": e binds b's x") "111" (String.trim console);
        let insts = Ldl.instances ldl proc in
        let scope_of key =
          match List.find_opt (fun i -> i.Modinst.inst_key = "/home/lib/" ^ key) insts with
          | Some i -> i.Modinst.inst_scope
          | None -> Alcotest.failf "%s: no instance of %s" label key
        in
        List.iter
          (fun (child, parent) ->
            check_bool
              (Printf.sprintf "%s: %s hangs off %s's scope node" label child parent)
              true
              (match (scope_of child).Modinst.sc_parent with
              | Some p -> p == scope_of parent
              | None -> false))
          [ ("b.o", "a.o"); ("c.o", "b.o"); ("e.o", "a.o") ];
        d
      in
      ignore (exec "cold");
      let d = exec "replayed" in
      check_bool "the second exec replays plans" true (d.Stats.plan_hits > 0))

(* ----- scope index vs the linear walk --------------------------------------- *)

(* The linear walk with plans off is the reference; [indexed] turns the
   scope index and plans on, whatever the environment says. *)
let with_link_path ~indexed =
  Config.with_ { Config.current with symhash = indexed; plans = indexed }

(* The 96-module deep chain: the driver names every module, so each of
   its ~2N references resolves through the root scope's full list.  A
   cold and a second exec (which replays plans when they are on) link
   and bill as the linear walk's, down to the warnings. *)
let deep_chain_links_as_the_linear_walk () =
  let module O = Test_oracle in
  let modules = 96 in
  let run ~indexed =
    with_link_path ~indexed (fun () ->
        let k, ldl = boot () in
        Fs.mkdir (Kernel.fs k) "/home/lib";
        ignore (Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules);
        Modgen.link_driver ~deep:modules ldl ~dir:"/home/lib" ~out:"/home/t/prog"
          ~used:(modules - 1);
        let first = O.exec k ldl "first" "/home/t/prog" in
        let second = O.exec k ldl "second" "/home/t/prog" in
        [ first; second; O.note "warnings" (String.concat "\n" (Ldl.warnings ldl)) ])
  in
  let indexed = run ~indexed:true in
  let want = string_of_int (Modgen.expected ~modules ~used:(modules - 1)) in
  List.iter
    (fun (st : O.step) ->
      if st.bill <> None then begin
        check_string (st.label ^ " exec console") want (String.trim st.shown);
        check_int (st.label ^ " exec exit") 0 st.code
      end)
    indexed;
  let s = O.all_on () in
  Alcotest.(check (list string)) "links and bills as the linear walk" []
    (O.differences (s, run ~indexed:false) (s, indexed))

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

(* ----- locate ------------------------------------------------------------ *)

let search_dirs_do_not_alias () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/a:b";
  Fs.write_file fs "/home/a:b/x.o" (Bytes.of_string "x");
  let ctx = ctx_in k "/" () in
  check_bool "found via the literal directory" true
    (Search.locate ctx ~dirs:[ "/home/a:b" ] "x.o" = Some "/home/a:b/x.o");
  (* A directory list that happens to concatenate to the same string
     names other directories. *)
  check_bool "split directory list misses" true
    (Search.locate ctx ~dirs:[ "/home/a"; "b" ] "x.o" = None)

let locate_sees_new_files () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  let ctx = ctx_in k "/" () in
  let dirs = [ "/home/lib" ] in
  check_bool "absent" true (Search.locate ctx ~dirs "late.o" = None);
  Fs.write_file fs "/home/lib/late.o" (Bytes.of_string "x");
  check_bool "appears after create" true
    (Search.locate ctx ~dirs "late.o" = Some "/home/lib/late.o");
  Fs.unlink fs "/home/lib/late.o";
  check_bool "gone after unlink" true (Search.locate ctx ~dirs "late.o" = None)

(* ----- linkstat ------------------------------------------------------------- *)

(* An armed and a disarmed world each exec the 4-module deep chain cold,
   then replay its plans.  Recording provenance bills nothing, so the
   consoles and every counter agree; armed, each exec's rows name the
   chain's symbols, all resolved cold and then all replayed; disarmed,
   nothing is recorded. *)
let linkstat_records_only_when_armed () =
  let world ~armed =
    Config.with_ { Config.current with plans = true } (fun () ->
        let k, ldl = boot () in
        Ldl.set_linkstat ldl armed;
        Fs.mkdir (Kernel.fs k) "/home/lib";
        ignore (Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules:4);
        Modgen.link_driver ~deep:4 ldl ~dir:"/home/lib" ~out:"/home/t/prog" ~used:3;
        List.map
          (fun label ->
            Kernel.console_clear k;
            let proc, d =
              Stats.measure (fun () ->
                  let proc = Kernel.spawn_exec k ~name:label "/home/t/prog" in
                  Kernel.run k;
                  proc)
            in
            (* the resident gauge carries over from the other world *)
            let counters = Stats.to_json { d with resident_pages = 0; peak_resident_pages = 0 } in
            (Kernel.console k, counters, Ldl.linkstat_proc_json ldl proc, Ldl.linkstat_json ldl))
          [ "cold"; "replay" ])
  in
  let armed = world ~armed:true and disarmed = world ~armed:false in
  let want = string_of_int (Modgen.expected ~modules:4 ~used:3) in
  (* the lines of a JSON dump that [scan] reads *)
  let lines scan json =
    List.filter_map
      (fun line -> try Some (scan line) with Scanf.Scan_failure _ | End_of_file -> None)
      (String.split_on_char '\n' json)
  in
  let rows =
    lines (fun line ->
        Scanf.sscanf line
          " { \"symbol\": %S, \"origin\": %S, \"scope\": %S, \"probe\": %S, \"source\": %S, \
           \"count\": %d }"
          (fun sym _ _ _ source _ -> (sym, source)))
  in
  let n_symbols =
    lines (fun line ->
        Scanf.sscanf line " { \"pid\": %d, \"prog\": %S, \"n_symbols\": %d" (fun _ _ n -> n))
  in
  List.iter2
    (fun (label, (out_a, counters_a, rows_a, dump_a)) (out_d, counters_d, rows_d, dump_d) ->
      check_string (label ^ ": console") want (String.trim out_a);
      check_string (label ^ ": same console") out_a out_d;
      check_string (label ^ ": same counters") counters_a counters_d;
      check_string (label ^ ": disarmed rows") "[\n]" rows_d;
      Alcotest.(check (list int)) (label ^ ": disarmed, no process counts a symbol")
        (List.map (fun _ -> 0) (n_symbols dump_a)) (n_symbols dump_d);
      let symbols = List.map fst (rows rows_a) in
      check_bool (label ^ ": armed rows name the chain") true
        (List.for_all (fun s -> List.mem s symbols) [ "f0"; "f1"; "f2"; "f3" ]);
      check_bool (label ^ ": armed rows' source") true
        (List.for_all (fun (_, source) -> source = label) (rows rows_a));
      check_int (label ^ ": armed, the dump counts the rows") (List.length symbols)
        (List.nth (n_symbols dump_a) (List.length (n_symbols dump_a) - 1)))
    (List.combine [ "cold"; "replay" ] armed)
    disarmed;
  let symbols (_, _, json, _) = List.map fst (rows json) in
  Alcotest.(check (list string)) "a replay resolves the cold exec's symbols"
    (symbols (List.hd armed)) (symbols (List.nth armed 1))

let suite =
  [
    test "link plans: replay then invalidation on rewrite" plan_cache_replay_and_invalidation;
    test "link plans: mapped template rewrite rejects stale plans"
      mapped_template_rewrite_rejects_plans;
    test "link plans: correct under execution-dependent fault order"
      fault_order_independence;
    test "link plans: a replayed module hangs off the scope its walk found it in"
      replayed_dependency_keeps_its_scope;
    test "link plans: a key pins the region's whole scope chain" key_pins_the_scope_chain;
    test "search: locate sees files created and unlinked" locate_sees_new_files;
    test "search: directory lists do not alias" search_dirs_do_not_alias;
    test "scope index: the 96-module deep chain links as the linear walk does"
      deep_chain_links_as_the_linear_walk;
    test "scope index: a shadow seen through an indexed parent scope"
      index_sees_shadow_in_parent_scope;
    test "scope index: a module whose creation lock was released is retried"
      index_retries_module_after_lock_release;
    test "linkstat: provenance is recorded only when armed" linkstat_records_only_when_armed;
  ]
