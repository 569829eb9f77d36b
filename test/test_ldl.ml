open Harness
module As = Hemlock_vm.Address_space
module Prot = Hemlock_vm.Prot
module Layout = Hemlock_vm.Layout
module Modinst = Hemlock_linker.Modinst
module Stats = Hemlock_util.Stats

let bump_main = {|
extern int bump();
int main() {
  print_int(bump());
  return 0;
}
|}

(* Set up /shared/lib/counter.o plus a main program linked against it
   with the given class. *)
let setup_counter_prog (k, _ldl) cls =
  let fs = Kernel.fs k in
  if not (Fs.exists fs "/shared/lib") then Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" bump_main;
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", cls) ]
       "prog")

(* ----- genuine write sharing across programs ----- *)

let write_sharing cls () =
  let (k, _ldl) as b = boot () in
  setup_counter_prog b cls;
  let _, out1 = run_program k "/home/t/prog" in
  let _, out2 = run_program k "/home/t/prog" in
  let _, out3 = run_program k "/home/t/prog" in
  check_string "first sees 1" "1" out1;
  check_string "second sees 2 (genuine write sharing)" "2" out2;
  check_string "third sees 3" "3" out3

let private_instances_do_not_share () =
  let (k, _ldl) as b = boot () in
  setup_counter_prog b Sharing.Dynamic_private;
  let _, out1 = run_program k "/home/t/prog" in
  let _, out2 = run_program k "/home/t/prog" in
  check_string "fresh instance per process" "1" out1;
  check_string "still 1" "1" out2

let persistence_across_reboot () =
  let (k, ldl) as b = boot () in
  ignore ldl;
  setup_counter_prog b Sharing.Dynamic_public;
  ignore (run_program k "/home/t/prog");
  ignore (run_program k "/home/t/prog");
  (* "Reboot": rebuild the kernel addr table by rescanning, then run
     again; the module file persisted, so the count continues. *)
  Kernel.reboot k;
  let _, out = run_program k "/home/t/prog" in
  check_string "persistent across reboot" "3" out

(* ----- lazy linking mechanics ----- *)

let lazy_prot_flip () =
  let k, ldl = boot () in
  setup_counter_prog (k, ldl) Sharing.Dynamic_public;
  Kernel.console_clear k;
  let proc = Kernel.spawn_exec k "/home/t/prog" in
  Kernel.run k;
  (* After the run the counter module is linked and accessible. *)
  match Ldl.instances ldl proc with
  | [ inst ] ->
    check_bool "linked" true inst.Modinst.inst_linked;
    check_bool "public" true inst.Modinst.inst_public;
    (match As.mapping_at proc.Proc.space inst.Modinst.inst_base with
    | Some (_, _, m) -> check_bool "rwx now" true (m.As.prot = Prot.Read_write_exec)
    | None -> Alcotest.fail "mapping gone")
  | l -> Alcotest.failf "expected 1 instance, got %d" (List.length l)

let lazy_faults_counted () =
  (* counter.o's relocations are all internal, so it fully links at
     creation time; a module with an external reference is mapped
     without access and must fault into ldl on first touch. *)
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/ext.o" "extern int base; int get() { return base + 1; }";
  install_c k "/shared/lib/basemod.o" "int base = 41;";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int get(); int main() { print_int(get()); return 0; }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/lib/ext.o", Sharing.Dynamic_public);
           ("/shared/lib/basemod.o", Sharing.Dynamic_public);
         ]
       "prog");
  Stats.reset ();
  let before = Stats.snapshot () in
  let _, out = run_program k "/home/t/prog" in
  check_string "correct output" "42" out;
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  check_bool "at least one lazy-link fault" true (d.Stats.faults >= 1);
  check_bool "module linked" true (d.Stats.modules_linked >= 1)

let lazy_linking_with_tlb () =
  (* Regression for the software TLB: ldl maps unlinked modules
     no-access, and the first touch must fault into the linker even
     when earlier accesses populated the TLB.  The second call then
     runs entirely on warm translations taken after the protection
     flip. *)
  Config.with_ { Config.current with tlb = true } (fun () ->
      let k, ldl = boot () in
      ignore ldl;
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      install_c k "/shared/lib/ext.o" "extern int base; int get() { return base + 1; }";
      install_c k "/shared/lib/basemod.o" "int base = 41;";
      Fs.mkdir fs "/home/t";
      install_c k "/home/t/main.o"
        "extern int get(); int main() { print_int(get() + get()); return 0; }";
      ignore
        (link k ~dir:"/home/t"
           ~specs:
             [
               ("main.o", Sharing.Static_private);
               ("/shared/lib/ext.o", Sharing.Dynamic_public);
               ("/shared/lib/basemod.o", Sharing.Dynamic_public);
             ]
           "prog");
      Stats.reset ();
      let before = Stats.snapshot () in
      let _, out = run_program k "/home/t/prog" in
      check_string "no-access module linked on first touch" "84" out;
      let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
      check_bool "fault-driven even with TLB on" true (d.Stats.faults >= 1))

let unused_module_never_linked () =
  (* Two dynamic modules; main only calls one. The other is mapped
     no-access and stays unlinked. *)
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/used.o" "int used() { return 1; }";
  install_c k "/shared/lib/unused.o" "int unused_fn() { return 2; }";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int used(); int main() { return used(); }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/lib/used.o", Sharing.Dynamic_public);
           ("/shared/lib/unused.o", Sharing.Dynamic_public);
         ]
       "prog");
  let proc = Kernel.spawn_exec k "/home/t/prog" in
  Kernel.run k;
  check_int "ran fine" 1 (exit_code proc);
  let by_key key =
    List.find
      (fun i -> i.Modinst.inst_key = key)
      (Ldl.instances ldl proc)
  in
  check_bool "used module linked" true (by_key "/shared/lib/used.o").Modinst.inst_linked;
  (* The unused module was still mapped at startup (its creation is
     eager) but never linked by this process: both counter.o modules had
     no relocs so they fully link at creation... unused.o has no relocs
     either, so use instance count instead. *)
  check_int "both mapped" 2 (List.length (Ldl.instances ldl proc))

let lazy_data_chain () =
  (* Module b is only reached through a data reference from a: the
     fault-driven mechanism works for data, unlike jump tables (s3). *)
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/b.o" "int deep_value = 41;";
  install_c k "/shared/lib/a.o" "extern int deep_value; int get() { return deep_value + 1; }";
  let ctx = ctx_in k "/" () in
  Lds.embed_metadata ctx ~template:"/shared/lib/a.o" ~modules:[ "b.o" ]
    ~search_path:[ "/shared/lib" ];
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int get(); int main() { print_int(get()); return 0; }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/a.o", Sharing.Dynamic_public) ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "data reference chased through two modules" "42" out

(* ----- scoped linking (Figure 2) ----- *)

let scoped_conflicting_symbols () =
  (* Two subsystems export the same symbol name `helper`; each parent
     resolves against its own module list, so they do not collide. *)
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  List.iter (Fs.mkdir fs) [ "/shared/s1"; "/shared/s2" ];
  install_c k "/shared/s1/helper.o" "int helper() { return 100; }";
  install_c k "/shared/s2/helper.o" "int helper() { return 200; }";
  install_c k "/shared/s1/api1.o" "extern int helper(); int api1() { return helper() + 1; }";
  install_c k "/shared/s2/api2.o" "extern int helper(); int api2() { return helper() + 2; }";
  let ctx = ctx_in k "/" () in
  Lds.embed_metadata ctx ~template:"/shared/s1/api1.o" ~modules:[ "helper.o" ]
    ~search_path:[ "/shared/s1" ];
  Lds.embed_metadata ctx ~template:"/shared/s2/api2.o" ~modules:[ "helper.o" ]
    ~search_path:[ "/shared/s2" ];
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o"
    {|
extern int api1();
extern int api2();
int main() {
  print_int(api1());
  print_str(" ");
  print_int(api2());
  return 0;
}|};
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/s1/api1.o", Sharing.Dynamic_public);
           ("/shared/s2/api2.o", Sharing.Dynamic_public);
         ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "each subsystem sees its own helper" "101 202" out

let scoped_parent_fallback () =
  (* A module with no list of its own resolves through its parent: the
     "rely on a symbol being resolved by the parent" case. *)
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/needy.o"
    "extern int provided(); int api() { return provided() * 2; }";
  install_c k "/shared/lib/provider.o" "int provided() { return 21; }";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int api(); int main() { print_int(api()); return 0; }";
  (* needy.o has no own module list; provider.o is on the root's list. *)
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/lib/needy.o", Sharing.Dynamic_public);
           ("/shared/lib/provider.o", Sharing.Dynamic_public);
         ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "parent scope resolves" "42" out

let root_unresolved_faults () =
  (* A reference unresolved at the root is left alone; calling it
     faults, and with no program handler the process dies. *)
  let k, ldl = boot () in
  ignore ldl;
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/main.o" "extern int ghost(); int main() { return ghost(); }";
  let warnings =
    link k ~dir:"/home/t"
      ~specs:[ ("main.o", Sharing.Static_private); ("ghost.o", Sharing.Dynamic_public) ]
      "prog"
  in
  check_bool "link warned" true (warnings <> []);
  let proc, _ = run_program k "/home/t/prog" in
  check_int "killed by fault" (-1) (exit_code proc);
  check_bool "console shows fault" true (contains (Kernel.console k) "fault")

(* ----- the fault handler's pointer-chasing duty ----- *)

let pointer_fault_maps_segment () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.create_file fs "/shared/blob";
  let seg = Fs.segment_of fs "/shared/blob" in
  Hemlock_vm.Segment.set_u32 seg 16 0xABCD;
  let addr = Fs.addr_of_path fs "/shared/blob" in
  let v =
    run_native k (fun k proc ->
        Ldl.attach ldl proc;
        (* Nothing mapped: the access faults, the handler translates the
           address to /shared/blob and maps it, the access restarts. *)
        Kernel.load_u32 k proc (addr + 16))
  in
  check_int "pointer chased into unmapped segment" 0xABCD v

let pointer_fault_unmapped_address_unhandled () =
  let k, ldl = boot () in
  let empty_slot_addr = Layout.addr_of_slot 900 in
  let died =
    run_native k (fun k proc ->
        Ldl.attach ldl proc;
        match Kernel.load_u32 k proc empty_slot_addr with
        | _ -> false
        | exception Proc.Killed _ -> true)
  in
  check_bool "no file there: unhandled" true died

(* A module file reached again through a symlinked directory
   (/shared/alias -> /shared/lib) is the same file under another path:
   both spellings locate as /shared/lib/b.o, so b is one instance, in
   b's slot. *)
let symlinked_module_file_shares_a_slot () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  Fs.mkdir fs "/home/t";
  install_c k "/shared/lib/b.o" "int b() { return 2; }";
  Fs.symlink fs ~target:"/shared/lib" "/shared/alias";
  install_c k "/home/t/main.o" "extern int b(); int main() { return b() + 40; }";
  let public dir = (dir ^ "/b.o", Sharing.Dynamic_public) in
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); public "/shared/lib"; public "/shared/alias" ]
       "prog");
  let proc = Kernel.spawn_exec k "/home/t/prog" in
  Kernel.run ~max_ticks:2_000 k;
  check_int "exit" 42 (exit_code proc);
  Alcotest.(check (list string)) "no warnings" [] (Ldl.warnings ldl);
  Alcotest.(check (list (pair string int))) "one instance, in b's slot"
    [ ("/shared/lib/b.o", Fs.addr_of_path fs "/shared/lib/b") ]
    (List.map (fun i -> (i.Modinst.inst_key, i.Modinst.inst_base)) (Ldl.instances ldl proc))

(* A module file whose header names another template (/shared/lib/a ->
   b's module file, linked as a.o's) is refused with a warning naming
   the mismatch, so the process holds b once, under b's key: whether
   a.o is a template of its own or a symlink to b.o. *)
let module_file_of_another_template_refused () =
  List.iter
    (fun (what, install_a) ->
      let k, ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      Fs.mkdir fs "/home/t";
      install_c k "/shared/lib/b.o" "int b() { return 2; }";
      install_a k;
      install_c k "/home/t/one.o" "extern int b(); int main() { return b(); }";
      install_c k "/home/t/two.o"
        "extern int a(); extern int b(); int main() { return b() + a(); }";
      let public name = ("/shared/lib/" ^ name, Sharing.Dynamic_public) in
      ignore
        (link k ~dir:"/home/t" ~specs:[ ("one.o", Sharing.Static_private); public "b.o" ] "one");
      ignore
        (link k ~dir:"/home/t"
           ~specs:[ ("two.o", Sharing.Static_private); public "b.o"; public "a.o" ]
           "two");
      check_int (what ^ ": b's module created") 2 (exit_code (fst (run_program k "/home/t/one")));
      Fs.symlink fs ~target:"/shared/lib/b" "/shared/lib/a";
      let proc = Kernel.spawn_exec k "/home/t/two" in
      Kernel.run ~max_ticks:2_000 k;
      check_bool (what ^ ": the second program ends") true (Proc.is_zombie proc);
      Alcotest.(check (list string)) (what ^ ": one instance, b's") [ "/shared/lib/b.o" ]
        (List.map (fun i -> i.Modinst.inst_key) (Ldl.instances ldl proc));
      check_bool (what ^ ": the warning names the mismatch") true
        (List.exists
           (fun w ->
             contains w "/shared/lib/a" && contains w "from /shared/lib/b.o, not /shared/lib/a.o")
           (Ldl.warnings ldl));
      check_int (what ^ ": the host runs on") 2 (exit_code (fst (run_program k "/home/t/one"))))
    [
      ("a.o a template", fun k -> install_c k "/shared/lib/a.o" "int a() { return 1; }");
      ("a.o -> b.o", fun k -> Fs.symlink (Kernel.fs k) ~target:"b.o" "/shared/lib/a.o");
    ]

(* An LD_LIBRARY_PATH entry that names a regular file or a symlink loop
   is skipped, as ld.so skips it: the program exits as with the entry
   absent. *)
let unresolvable_library_path_skipped () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  Fs.mkdir fs "/home/t";
  Fs.write_file fs "/home/afile" (Bytes.of_string "not a directory");
  Fs.symlink fs ~target:"/home/loop" "/home/loop";
  install_c k "/home/lib/b.o" "int b() { return 2; }";
  install_c k "/home/t/main.o" "extern int b(); int main() { return b() + 40; }";
  ignore
    (link k ~dir:"/home/t" ~cli_dirs:[ "/home/lib" ]
       ~specs:[ ("main.o", Sharing.Static_private); ("b.o", Sharing.Dynamic_private) ]
       "prog");
  List.iter
    (fun entry ->
      let proc, _ = run_program k ~env:[ ("LD_LIBRARY_PATH", entry) ] "/home/t/prog" in
      check_int entry 42 (exit_code proc))
    [ "/home/afile"; "/home/loop"; "/home/afile:/home/lib" ];
  Alcotest.(check (list string)) "no warnings" [] (Ldl.warnings ldl)

(* A public b.o's module path that holds no module file on /shared (a
   directory, a symlink loop, a link to a copy of b's module file under
   /home) is refused with a warning naming it, and the kernel runs on. *)
let module_path_without_a_module_refused () =
  List.iter
    (fun (what, occupy) ->
      let k, ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      Fs.mkdir fs "/home/t";
      install_c k "/shared/lib/b.o" "int b() { return 2; }";
      install_c k "/home/t/main.o" "extern int b(); int main() { return b() + 40; }";
      ignore
        (link k ~dir:"/home/t"
           ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/b.o", Sharing.Dynamic_public) ]
           "prog");
      occupy k;
      let proc = Kernel.spawn_exec k "/home/t/prog" in
      Kernel.run ~max_ticks:2_000 k;
      check_bool (what ^ ": the program ends") true (Proc.is_zombie proc);
      check_bool (what ^ ": a warning names the module path") true
        (List.exists
           (fun w -> contains w "/shared/lib/b exists but is not a Hemlock module")
           (Ldl.warnings ldl)))
    [
      ("a directory", fun k -> Fs.mkdir (Kernel.fs k) "/shared/lib/b");
      ("a loop", fun k -> Fs.symlink (Kernel.fs k) ~target:"/shared/lib/b" "/shared/lib/b");
      ( "a link off the partition",
        fun k ->
          let fs = Kernel.fs k in
          check_int "b's module created" 42 (exit_code (fst (run_program k "/home/t/prog")));
          Fs.write_file fs "/home/t/b" (Fs.read_file fs "/shared/lib/b");
          Fs.unlink fs "/shared/lib/b";
          Fs.symlink fs ~target:"/home/t/b" "/shared/lib/b" );
    ]

(* A public template rewritten past its module file's slot (a's bss now
   reaches into b's module file, in the next slot) is refused with a
   warning, and b still links. *)
let template_past_its_slot_refused () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  Fs.mkdir fs "/home/t";
  install_c k "/shared/lib/a.o" "int a() { return 1; }";
  install_c k "/shared/lib/b.o" "int b() { return 2; }";
  run_native k (fun _ proc ->
      List.iter (fun m -> ignore (Ldl.dlopen ldl proc ("/shared/lib/" ^ m))) [ "a.o"; "b.o" ]);
  check_int "b's module file in the slot after a's"
    (Fs.addr_of_path fs "/shared/lib/a" + Layout.shared_slot_size)
    (Fs.addr_of_path fs "/shared/lib/b");
  install_c k "/home/t/main.o" "extern int b(); int main() { return b() + 40; }";
  let public name = ("/shared/lib/" ^ name, Sharing.Dynamic_public) in
  let link_listing out order =
    ignore
      (link k ~dir:"/home/t" ~specs:(("main.o", Sharing.Static_private) :: List.map public order) out)
  in
  link_listing "prog" [ "b.o"; "a.o" ];
  link_listing "a_first" [ "a.o"; "b.o" ];
  install_c k "/shared/lib/a.o" "int big[300000]; int a() { return 1; }";
  check_int "b still links" 42 (exit_code (fst (run_program k "/home/t/prog")));
  check_bool "the warning names a" true
    (List.exists
       (fun w -> contains w "module /shared/lib/a exceeds the 1048576-byte shared file limit")
       (Ldl.warnings ldl));
  (* Listed first, a is refused by the walk that resolves b, which
     passes it: once, with a warning. *)
  check_int "b still links with a listed first" 42
    (exit_code (fst (run_program k "/home/t/a_first")));
  check_int "the walk refuses a once" 1
    (List.length
       (List.filter (fun w -> contains w "/shared/lib/a.o refused: module /shared/lib/a exceeds")
          (Ldl.warnings ldl)))

let fault_past_linked_module_unhandled () =
  (* A stray load across the end of a public module's slot, far past
     what the module occupies: relinking the module cannot resolve it,
     so the process dies instead of faulting on every retry. *)
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  run_native k (fun _ proc -> ignore (Ldl.dlopen ldl proc "/shared/lib/counter.o"));
  let stray = Fs.addr_of_path fs "/shared/lib/counter" + Layout.shared_slot_size - 2 in
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o"
    (Printf.sprintf "int main() { int *p; p = %d; return *p; }" stray);
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Dynamic_public) ]
       "prog");
  let proc = Kernel.spawn_exec k "/home/t/prog" in
  Kernel.run ~max_ticks:2_000 k;
  check_int "killed by the fault" (-1) (exit_code proc);
  check_int "one instance of the module" 1 (List.length (Ldl.instances ldl proc))

let retained_data_reloc_applied () =
  (* A data word pointing into a dynamic module is retained by lds and
     patched by ldl at start-up; it lies past the image's text, which
     the loader's bounds check must allow. *)
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.mkdir fs "/home/t";
  install_s k "/home/t/main.o"
    {|
        .text
        .globl main
main:   la   $t0, ptr
        lw   $t1, 0($t0)
        li   $t2, 7
        sw   $t2, 0($t1)
        lw   $v0, 0($t1)
        jr   $ra
        .data
ptr:    .word counter
|};
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Dynamic_public) ]
       "prog");
  let aout = Hemlock_linker.Aout.parse (Fs.read_file fs "/home/t/prog") in
  check_bool "a retained relocation lies past the text" true
    (List.exists
       (fun r -> r.Objfile.rel_offset >= Bytes.length aout.Hemlock_linker.Aout.text)
       aout.Hemlock_linker.Aout.pending);
  let proc, _ = run_program k "/home/t/prog" in
  check_int "stored and loaded through the patched word" 7 (exit_code proc)

let program_handler_chained () =
  (* A program-provided SIGSEGV handler still runs when the Hemlock
     handler cannot resolve the fault. *)
  let k, ldl = boot () in
  let recovered = ref false in
  let v =
    run_native k (fun k proc ->
        Ldl.attach ldl proc;
        (* program handler installed before hemlock's would be at the
           chain tail; ours installs after attach so put it behind. *)
        Kernel.install_segv_handler k proc ~name:"program" (fun _ _ fault ->
            if fault.Kernel.f_addr = 0xDEAD000 then begin
              recovered := true;
              (* map a page so the access can complete *)
              let seg = Hemlock_vm.Segment.create ~name:"patch" ~max_size:4096 () in
              Hemlock_vm.Segment.set_u32 seg 0 77;
              As.map proc.Proc.space ~base:0xDEAD000 ~len:4096 ~seg ~prot:Prot.Read_write
                ~share:As.Private ~label:"patch" ();
              Kernel.Resolved
            end
            else Kernel.Unhandled);
        Kernel.load_u32 k proc 0xDEAD000)
  in
  check_bool "program handler ran" true !recovered;
  check_int "application-specific recovery" 77 v

(* ----- creation race: ldl's file locking ----- *)

let creation_race_single_module () =
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" bump_main;
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Dynamic_public) ]
       "prog");
  (* Start several processes at once; exactly one module file results
     and the counter ends at N. *)
  Kernel.console_clear k;
  let procs = List.init 5 (fun _ -> Kernel.spawn_exec k "/home/t/prog") in
  Kernel.run k;
  List.iter (fun p -> check_int "exited cleanly" 0 (exit_code p)) procs;
  let digits = List.sort compare (List.init 5 (fun i -> (Kernel.console k).[i])) in
  check_string "all five increments observed" "12345"
    (String.init 5 (List.nth digits));
  check_bool "single module file" true (Fs.exists fs "/shared/lib/counter")

(* ----- fork: ldl state cloned ----- *)

let fork_clones_link_state () =
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o"
    {|
extern int bump();
int main() {
  int pid;
  print_int(bump());    // both parent and child have the module linked
  pid = fork();
  if (pid == 0) {
    print_int(bump());
    exit(0);
  }
  wait();
  print_int(bump());
  return 0;
}|};
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Dynamic_public) ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  (* counter is public: parent 1, child 2, parent 3 *)
  check_string "shared counter across fork" "123" out

let fork_private_module_diverges () =
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/counter.o" counter_template;
  install_c k "/home/t/main.o"
    {|
extern int bump();
int main() {
  int pid;
  print_int(bump());
  pid = fork();
  if (pid == 0) {
    print_int(bump());   // child's own copy: 2
    exit(0);
  }
  wait();
  print_int(bump());     // parent's own copy: 2
  return 0;
}|};
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); ("counter.o", Sharing.Dynamic_private) ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "private module copied on fork" "122" out

(* s5: "If the parent's PC was at a public address, the parent and child
   come out in logically shared code, which must be designed for
   concurrent execution" — and its static data is shared. *)
let fork_inside_public_code () =
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/entry2.o"
    {|
int lockw;
int hits;
int enter() {
  int pid;
  pid = fork();
  lock_acquire(&lockw);
  hits = hits + 1;
  lock_release(&lockw);
  return pid;
}
int read_hits() { return hits; }|};
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o"
    {|
extern int enter();
extern int read_hits();
int main() {
  int pid;
  pid = enter();
  if (pid == 0) { exit(0); }
  wait();
  print_int(read_hits());
  return 0;
}|};
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/entry2.o", Sharing.Dynamic_public) ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "both sides of the fork ran the shared code on shared data" "2" out

(* Veneers written into a public module are shared link state: a second
   process reuses them instead of re-creating. *)
let veneers_shared_across_processes () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  (* pad so the two modules straddle a 256MB jump region *)
  Fs.mkdir fs "/shared/pad";
  for i = 0 to 252 do
    Fs.create_file fs (Printf.sprintf "/shared/pad/f%03d" i)
  done;
  Fs.mkdir fs "/shared/far";
  install_c k "/shared/far/near.o" "extern int far_fn(); int near_fn() { return far_fn() + 1; }";
  install_c k "/shared/far/far.o" "int far_fn() { return 41; }";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int near_fn(); int main() { return near_fn(); }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/far/near.o", Sharing.Dynamic_public);
           ("/shared/far/far.o", Sharing.Dynamic_public);
         ]
       "prog");
  let run () =
    Hemlock_linker.Reloc_engine.reset_veneer_count ();
    let proc = Kernel.spawn_exec k "/home/t/prog" in
    Kernel.run k;
    check_int "crossed the region boundary" 42 (exit_code proc);
    Hemlock_linker.Reloc_engine.veneers_created ()
  in
  let first = run () in
  let second = run () in
  check_bool "first run created the cross-region veneer" true (first >= 1);
  (* the second process still needs its own private image->shared veneer,
     but the public module's veneer is already in the shared segment *)
  check_bool "second run created fewer veneers" true (second < first)

(* ----- dlopen/dlsym and bind-now ----- *)

let dlopen_dlsym () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  run_native k (fun k proc ->
      let inst = Ldl.dlopen ldl proc "/shared/lib/counter.o" in
      check_bool "public instance" true inst.Modinst.inst_public;
      (match Ldl.dlsym ldl proc "counter" with
      | Some addr ->
        Ldl.link_now ldl proc inst;
        Kernel.store_u32 k proc addr 55;
        check_int "symbol usable" 55 (Kernel.load_u32 k proc addr)
      | None -> Alcotest.fail "dlsym failed");
      check_bool "unknown symbol" true (Ldl.dlsym ldl proc "nope" = None);
      (match Ldl.dlopen ldl proc "missing.o" with
      | _ -> Alcotest.fail "expected dlopen failure"
      | exception Hemlock_linker.Reloc_engine.Link_error _ -> ()));
  ()

let bind_now_links_everything () =
  (* A private chain, so every process pays its own linking and the
     lazy/eager contrast is per-run. *)
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/chain";
  let templates = Hemlock_apps.Modgen.install ldl ~dir:"/home/chain" ~modules:6 in
  check_int "templates" 6 (List.length templates);
  Hemlock_apps.Modgen.link_driver ldl ~dir:"/home/chain" ~out:"/home/e8/prog" ~used:2;
  let result, linked_lazy, mapped_lazy = Hemlock_apps.Modgen.run_lazy ldl ~prog:"/home/e8/prog" in
  check_int "lazy result" (Hemlock_apps.Modgen.expected ~modules:6 ~used:2) result;
  check_int "lazy links only the used prefix" 3 linked_lazy;
  check_int "lazy maps one module beyond" 4 mapped_lazy;
  let result2, linked_eager, mapped_eager = Hemlock_apps.Modgen.run_eager ldl ~prog:"/home/e8/prog" in
  check_int "eager result equal" result result2;
  check_int "eager links the whole chain" 6 linked_eager;
  check_int "eager maps the whole chain" 6 mapped_eager

(* ----- position-dependent files (section 5) ----- *)

let naive_copy_breaks () =
  let k, ldl = boot () in
  let broken =
    run_native k (fun k proc ->
        Ldl.attach ldl proc;
        let fig = Hemlock_apps.Xfig.Shared_fig.create k proc ~path:"/shared/fig1" in
        Hemlock_apps.Xfig.Shared_fig.add k proc ~fig
          { Hemlock_apps.Xfig.o_kind = 1; o_x = 2; o_y = 3; o_w = 4; o_h = 5 };
        Hemlock_apps.Xfig.naive_copy_is_broken k proc ~src:"/shared/fig1" ~dst:"/shared/fig2")
  in
  check_bool "cp of a pointer-rich file breaks its pointers" true broken

let suite =
  [
    test "ldl: dynamic public write sharing" (write_sharing Sharing.Dynamic_public);
    test "ldl: static public write sharing" (write_sharing Sharing.Static_public);
    test "ldl: dynamic private instances are fresh" private_instances_do_not_share;
    test "ldl: public modules persist across reboot" persistence_across_reboot;
    test "ldl: lazy prot flip on first touch" lazy_prot_flip;
    test "ldl: lazy linking is fault-driven" lazy_faults_counted;
    test "ldl: lazy linking fault-driven with TLB enabled" lazy_linking_with_tlb;
    test "ldl: unused modules stay unlinked" unused_module_never_linked;
    test "ldl: lazy chase through data references" lazy_data_chain;
    test "ldl: scoped linking isolates name conflicts (fig 2)" scoped_conflicting_symbols;
    test "ldl: scoped linking falls back to the parent" scoped_parent_fallback;
    test "ldl: root-unresolved references fault at use" root_unresolved_faults;
    test "ldl: pointer faults map shared segments" pointer_fault_maps_segment;
    test "ldl: faults on empty slots stay unhandled" pointer_fault_unmapped_address_unhandled;
    test "ldl: faults past a linked module stay unhandled" fault_past_linked_module_unhandled;
    test "ldl: a symlinked module file shares a slot" symlinked_module_file_shares_a_slot;
    test "ldl: a module file of another template is refused"
      module_file_of_another_template_refused;
    test "ldl: library-path entries that do not resolve are skipped"
      unresolvable_library_path_skipped;
    test "ldl: a module path without a module file is refused"
      module_path_without_a_module_refused;
    test "ldl: a template grown past its slot is refused" template_past_its_slot_refused;
    test "ldl: retained data relocations are applied" retained_data_reloc_applied;
    test "ldl: program SIGSEGV handler chained" program_handler_chained;
    test "ldl: creation race resolved by file lock" creation_race_single_module;
    test "ldl: fork clones link state, public stays shared" fork_clones_link_state;
    test "ldl: fork copies private module instances" fork_private_module_diverges;
    test "ldl: fork inside public code shares static data (s5)" fork_inside_public_code;
    test "ldl: public veneers shared across processes" veneers_shared_across_processes;
    test "ldl: dlopen/dlsym" dlopen_dlsym;
    test "ldl: bind-now links the whole graph" bind_now_links_everything;
    test "hemlock: naive cp of pointer files breaks (s5)" naive_copy_breaks;
  ]
