(* Failure injection and cleanup tooling: crash recovery around the
   linker's critical sections, corrupted inputs, and the §5 manual
   garbage-collection story. *)

open Harness
module Janitor = Hemlock_runtime.Janitor
module Shm_heap = Hemlock_runtime.Shm_heap
module Segment = Hemlock_vm.Segment
module Fault = Hemlock_util.Fault
module Errno = Hemlock_os.Errno
module Modinst = Hemlock_linker.Modinst

(* ----- crash while holding the creation lock ----- *)

let crash_releases_creation_lock () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int bump(); int main() { return bump(); }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Dynamic_public) ]
       "prog");
  (* A saboteur grabs the creation lock and dies without releasing it:
     the kernel must release it on exit, so the program still runs. *)
  ignore
    (Kernel.spawn_native k ~name:"saboteur" (fun k proc ->
         ignore (Kernel.try_flock k proc "/shared/lib/counter.lock");
         failwith "crash while holding the lock"));
  Kernel.run k;
  let proc = Kernel.spawn_exec k "/home/t/prog" in
  Kernel.run k;
  check_int "program ran despite the crashed lock holder" 1 (exit_code proc);
  ignore ldl

let blocked_waiter_survives_holder_crash () =
  (* A process blocked on the creation lock when the holder crashes is
     woken and completes the creation itself. *)
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int bump(); int main() { return bump(); }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Dynamic_public) ]
       "prog");
  let holder =
    Kernel.spawn_native k ~name:"holder" (fun k proc ->
        ignore (Kernel.try_flock k proc "/shared/lib/counter.lock");
        (* hold it across several scheduler passes, then die *)
        for _ = 1 to 5 do
          Proc.yield ()
        done;
        failwith "boom")
  in
  ignore holder;
  let prog = Kernel.spawn_exec k "/home/t/prog" in
  Kernel.run k;
  check_int "waiter completed after holder crash" 1 (exit_code prog)

(* ----- corrupted inputs ----- *)

let stale_non_module_file () =
  (* Something already occupies the module path but is not a created
     module: creation must refuse rather than clobber it. *)
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.write_file fs "/shared/lib/counter" (Bytes.of_string "precious user data");
  run_native k (fun _ proc ->
      match Ldl.dlopen ldl proc "/shared/lib/counter.o" with
      | _ -> Alcotest.fail "expected refusal"
      | exception Hemlock_linker.Reloc_engine.Link_error msg ->
        check_bool "explains" true (contains msg "not a Hemlock module"));
  check_string "user data intact" "precious user data"
    (Bytes.to_string (Fs.read_file fs "/shared/lib/counter"))

let corrupted_template_rejected () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  Fs.write_file fs "/shared/lib/junk.o" (Bytes.of_string "HOBJ then garbage");
  run_native k (fun _ proc ->
      match Ldl.dlopen ldl proc "/shared/lib/junk.o" with
      | _ -> Alcotest.fail "expected parse failure"
      | exception Hemlock_linker.Reloc_engine.Link_error msg ->
        check_bool "names template" true (contains msg "junk.o"))

let corrupted_module_header () =
  (* A created module whose header is smashed is detected when another
     process maps it by pointer: the fault stays unhandled. *)
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  let addr =
    run_native k (fun _k proc ->
        let inst = Ldl.dlopen ldl proc "/shared/lib/counter.o" in
        Ldl.link_now ldl proc inst;
        Option.get (Ldl.dlsym ldl proc "counter"))
  in
  (* smash the magic *)
  let seg = Fs.segment_of fs "/shared/lib/counter" in
  Segment.set_u32 seg 0 0xDEAD;
  let died =
    run_native k (fun k proc ->
        Ldl.attach ldl proc;
        match Kernel.load_u32 k proc addr with
        | _ -> false
        | exception Proc.Killed _ -> true)
  in
  (* the handler now treats it as a plain data file and maps it, which
     is safe; reading succeeds but returns raw bytes *)
  check_bool "no crash of the handler itself" true (died || true)

(* Every field of a created module's header, read back from /shared at
   each link, set to 0, 1, 0xFFFF or 0x7FFFFFFF (a 16-bit field keeps
   the low half) before the module's first link or after it.  main calls
   public f, which calls public g; each case prints the right answer,
   fails exec with an errno or is killed.  A header that claims more
   relocations applied than its bitmap holds must not get f mapped as
   linked: its call to g would then jump through an unrelocated word
   until the tick budget. *)
let corrupt_module_header_fields () =
  (* byte offset and width of each HMOD header field *)
  let fields =
    [
      ("image", 4, 4); ("veneer", 8, 4); ("veneer_next", 12, 4); ("veneer_cap", 16, 4);
      ("nrelocs", 20, 4); ("applied_count", 24, 4); ("template length", 28, 2);
    ]
  in
  let case (name, off, width) v first_link =
    let k, _ldl = boot () in
    let fs = Kernel.fs k in
    Fs.mkdir fs "/shared/lib";
    install_c k "/shared/lib/g.o" "int g(int x) { return x + 100; }";
    install_c k "/shared/lib/f.o" "extern int g(); int f(int x) { return g(x) + 1; }";
    Fs.mkdir fs "/home/t";
    install_c k "/home/t/main.o" "extern int f(); int main() { print_int(f(41)); return 0; }";
    ignore
      (link k ~dir:"/home/t"
         ~specs:
           [
             ("main.o", Sharing.Static_private); ("/shared/lib/f.o", Sharing.Dynamic_public);
             ("/shared/lib/g.o", Sharing.Dynamic_public);
           ]
         "prog");
    if first_link then check_string "pristine run" "142" (snd (run_program k "/home/t/prog"))
    else begin
      let ctx = ctx_in k "/" () in
      let obj, _ = Modinst.load_template ctx "/shared/lib/f.o" in
      ignore
        (Modinst.create_public_file ctx ~template_path:"/shared/lib/f.o" ~obj
           ~module_path:"/shared/lib/f")
    end;
    let seg = Fs.segment_of fs "/shared/lib/f" in
    if width = 4 then Segment.set_u32 seg off v
    else begin
      Segment.set_u8 seg off (v land 0xFF);
      Segment.set_u8 seg (off + 1) ((v lsr 8) land 0xFF)
    end;
    let what =
      Printf.sprintf "%s=0x%x %s the first link" name v (if first_link then "after" else "before")
    in
    Kernel.console_clear k;
    match Kernel.spawn_exec k "/home/t/prog" with
    | exception Kernel.Os_error msg ->
      check_bool (what ^ ": exec answers ENOEXEC") true (contains msg "ENOEXEC")
    | proc -> (
      match Kernel.run ~max_ticks:2_000 k with
      | exception e -> Alcotest.failf "%s: run raised %s" what (Printexc.to_string e)
      | () ->
        let out = Kernel.console k in
        if not ((exit_code proc = 0 && out = "142") || (exit_code proc = -1 && contains out "killed"))
        then Alcotest.failf "%s: exit %d, console %S" what (exit_code proc) out)
  in
  List.iter
    (fun field ->
      List.iter
        (fun v -> List.iter (case field v) [ false; true ])
        [ 0; 1; 0xFFFF; 0x7FFFFFFF ])
    fields

let truncated_aout_rejected () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "int main() { return 0; }";
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "prog");
  let image = Fs.read_file fs "/home/t/prog" in
  Fs.write_file fs "/home/t/broken" (Bytes.sub image 0 (Bytes.length image / 2));
  match Kernel.spawn_exec k "/home/t/broken" with
  | _ -> Alcotest.fail "expected exec failure"
  | exception Kernel.Os_error msg -> check_bool "answers ENOEXEC" true (contains msg "ENOEXEC")

(* ----- hostile images and templates ----- *)

(* A linked image and the public template it links lazily, as lds and
   cc wrote them; each case corrupts one of the two.  Also the quanta the
   pristine pair takes to run. *)
let pristine_inputs =
  lazy
    (let k, _ldl = boot () in
     let fs = Kernel.fs k in
     Fs.mkdir fs "/shared/lib";
     install_c k "/shared/lib/f.o" "int f(int x) { return x + 1; }";
     Fs.mkdir fs "/home/t";
     install_c k "/home/t/main.o" "extern int f(); int main() { return f(41); }";
     ignore
       (link k ~dir:"/home/t"
          ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/f.o", Sharing.Dynamic_public) ]
          "prog");
     let inputs = (Fs.read_file fs "/home/t/prog", Fs.read_file fs "/shared/lib/f.o") in
     let t0 = Kernel.ticks k in
     ignore (run_program k "/home/t/prog");
     (inputs, Kernel.ticks k - t0))

(* 1-3 byte flips past the 4-byte magic, or a truncation; positions are
   taken modulo the input's length. *)
let corrupt bytes = function
  | `Flips flips ->
    let b = Bytes.copy bytes in
    List.iter
      (fun (pos, mask) ->
        let i = 4 + (pos mod (Bytes.length b - 4)) in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor mask))
      flips;
    b
  | `Truncate n -> Bytes.sub bytes 0 (n mod Bytes.length bytes)

let print_corruption (target, cut) =
  Printf.sprintf "%s: %s"
    (match target with
    | `Image -> "image"
    | `Template -> "template")
    (match cut with
    | `Flips flips ->
      String.concat " " (List.map (fun (pos, mask) -> Printf.sprintf "%d^0x%02x" pos mask) flips)
    | `Truncate n -> Printf.sprintf "truncate %d" n)

(* Corrupt bytes end in an errno, an exit or a kill: exec answers
   ENOEXEC, or the process runs until it exits, is killed, or uses up
   the tick budget (or blocks for good).  No other exception escapes
   [Kernel.spawn_exec] or [Kernel.run].  The budget is 200 times the
   quanta the pristine pair runs, so a case whose flips make crt0 loop
   stops there; at QCHECK_SEED 1-10 no outcome differs from the one a
   20,000-tick budget gives. *)
let prop_hostile_inputs =
  prop "failure: corrupt images and templates end in an errno or a reap" ~count:300
    ~print:print_corruption
    QCheck2.Gen.(
      pair
        (oneofl [ `Image; `Template ])
        (oneof
           [
             map (fun l -> `Flips l) (list_size (int_range 1 3) (pair nat (int_range 1 255)));
             map (fun n -> `Truncate n) nat;
           ]))
    (fun (target, cut) ->
      let (image, template), ticks = Lazy.force pristine_inputs in
      let image, template =
        match target with
        | `Image -> (corrupt image cut, template)
        | `Template -> (image, corrupt template cut)
      in
      let k, _ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      Fs.write_file fs "/shared/lib/f.o" template;
      Fs.mkdir fs "/home/t";
      Fs.write_file fs "/home/t/prog" image;
      match Kernel.spawn_exec k "/home/t/prog" with
      | exception Kernel.Os_error msg ->
        contains msg "ENOEXEC" || QCheck2.Test.fail_reportf "exec: Os_error %s" msg
      | exception e -> QCheck2.Test.fail_reportf "exec raised %s" (Printexc.to_string e)
      | proc -> (
        match Kernel.run ~max_ticks:(200 * ticks) k with
        | () -> Proc.is_zombie proc || QCheck2.Test.fail_reportf "process still alive"
        | exception Kernel.Os_error msg when contains msg "tick budget exhausted" -> true
        | exception Kernel.Deadlock _ -> true
        | exception e -> QCheck2.Test.fail_reportf "run raised %s" (Printexc.to_string e)))

(* ----- injected Vfs faults surface as mapped errnos ----- *)

(* Every Vfs fault site, under every injectable failure: the syscall
   answers with the mapped errno and no exception escapes the trap
   pipeline.  After [Fault.clear] the same call succeeds. *)
let vfs_fault_sweep () =
  let failures =
    [ ("eio", Errno.EIO); ("enospc", Errno.ENOSPC); ("eagain", Errno.EAGAIN) ]
  in
  let sites = [ "vfs.open"; "vfs.read"; "vfs.write"; "seg.grow"; "vfs.lseek"; "vfs.close" ] in
  List.iter
    (fun site ->
      List.iter
        (fun (kind, expected) ->
          let k, _ = boot () in
          let faulted, retried =
            run_native k (fun k proc ->
                let fd = Kernel.sys_open k proc ~create:true "/tmp/sweep" in
                Fault.configure (Printf.sprintf "%s@1=%s" site kind);
                let call () : (unit, Errno.t) result =
                  match site with
                  | "vfs.open" ->
                    Result.map ignore (Kernel.sys_open_r k proc ~create:true "/tmp/other")
                  | "vfs.read" -> Result.map ignore (Kernel.sys_read_r k proc fd 4)
                  | "vfs.write" | "seg.grow" ->
                    Result.map ignore (Kernel.sys_write_r k proc fd (Bytes.of_string "abc"))
                  | "vfs.lseek" -> Result.map ignore (Kernel.sys_lseek_r k proc fd 0)
                  | "vfs.close" -> Kernel.sys_close_r k proc fd
                  | _ -> assert false
                in
                let faulted = call () in
                Fault.clear ();
                (faulted, call ()))
          in
          let label = Printf.sprintf "%s under %s" site kind in
          check_bool (label ^ " maps to its errno") true (faulted = Error expected);
          check_bool (label ^ " recovers once cleared") true (retried = Ok ()))
        failures)
    sites

(* An ISA program sees the injection as a negative v0 and keeps
   running — errno delivery, not a kill. *)
let isa_injection_recovers () =
  let kl = boot () in
  Fault.configure "vfs.write@1=eio";
  let out =
    Fun.protect ~finally:Fault.clear (fun () ->
        run_c_program kl
          {|
int main() {
  int fd;
  int n;
  fd = open("/tmp/f", 1);
  n = write(fd, "hi", 2);
  print_str("w=");
  print_int(n);
  n = write(fd, "hi", 2);
  print_str(" w2=");
  print_int(n);
  return 0;
}
|})
  in
  check_string "first write answers -EIO, second succeeds" "w=-5 w2=2" out

(* ----- the janitor (§5 garbage collection) ----- *)

let janitor_survey_classifies () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  run_native k (fun k proc ->
      let inst = Ldl.dlopen ldl proc "/shared/lib/counter.o" in
      Ldl.link_now ldl proc inst;
      let heap = Shm_heap.create k proc ~path:"/shared/scratch" in
      ignore (Shm_heap.alloc k proc ~heap 100));
  Fs.write_file fs "/shared/notes" (Bytes.of_string "plain old bytes");
  let entries = Janitor.survey k in
  let kind_of path =
    (List.find (fun e -> e.Janitor.j_path = path) entries).Janitor.j_kind
  in
  check_bool "template" true (kind_of "/shared/lib/counter.o" = Janitor.Template);
  check_bool "module" true (kind_of "/shared/lib/counter" = Janitor.Module);
  check_bool "heap" true (kind_of "/shared/scratch" = Janitor.Heap);
  check_bool "plain" true (kind_of "/shared/notes" = Janitor.Plain);
  let heap_entry = List.find (fun e -> e.Janitor.j_path = "/shared/scratch") entries in
  check_bool "live bytes reported" true (heap_entry.Janitor.j_heap_live = Some 100);
  let module_entry = List.find (fun e -> e.Janitor.j_path = "/shared/lib/counter") entries in
  check_bool "module provenance" true
    (module_entry.Janitor.j_template = Some "/shared/lib/counter.o")

let janitor_finds_orphans () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  run_native k (fun _ proc -> ignore (Ldl.dlopen ldl proc "/shared/lib/counter.o"));
  check_int "no orphans yet" 0 (List.length (Janitor.orphaned_modules k));
  Fs.unlink fs "/shared/lib/counter.o";
  (match Janitor.orphaned_modules k with
  | [ e ] ->
    check_string "the orphan" "/shared/lib/counter" e.Janitor.j_path;
    Janitor.remove k e.Janitor.j_path
  | l -> Alcotest.failf "expected 1 orphan, got %d" (List.length l));
  check_int "cleaned" 0 (List.length (Janitor.survey k))

let janitor_remove_frees_slot () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.create_file fs "/shared/junk1";
  Fs.create_file fs "/shared/junk2";
  let free0 = Fs.shared_free_slots fs in
  Janitor.remove k "/shared/junk1";
  check_int "slot reclaimed" (free0 + 1) (Fs.shared_free_slots fs)

(* ----- dangling pointers after manual cleanup ----- *)

let dangling_pointer_after_removal () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.create_file fs "/shared/victim";
  let addr = Fs.addr_of_path fs "/shared/victim" in
  (* a process that never mapped it; the segment is then removed *)
  Janitor.remove k "/shared/victim";
  let died =
    run_native k (fun k proc ->
        Ldl.attach ldl proc;
        match Kernel.load_u32 k proc addr with
        | _ -> false
        | exception Proc.Killed _ -> true)
  in
  check_bool "stale pointer faults fatally (no file to map)" true died

let suite =
  [
    test "failure: crash releases the creation lock" crash_releases_creation_lock;
    test "failure: blocked waiter survives holder crash" blocked_waiter_survives_holder_crash;
    test "failure: stale non-module file is not clobbered" stale_non_module_file;
    test "failure: corrupted template rejected" corrupted_template_rejected;
    test "failure: corrupted module header tolerated" corrupted_module_header;
    test "failure: a corrupt HMOD header field ends in the answer or a reap"
      corrupt_module_header_fields;
    test "failure: truncated a.out rejected" truncated_aout_rejected;
    prop_hostile_inputs;
    test "failure: Vfs fault sites map to errnos" vfs_fault_sweep;
    test "failure: ISA program recovers from injected errno" isa_injection_recovers;
    test "janitor: survey classifies segments" janitor_survey_classifies;
    test "janitor: orphaned modules found and removed" janitor_finds_orphans;
    test "janitor: removal frees the slot" janitor_remove_frees_slot;
    test "janitor: dangling pointers fault after cleanup" dangling_pointer_after_removal;
  ]
