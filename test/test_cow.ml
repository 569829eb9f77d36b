(** Copy-on-write VM: page sharing and divergence across [As.clone],
    the fault/resolve/retry protocol, self-modifying code after fork,
    the zero-copy exec master cache, and a schedule-randomized
    equivalence check against the eager deep-copy oracle (the [cow]
    switch of {!Hemlock_util.Config} off).  Kernel fork and exec
    against the oracle are test_oracle's. *)

open Harness
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module As = Hemlock_vm.Address_space
module Cpu = Hemlock_isa.Cpu
module Insn = Hemlock_isa.Insn
module Reg = Hemlock_isa.Reg
module Stats = Hemlock_util.Stats

let with_cow cow = Config.with_ { Config.current with cow }

let store_u8_cow sp addr v = resolving sp (fun () -> As.store_u8 sp addr v)
let store_u32_cow sp addr v = resolving sp (fun () -> As.store_u32 sp addr v)

(* A space with one private RW data mapping at 0x1000 backed by a
   [pages]-page segment prefilled with the pattern [(off * 7) land 0xFF]. *)
let data_space pages =
  let len = pages * Layout.page_size in
  let sp = As.create () in
  let seg = Segment.create ~name:"d" ~max_size:len () in
  for i = 0 to len - 1 do
    Segment.set_u8 seg i (i * 7 land 0xFF)
  done;
  As.map sp ~base:0x1000 ~len ~seg ~prot:Prot.Read_write ~share:As.Private
    ~label:"d" ();
  (sp, seg)

let pattern off = off * 7 land 0xFF

(* ----- sharing and divergence ----- *)

let cow_clone_shares_until_write () =
  with_cow true (fun () ->
      let sp, seg = data_space 4 in
      let saved0 = Stats.global.bytes_saved
      and copied0 = Stats.global.pages_copied
      and faults0 = Stats.global.cow_faults
      and bc0 = Stats.global.bytes_copied in
      let child = As.clone sp in
      check_int "clone copies no bytes" bc0 Stats.global.bytes_copied;
      check_int "clone saves the whole image" (saved0 + 0x4000)
        Stats.global.bytes_saved;
      check_int "all pages shared after clone" 4 (Segment.shared_pages seg);
      (* First child write: one fault, one page copied. *)
      store_u8_cow child 0x2123 0xAB;
      check_int "one cow fault" (faults0 + 1) Stats.global.cow_faults;
      check_int "one page copied" (copied0 + 1) Stats.global.pages_copied;
      check_int "child sees its write" 0xAB (As.load_u8 child 0x2123);
      check_int "parent byte unchanged" (pattern 0x1123) (As.load_u8 sp 0x2123);
      check_int "other pages still shared" 3 (Segment.shared_pages seg);
      (* The child's mapping is writable again; a different page still
         diverges, at the segment layer, without another fault. *)
      As.store_u8 child 0x1200 0x5A;
      check_int "later pages diverge without faulting" (copied0 + 2)
        Stats.global.pages_copied;
      check_int "cow faults unchanged" (faults0 + 1) Stats.global.cow_faults;
      (* The parent side runs the same protocol independently. *)
      store_u8_cow sp 0x4001 0x11;
      check_int "parent write faults too" (faults0 + 2) Stats.global.cow_faults;
      check_int "child unaffected by parent write" (pattern 0x3001)
        (As.load_u8 child 0x4001))

let cow_identical_write_keeps_sharing () =
  with_cow true (fun () ->
      let sp, seg = data_space 1 in
      let child = As.clone sp in
      let cseg =
        match As.mapping_at child 0x1000 with
        | Some (_, _, m) -> m.As.seg
        | None -> Alcotest.fail "child mapping missing"
      in
      let copied0 = Stats.global.pages_copied in
      let v0 = Segment.version cseg in
      (* Storing the bytes already there must not break sharing (this is
         what keeps relocation replays from diverging module images). *)
      store_u8_cow child 0x1010 (pattern 0x10);
      check_int "identical write copies nothing" copied0
        Stats.global.pages_copied;
      check_int "identical write leaves the version" v0 (Segment.version cseg);
      check_int "page still shared" 1 (Segment.shared_pages seg);
      As.store_u8 child 0x1010 0x99;
      check_int "differing write copies the page" (copied0 + 1)
        Stats.global.pages_copied;
      check_int "and lands" 0x99 (As.load_u8 child 0x1010))

let cow_kill_switch_eager () =
  with_cow false (fun () ->
      let sp, _seg = data_space 2 in
      let bc0 = Stats.global.bytes_copied
      and saved0 = Stats.global.bytes_saved
      and faults0 = Stats.global.cow_faults in
      let child = As.clone sp in
      check_int "eager clone bills bytes_copied" (bc0 + 0x2000)
        Stats.global.bytes_copied;
      check_int "eager clone saves nothing" saved0 Stats.global.bytes_saved;
      As.store_u8 child 0x1005 0xEE;
      check_int "no cow faults in eager mode" faults0 Stats.global.cow_faults;
      check_int "parent unchanged" (pattern 5) (As.load_u8 sp 0x1005);
      check_int "child diverged" 0xEE (As.load_u8 child 0x1005))

let cow_genuine_fault_not_swallowed () =
  with_cow true (fun () ->
      let sp, _seg = data_space 1 in
      let child = As.clone sp in
      As.protect child 0x1000 Prot.Read_only;
      (match As.store_u8 child 0x1000 1 with
      | () -> Alcotest.fail "store through read-only must fault"
      | exception As.Fault { access = Prot.Write; reason = As.Protection; addr }
        ->
        check_bool "resolve refuses a genuine protection fault" false
          (As.resolve child ~addr ~access:Prot.Write As.Protection));
      (* Opening the protection back up re-arms the COW protocol. *)
      As.protect child 0x1000 Prot.Read_write;
      store_u8_cow child 0x1000 0x42;
      check_int "after re-protect the write lands" 0x42
        (As.load_u8 child 0x1000);
      check_int "parent still pristine" (pattern 0) (As.load_u8 sp 0x1000))

(* ----- self-modifying code after fork ----- *)

(* Parent patches its own text after fork: the parent must execute the
   new instruction, the child the old one — even with both TLBs warm.
   The parent's page copy lands only in the parent's segment (and
   [As.resolve] bumps only the parent's epoch), so the child's
   translations stay valid, as they should. *)
let cow_self_modifying_after_fork () =
  with_cow true (fun () ->
      let old_insn = Insn.encode (Insn.Addi (Reg.t1, Reg.zero, 11)) in
      let new_insn = Insn.encode (Insn.Addi (Reg.t1, Reg.zero, 22)) in
      let sp = As.create () in
      let text = Segment.create ~name:"text" ~max_size:0x1000 () in
      Segment.set_u32 text 0 old_insn;
      Segment.set_u32 text 4 (Insn.encode Insn.Break);
      As.map sp ~base:0x1000 ~len:0x1000 ~seg:text ~prot:Prot.Read_write_exec
        ~share:As.Private ~label:"text" ();
      let cpu = Cpu.create ~entry:0x1000 ~sp:0 in
      run_isa ~fuel:10 cpu sp;
      check_int "before fork" 11 (Cpu.reg cpu Reg.t1);
      let child_sp = As.clone sp in
      let child_cpu = Cpu.fork cpu in
      (* Warm the child's TLB on the shared text. *)
      child_cpu.Cpu.pc <- 0x1000;
      run_isa ~fuel:10 child_cpu child_sp;
      check_int "child before patch" 11 (Cpu.reg child_cpu Reg.t1);
      (* Parent patches instruction 0 in place. *)
      store_u32_cow sp 0x1000 new_insn;
      cpu.Cpu.pc <- 0x1000;
      run_isa ~fuel:10 cpu sp;
      check_int "parent executes the patched insn" 22 (Cpu.reg cpu Reg.t1);
      child_cpu.Cpu.pc <- 0x1000;
      run_isa ~fuel:10 child_cpu child_sp;
      check_int "child still executes the original insn" 11
        (Cpu.reg child_cpu Reg.t1);
      check_int "child text word unchanged" old_insn
        (As.load_u32 child_sp 0x1000))

(* ----- fork and exec through the kernel ----- *)

(* ----- zero-copy exec ----- *)

(* An image several pages long (200 padding functions) that writes
   nothing but its stack. *)

let cow_zero_copy_exec () =
  let module O = Test_oracle in
  let obs =
    O.run_under (O.all_on ()) (fun log ->
        ignore (O.program O.multi_page_image_src [ "warm"; "run" ] log))
  in
  let run = O.find obs "run" and cow = O.bill obs "run" in
  check_int "exit" 0 run.code;
  check_string "the image prints nothing" "" run.shown;
  let image_pages = cow.Stats.bytes_saved / Layout.page_size in
  check_bool "the image spans pages" true (image_pages > 1);
  check_bool "exec copies fewer pages than the image has" true
    (cow.Stats.pages_copied < image_pages);
  let obs =
    O.run_under (O.all_on ()) (fun log ->
        ignore (O.program "int main() { print_int(7); return 0; }" [ "first"; "second" ] log))
  in
  List.iter
    (fun (st : O.step) ->
      check_int "exit" 0 st.code;
      check_string "output" "7" st.shown)
    obs;
  (* The second exec maps a COW copy of the cached image master:
     pages_copied grows only by the pages the program itself writes
     (none here), never by the image size. *)
  let second = O.bill obs "second" in
  check_bool "second exec copies almost nothing" true (second.Stats.pages_copied < 4);
  check_bool "second exec shares the image" true (second.Stats.bytes_saved > 0)

(* ----- reap returns pages ----- *)

(* The parent dirties 8 heap pages, forks a child that exits at once,
   reaps it, then rewrites the 8 pages.  The reap released the child's
   copies, so the parent's pages are its own again and the rewrite
   happens in place; without the release it COW-copied all 8.  Nothing
   billed may move: every [Stats.cycles] term matches the oracle. *)
let cow_reaped_child_returns_pages =
  let module O = Test_oracle in
  O.check_fixed [ O.all_on () ]
    ~extra:(fun _ _ obs ->
      check_string "output" "1025" (O.find obs "run").shown;
      let copied = (O.bill obs "run").Stats.pages_copied in
      check_bool (Printf.sprintf "%d pages copied, at most 1" copied) true (copied <= 1))
    (fun log ->
      ignore
        (O.program
           {|
int main() {
  int *p; int i; int pid;
  p = sbrk(32768); i = 0;
  while (i < 8192) { p[i] = i; i = i + 1024; }
  pid = fork();
  if (pid == 0) { exit(0); }
  wait();
  i = 0;
  while (i < 8192) { p[i] = p[i] + 1; i = i + 1024; }
  print_int(p[1024]); return 0;
}
|}
           [ "warm"; "run" ] log))

(* ----- randomized schedules vs. the deep-copy oracle ----- *)

(* Ops are (kind, who, addr, value): byte/word stores, byte loads,
   whole-mapping protect, and unmap, applied to parent (who=0) or child
   (who=1) after a clone.  Every observation — loaded values, fault
   access+reason — is appended to a transcript, and the final memory is
   probed through both spaces.  Running the same schedule with COW on
   and off (the eager deep-copy oracle) must produce identical
   transcripts and dumps: COW is invisible up to cost. *)
let prots = [| Prot.No_access; Prot.Read_only; Prot.Read_write; Prot.Read_write_exec |]

let apply spaces obs (kind, who, addr, v) =
  let sp = spaces.(who) in
  let tag s = Buffer.add_string obs s in
  let fault access reason =
    tag
      (Printf.sprintf "F%d%d;"
         (match access with Prot.Read -> 0 | Prot.Write -> 1 | Prot.Exec -> 2)
         (match reason with
         | As.Unmapped -> 0
         | As.Protection -> 1
         | As.Not_resident -> 2))
  in
  let region_base = if addr < 0x4000 then 0x1000 else 0x4000 in
  match kind with
  | 0 -> (
    try
      store_u8_cow sp addr (v land 0xFF);
      tag "w;"
    with As.Fault { access; reason; _ } -> fault access reason)
  | 1 -> (
    try
      store_u32_cow sp addr v;
      tag "W;"
    with As.Fault { access; reason; _ } -> fault access reason)
  | 2 -> (
    match As.load_u8 sp addr with
    | b -> tag (Printf.sprintf "r%d;" b)
    | exception As.Fault { access; reason; _ } -> fault access reason)
  | 3 -> (
    try
      As.protect sp region_base prots.(v land 3);
      tag "p;"
    with Not_found -> tag "P!;")
  | _ ->
    As.unmap sp region_base;
    tag "u;"

let run_schedule ~cow ops =
  with_cow cow (fun () ->
      let sp = As.create () in
      (* Region A: two pages, partially filled (so zero-fill reads and
         the segment size boundary are in play). *)
      let seg_a = Segment.create ~name:"a" ~max_size:0x2000 () in
      for i = 0 to 0x17FF do
        Segment.set_u8 seg_a i (i * 7 land 0xFF)
      done;
      As.map sp ~base:0x1000 ~len:0x2000 ~seg:seg_a ~prot:Prot.Read_write
        ~share:As.Private ~label:"a" ();
      (* Region B: one empty page, with a hole between A and B. *)
      let seg_b = Segment.create ~name:"b" ~max_size:0x1000 () in
      As.map sp ~base:0x4000 ~len:0x1000 ~seg:seg_b ~prot:Prot.Read_write
        ~share:As.Private ~label:"b" ();
      let child = As.clone sp in
      let obs = Buffer.create 256 in
      List.iter (apply [| sp; child |] obs) ops;
      let dump sp =
        List.init ((0x5000 - 0x1000) / 64) (fun i ->
            let addr = 0x1000 + (64 * i) in
            match As.load_u8 sp addr with
            | v -> v
            | exception As.Fault _ -> -1)
      in
      (Buffer.contents obs, dump sp, dump child))

let prop_cow_matches_oracle =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (quad (int_bound 4) (int_bound 1)
           (int_range 0x1000 0x4FFF)
           (int_bound 0xFFFFFF)))
  in
  prop "cow: schedules match the eager deep-copy oracle" ~count:100 gen
    (fun ops -> run_schedule ~cow:true ops = run_schedule ~cow:false ops)

let suite =
  [
    test "cow: clone shares pages until first write" cow_clone_shares_until_write;
    test "cow: identical writes keep pages shared" cow_identical_write_keeps_sharing;
    test "cow: the cow switch off restores eager copies" cow_kill_switch_eager;
    test "cow: genuine protection faults still deliver" cow_genuine_fault_not_swallowed;
    test "cow: self-modifying code after fork stays private" cow_self_modifying_after_fork;
    test "cow: exec reuses a pristine image master" cow_zero_copy_exec;
    test "cow: a reaped child gives the parent its pages back" cow_reaped_child_returns_pages;
    prop_cow_matches_oracle;
  ]
