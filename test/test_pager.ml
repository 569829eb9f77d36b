(** Demand paging: VmObject residency, the Not_resident
    fault/materialise/retry protocol, bounded-RAM second-chance
    eviction, journalled writeback of dirty file-backed pages with
    crash-consistent recovery, and a schedule-randomized lockstep
    equivalence check of the squeezed pager against the eager
    always-resident oracle ([HEMLOCK_NO_PAGER] semantics). *)

open Harness
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module As = Hemlock_vm.Address_space
module Vm_object = Hemlock_vm.Vm_object
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

(* Run [f] under an explicit pager configuration, restoring the
   session's configuration (and wiping registry/clock state both ways)
   afterwards.  Every test builds its segments inside the wrapper so no
   stale registry entry survives into the next test. *)
let with_pager ?ram enabled f =
  let old_enabled = !Vm_object.enabled and old_ram = !Vm_object.ram_pages in
  Vm_object.enabled := enabled;
  Vm_object.ram_pages := ram (* [~ram:n] bounds RAM; omitted = unbounded *);
  Vm_object.reset ();
  Fun.protect
    ~finally:(fun () ->
      Vm_object.enabled := old_enabled;
      Vm_object.ram_pages := old_ram;
      Vm_object.reset ())
    f

(* The kernel's side of the pager (and COW) protocol, inlined for
   direct address-space tests: a Not_resident fault retries after
   [resolve_pager] materialises, a COW write-protection fault retries
   after [resolve_cow]; anything else propagates. *)
let rec resolving sp f =
  try f () with
  | As.Fault { addr = fa; access; reason = As.Not_resident }
    when As.resolve_pager sp fa access ->
    resolving sp f
  | As.Fault { addr = fa; access = Prot.Write; reason = As.Protection }
    when As.resolve_cow sp fa ->
    resolving sp f

let store_u8 sp addr v = resolving sp (fun () -> As.store_u8 sp addr v)
let load_u8 sp addr = resolving sp (fun () -> As.load_u8 sp addr)

(* A space with one Anonymous RW mapping at [base] backed by a fresh
   [pages]-page segment prefilled with [(off * 7) land 0xFF]. *)
let anon_space ?(base = 0x1000) pages =
  let len = pages * Layout.page_size in
  let sp = As.create () in
  let seg = Segment.create ~name:"pg" ~max_size:len () in
  for i = 0 to len - 1 do
    Segment.set_u8 seg i (i * 7 land 0xFF)
  done;
  As.map sp ~base ~len ~seg ~kind:Vm_object.Anonymous ~prot:Prot.Read_write
    ~share:As.Private ~label:"pg" ();
  (sp, seg)

let pattern off = off * 7 land 0xFF

(* ----- residency and the fault protocol ----- *)

let demand_materialise () =
  with_pager true (fun () ->
      let sp, _seg = anon_space 4 in
      let minor0 = Stats.global.minor_faults
      and delivered0 = Stats.global.faults
      and resident0 = Stats.global.resident_pages in
      (* Nothing is resident until touched. *)
      (match As.load_u8 sp 0x1000 with
      | _ -> Alcotest.fail "expected Not_resident fault"
      | exception As.Fault { reason = As.Not_resident; addr; _ } ->
        check_int "fault addr" 0x1000 addr);
      check_int "first touch of a page minor-faults" (pattern 0)
        (load_u8 sp 0x1000);
      check_int "minor fault billed" (minor0 + 1) Stats.global.minor_faults;
      (* Same page again: resident, no fault. *)
      check_int "resident page hits" (pattern 1) (load_u8 sp 0x1001);
      check_int "no second minor fault" (minor0 + 1) Stats.global.minor_faults;
      check_int "pager faults are invisible to the cost model" delivered0
        Stats.global.faults;
      check_int "gauge tracks residency" (resident0 + 1)
        Stats.global.resident_pages;
      (* A write to another page materialises it too. *)
      store_u8 sp (0x1000 + Layout.page_size) 0xAB;
      check_int "write materialises" (minor0 + 2) Stats.global.minor_faults)

let pinned_default_never_faults () =
  with_pager true (fun () ->
      let len = 2 * Layout.page_size in
      let sp = As.create () in
      let seg = Segment.create ~name:"pin" ~max_size:len () in
      Segment.set_u8 seg 0 42;
      (* No [?kind]: raw mappers get the seed's eager behaviour. *)
      As.map sp ~base:0x1000 ~len ~seg ~prot:Prot.Read_write ~share:As.Private
        ~label:"pin" ();
      check_int "pinned mapping reads without resolver help" 42
        (As.load_u8 sp 0x1000);
      As.store_u8 sp (0x1000 + Layout.page_size) 7;
      check_int "pinned write" 7 (As.load_u8 sp (0x1000 + Layout.page_size)))

let pin_promotion () =
  with_pager true (fun () ->
      let sp, seg = anon_space 2 in
      (* Materialise page 0 so the object owns a clock frame. *)
      check_int "pre-promotion touch" (pattern 0) (load_u8 sp 0x1000);
      (* A second, raw mapping of the same segment pins the object:
         eager expectations win over demand paging. *)
      let sp2 = As.create () in
      As.map sp2 ~base:0x1000 ~len:(2 * Layout.page_size) ~seg
        ~prot:Prot.Read_only ~share:As.Public ~label:"raw" ();
      check_int "promoted object reads raw, page 1 never materialised"
        (pattern Layout.page_size)
        (As.load_u8 sp2 (0x1000 + Layout.page_size));
      check_int "original space no longer faults"
        (pattern Layout.page_size)
        (As.load_u8 sp (0x1000 + Layout.page_size)))

let kill_switch_is_eager () =
  with_pager false (fun () ->
      let minor0 = Stats.global.minor_faults in
      let sp, _seg = anon_space 4 in
      (* Anonymous kind requested, but the pager is off: everything is
         resident and the raw accessors just work. *)
      for i = 0 to 3 do
        let addr = 0x1000 + (i * Layout.page_size) in
        check_int "eager read" (pattern (i * Layout.page_size))
          (As.load_u8 sp addr)
      done;
      check_int "no minor faults with the pager off" minor0
        Stats.global.minor_faults)

(* ----- bounded RAM and eviction ----- *)

let eviction_preserves_contents () =
  with_pager true ~ram:8 (fun () ->
      let pages = 32 in
      let sp, _seg = anon_space pages in
      let evicted0 = Stats.global.pages_evicted in
      (* March a working set 4x the budget through RAM, writing. *)
      for i = 0 to pages - 1 do
        store_u8 sp (0x1000 + (i * Layout.page_size)) (i land 0xFF)
      done;
      check_bool "squeeze forced evictions" true
        (Stats.global.pages_evicted > evicted0);
      check_bool "peak residency respects the budget (+1 transient)" true
        (Vm_object.peak_resident () <= 9);
      (* Every page faults back in with its contents intact: eviction
         never discards, the segment stays the page store. *)
      for i = 0 to pages - 1 do
        let base = 0x1000 + (i * Layout.page_size) in
        check_int "written byte survives eviction" (i land 0xFF)
          (load_u8 sp base);
        check_int "prefilled byte survives eviction"
          (pattern ((i * Layout.page_size) + 1))
          (load_u8 sp (base + 1))
      done)

let eviction_invalidates_tlb () =
  with_pager true ~ram:8 (fun () ->
      (* Default caching: a valid TLB entry must imply residency, so
         eviction has to bump the epoch.  If it didn't, the cached
         translation would read a non-resident page without re-faulting
         and the residency bitmaps would drift from the access
         stream — the re-touch below would not re-materialise. *)
      let pages = 24 in
      let sp, _seg = anon_space pages in
      for i = 0 to pages - 1 do
        store_u8 sp (0x1000 + (i * Layout.page_size)) i
      done;
      let minor_before = Stats.global.minor_faults in
      check_int "evicted page re-faults through the slow path" 0
        (load_u8 sp 0x1000);
      check_bool "re-touch re-materialised" true
        (Stats.global.minor_faults > minor_before))

(* ----- file-backed writeback and crash consistency ----- *)

(* A space mapping [pages] pages of a fresh /shared file, with the
   pager's journalled writeback wired to the file system. *)
let file_space ?(prot = Prot.Read_write) fs ~path pages =
  Fs.write_file fs path (Bytes.make (pages * Layout.page_size) 'q');
  let seg = Fs.segment_of fs path in
  let sp = As.create () in
  let kind =
    Vm_object.File_backed
      { path; writeback = (fun ~page -> Fs.page_writeback fs ~path ~seg ~page) }
  in
  As.map sp ~base:0x100000 ~len:(pages * Layout.page_size) ~seg ~kind ~prot
    ~share:As.Public ~label:path ();
  (sp, seg)

let writeback_goes_through_journal () =
  with_pager true ~ram:8 (fun () ->
      let fs = Fs.create () in
      let sp, _seg = file_space fs ~path:"/shared/ws" 16 in
      let major0 = Stats.global.major_faults
      and wb0 = Stats.global.pages_written_back in
      (* Dirty twice the budget: evictions must write back. *)
      for i = 0 to 15 do
        store_u8 sp (0x100000 + (i * Layout.page_size)) i
      done;
      check_int "file-backed touches are major faults" (major0 + 16)
        Stats.global.major_faults;
      check_bool "dirty file pages were written back" true
        (Stats.global.pages_written_back > wb0);
      check_int "journal drained (begin/end paired)" 0
        (List.length (Fs.journal_pending fs));
      check_bool "fs is consistent after paging" true (Fs.fsck fs).Fs.fsck_clean;
      for i = 0 to 15 do
        check_int "contents durable" i
          (load_u8 sp (0x100000 + (i * Layout.page_size)))
      done)

let clean_evictions_skip_writeback () =
  (* A read-only mapping can never dirty its pages (even the
     conservative TLB-fill marking has no write grant to key on), so
     squeezing a pure read sweep evicts clean and writes back nothing.
     Isolated under its own clock: a shared clock would also evict
     another object's dirty residue. *)
  with_pager true ~ram:8 (fun () ->
      let fs = Fs.create () in
      let ro, _ = file_space ~prot:Prot.Read_only fs ~path:"/shared/ro" 16 in
      let wb0 = Stats.global.pages_written_back
      and evicted0 = Stats.global.pages_evicted in
      for i = 0 to 15 do
        check_int "read-only contents" (Char.code 'q')
          (load_u8 ro (0x100000 + (i * Layout.page_size)))
      done;
      check_bool "the sweep did evict" true
        (Stats.global.pages_evicted > evicted0);
      check_int "clean evictions skip writeback" wb0
        Stats.global.pages_written_back;
      check_int "no journal traffic" 0 (List.length (Fs.journal_pending fs)))

let injected_failure_aborts_one_eviction () =
  with_pager true ~ram:8 (fun () ->
      let fs = Fs.create () in
      let sp, _seg = file_space fs ~path:"/shared/flaky" 16 in
      Fault.configure "fs.pageout@1=eio";
      let pageout_hits =
        Fun.protect ~finally:Fault.clear (fun () ->
            (* The first writeback attempt fails; the pager abandons
               that victim, withdraws the intent, and the clock moves
               on. *)
            for i = 0 to 15 do
              store_u8 sp (0x100000 + (i * Layout.page_size)) i
            done;
            Fault.hits "fs.pageout")
      in
      check_bool "the pageout site fired more than once" true
        (pageout_hits >= 2);
      check_int "withdrawn intent leaves no journal residue" 0
        (List.length (Fs.journal_pending fs));
      check_bool "fs is consistent" true (Fs.fsck fs).Fs.fsck_clean;
      for i = 0 to 15 do
        check_int "all stores landed despite the aborted eviction" i
          (load_u8 sp (0x100000 + (i * Layout.page_size)))
      done)

let eviction_crash_recovers () =
  with_pager true ~ram:8 (fun () ->
      let fs = Fs.create () in
      let sp, _seg = file_space fs ~path:"/shared/crashy" 16 in
      Fault.configure "fs.pageout@1=crash";
      let crashed =
        try
          for i = 0 to 15 do
            store_u8 sp (0x100000 + (i * Layout.page_size)) (0x40 + i)
          done;
          false
        with Fault.Crash _ -> true
      in
      Fault.clear ();
      check_bool "crashed mid-eviction" true crashed;
      check_int "the pageout intent survived the crash" 1
        (List.length (Fs.journal_pending fs));
      (* Memory and file are the same segment, so the write-through
         contents match the filed digest: fsck rolls the intent
         forward. *)
      let r1 = Fs.fsck fs in
      check_int "fsck replays the pageout" 1 r1.Fs.fsck_replayed;
      check_int "nothing rolled back" 0 r1.Fs.fsck_rolled_back;
      let r2 = Fs.fsck fs in
      check_bool "recovery is idempotent" true r2.Fs.fsck_clean;
      (* The page the barrier covered is exactly what the file holds. *)
      let b = Fs.read_file fs "/shared/crashy" in
      check_int "durable byte" 0x40 (Char.code (Bytes.get b 0)))

(* ----- kernel-level identity: console and billed costs ----- *)

(* Eight 1 MB /shared files (2048 pages), mapped by a native process,
   registered in a B-tree address index and swept three times: every
   page translated through the index, read and written.  Returns the
   counters of the sweep. *)
let shared_sweep ?ram enabled =
  let module Addr_index = Hemlock_sfs.Addr_index in
  let files = 8 and file_bytes = Layout.shared_slot_size in
  with_pager ?ram enabled (fun () ->
      let k, _ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/ws";
      let path i = Printf.sprintf "/shared/ws/f%d" i in
      for i = 0 to files - 1 do
        Fs.create_file fs (path i);
        (* every page has content, so first touches read it in *)
        Fs.write_file fs (path i) (Bytes.make file_bytes (Char.chr (65 + i)))
      done;
      snd
        (Stats.measure (fun () ->
             run_native k (fun k proc ->
                 let idx = Addr_index.create Addr_index.Btree_index in
                 let bases =
                   Array.init files (fun i ->
                       let base =
                         Kernel.map_shared_file k proc ~path:(path i) ~prot:Prot.Read_write
                       in
                       Addr_index.register idx ~base ~bytes:file_bytes (path i);
                       base)
                 in
                 for round = 1 to 3 do
                   Array.iteri
                     (fun f base ->
                       for pg = 0 to (file_bytes / Layout.page_size) - 1 do
                         let addr = base + (pg * Layout.page_size) in
                         if Addr_index.translate idx addr = None then
                           Alcotest.fail "index lost a mapping";
                         ignore (Kernel.load_u32 k proc addr);
                         Kernel.store_u32 k proc addr (round + f + pg)
                       done)
                     bases
                 done))))

let kernel_costs_identical_under_squeeze () =
  let src =
    {|
int main() {
  int *p;
  int i;
  int sum;
  p = sbrk(98304);             // a 24-page heap: 3x the squeezed budget
  i = 0;
  while (i < 24576) { p[i] = i; i = i + 97; }
  sum = 0;
  i = 0;
  while (i < 24576) { sum = sum + p[i]; i = i + 97; }
  print_int(sum);
  return 0;
}|}
  in
  let run ?ram enabled =
    with_pager ?ram enabled (fun () ->
        let km = boot () in
        let console = ref "" in
        let (), d =
          Stats.measure (fun () -> console := run_c_program km src)
        in
        (!console, d.Stats.instructions, d.Stats.syscalls, d.Stats.faults,
         Stats.cycles d))
  in
  let cb, ib, yb, fb, xb = run false in
  let cu, iu, yu, fu, xu = run true in
  let cs, is_, ys, fs_, xs = run ~ram:8 true in
  check_string "console identical (unbounded)" cb cu;
  check_string "console identical (squeezed)" cb cs;
  check_int "instructions identical (unbounded)" ib iu;
  check_int "instructions identical (squeezed)" ib is_;
  check_int "syscalls identical (unbounded)" yb yu;
  check_int "syscalls identical (squeezed)" yb ys;
  check_int "delivered faults identical (unbounded)" fb fu;
  check_int "delivered faults identical (squeezed)" fb fs_;
  check_int "cycles identical (unbounded)" xb xu;
  check_int "cycles identical (squeezed)" xb xs;
  (* The /shared sweep, from unbounded RAM down to 1/64 of its pages. *)
  let billed d =
    [
      ("instructions", d.Stats.instructions);
      ("syscalls", d.Stats.syscalls);
      ("faults", d.Stats.faults);
      ("cycles", Stats.cycles d);
    ]
  in
  let off = billed (shared_sweep false) in
  let check_sweep name d =
    List.iter2
      (fun (what, a) (_, b) -> check_int (Printf.sprintf "sweep %s: %s identical" name what) a b)
      off (billed d)
  in
  check_sweep "unbounded" (shared_sweep true);
  List.iter
    (fun ram ->
      let d = shared_sweep ~ram true in
      check_sweep (Printf.sprintf "at %d pages" ram) d;
      if ram = 32 then begin
        check_bool "32 pages evict" true (d.Stats.pages_evicted > 0);
        check_bool "dirty file pages are written back" true (d.Stats.pages_written_back > 0)
      end)
    [ 1024; 512; 256; 128; 64; 32 ]

(* ----- lockstep differential: squeezed pager vs eager oracle ----- *)

(* Interpret a random schedule of writes, reads, clones and unmaps over
   a family of address spaces, and fold every observable outcome (read
   values, fault-or-not) into a transcript string.  Run under the
   squeezed pager and under the eager oracle, the transcripts must be
   identical: demand paging may never change what programs observe. *)
let interp ?ram ~pager ops =
  with_pager ?ram pager (fun () ->
      let buf = Buffer.create 256 in
      let region_pages = 4 in
      let rlen = region_pages * Layout.page_size in
      let mk_root () =
        let sp, _seg = anon_space ~base:0x1000 region_pages in
        let seg_b = Segment.create ~name:"b" ~max_size:rlen () in
        As.map sp ~base:0x8000 ~len:rlen ~seg:seg_b ~kind:Vm_object.Anonymous
          ~prot:Prot.Read_write ~share:As.Public ~label:"b" ();
        sp
      in
      let spaces = ref [| mk_root () |] in
      let addr_of a b =
        let off = a mod rlen in
        if b land 1 = 0 then 0x1000 + off else 0x8000 + off
      in
      let record fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      let run_op (tag, a, b) =
        let sp = !spaces.(a mod Array.length !spaces) in
        match tag with
        | 0 | 1 -> (
          let addr = addr_of a b in
          try store_u8 sp addr (b land 0xFF)
          with As.Fault { reason; _ } ->
            record "W!%d;" (match reason with As.Unmapped -> 0 | _ -> 1))
        | 2 | 3 -> (
          let addr = addr_of a b in
          try record "R%d;" (load_u8 sp addr)
          with As.Fault { reason; _ } ->
            record "R!%d;" (match reason with As.Unmapped -> 0 | _ -> 1))
        | 4 ->
          if Array.length !spaces < 3 then
            spaces := Array.append !spaces [| As.clone sp |]
        | _ ->
          (* Unmap the public region (no-op if already gone): exercises
             detach, and subsequent accesses must fault identically. *)
          As.unmap sp 0x8000
      in
      List.iter run_op ops;
      (* Final sweep: full contents of every space are part of the
         observation, so divergence hiding in never-again-read pages
         still fails the property. *)
      Array.iteri
        (fun i sp ->
          let sum = ref 0 in
          for off = 0 to rlen - 1 do
            sum := (!sum * 31) + load_u8 sp (0x1000 + off)
          done;
          (match As.mapping_at sp 0x8000 with
          | Some _ ->
            for off = 0 to rlen - 1 do
              sum := (!sum * 31) + load_u8 sp (0x8000 + off)
            done
          | None -> sum := (!sum * 31) + 0xDEAD);
          record "S%d:%d;" i (!sum land 0x3FFFFFFF))
        !spaces;
      Buffer.contents buf)

let lockstep_gen =
  QCheck2.Gen.(
    list_size (int_range 0 48)
      (triple (int_bound 5) (int_bound 0xFFFF) (int_bound 255)))

let lockstep_prop ops =
  let eager = interp ~pager:false ops in
  let squeezed = interp ~pager:true ~ram:8 ops in
  let unbounded = interp ~pager:true ops in
  if eager <> squeezed then
    QCheck2.Test.fail_reportf "squeezed pager diverged:@.%s@.vs@.%s" eager
      squeezed;
  if eager <> unbounded then
    QCheck2.Test.fail_reportf "unbounded pager diverged:@.%s@.vs@.%s" eager
      unbounded;
  true

(* Crash-sweep extension: random schedules that crash at the pageout
   barrier must always recover to a clean fs, idempotently. *)
let crash_gen = QCheck2.Gen.(pair (int_range 1 4) (int_bound 9999))

let crash_prop (ordinal, salt) =
  with_pager true ~ram:8 (fun () ->
      let fs = Fs.create () in
      let path = "/shared/cs" in
      let sp, _seg = file_space fs ~path 16 in
      Fault.configure (Printf.sprintf "fs.pageout@%d=crash" ordinal);
      (try
         for i = 0 to 15 do
           store_u8 sp
             (0x100000 + (i * Layout.page_size))
             ((i + salt) land 0xFF)
         done
       with Fault.Crash _ -> ());
      Fault.clear ();
      let r1 = Fs.fsck fs in
      check_int "at most one intent in flight" 0
        (List.length (Fs.journal_pending fs));
      let r2 = Fs.fsck fs in
      if not r2.Fs.fsck_clean then
        QCheck2.Test.fail_reportf "fsck not idempotent after %s"
          (String.concat "; " r1.Fs.fsck_repairs);
      true)

let suite =
  [
    test "demand: first touch materialises, resident hits do not" demand_materialise;
    test "demand: default Pinned kind never pager-faults" pinned_default_never_faults;
    test "demand: raw mapping promotes a pageable object to pinned" pin_promotion;
    test "demand: HEMLOCK_NO_PAGER restores eager residency" kill_switch_is_eager;
    test "evict: bounded RAM preserves contents across the clock" eviction_preserves_contents;
    test "evict: eviction re-faults through the slow path" eviction_invalidates_tlb;
    test "writeback: dirty file pages drain through the journal" writeback_goes_through_journal;
    test "writeback: clean evictions never touch the journal" clean_evictions_skip_writeback;
    test "writeback: injected failure aborts one eviction cleanly" injected_failure_aborts_one_eviction;
    test "writeback: crash at the barrier is fsck-recoverable" eviction_crash_recovers;
    test "kernel: console and billed costs identical under squeeze"
      kernel_costs_identical_under_squeeze;
    prop "lockstep: pager on (tiny RAM) matches eager oracle" ~count:120
      lockstep_gen lockstep_prop;
    prop "crash sweep: pageout crashes recover idempotently" ~count:60 crash_gen
      crash_prop;
  ]
