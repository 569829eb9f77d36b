(** Demand paging: VmObject residency, the Not_resident
    fault/materialise/retry protocol, bounded-RAM second-chance
    eviction, journalled writeback of dirty file-backed pages with
    crash-consistent recovery, and a schedule-randomized lockstep
    equivalence check of the squeezed pager against the eager
    always-resident oracle (the [pager] switch of {!Hemlock_util.Config}
    off).  Kernel workloads under a squeezed pager are test_oracle's. *)

open Harness
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module As = Hemlock_vm.Address_space
module Vm_object = Hemlock_vm.Vm_object
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

(* Run [f] with the pager on or off and RAM bounded by [~ram] pages.
   Every test builds its segments inside, so no stale registry entry
   survives into the next test. *)
let with_pager ?ram pager = Test_oracle.under ?ram { Config.current with pager }

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
      let sp2 = As.create ~pager:(As.pager sp) () in
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

(* The crash files the page's digest as it stood at the barrier, so a
   store that lands between the crash and fsck makes the intent stale
   and fsck withdraws it. *)
let eviction_crash_stale_page () =
  with_pager true ~ram:8 (fun () ->
      let fs = Fs.create () in
      let sp, seg = file_space fs ~path:"/shared/crashy" 16 in
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
      let at_crash =
        Digest.bytes (Segment.blit_out seg ~src_off:0 ~len:Layout.page_size)
      in
      (match Fs.journal_pending fs with
      | [ (_, Fs.Intent_pageout { path; page; digest }) ] ->
        check_string "intent path" "/shared/crashy" path;
        check_int "intent page" 0 page;
        check_bool "digest of the page at the barrier" true (digest = at_crash)
      | pending ->
        Alcotest.failf "expected one pageout intent, got %d entries"
          (List.length pending));
      Segment.set_u8 seg 0 0x99;
      let r1 = Fs.fsck fs in
      check_int "the stale intent is rolled back" 1 r1.Fs.fsck_rolled_back;
      check_int "nothing replayed" 0 r1.Fs.fsck_replayed;
      Alcotest.(check (list string))
        "repair log"
        [ "discarded stale pageout of /shared/crashy page 0" ]
        r1.Fs.fsck_repairs;
      check_bool "recovery is idempotent" true (Fs.fsck fs).Fs.fsck_clean)

(* A flush that does not crash is only its fault site: no page copy, no
   digest, no journal entry. *)
let writeback_allocates_nothing () =
  let fs = Fs.create () in
  let path = "/shared/quiet" in
  Fs.write_file fs path (Bytes.make (16 * Layout.page_size) 'q');
  let seg = Fs.segment_of fs path in
  let calls = 256 in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  let before = Gc.quick_stat () in
  for i = 0 to calls - 1 do
    Fs.page_writeback fs ~path ~seg ~page:(i land 15)
  done;
  let per_call = (words (Gc.quick_stat ()) -. words before) /. float calls in
  check_bool
    (Printf.sprintf "%.1f words per writeback, under 8" per_call)
    true (per_call < 8.0);
  check_int "no journal traffic" 0 (List.length (Fs.journal_pending fs))

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

(* A semaphore word evicted while its waiter sleeps: the poster's
   sweep of a larger file pushes the word's page out of an 8-page RAM
   after the post, and the waiter's wake-up condition must fault it
   back in, or the post never wakes it. *)
let sem_wakes_after_eviction () =
  with_pager ~ram:8 true (fun () ->
      let k = Kernel.create () in
      let fs = Kernel.fs k in
      Fs.write_file fs "/shared/sem" (Bytes.make Layout.page_size '\000');
      Fs.write_file fs "/shared/big" (Bytes.make (16 * Layout.page_size) 'x');
      let map k proc path = Kernel.map_shared_file k proc ~path ~prot:Prot.Read_write in
      let woke = ref false in
      ignore
        (Kernel.spawn_native k ~name:"waiter" (fun k proc ->
             Hemlock_runtime.Sync.sem_wait k proc (map k proc "/shared/sem");
             woke := true;
             0));
      ignore
        (Kernel.spawn_native k ~name:"poster" (fun k proc ->
             let sem = map k proc "/shared/sem" and big = map k proc "/shared/big" in
             Hemlock_runtime.Sync.sem_post k proc sem;
             for pg = 0 to 15 do
               ignore (Kernel.load_u32 k proc (big + (pg * Layout.page_size)))
             done;
             0));
      let (), d = Stats.measure (fun () -> Kernel.run k) in
      check_bool "the sweep evicts" true (d.Stats.pages_evicted > 0);
      check_bool "the waiter woke" true !woke)

let suite =
  [
    test "demand: first touch materialises, resident hits do not" demand_materialise;
    test "demand: default Pinned kind never pager-faults" pinned_default_never_faults;
    test "demand: raw mapping promotes a pageable object to pinned" pin_promotion;
    test "demand: the pager switch off restores eager residency" kill_switch_is_eager;
    test "evict: bounded RAM preserves contents across the clock" eviction_preserves_contents;
    test "evict: eviction re-faults through the slow path" eviction_invalidates_tlb;
    test "writeback: dirty file pages drain through the journal" writeback_goes_through_journal;
    test "writeback: clean evictions never touch the journal" clean_evictions_skip_writeback;
    test "writeback: injected failure aborts one eviction cleanly" injected_failure_aborts_one_eviction;
    test "writeback: crash at the barrier is fsck-recoverable" eviction_crash_recovers;
    test "writeback: a page changed after the crash is a stale intent" eviction_crash_stale_page;
    test "writeback: a flush that does not crash allocates nothing" writeback_allocates_nothing;
    test "evict: a semaphore evicted under its waiter still wakes it" sem_wakes_after_eviction;
    prop "lockstep: pager on (tiny RAM) matches eager oracle" ~count:120
      lockstep_gen lockstep_prop;
    prop "crash sweep: pageout crashes recover idempotently" ~count:60 crash_gen
      crash_prop;
  ]
