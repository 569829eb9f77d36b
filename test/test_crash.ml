(* Crash consistency under deterministic fault injection: random op
   traffic with injected errors and simulated crashes checked
   all-or-nothing against an oracle, the network's fault sites, plus
   the graceful-degradation paths (link-plan fallback, instantiate
   rollback, pd_call retry, ENOSPC atomicity, fsck-driven reaping). *)

open Harness
module Fault = Hemlock_util.Fault
module Prng = Hemlock_util.Prng
module Stats = Hemlock_util.Stats
module Segment = Hemlock_vm.Segment
module Layout = Hemlock_vm.Layout
module Janitor = Hemlock_runtime.Janitor
module Modgen = Hemlock_apps.Modgen
module Stable_link = Hemlock_linker.Stable_link
module Cluster = Hemlock_os.Cluster
module Net = Hemlock_os.Net
module M = Map.Make (String)
module S = Set.Make (String)

(* ----- random op traffic with crashes, vs an oracle ----------------------- *)

(* A small closed path pool so renames and re-creates collide often. *)
let pool = [| "/shared/a"; "/shared/b"; "/shared/d/c"; "/shared/d/e"; "/shared/f" |]

(* Stable-link persist traffic rides the same sweep: a small key pool
   so repeats hit the skip-if-present path, and the content-addressed
   file names double as oracle keys ([raw_blob] is deterministic). *)
let stable_keys = [| "alpha"; "beta"; "gamma" |]

type op =
  | Create of string
  | Write of string * string
  | Append of string * string
  | Rename of string * string
  | Unlink of string
  | Stable of string  (* persist a stable-link plan blob for this key *)
  | Pageout of string * int  (* the pager's writeback barrier for a page *)

let gen_op prng =
  let p () = Prng.choose prng pool in
  let payload () =
    String.init (1 + Prng.int prng 12) (fun _ -> Char.chr (97 + Prng.int prng 26))
  in
  match Prng.int prng 7 with
  | 0 -> Create (p ())
  | 1 -> Write (p (), payload ())
  | 2 -> Append (p (), payload ())
  | 3 -> Rename (p (), p ())
  | 4 -> Unlink (p ())
  | 5 -> Stable (Prng.choose prng stable_keys)
  | _ -> Pageout (p (), Prng.int prng 4)

let apply_fs fs = function
  | Create p -> Fs.create_file fs p
  | Write (p, s) -> Fs.write_file fs p (Bytes.of_string s)
  | Append (p, s) -> Fs.append_file fs p (Bytes.of_string s)
  | Rename (src, dst) -> Fs.rename fs ~src dst
  | Unlink p -> Fs.unlink fs p
  | Stable key -> Stable_link.persist_raw fs ~key
  | Pageout (path, page) -> Fs.page_writeback fs ~path ~seg:(Fs.segment_of fs path) ~page

(* Oracle semantics of a {e successful} op (write/append create missing
   files, just as the FS does). *)
let apply_oracle m = function
  | Create p -> M.add p "" m
  | Write (p, s) -> M.add p s m
  | Append (p, s) ->
    M.add p ((match M.find_opt p m with Some v -> v | None -> "") ^ s) m
  | Rename (src, dst) -> (
    match M.find_opt src m with
    | Some v -> M.add dst v (M.remove src m)
    | None -> m)
  | Unlink p -> M.remove p m
  | Stable key ->
    M.add (Stable_link.plan_path key) (Bytes.to_string (Stable_link.raw_blob ~key)) m
  | Pageout _ -> m (* the file is its segment: a flush changes no contents *)

let state_of fs =
  Array.fold_left
    (fun m p ->
      if Fs.exists fs p then M.add p (Bytes.to_string (Fs.read_file fs p)) m else m)
    M.empty
    (Array.append pool (Array.map Stable_link.plan_path stable_keys))

(* The multi-step FS mutation sites and the pager's writeback barrier:
   where a crash leaves an intent for fsck to resolve. *)
let fs_sites =
  [|
    "fs.create"; "fs.create.mid"; "fs.create.commit"; "fs.write"; "fs.append";
    "fs.rename"; "fs.rename.mid"; "fs.rename.commit"; "fs.unlink"; "fs.unlink.mid";
    "fs.stable"; "fs.pageout";
  |]

(* One (seed, plan) pair.  Every op must be all-or-nothing against the
   oracle: a clean error or an injected failure leaves the pre-state, a
   crash + recovery (rescan + fsck, itself crashed once on even seeds)
   leaves exactly the pre- or the post-state — and a second fsck is
   always clean.  [struck] sees the site of every crash, in order. *)
let run_case ?(struck = ignore) seed =
  let fs = Fs.create () in
  Fs.mkdir fs "/shared/d";
  let prng = Prng.create ~seed in
  let nops = 6 + Prng.int prng 10 in
  let ops = List.init nops (fun _ -> gen_op prng) in
  Fault.configure_random ~sites:fs_sites seed;
  Fun.protect ~finally:Fault.clear (fun () ->
      let equal = M.equal String.equal in
      let ok = ref true in
      let oracle = ref M.empty in
      List.iter
        (fun op ->
          if !ok then
            let pre = !oracle in
            match apply_fs fs op with
            | () -> oracle := apply_oracle pre op
            | exception Fs.Error _ ->
              (* legitimately refused (missing source, existing
                 destination, out of space): nothing may have changed *)
              ok := equal (state_of fs) pre
            | exception Fault.Injected _ ->
              (* recoverable injection: the op must have unwound *)
              ok := equal (state_of fs) pre
            | exception Fault.Crash { site } ->
              (* reboot: recover, then demand all-or-nothing.  Even
                 seeds crash the first recovery too, before its first
                 or second intent: the next fsck must finish it. *)
              struck site;
              Fault.clear ();
              Fs.rescan_shared fs;
              if seed land 1 = 0 then begin
                Fault.configure
                  (Printf.sprintf "fs.fsck@%d=crash" (1 + ((seed lsr 1) land 1)));
                (match Fs.fsck fs with _ -> () | exception Fault.Crash { site } -> struck site);
                Fault.clear ()
              end;
              let (_ : Fs.fsck_report) = Fs.fsck fs in
              let second = Fs.fsck fs in
              ok := second.Fs.fsck_clean;
              let post = apply_oracle pre op in
              let st = state_of fs in
              if equal st post then oracle := post
              else ok := !ok && equal st pre)
        ops;
      !ok
      && equal (state_of fs) !oracle
      && (* a run is always left consistent: final fsck has nothing to do *)
      (Fs.fsck fs).Fs.fsck_clean)

let prop_all_or_nothing =
  prop "crash: random traffic is all-or-nothing vs the oracle" ~count:250
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000_000)
    run_case

(* The property draws its seeds at random; a fixed range pins down that
   its traffic crashes at every site it arms (the pager's writeback
   barrier among them) and inside a crashed first recovery. *)
let fixed_seeds_strike_every_site () =
  let struck = ref S.empty in
  for seed = 1 to 1300 do
    if not (run_case ~struck:(fun site -> struck := S.add site !struck) seed) then
      Alcotest.failf "seed %d is not all-or-nothing" seed
  done;
  Array.iter
    (fun site -> check_bool ("a crash at " ^ site) true (S.mem site !struck))
    (Array.append fs_sites [| "fs.fsck" |])

(* ----- the network's fault sites ------------------------------------------ *)

(* Two machines on the ideal network broadcast three datagrams each.  Hit
   counters are per domain, so "@1=eio" loses one datagram per domain
   that reaches the site; a crash stops the cluster, whether it strikes
   in a sender's native process or in the network drain. *)
let burst ~domains =
  let c = Cluster.create ~profile:Net.Ideal ~seed:1 ~machines:2 () in
  for i = 0 to 1 do
    ignore
      (Kernel.spawn_native (Cluster.machine c i) ~name:"burst" (fun _ _ ->
           for r = 1 to 3 do
             Cluster.broadcast c ~from:i (Bytes.make (8 + r) 'b')
           done;
           0))
  done;
  Cluster.run ~domains c;
  Net.telemetry (Cluster.net c)

let net_sites_drop_and_crash () =
  List.iter
    (fun domains ->
      List.iter
        (fun site ->
          let what kind = Printf.sprintf "%s=%s at %d domain(s)" site kind domains in
          Fault.configure (site ^ "@1=eio");
          let tm = Fun.protect ~finally:Fault.clear (fun () -> burst ~domains) in
          check_int (what "eio" ^ ": sent") 6 tm.Net.t_sent;
          check_int (what "eio" ^ ": dropped") domains tm.Net.t_dropped;
          check_int (what "eio" ^ ": delivered") (6 - domains) tm.Net.t_delivered;
          Fault.configure (site ^ "@1=crash");
          match Fun.protect ~finally:Fault.clear (fun () -> burst ~domains) with
          | _ -> Alcotest.failf "%s: Cluster.run returned" (what "crash")
          | exception Fault.Crash { site = s } -> check_string (what "crash") site s)
        [ "net.send"; "net.deliver" ])
    [ 1; 2 ]

(* ----- graceful degradation ----------------------------------------------- *)

(* Acceptance: an injected fault during link-plan replay degrades to the
   cold resolution path; the exec still succeeds. *)
let plan_replay_fault_falls_back () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  ignore (Modgen.install ldl ~dir:"/home/lib" ~modules:3);
  Modgen.link_driver ldl ~dir:"/home/lib" ~out:"/home/d/prog" ~used:0;
  let want = string_of_int (Modgen.expected ~modules:3 ~used:0) in
  let run () = String.trim (snd (run_program k "/home/d/prog")) in
  check_string "cold exec" want (run ());
  check_string "warm exec replays" want (run ());
  let before = Stats.global.Stats.plan_fallbacks in
  Fault.configure "plan.replay@1=eio";
  let out = Fun.protect ~finally:Fault.clear run in
  check_string "faulted replay still executes correctly" want out;
  if Config.current.plans then
    check_bool "cold-path fallback counted" true
      (Stats.global.Stats.plan_fallbacks > before)

(* A failure mid-instantiate unwinds the mappings it added; the retry
   starts from a clean slate and succeeds. *)
let instantiate_rolls_back_mappings () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  let before = Stats.global.Stats.link_rollbacks in
  let symbol =
    run_native k (fun _ proc ->
        Fault.configure "ldl.instantiate.mid@1=eio";
        (match Ldl.dlopen ldl proc "/shared/lib/counter.o" with
        | _ -> Alcotest.fail "expected an injected failure"
        | exception Fault.Injected _ -> ());
        Fault.clear ();
        let inst = Ldl.dlopen ldl proc "/shared/lib/counter.o" in
        Ldl.link_now ldl proc inst;
        Ldl.dlsym ldl proc "bump")
  in
  check_bool "retry resolved the module" true (Option.is_some symbol);
  check_bool "rollback counted" true (Stats.global.Stats.link_rollbacks > before)

(* Transient EAGAIN on a protection-domain call is retried with
   deterministic backoff, invisibly to the caller. *)
let pd_call_retries_transient_eagain () =
  let k, _ = boot () in
  let before = Stats.global.Stats.ipc_retries in
  let got = ref 0 in
  let srv =
    Kernel.spawn_native k ~name:"server" (fun k proc ->
        Kernel.register_pd_service k ~name:"double" ~owner:proc (fun _ _ arg -> arg * 2);
        Proc.wait_until (fun () -> false);
        0)
  in
  Kernel.set_daemon k srv;
  ignore
    (Kernel.spawn_native k ~name:"client" (fun k proc ->
         Proc.yield ();
         Fault.configure "ipc.send@1=eagain";
         got := Kernel.pd_call k proc ~service:"double" 21;
         Fault.clear ();
         0));
  Kernel.run k;
  check_int "retried to success" 42 !got;
  check_bool "retry counted" true (Stats.global.Stats.ipc_retries > before)

(* An oversized write/append is refused up front: the backing segment —
   and everyone mapping it — never sees a half-grown intermediate. *)
let oversized_write_is_atomic () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.write_file fs "/shared/blob" (Bytes.of_string "precious");
  let seg = Fs.segment_of fs "/shared/blob" in
  let v0 = Segment.version seg in
  let huge = Bytes.make (Layout.shared_slot_size + 1) 'x' in
  (match Fs.write_file fs "/shared/blob" huge with
  | () -> Alcotest.fail "expected No_space"
  | exception Fs.Error { kind = Fs.No_space; _ } -> ());
  (match Fs.append_file fs "/shared/blob" huge with
  | () -> Alcotest.fail "expected No_space"
  | exception Fs.Error { kind = Fs.No_space; _ } -> ());
  check_string "contents untouched" "precious"
    (Bytes.to_string (Fs.read_file fs "/shared/blob"));
  check_int "segment never mutated" v0 (Segment.version seg)

(* A crash between a create's commit point and its acknowledgement:
   fsck keeps the file (the create completed) but flags it for the
   janitor's policy, which reaps it without touching anything else. *)
let fsck_orphan_reaped_by_policy () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.write_file fs "/shared/keep" (Bytes.of_string "published data");
  Fault.configure "fs.create.commit@1=crash";
  (match Fs.create_file fs "/shared/halfborn" with
  | () -> Alcotest.fail "expected a crash"
  | exception Fault.Crash _ -> ());
  Fault.clear ();
  Fs.rescan_shared fs;
  let report = Fs.fsck fs in
  check_bool "creation flagged as orphan" true
    (List.mem "/shared/halfborn" report.Fs.fsck_orphans);
  check_bool "fsck itself keeps the completed create" true
    (Fs.exists fs "/shared/halfborn");
  let victims =
    Janitor.reap k ~policy:(Janitor.orphan_policy k ~flagged:report.Fs.fsck_orphans)
  in
  check_bool "orphan reaped" true
    (List.exists (fun e -> e.Janitor.j_path = "/shared/halfborn") victims);
  check_bool "unflagged plain file kept" true (Fs.exists fs "/shared/keep");
  check_bool "orphan gone" false (Fs.exists fs "/shared/halfborn")

(* A module whose template path no longer resolves, because its
   directory was renamed and a regular file or a symlink loop took the
   old name, is orphaned: the survey lists it and the janitor's policy
   reaps it. *)
let unresolvable_template_reaped () =
  List.iter
    (fun (what, occupy) ->
      let k, ldl = boot () in
      let fs = Kernel.fs k in
      Fs.mkdir fs "/shared/lib";
      install_c k "/shared/lib/b.o" "int b() { return 2; }";
      run_native k (fun _ proc -> ignore (Ldl.dlopen ldl proc "/shared/lib/b.o"));
      Fs.rename fs ~src:"/shared/lib" "/shared/lib2";
      occupy fs;
      Alcotest.(check (list string)) (what ^ ": orphaned") [ "/shared/lib2/b" ]
        (List.map (fun e -> e.Janitor.j_path) (Janitor.orphaned_modules k));
      Alcotest.(check (list string)) (what ^ ": reaped") [ "/shared/lib2/b" ]
        (List.map
           (fun e -> e.Janitor.j_path)
           (Janitor.reap k ~policy:(Janitor.orphan_policy k ~flagged:[])));
      check_bool (what ^ ": module gone") false (Fs.exists fs "/shared/lib2/b"))
    [
      ("a file", fun fs -> Fs.write_file fs "/shared/lib" (Bytes.of_string "plain"));
      ("a loop", fun fs -> Fs.symlink fs ~target:"/shared/lib" "/shared/lib");
    ]

(* A crash mid-module-creation leaves an unpublished file plus the
   pending intent; fsck rolls it back and a fresh dlopen recreates the
   module from scratch. *)
let module_creation_crash_recovers () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  run_native k (fun _ proc ->
      Fault.configure "mod.create.mid@1=crash";
      match Ldl.dlopen ldl proc "/shared/lib/counter.o" with
      | _ -> Alcotest.fail "expected a crash"
      | exception Fault.Crash _ -> Fault.clear ());
  Fs.rescan_shared fs;
  let report = Fs.fsck fs in
  check_bool "partial module rolled back" true (report.Fs.fsck_rolled_back >= 1);
  check_bool "unpublished file removed" false (Fs.exists fs "/shared/lib/counter");
  check_bool "second fsck clean" true (Fs.fsck fs).Fs.fsck_clean;
  let resolved =
    run_native k (fun _ proc ->
        let inst = Ldl.dlopen ldl proc "/shared/lib/counter.o" in
        Ldl.link_now ldl proc inst;
        Ldl.dlsym ldl proc "bump")
  in
  check_bool "module recreated after recovery" true (Option.is_some resolved)

(* fsck retires intents one at a time: a crash before the second
   leaves it, and only it, for the next run, where an injected errno at
   the same site is ignored. *)
let fsck_crash_keeps_unprocessed_intents () =
  let fs = Fs.create () in
  Fs.create_file fs "/shared/a";
  Fs.write_file fs "/shared/b" (Bytes.of_string "partial");
  let (_ : int) = Fs.journal_begin fs (Fs.Intent_create { path = "/shared/a" }) in
  let (_ : int) =
    Fs.journal_begin fs
      (Fs.Intent_write { path = "/shared/b"; digest = Digest.string "intended" })
  in
  Fault.configure "fs.fsck@2=crash";
  (match Fs.fsck fs with
  | _ -> Alcotest.fail "expected a crash before the second intent"
  | exception Fault.Crash _ -> Fault.clear ());
  (match Fs.journal_pending fs with
  | [ (_, Fs.Intent_write { path = "/shared/b"; _ }) ] -> ()
  | pending ->
    Alcotest.failf "expected the unprocessed write intent alone, got %d entries"
      (List.length pending));
  Fault.configure "fs.fsck@1=eio";
  let report = Fun.protect ~finally:Fault.clear (fun () -> Fs.fsck fs) in
  check_int "the partial write is rolled back" 1 report.Fs.fsck_rolled_back;
  check_bool "rolled-back file removed" false (Fs.exists fs "/shared/b");
  check_bool "replayed create kept" true (Fs.exists fs "/shared/a");
  check_int "journal drained" 0 (List.length (Fs.journal_pending fs));
  check_bool "second fsck clean" true (Fs.fsck fs).Fs.fsck_clean

(* ----- fsck against hostile intents --------------------------------------- *)

(* fsck trusts no intent: over a random tree of directories, files of
   0-9,000 bytes and symlinks (loops and dangling ones included) under
   /shared and /tmp, 1-6 intents naming its paths, the root, /shared or
   missing paths, with digests that match or not and pageout pages
   before, inside or past the file, must resolve without an exception
   and leave nothing for a second fsck. *)
let hostile_intents seed =
  let fs = Fs.create () in
  let prng = Prng.create ~seed in
  let pick l = Prng.choose prng (Array.of_list l) in
  let dirs = ref [ "/shared"; "/tmp" ] and nodes = ref [] in
  for i = 0 to Prng.int prng 12 do
    nodes := Printf.sprintf "%s/n%d" (pick !dirs) i :: !nodes;
    if Prng.int prng 3 = 0 then dirs := List.hd !nodes :: !dirs
  done;
  let tree = List.rev !nodes in
  let missing = "/shared/missing" :: List.map (fun p -> p ^ "/missing") tree in
  (* Symlinks may point anywhere in the tree, so some resolve only
     through others, some loop and some dangle. *)
  List.iter
    (fun p ->
      if List.mem p !dirs then Fs.mkdir fs p
      else if Prng.bool prng then
        Fs.write_file fs p
          (Bytes.init (Prng.int prng 9_001) (fun _ -> Char.chr (Prng.int prng 256)))
      else Fs.symlink fs ~target:(pick (tree @ missing)) p)
    tree;
  let paths = Array.of_list (("/" :: "/shared" :: tree) @ missing) in
  let path () = Prng.choose prng paths in
  let wrong = Digest.string "wrong" in
  let digest p =
    match Fs.read_file fs p with
    | b when Prng.bool prng -> Digest.bytes b
    | _ | (exception Fs.Error _) -> wrong
  in
  let pageout p =
    let pages =
      match Fs.segment_of fs p with
      | seg -> Segment.max_size seg / Layout.page_size
      | exception Fs.Error _ -> 0
    in
    let page = Prng.choose prng [| -1; Prng.int prng 3; pages + Prng.int prng 2 |] in
    let digest =
      match Fs.segment_of fs p with
      | seg when Prng.bool prng && page >= 0 && page < pages ->
        Digest.bytes
          (Segment.blit_out seg ~src_off:(page * Layout.page_size) ~len:Layout.page_size)
      | _ | (exception Fs.Error _) -> wrong
    in
    Fs.Intent_pageout { path = p; page; digest }
  in
  for _ = 0 to Prng.int prng 6 do
    let p = path () in
    ignore
      (Fs.journal_begin fs
         (match Prng.int prng 5 with
         | 0 -> Fs.Intent_create { path = p }
         | 1 -> Fs.Intent_rename { src = p; dst = path () }
         | 2 -> Fs.Intent_write { path = p; digest = digest p }
         | 3 -> Fs.Intent_module { module_path = p }
         | _ -> pageout p))
  done;
  let (_ : Fs.fsck_report) = Fs.fsck fs in
  (Fs.fsck fs).Fs.fsck_clean

(* fsck finishes a rename only from the state [rename] leaves half
   done, one node under both names.  An intent whose source is its
   destination, or whose names are two different nodes (across the
   partitions, say), keeps every file. *)
let fsck_finishes_only_a_half_done_rename () =
  let fs = Fs.create () in
  Fs.write_file fs "/shared/a" (Bytes.of_string "a");
  Fs.write_file fs "/shared/b" (Bytes.of_string "b");
  Fs.mkdir fs "/tmp/x";
  let rename src dst = ignore (Fs.journal_begin fs (Fs.Intent_rename { src; dst })) in
  rename "/shared/a" "/shared/a";
  rename "/shared/a" "/shared/b";
  rename "/shared" "/tmp/x";
  let report = Fs.fsck fs in
  check_int "the rename onto itself is complete" 1 report.Fs.fsck_replayed;
  check_int "the others never began" 2 report.Fs.fsck_rolled_back;
  check_string "a stays" "a" (Bytes.to_string (Fs.read_file fs "/shared/a"));
  check_string "b stays" "b" (Bytes.to_string (Fs.read_file fs "/shared/b"));
  check_bool "second fsck clean" true (Fs.fsck fs).Fs.fsck_clean

(* A directory rename cut between its insert and its remove leaves the
   directory under both names; fsck finishes it, and each file in it
   keeps its one name under the new one. *)
let fsck_finishes_a_directory_rename () =
  let fs = Fs.create () in
  Fs.mkdir fs "/shared/d";
  Fs.write_file fs "/shared/d/f" (Bytes.of_string "f");
  Fault.configure "fs.rename.mid@1=crash";
  (match Fs.rename fs ~src:"/shared/d" "/shared/e" with
  | () -> Alcotest.fail "expected a crash mid-rename"
  | exception Fault.Crash _ -> Fault.clear ());
  let report = Fs.fsck fs in
  check_int "the rename is finished" 1 report.Fs.fsck_replayed;
  check_bool "the old name is gone" false (Fs.exists fs "/shared/d");
  check_string "the file stays under the new name" "f"
    (Bytes.to_string (Fs.read_file fs "/shared/e/f"));
  check_bool "second fsck clean" true (Fs.fsck fs).Fs.fsck_clean

let prop_hostile_intents =
  prop "crash: fsck resolves hostile intents" ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000_000)
    hostile_intents

let suite =
  [
    prop_all_or_nothing;
    test "crash: seeds 1-1300 strike every crash site" fixed_seeds_strike_every_site;
    test "crash: net sites drop datagrams and crash the cluster" net_sites_drop_and_crash;
    test "crash: a crash during fsck leaves the unprocessed intents"
      fsck_crash_keeps_unprocessed_intents;
    prop_hostile_intents;
    test "crash: fsck finishes only a half-done rename" fsck_finishes_only_a_half_done_rename;
    test "crash: fsck finishes a directory rename" fsck_finishes_a_directory_rename;
    test "crash: plan-replay fault falls back to the cold path" plan_replay_fault_falls_back;
    test "crash: instantiate rolls back its mappings" instantiate_rolls_back_mappings;
    test "crash: pd_call retries transient EAGAIN" pd_call_retries_transient_eagain;
    test "crash: oversized writes are atomic" oversized_write_is_atomic;
    test "crash: fsck orphan reaped by janitor policy" fsck_orphan_reaped_by_policy;
    test "crash: a module whose template does not resolve is reaped"
      unresolvable_template_reaped;
    test "crash: module creation crash recovers" module_creation_crash_recovers;
  ]
