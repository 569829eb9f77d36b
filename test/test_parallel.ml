(* Parallel execution: the domain pool, per-domain PRNG streams and
   multi-domain clusters.  The contract under test everywhere:
   spreading machines over domains changes wall-clock time and nothing
   else — same consoles, same exit codes, same simulated costs.  The
   ownership rule that makes this safe without locks — a kernel and
   everything reachable from it is touched by one domain at a time — is
   checked directly: no machine may migrate mid-run. *)

open Harness
module Stats = Hemlock_util.Stats
module Domain_pool = Hemlock_util.Domain_pool
module Cluster = Hemlock_os.Cluster
module Net = Hemlock_os.Net
module Errno = Hemlock_os.Errno

(* ----- per-domain PRNG streams ----- *)

let prng_streams_split () =
  let module Prng = Hemlock_util.Prng in
  (* stream d on domain d: draws must not depend on which domain asks *)
  let draws =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let g = Prng.stream ~seed:42 ~index:d in
            List.init 8 (fun _ -> Prng.next g)))
  in
  let on_domains = Array.map Domain.join draws in
  Array.iteri
    (fun d here ->
      let g = Prng.stream ~seed:42 ~index:d in
      check_bool
        (Printf.sprintf "stream %d domain-independent" d)
        true
        (List.init 8 (fun _ -> Prng.next g) = here))
    on_domains;
  (* the streams of one family are pairwise distinct *)
  check_bool "streams independent" true
    (List.hd on_domains.(0) <> List.hd on_domains.(1)
    && List.hd on_domains.(1) <> List.hd on_domains.(2))

(* ----- the domain pool ----- *)

let pool_rounds_and_merge () =
  let pool = Domain_pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let before = Stats.snapshot () in
  let hits = Array.make 4 0 in
  for _ = 1 to 3 do
    Domain_pool.round pool (fun w ->
        hits.(w) <- hits.(w) + 1;
        (Stats.cur ()).messages_sent <- (Stats.cur ()).messages_sent + 1)
  done;
  check_bool "every worker ran every round" true (Array.for_all (( = ) 3) hits);
  Domain_pool.shutdown pool;
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  (* 3 rounds x 4 workers, the 3 off-domain records merged at shutdown *)
  check_int "per-domain stats merge" 12 d.Stats.messages_sent

(* At 2 domains the pool spins between rounds (on a host with 2 cores
   or more); at 4 on a 2-core host it parks at once.  Shares
   [domains / 2 ..] fail. *)
let pool_reraises_lowest_worker () =
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains in
      Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
      let lowest = domains / 2 in
      (match
         Domain_pool.round pool (fun w -> if w >= lowest then failwith (string_of_int w))
       with
      | () -> Alcotest.failf "%d domains: round did not re-raise" domains
      | exception Failure w ->
        check_string (Printf.sprintf "%d domains: deterministic loser" domains)
          (string_of_int lowest) w);
      (* the pool survives a failed round *)
      let ok = Atomic.make 0 in
      Domain_pool.round pool (fun _ -> Atomic.incr ok);
      check_int (Printf.sprintf "%d domains: pool usable after failure" domains) domains
        (Atomic.get ok))
    [ 4; 2 ]

(* [rounds] lockstep rounds on a fresh pool.  In round [r] worker [w]
   runs [share w r], writes [r] into its own slot and finds every slot
   at [r - 1] or later; once [round] returns, the coordinator finds every
   slot at [r].  [between r] runs on the coordinator before round [r].
   Every share counts one message, merged into the caller at shutdown. *)
let lockstep ?(between = ignore) ?(share = fun _ _ -> ()) ~domains rounds =
  let slots = Array.make domains 0 in
  let before = Stats.snapshot () in
  let pool = Domain_pool.create ~domains in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () ->
      for r = 1 to rounds do
        between r;
        Domain_pool.round pool (fun w ->
            share w r;
            slots.(w) <- r;
            Array.iteri
              (fun v s ->
                if s < r - 1 then
                  failwith (Printf.sprintf "round %d: worker %d saw slot %d at %d" r w v s))
              slots;
            (Stats.cur ()).messages_sent <- (Stats.cur ()).messages_sent + 1);
        Array.iteri
          (fun w s -> if s <> r then Alcotest.failf "after round %d: slot %d at %d" r w s)
          slots
      done);
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  check_int (Printf.sprintf "%d domains: every share counted once" domains) (rounds * domains)
    d.Stats.messages_sent

let pool_lockstep_stress () = lockstep ~domains:2 20_000

(* 20 ms is far past the spin bound (well under 1 ms), so each wait
   parks: first the worker's, for the next round, then the
   coordinator's, for the round to close. *)
let pool_parks_both_sides () =
  lockstep ~domains:2 ~between:(fun _ -> Unix.sleepf 0.02) 5;
  lockstep ~domains:2 ~share:(fun w _ -> if w = 1 then Unix.sleepf 0.02) 5

(* More domains than cores: no waiter spins. *)
let pool_park_only () = lockstep ~domains:(Domain.recommended_domain_count () + 2) 1_000

(* OCaml 5.1 runs at most 128 domains at once.  The workers spawned
   before the failing spawn must be joined, or every later pool in the
   process fails to spawn too. *)
let pool_create_failure_joins_workers () =
  (match Domain_pool.create ~domains:200 with
  | pool ->
    Domain_pool.shutdown pool;
    Alcotest.fail "200 domains spawned"
  | exception Failure _ -> ());
  lockstep ~domains:4 1

(* ----- network enqueue and backpressure ----- *)

let enqueue_net_backpressure () =
  let k = Kernel.create () in
  Kernel.msgq_create k "q" ~capacity:2;
  let before = Stats.snapshot () in
  let ok b = Kernel.enqueue_net k "q" b = Ok () in
  check_bool "first lands" true (ok (Bytes.of_string "a"));
  check_bool "second lands" true (ok (Bytes.of_string "b"));
  check_bool "full queue refuses" true
    (Kernel.enqueue_net k "q" (Bytes.of_string "c") = Error Errno.EAGAIN);
  check_bool "missing queue" true
    (match Kernel.enqueue_net k "nope" Bytes.empty with Error _ -> true | Ok () -> false);
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  (* raw enqueue never bills: traffic accounting is the cluster's job,
     per datagram that actually lands *)
  check_int "no billing from enqueue_net" 0 d.Stats.messages_sent;
  let got = ref [] in
  ignore
    (Kernel.spawn_native k ~name:"rx" (fun k proc ->
         let first = Kernel.msg_recv k proc "q" in
         let second = Kernel.msg_recv k proc "q" in
         got := [ first; second ];
         0));
  Kernel.run k;
  check_bool "delivered in order" true
    (List.map Bytes.to_string !got = [ "a"; "b" ])

(* ----- multi-domain clusters ----- *)

(* Per-machine interpreter load: enough arithmetic that a round is
   mostly ISA stepping, the part that runs in parallel. *)
let compute_src =
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

(* A miniature rwhod beside an ISA compute process on every machine:
   each machine broadcasts tagged datagrams and records everything it
   hears.  Returns (per-machine transcripts, compute exit codes, stat
   diff, wall seconds) so runs at different domain counts can be
   compared byte-for-byte. *)
let cluster_observables ?(machines = 4) ?(src = compute_src) ~domains () =
  let sends = 5 in
  let heard = Array.make machines [] in
  (* pinned to [Ideal]: this test asserts exact full-matrix delivery,
     which must hold even when the suite runs under a lossy
     HEMLOCK_NET_PROFILE *)
  let c = Cluster.create ~profile:Net.Ideal ~machines () in
  let computes =
    Array.init machines (fun i ->
        let k = Cluster.machine c i in
        ignore (Ldl.install k);
        Fs.mkdir (Kernel.fs k) "/home/w";
        install_c k "/home/w/main.o" src;
        ignore (link k ~dir:"/home/w" ~specs:[ ("main.o", Sharing.Static_private) ] "prog");
        Kernel.spawn_exec k "/home/w/prog")
  in
  for i = 0 to machines - 1 do
    let k = Cluster.machine c i in
    let rx =
      Kernel.spawn_native k ~name:"rx" (fun k proc ->
          while true do
            heard.(i) <- Bytes.to_string (Kernel.msg_recv k proc Cluster.inbox) :: heard.(i)
          done;
          0)
    in
    Kernel.set_daemon k rx;
    ignore
      (Kernel.spawn_native k ~name:"tx" (fun _ proc ->
           for r = 1 to sends do
             Cluster.broadcast c ~from:i
               (Bytes.of_string (Printf.sprintf "m%d-r%d" i r));
             Proc.yield ()
           done;
           ignore proc;
           0))
  done;
  let before = Stats.snapshot () in
  let t0 = Unix.gettimeofday () in
  Cluster.run ~domains c;
  let secs = Unix.gettimeofday () -. t0 in
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  ( Array.map (fun l -> String.concat "," (List.rev l)) heard,
    Array.map exit_code computes,
    d,
    secs )

let cluster_lockstep () =
  let obs1, codes1, d1, _ = cluster_observables ~domains:1 () in
  (* every broadcast lands exactly once: 3 peers x 5 sends x 4 senders *)
  check_int "messages" 60 d1.Stats.messages_sent;
  Array.iteri (fun i c -> check_int (Printf.sprintf "machine %d compute exit" i) 42 c) codes1;
  (* a second run at 1 domain, then 2 and 4: every run agrees *)
  List.iter
    (fun domains ->
      let obs, codes, d, _ = cluster_observables ~domains () in
      let at what = Printf.sprintf "%s at %d domains" what domains in
      Array.iteri
        (fun i t1 -> check_string (at (Printf.sprintf "machine %d transcript" i)) t1 obs.(i))
        obs1;
      check_bool (at "compute exits") true (codes = codes1);
      check_int (at "instructions") d1.Stats.instructions d.Stats.instructions;
      check_int (at "syscalls") d1.Stats.syscalls d.Stats.syscalls;
      check_int (at "faults") d1.Stats.faults d.Stats.faults;
      check_int (at "messages") d1.Stats.messages_sent d.Stats.messages_sent;
      check_int (at "bytes") d1.Stats.bytes_copied d.Stats.bytes_copied;
      check_int (at "context switches") d1.Stats.context_switches d.Stats.context_switches;
      check_int (at "cycles") (Stats.cycles d1) (Stats.cycles d))
    [ 1; 2; 4 ];
  (* Wall-clock scaling, on 8 machines, needs the cores to scale onto. *)
  if Domain.recommended_domain_count () >= 4 then begin
    let best domains =
      List.fold_left min infinity
        (List.init 3 (fun _ ->
             let _, _, _, secs = cluster_observables ~machines:8 ~domains () in
             secs))
    in
    let speedup = best 1 /. best 4 in
    if speedup < 2.0 then Alcotest.failf "4 domains ran %.2fx faster than 1, want >= 2x" speedup
  end

(* One word written, then read back, on each of 32 heap pages; exits 42
   when every word reads back. *)
let paging_src =
  {|
int main() {
  int *p;
  int i;
  int s;
  p = sbrk(131072);
  i = 0;
  while (i < 32768) { p[i] = i; i = i + 1024; }
  s = 0;
  i = 0;
  while (i < 32768) { s = s + p[i]; i = i + 1024; }
  return s - 507904 + 42;
}
|}

(* Each machine pages against its own RAM budget: its frames and its
   clock are its kernel's, so spreading the machines over domains cannot
   change what any of them faults in, evicts or writes back.  The pager
   is forced on so the oracle row runs this too. *)
let cluster_pager_per_machine () =
  Test_oracle.under ~ram:8 { Config.current with pager = true } (fun () ->
      let runs =
        List.map
          (fun domains ->
            let _, codes, d, _ = cluster_observables ~src:paging_src ~domains () in
            (domains, codes, d))
          [ 1; 2; 4 ]
      in
      let _, codes1, d1 = List.hd runs in
      Array.iteri (fun i c -> check_int (Printf.sprintf "machine %d exit" i) 42 c) codes1;
      check_bool "8 pages of RAM force evictions" true (d1.Stats.pages_evicted > 0);
      List.iter
        (fun (domains, codes, d) ->
          let at what = Printf.sprintf "%s at %d domains" what domains in
          check_bool (at "exits") true (codes = codes1);
          check_int (at "major faults") d1.Stats.major_faults d.Stats.major_faults;
          check_int (at "minor faults") d1.Stats.minor_faults d.Stats.minor_faults;
          check_int (at "pages evicted") d1.Stats.pages_evicted d.Stats.pages_evicted;
          check_int (at "pages written back") d1.Stats.pages_written_back
            d.Stats.pages_written_back)
        (List.tl runs))

(* A machine keeps its page cache across [Cluster.run] calls: the pool
   of each run is new, but the pager is the kernel's, so the file pages
   a machine read in the first run are still resident in the next. *)
let cluster_page_cache_survives_runs () =
  let module Layout = Hemlock_vm.Layout in
  let module Prot = Hemlock_vm.Prot in
  Test_oracle.under { Config.current with pager = true } (fun () ->
      let c = Cluster.create ~profile:Net.Ideal ~machines:2 () in
      let path = "/shared/pages" in
      for i = 0 to 1 do
        Fs.write_file (Kernel.fs (Cluster.machine c i)) path
          (Bytes.make (2 * Layout.page_size) 'p')
      done;
      let run () =
        for i = 0 to 1 do
          ignore
            (Kernel.spawn_native (Cluster.machine c i) ~name:"reader" (fun k proc ->
                 let base = Kernel.map_shared_file k proc ~path ~prot:Prot.Read_only in
                 for pg = 0 to 1 do
                   ignore (Kernel.load_u32 k proc (base + (pg * Layout.page_size)))
                 done;
                 0))
        done;
        let before = Stats.snapshot () in
        Cluster.run ~domains:2 c;
        (Stats.diff ~before ~after:(Stats.snapshot ())).Stats.major_faults
      in
      let majors = List.init 3 (fun _ -> run ()) in
      check_string "major faults per run" "4 0 0"
        (String.concat " " (List.map string_of_int majors)))

let cluster_deadlock_tagged () =
  let c = Cluster.create ~profile:Net.Ideal ~machines:2 () in
  ignore
    (Kernel.spawn_native (Cluster.machine c 1) ~name:"stuck" (fun k proc ->
         ignore (Kernel.msg_recv k proc Cluster.inbox);
         0));
  match Cluster.run c with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Kernel.Deadlock bs ->
    check_bool "machine-tagged" true
      (List.exists (fun b -> contains b.Kernel.b_comm "m1:stuck") bs)

(* The ownership rule: [Cluster.run] keeps machine [i] on worker
   [i mod n] for the whole run.  Each machine's process records the
   domain it runs on at every resume; a machine that migrated would
   show two domains, and two workers sharing a domain would show as
   machines of different residues on one domain. *)
let machines_stay_on_one_domain () =
  let machines = 4 in
  List.iter
    (fun domains ->
      let seen = Array.make machines [] in
      let c = Cluster.create ~profile:Net.Ideal ~machines () in
      for i = 0 to machines - 1 do
        ignore
          (Kernel.spawn_native (Cluster.machine c i) ~name:"probe" (fun _ _ ->
               for _ = 1 to 8 do
                 seen.(i) <- (Domain.self () :> int) :: seen.(i);
                 Proc.yield ()
               done;
               0))
      done;
      Cluster.run ~domains c;
      let home =
        Array.mapi
          (fun i ds ->
            check_int (Printf.sprintf "%d domains: machine %d resumes" domains i) 8
              (List.length ds);
            match List.sort_uniq compare ds with
            | [ d ] -> d
            | ds ->
              Alcotest.failf "%d domains: machine %d ran on %d domains" domains i
                (List.length ds))
          seen
      in
      for i = 0 to machines - 1 do
        for j = i + 1 to machines - 1 do
          check_bool
            (Printf.sprintf "%d domains: machines %d and %d share a domain iff same worker"
               domains i j)
            (i mod domains = j mod domains)
            (home.(i) = home.(j))
        done
      done)
    [ 2; 4 ]

let suite =
  [
    test "prng: per-domain streams are deterministic" prng_streams_split;
    test "domain pool: rounds run everywhere, stats merge" pool_rounds_and_merge;
    test "domain pool: failure re-raised from lowest worker" pool_reraises_lowest_worker;
    test "domain pool: 20,000 lockstep rounds at 2 domains" pool_lockstep_stress;
    test "domain pool: parked waiters on both sides wake" pool_parks_both_sides;
    test "domain pool: more domains than cores park at once" pool_park_only;
    test "domain pool: a failed create joins its workers" pool_create_failure_joins_workers;
    test "kernel: enqueue_net backpressure, no phantom billing" enqueue_net_backpressure;
    test "cluster: 4-domain run = single-domain oracle" cluster_lockstep;
    test "cluster: each machine pages against its own RAM budget" cluster_pager_per_machine;
    test "cluster: a machine keeps its page cache across runs"
      cluster_page_cache_survives_runs;
    test "cluster: deadlock reports machine-tagged processes" cluster_deadlock_tagged;
    test "cluster: each machine stays on one domain for the whole run"
      machines_stay_on_one_domain;
  ]
