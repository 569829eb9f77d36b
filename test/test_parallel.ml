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

let pool_reraises_lowest_worker () =
  let pool = Domain_pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  (match
     Domain_pool.round pool (fun w -> if w >= 2 then failwith (string_of_int w))
   with
  | () -> Alcotest.fail "round did not re-raise"
  | exception Failure w -> check_string "deterministic loser" "2" w);
  (* the pool survives a failed round *)
  let ok = ref 0 in
  Domain_pool.round pool (fun _ -> incr ok);
  check_bool "pool usable after failure" true (!ok >= 1)

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
let cluster_observables ?(machines = 4) ~domains () =
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
        install_c k "/home/w/main.o" compute_src;
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
    test "kernel: enqueue_net backpressure, no phantom billing" enqueue_net_backpressure;
    test "cluster: 4-domain run = single-domain oracle" cluster_lockstep;
    test "cluster: deadlock reports machine-tagged processes" cluster_deadlock_tagged;
    test "cluster: each machine stays on one domain for the whole run"
      machines_stay_on_one_domain;
  ]
