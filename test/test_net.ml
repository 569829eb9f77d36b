(* The simulated network: deterministic loss/latency/partitions, the
   reliable send path, gossip anti-entropy, and the /shared address
   index.  The contracts under test: the ideal profile is the old
   loss-free bus; lossy profiles change *what* is delivered but never
   diverge across domain counts; reliability failures surface as
   ETIMEDOUT through the errno ABI instead of wedging the cluster;
   partitioned gossip heals. *)

open Harness
module Stats = Hemlock_util.Stats
module Cluster = Hemlock_os.Cluster
module Net = Hemlock_os.Net
module Errno = Hemlock_os.Errno
module Rwho = Hemlock_apps.Rwho

(* ----- broadcast payload aliasing ----- *)

(* The sender scribbles on its buffer right after broadcasting; every
   receiver must still see the bytes as sent (one copy at the send, not
   a shared reference). *)
let broadcast_copies_payload () =
  let machines = 3 in
  let heard = Array.make machines [] in
  let c = Cluster.create ~profile:Net.Ideal ~machines () in
  for i = 0 to machines - 1 do
    let k = Cluster.machine c i in
    let rx =
      Kernel.spawn_native k ~name:"rx" (fun k proc ->
          while true do
            heard.(i) <- Bytes.to_string (Kernel.msg_recv k proc Cluster.inbox) :: heard.(i)
          done;
          0)
    in
    Kernel.set_daemon k rx
  done;
  ignore
    (Kernel.spawn_native (Cluster.machine c 0) ~name:"tx" (fun _ _ ->
         let buf = Bytes.of_string "payload-as-sent" in
         Cluster.broadcast c ~from:0 buf;
         Bytes.fill buf 0 (Bytes.length buf) 'X';
         0));
  Cluster.run c;
  for i = 1 to machines - 1 do
    check_string
      (Printf.sprintf "machine %d heard" i)
      "payload-as-sent"
      (String.concat "," (List.rev heard.(i)))
  done

(* ----- latency: in-flight datagrams are not a deadlock ----- *)

(* Under wan every link takes 2..6 rounds.  A receiver blocked on its
   inbox while a datagram is still in flight must be woken when it
   matures, not reported as a wedged cluster. *)
let inflight_is_not_deadlock () =
  let c = Cluster.create ~profile:Net.Wan ~seed:5 ~machines:2 () in
  let got = ref "" in
  ignore
    (Kernel.spawn_native (Cluster.machine c 1) ~name:"rx" (fun k proc ->
         got := Bytes.to_string (Kernel.msg_recv k proc Cluster.inbox);
         0));
  ignore
    (Kernel.spawn_native (Cluster.machine c 0) ~name:"tx" (fun _ _ ->
         Cluster.send c ~from:0 ~dst:1 (Bytes.of_string "slow boat");
         0));
  Cluster.run c;
  check_string "delivered after maturation" "slow boat" !got

(* A genuinely undeliverable datagram (receiver never drains: inbox
   missing would error, so: no receiver process at all and an inbox too
   small) still deadlocks — and the report counts only matured
   datagrams, never in-flight ones. *)
let deadlock_reports_matured_only () =
  let c = Cluster.create ~profile:Net.Ideal ~machines:2 () in
  ignore
    (Kernel.spawn_native (Cluster.machine c 1) ~name:"stuck" (fun k proc ->
         ignore (Kernel.msg_recv k proc Cluster.inbox);
         ignore (Kernel.msg_recv k proc Cluster.inbox);
         0));
  match Cluster.run c with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Kernel.Deadlock bs ->
    check_bool "blocked receiver reported" true
      (List.exists (fun b -> contains b.Kernel.b_comm "m1:stuck") bs);
    (* nothing was ever sent: no m*:net entry may claim phantom datagrams *)
    check_bool "no phantom net entries" false
      (List.exists (fun b -> contains b.Kernel.b_comm ":net") bs)

(* ----- lossy determinism across domain counts ----- *)

let lossy_trace ~domains =
  let machines = 4 in
  let sends = 6 in
  let heard = Array.make machines [] in
  let c = Cluster.create ~profile:Net.Lossy ~seed:9 ~machines () in
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
             Cluster.broadcast c ~from:i (Bytes.of_string (Printf.sprintf "m%d-r%d" i r));
             Proc.yield ()
           done;
           ignore proc;
           0))
  done;
  let before = Stats.snapshot () in
  Cluster.run ~domains c;
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  let tel = Net.telemetry (Cluster.net c) in
  (Array.map (fun l -> String.concat "," (List.rev l)) heard, d, tel)

(* Loss changes what arrives; domain count must not.  The same seed
   yields the same transcripts, telemetry and simulated costs at 1 and
   4 domains — and the lossy run really does lose something. *)
let lossy_identical_across_domains () =
  let obs1, d1, t1 = lossy_trace ~domains:1 in
  let obs4, d4, t4 = lossy_trace ~domains:4 in
  Array.iteri
    (fun i t -> check_string (Printf.sprintf "machine %d transcript" i) t obs4.(i))
    obs1;
  check_int "delivered" t1.Net.t_delivered t4.Net.t_delivered;
  check_int "dropped" t1.Net.t_dropped t4.Net.t_dropped;
  check_int "duplicated" t1.Net.t_duplicated t4.Net.t_duplicated;
  check_bool "latency histograms equal" true (t1.Net.t_latency = t4.Net.t_latency);
  check_int "messages billed" d1.Stats.messages_sent d4.Stats.messages_sent;
  check_int "cycles" (Stats.cycles d1) (Stats.cycles d4);
  check_bool "lossy profile actually dropped datagrams" true (t1.Net.t_dropped > 0)

(* ----- reliable send: ack, retry, exhaustion ----- *)

let send_reliable_acks () =
  let c = Cluster.create ~profile:Net.Lan ~seed:3 ~machines:2 () in
  let got = ref "" in
  let rx =
    Kernel.spawn_native (Cluster.machine c 1) ~name:"rx" (fun k proc ->
        while true do
          got := Bytes.to_string (Kernel.msg_recv k proc Cluster.inbox)
        done;
        0)
  in
  Kernel.set_daemon (Cluster.machine c 1) rx;
  let result = ref (Error Errno.EINVAL) in
  ignore
    (Kernel.spawn_native (Cluster.machine c 0) ~name:"tx" (fun _ _ ->
         result := Cluster.send_reliable c ~from:0 ~dst:1 (Bytes.of_string "important");
         0));
  Cluster.run c;
  check_bool "acked" true (!result = Ok ());
  check_string "delivered" "important" !got

(* A partitioned destination exhausts the retry budget: the sender gets
   ETIMEDOUT through the errno ABI and the cluster run completes —
   nothing wedges, nothing deadlocks. *)
let send_reliable_exhaustion_surfaces_etimedout () =
  let c = Cluster.create ~profile:Net.Ideal ~machines:2 () in
  Net.partition (Cluster.net c) ~name:"cut" ~groups:[ [ 0 ]; [ 1 ] ];
  let rx =
    Kernel.spawn_native (Cluster.machine c 1) ~name:"rx" (fun k proc ->
        while true do
          ignore (Kernel.msg_recv k proc Cluster.inbox)
        done;
        0)
  in
  Kernel.set_daemon (Cluster.machine c 1) rx;
  let result = ref (Ok ()) in
  ignore
    (Kernel.spawn_native (Cluster.machine c 0) ~name:"tx" (fun _ _ ->
         result :=
           Cluster.send_reliable c ~from:0 ~dst:1 ~retries:2 ~timeout:2
             (Bytes.of_string "into the void");
         0));
  Cluster.run c;
  (match !result with
  | Error e -> check_string "errno" "ETIMEDOUT" (Errno.name e)
  | Ok () -> Alcotest.fail "send through a partition succeeded");
  (* the retransmits were counted and billed as simulated work *)
  check_bool "retransmits recorded" true ((Stats.snapshot ()).Stats.net_retransmits > 0)

(* ----- gossip: staleness and partition healing ----- *)

let gossip_marks_dead_hosts_down () =
  let g =
    Rwho.Gossip.create ~down_after:2 ~profile:Net.Ideal ~seed:4 Rwho.Shared_db
      ~machines:3 ()
  in
  for _ = 1 to 2 do
    Rwho.Gossip.epoch g
  done;
  ignore (Rwho.Gossip.converge g);
  check_bool "host01 up while alive" false (Rwho.Gossip.is_down g 0 "host01");
  Rwho.Gossip.kill g 1;
  for _ = 1 to 4 do
    Rwho.Gossip.epoch g
  done;
  check_bool "host01 down after silence" true (Rwho.Gossip.is_down g 0 "host01");
  check_bool "ruptime says down" true (contains (Rwho.Gossip.ruptime g 0) "host01   down");
  Rwho.Gossip.revive g 1;
  for _ = 1 to 3 do
    Rwho.Gossip.epoch g
  done;
  ignore (Rwho.Gossip.converge g);
  check_bool "host01 back up after revive" false (Rwho.Gossip.is_down g 0 "host01")

(* Property: whatever happens during a partition, after [heal] a bounded
   number of anti-entropy epochs makes every machine's database
   identical — gossip convergence is not seed- or shape-dependent. *)
let gossip_partition_heal_prop (seed, split, lossy) =
  let machines = 4 in
  let profile = if lossy then Net.Lossy else Net.Lan in
  let g =
    Rwho.Gossip.create ~profile ~seed:(1 + seed) Rwho.Shared_db ~machines ()
  in
  (* a few epochs of normal operation *)
  for _ = 1 to 2 do
    Rwho.Gossip.epoch g
  done;
  (* split the cluster in two and let both sides diverge *)
  let cut = 1 + (split mod (machines - 1)) in
  let left = List.init cut (fun i -> i) in
  let right = List.init (machines - cut) (fun i -> cut + i) in
  Rwho.Gossip.partition g ~name:"isles" ~groups:[ left; right ];
  for _ = 1 to 2 do
    Rwho.Gossip.epoch g
  done;
  Rwho.Gossip.heal g ~name:"isles";
  (* bounded convergence after heal *)
  match Rwho.Gossip.converge ~max_epochs:48 g with
  | Some _ -> Rwho.Gossip.converged g
  | None -> false

(* ----- a deployment under every profile ----- *)

(* Six machines run the gossip rwhod; each epoch a user on every machine
   exercises a private message queue and sends one reliable remote-exec
   request to a random peer.  Five such epochs, then anti-entropy until
   every database reads the same.  Returns the telemetry, timeouts,
   completed execs, epochs to converge, cluster rounds, cycles and
   machine 0's rwho and ruptime. *)
let deployment profile ~domains =
  let module Prng = Hemlock_util.Prng in
  let module Serializer = Hemlock_baseline.Serializer in
  let machines = 6 and seed = 11 in
  let g = Rwho.Gossip.create ~profile ~seed ~domains Rwho.Shared_db ~machines () in
  let c = Rwho.Gossip.cluster g in
  (* one cell and one stream per machine, touched only by its own
     processes: the same at every domain count *)
  let timeouts = Array.make machines 0 and execs = Array.make machines 0 in
  let rngs = Array.init machines (fun i -> Prng.stream ~seed:(seed + 0x515) ~index:i) in
  let drive i k =
    ignore
      (Kernel.spawn_native k ~name:"user" (fun k proc ->
           let q = Printf.sprintf "user-m%d" i in
           if not (Kernel.msgq_exists k q) then Kernel.msgq_create k q ~capacity:4;
           for n = 1 to 3 do
             Kernel.msg_send k proc q (Bytes.make (16 + n) 'u');
             ignore (Kernel.msg_recv k proc q)
           done;
           let p = Prng.int rngs.(i) (machines - 1) in
           let p = if p >= i then p + 1 else p in
           let cost = 50 + Prng.int rngs.(i) 200 in
           (match
              Cluster.send_reliable c ~from:i ~dst:p
                (Serializer.to_binary
                   (Serializer.List [ Serializer.Str "exec"; Serializer.Int cost ]))
            with
           | Ok () -> execs.(i) <- execs.(i) + 1
           | Error e ->
             assert (e = Errno.ETIMEDOUT);
             timeouts.(i) <- timeouts.(i) + 1);
           0))
  in
  let before = Stats.snapshot () in
  for _ = 1 to 5 do
    Rwho.Gossip.epoch ~drive g
  done;
  let convergence = Rwho.Gossip.converge ~max_epochs:64 g in
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  let sum = Array.fold_left ( + ) 0 in
  ( Net.telemetry (Cluster.net c),
    sum timeouts,
    sum execs,
    convergence,
    Cluster.rounds c,
    Stats.cycles d,
    Rwho.Gossip.rwho g 0 ^ Rwho.Gossip.ruptime g 0 )

let deployment_under_every_profile () =
  List.iter
    (fun profile ->
      let name = Net.profile_to_string profile ^ ": " in
      let tel, timeouts, execs, convergence, rounds, cycles, db = deployment profile ~domains:1 in
      check_bool (name ^ "converges within 64 epochs") true (convergence <> None);
      check_int (name ^ "every exec completes or times out") (6 * 5) (execs + timeouts);
      if profile = Net.Ideal then begin
        check_int (name ^ "nothing dropped") 0 tel.Net.t_dropped;
        check_int (name ^ "nothing duplicated") 0 tel.Net.t_duplicated;
        check_int (name ^ "no timeouts") 0 timeouts
      end;
      if profile = Net.Ideal || profile = Net.Lossy then begin
        let tel4, timeouts4, execs4, convergence4, rounds4, cycles4, db4 =
          deployment profile ~domains:4
        in
        let at4 what = name ^ what ^ " at 4 domains" in
        check_int (at4 "sent") tel.Net.t_sent tel4.Net.t_sent;
        check_int (at4 "delivered") tel.Net.t_delivered tel4.Net.t_delivered;
        check_int (at4 "dropped") tel.Net.t_dropped tel4.Net.t_dropped;
        check_int (at4 "duplicated") tel.Net.t_duplicated tel4.Net.t_duplicated;
        check_bool (at4 "latency histogram") true (tel.Net.t_latency = tel4.Net.t_latency);
        check_int (at4 "timeouts") timeouts timeouts4;
        check_int (at4 "execs") execs execs4;
        check_bool (at4 "epochs to converge") true (convergence = convergence4);
        check_int (at4 "rounds") rounds rounds4;
        check_int (at4 "cycles") cycles cycles4;
        check_string (at4 "rwho and ruptime") db db4
      end)
    [ Net.Ideal; Net.Lan; Net.Wan; Net.Lossy ]

(* ----- the /shared address index ----- *)

(* The kernel's /shared slot table answers address translations. *)
let fs_translates_through_index () =
  let fs = Fs.create () in
  Fs.mkdir fs "/shared/x";
  Fs.create_file fs "/shared/x/a";
  Fs.create_file fs "/shared/x/b";
  let addr = Fs.addr_of_path fs "/shared/x/b" in
  check_string "path_of_addr through the index" "/shared/x/b" (Fs.path_of_addr fs addr)

let suite =
  [
    test "cluster: broadcast copies the payload once" broadcast_copies_payload;
    test "cluster: wan latency delivers late, not deadlocked" inflight_is_not_deadlock;
    test "cluster: deadlock report survives empty network" deadlock_reports_matured_only;
    test "cluster: lossy trace identical at 1 and 4 domains" lossy_identical_across_domains;
    test "cluster: send_reliable delivers and acks" send_reliable_acks;
    test "cluster: retry exhaustion surfaces ETIMEDOUT" send_reliable_exhaustion_surfaces_etimedout;
    test "gossip: silent hosts age out as down" gossip_marks_dead_hosts_down;
    prop "gossip: partition then heal converges (bounded)" ~count:15
      QCheck2.Gen.(triple (int_bound 1000) (int_bound 10) bool)
      gossip_partition_heal_prop;
    test "gossip: a deployment with users under every profile"
      deployment_under_every_profile;
    test "fs: /shared translations go through the address index" fs_translates_through_index;
  ]
