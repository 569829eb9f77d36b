module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault
module Domain_pool = Hemlock_util.Domain_pool
module Config = Hemlock_util.Config

(* A datagram in flight.  [m_sent] is the cluster round it left the
   sender; [m_mature] is the first round it may be delivered —
   [m_sent + latency], where the latency comes from the network
   profile's per-link draw ([Net.transmit]; always 1 under [Ideal], so
   the default profile keeps the old uniform one-round bus).  [m_seq]
   is a per-sender sequence number and [m_copy] distinguishes
   network-injected duplicates; sorting matured datagrams by
   (maturity, sender, seq, copy) makes delivery order deterministic
   even when a sender's messages straddle a drain snapshot or arrive
   out of order. *)
type kind =
  | Data
  | Data_acked of { xfer : int }  (** reliable send: deliver, then ack *)
  | Ack of { xfer : int }  (** transport ack riding back to the sender *)

type message = {
  m_sent : int;
  m_mature : int;
  m_sender : int;
  m_seq : int;
  m_copy : int;
  m_kind : kind;
  m_payload : Bytes.t;
}

type mailbox = {
  mb_lock : Mutex.t;
  mutable mb_pending : message list;
}

type t = {
  kernels : Kernel.t array;
  mailboxes : mailbox array;
  net : Net.t;
  mutable round : int;
  (* Per-sender counters.  Machine [i]'s counters are only touched
     while machine [i] runs (its own sends, and the acks its drain
     emits), and a machine runs on exactly one domain per round, so
     plain ints suffice. *)
  seqs : int array;
  xfers : int array;
  (* Acks received by machine [i]'s drain, keyed by transfer id; read
     by that machine's blocked reliable senders — same domain. *)
  acked : (int, unit) Hashtbl.t array;
  (* Reliable senders currently sleeping out an ack timeout, and the
     highest deadline round any of them waits for.  Written from
     worker domains, read by the coordinator's stall check. *)
  waiters : int Atomic.t;
  max_wake : int Atomic.t;
}

let inbox = "net-inbox"

let create ?profile ?seed ~machines () =
  if machines <= 0 then invalid_arg "Cluster.create: need at least one machine";
  let profile =
    match profile with Some p -> p | None -> Net.profile_of_string Config.env.net_profile
  in
  let seed = Option.value seed ~default:Net.default_seed in
  let boot _ =
    let k = Kernel.create () in
    Kernel.msgq_create k inbox ~capacity:4096;
    k
  in
  {
    kernels = Array.init machines boot;
    mailboxes =
      Array.init machines (fun _ -> { mb_lock = Mutex.create (); mb_pending = [] });
    net = Net.create ~machines ~profile ~seed;
    round = 0;
    seqs = Array.make machines 0;
    xfers = Array.make machines 0;
    acked = Array.init machines (fun _ -> Hashtbl.create 16);
    waiters = Atomic.make 0;
    max_wake = Atomic.make 0;
  }

let size t = Array.length t.kernels

let machine t i = t.kernels.(i)

let net t = t.net

let rounds t = t.round

let push_mail t dst msg =
  let mb = t.mailboxes.(dst) in
  Mutex.lock mb.mb_lock;
  mb.mb_pending <- msg :: mb.mb_pending;
  Mutex.unlock mb.mb_lock

(* One link transmission.  The [net.send] fault site fires per
   destination: an injected failure loses this link's datagram, a crash
   kills the sending machine mid-send.  [Net.transmit] then rolls the
   profile's dice — partition, loss, latency, duplication. *)
let link_send t ~from ~dst ~seq ~kind payload =
  match Fault.hit "net.send" with
  | () ->
    List.iteri
      (fun copy lat ->
        push_mail t dst
          {
            m_sent = t.round;
            m_mature = t.round + lat;
            m_sender = from;
            m_seq = seq;
            m_copy = copy;
            m_kind = kind;
            m_payload = payload;
          })
      (Net.transmit t.net ~from ~dst)
  | exception Fault.Injected _ -> Net.drop_at_send t.net ~from

let broadcast t ~from payload =
  (* One defensive copy per send: [Kernel.enqueue_net] gives every
     receiver its own copy at delivery, so this single in-flight copy
     is safe to share across destinations and network duplicates even
     if the sender immediately reuses its buffer.  Host-side only —
     network traffic is still billed per datagram that lands. *)
  let payload = Bytes.copy payload in
  let seq = t.seqs.(from) in
  t.seqs.(from) <- seq + 1;
  for dst = 0 to size t - 1 do
    if dst <> from then link_send t ~from ~dst ~seq ~kind:Data payload
  done

let check_dst t ~what ~from dst =
  if dst = from || dst < 0 || dst >= size t then
    invalid_arg (Printf.sprintf "Cluster.%s: bad destination" what)

let send t ~from ~dst payload =
  check_dst t ~what:"send" ~from dst;
  let payload = Bytes.copy payload in
  let seq = t.seqs.(from) in
  t.seqs.(from) <- seq + 1;
  link_send t ~from ~dst ~seq ~kind:Data payload

(* Deliver machine [i]'s matured datagrams, oldest first.  Returns how
   many landed; payload traffic is billed per datagram that actually
   makes it into the inbox, on the delivering domain's stats record.
   On [EAGAIN] (inbox full) the remainder waits for a later round.
   Reliable-send payloads additionally put an ack on the wire back to
   the sender — itself subject to the network's loss and latency. *)
let drain t i =
  let mb = t.mailboxes.(i) in
  Mutex.lock mb.mb_lock;
  let pending = mb.mb_pending in
  mb.mb_pending <- [];
  Mutex.unlock mb.mb_lock;
  let matured, future = List.partition (fun m -> m.m_mature <= t.round) pending in
  let matured =
    List.sort
      (fun a b ->
        compare
          (a.m_mature, a.m_sender, a.m_seq, a.m_copy)
          (b.m_mature, b.m_sender, b.m_seq, b.m_copy))
      matured
  in
  let k = t.kernels.(i) in
  let delivered = ref 0 in
  let rec deliver = function
    | [] -> []
    | m :: rest -> (
      match Fault.hit "net.deliver" with
      | exception Fault.Injected _ ->
        Net.drop_at_deliver t.net ~dst:i;
        deliver rest
      | () -> (
        match m.m_kind with
        | Ack { xfer } ->
          Hashtbl.replace t.acked.(i) xfer ();
          Net.delivered t.net ~dst:i ~rounds:(t.round - m.m_sent);
          incr delivered;
          deliver rest
        | Data | Data_acked _ -> (
          match Kernel.enqueue_net k inbox m.m_payload with
          | Ok () ->
            let st = Stats.cur () in
            st.messages_sent <- st.messages_sent + 1;
            st.bytes_copied <- st.bytes_copied + Bytes.length m.m_payload;
            Net.delivered t.net ~dst:i ~rounds:(t.round - m.m_sent);
            (match m.m_kind with
            | Data_acked { xfer } ->
              let seq = t.seqs.(i) in
              t.seqs.(i) <- seq + 1;
              link_send t ~from:i ~dst:m.m_sender ~seq ~kind:(Ack { xfer })
                (Bytes.create 0)
            | Data | Ack _ -> ());
            incr delivered;
            deliver rest
          | Error _ -> m :: rest)))
  in
  let leftover = deliver matured in
  if leftover <> [] || future <> [] then begin
    Mutex.lock mb.mb_lock;
    (* Concurrent broadcasts may have refilled the list; order does not
       matter — the sort above re-establishes it at the next drain. *)
    mb.mb_pending <- List.rev_append leftover (List.rev_append future mb.mb_pending);
    Mutex.unlock mb.mb_lock
  end;
  !delivered

(* (depth, matured, highest maturity) of machine [i]'s mailbox.  Only
   the matured count names genuinely undeliverable datagrams; the rest
   are just late. *)
let mailbox_stats t i =
  let mb = t.mailboxes.(i) in
  Mutex.lock mb.mb_lock;
  let pending = mb.mb_pending in
  Mutex.unlock mb.mb_lock;
  List.fold_left
    (fun (depth, matured, horizon) m ->
      ( depth + 1,
        (if m.m_mature <= t.round then matured + 1 else matured),
        max horizon m.m_mature ))
    (0, 0, 0) pending

(* ----- reliable per-datagram send ----- *)

(* The retry window stops doubling here: with the default base of 4
   rounds and 4 retries the whole exchange resolves within ~60 rounds
   of simulated time. *)
let backoff_cap = 64

let rec fetch_max a v =
  let cur = Atomic.get a in
  if v <= cur then () else if Atomic.compare_and_set a cur v then () else fetch_max a v

let send_reliable t ~from ~dst ?(retries = 4) ?(timeout = 4) payload =
  check_dst t ~what:"send_reliable" ~from dst;
  let retries = max 0 retries and base = max 1 timeout in
  let payload = Bytes.copy payload in
  let xfer = t.xfers.(from) in
  t.xfers.(from) <- xfer + 1;
  let acked = t.acked.(from) in
  let rec attempt n window =
    let seq = t.seqs.(from) in
    t.seqs.(from) <- seq + 1;
    link_send t ~from ~dst ~seq ~kind:(Data_acked { xfer }) payload;
    let deadline = t.round + window in
    fetch_max t.max_wake deadline;
    Atomic.incr t.waiters;
    Proc.wait_until
      ~why:(Printf.sprintf "net:ack xfer %d from m%d" xfer dst)
      (fun () -> Hashtbl.mem acked xfer || t.round >= deadline);
    Atomic.decr t.waiters;
    if Hashtbl.mem acked xfer then begin
      Hashtbl.remove acked xfer;
      Ok ()
    end
    else if n >= retries then Error Errno.ETIMEDOUT
    else begin
      (* capped exponential backoff, billed in simulated cycles: the
         sender spins its wheels, it does not stop the world *)
      let st = Stats.cur () in
      st.net_retransmits <- st.net_retransmits + 1;
      st.instructions <- st.instructions + (100 lsl min n 6);
      attempt (n + 1) (min backoff_cap (window * 2))
    end
  in
  attempt 0 base

let run ?(max_rounds = 1_000_000) ?domains t =
  let machines = size t in
  let requested = Option.value domains ~default:Config.env.domains in
  if requested < 1 then invalid_arg "Cluster.run: need at least one domain";
  (* More domains than machines would just idle. *)
  let n = min requested machines in
  let pool = Domain_pool.create ~domains:n in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let outcomes = Array.make machines `Done in
  let delivered = Array.make machines 0 in
  let rec loop rounds =
    if rounds = 0 then raise (Kernel.Os_error "Cluster.run: round budget exhausted");
    t.round <- t.round + 1;
    (* Machine [i] belongs to worker [i mod n] for the whole run, so a
       machine's kernel (and any native-process continuations inside
       it) never migrates between domains. *)
    Domain_pool.round pool (fun w ->
        for i = 0 to machines - 1 do
          if i mod n = w then begin
            delivered.(i) <- drain t i;
            outcomes.(i) <- Kernel.step t.kernels.(i)
          end
        done);
    let progress = ref false in
    let idle = ref [] in
    let deliveries = ref 0 in
    for i = machines - 1 downto 0 do
      deliveries := !deliveries + delivered.(i);
      match outcomes.(i) with
      | `Progress -> progress := true
      | `Idle -> idle := i :: !idle
      | `Done -> ()
    done;
    let pending = ref 0 in
    let horizon = ref 0 in
    for i = 0 to machines - 1 do
      let depth, _, h = mailbox_stats t i in
      pending := !pending + depth;
      horizon := max !horizon h
    done;
    (* A reliable sender sleeping out an ack timeout keeps the cluster
       alive until its deadline round, even with nothing in flight. *)
    let horizon =
      if Atomic.get t.waiters > 0 then max !horizon (Atomic.get t.max_wake)
      else !horizon
    in
    if !progress || !deliveries > 0 then loop (rounds - 1)
    else if t.round < horizon then
      (* Nothing moved this round, but in-flight datagrams with a
         future maturity (or a pending retry deadline) can still wake
         the cluster: with multi-round latencies, the old single grace
         round becomes "wait out the highest in-flight maturity". *)
      loop (rounds - 1)
    else if !idle <> [] || !pending > 0 then begin
      (* No machine can move and the network cannot drain: report every
         stuck process tagged with its machine, plus a synthetic entry
         per machine whose inbox traffic is undeliverable.  Only
         matured datagrams count — anything younger would have pushed
         the horizon past the current round. *)
      let stuck =
        List.concat_map
          (fun i ->
            List.map
              (fun b ->
                { b with Kernel.b_comm = Printf.sprintf "m%d:%s" i b.Kernel.b_comm })
              (Kernel.blocked_processes t.kernels.(i)))
          !idle
      in
      let net =
        List.filter_map
          (fun i ->
            let _, matured, _ = mailbox_stats t i in
            if matured = 0 then None
            else
              Some
                {
                  Kernel.b_pid = 0;
                  b_comm = Printf.sprintf "m%d:net" i;
                  b_why =
                    Printf.sprintf "%d undeliverable datagram(s) for %s" matured inbox;
                })
          (List.init machines (fun i -> i))
      in
      raise (Kernel.Deadlock (stuck @ net))
    end
  in
  loop max_rounds
