(** A cluster of simulated machines connected by a simulated network —
    the substrate for running rwhod the way the paper did, on "our local
    network of 65 rwhod-equipped machines", one kernel per machine.

    Each machine gets a message queue named {!inbox}.  {!broadcast}
    stamps a datagram with the current cluster round and offers it to
    every {e other} machine's mailbox through {!Net}: each link draws
    its fate — loss, latency in rounds, duplication, partition — from
    the sender's private PRNG stream ([HEMLOCK_NET_PROFILE] selects the
    parameters; the default [ideal] profile is the old loss-free
    one-round bus, draw-free and byte-identical).  A datagram is
    delivered when the receiving machine drains its mailbox into the
    inbox queue in the first round at or past the datagram's maturity.
    The cluster scheduler interleaves the machines' kernels — spread
    over OCaml domains when asked — until all are quiescent, so a
    daemon blocked on its inbox wakes when a peer's datagram arrives.

    Determinism: matured datagrams are delivered sorted by
    (maturity, sender, per-sender sequence number, duplicate index),
    network draws depend only on the sender's own send sequence, each
    machine is pinned to one domain for a whole run, and per-domain
    statistics are merged in domain order — so console output,
    simulated costs and the delivery trace are identical for every
    domain count, under every profile.

    Fault injection: every link send passes the [net.send] site and
    every matured delivery the [net.deliver] site ({!Fault.hit}); an
    injected error drops that datagram, a crash kills the machine
    mid-operation. *)

type t

(** Name of the per-machine network inbox queue. *)
val inbox : string

(** [create ~machines ()] boots that many kernels, each with the inbox
    queue created.  [profile] defaults to [HEMLOCK_NET_PROFILE]
    (default [ideal]) and [seed] to {!Net.default_seed}; pass the
    profile explicitly to pin behaviour regardless of environment. *)
val create : ?profile:Net.profile -> ?seed:int -> machines:int -> unit -> t

val size : t -> int

(** [machine t i] is machine [i]'s kernel. *)
val machine : t -> int -> Kernel.t

(** The cluster's network — for partitions, healing and telemetry. *)
val net : t -> Net.t

(** Cluster rounds elapsed so far (the simulated network clock). *)
val rounds : t -> int

(** [broadcast t ~from payload] offers [payload] to every machine
    except [from], stamped with the current round.  The payload is
    copied once at the send, so the sender may immediately reuse its
    buffer and receivers can never corrupt other receivers' copies.
    Network traffic is billed ([messages_sent], [bytes_copied]) only
    when a datagram actually lands in a peer's inbox, on the delivering
    domain's stats. *)
val broadcast : t -> from:int -> Bytes.t -> unit

(** [send t ~from ~dst payload] is a unicast {!broadcast}: one link,
    same fate draws, same billing.  Fire and forget. *)
val send : t -> from:int -> dst:int -> Bytes.t -> unit

(** [send_reliable t ~from ~dst payload] sends one datagram and blocks
    the calling native process (which must run on machine [from]) until
    the receiver's drain acks it or the retry budget is exhausted.
    Retransmits after [timeout] rounds (default 4), doubling the window
    each retry up to a cap, at most [retries] times (default 4); each
    retransmit bills simulated backoff cycles, never wall time.  At-least-once
    semantics: the receiver may see duplicates when an ack is lost.
    Returns [Error ETIMEDOUT] when the budget runs out — the errno ABI,
    not a wedged cluster. *)
val send_reliable :
  t -> from:int -> dst:int -> ?retries:int -> ?timeout:int -> Bytes.t ->
  (unit, Errno.t) result

(** Interleave all machines until every one reports [`Done] and no
    datagrams remain in flight.  Each round drains every machine's
    matured datagrams into its inbox (a full inbox pushes the rest to a
    later round), then gives the machine one kernel step.

    [domains] defaults to [HEMLOCK_DOMAINS] (default 1 — the
    deterministic single-domain oracle) and is capped at the machine
    count; machine [i] runs on domain [i mod domains] for the whole
    run.  That is the ownership rule the rest of the simulator relies
    on instead of locks: a kernel and everything reachable from it is
    touched by one domain at a time.  A kernel owns its pager (page
    cache, RAM budget, clock) and its linker's memos, so what a machine
    pages and caches does not depend on the domain count, and carries
    over to the next run.

    Stall detection understands in-flight latency: a round with no
    kernel progress only counts against the cluster while nothing in
    the mailboxes has a maturity beyond the current round and no
    reliable sender is sleeping out an ack timeout.

    @raise Kernel.Deadlock when no machine can make progress, nothing
    was delivered, the horizon has passed, and either some non-daemon
    process is blocked or matured datagrams are undeliverable (reported
    as [m<i>:net] — datagrams still in flight are never counted).
    @param max_rounds safety valve. *)
val run : ?max_rounds:int -> ?domains:int -> t -> unit
