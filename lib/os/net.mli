(** The simulated campus network between {!Cluster.broadcast} and the
    mailbox drain — deterministic unreliability.

    The paper's rwhod ran over a network where packets vanished, arrived
    late, arrived twice, and whole wings of the building fell off the
    backbone.  This module reproduces those failure modes from a seed:
    every link transmission draws loss, latency (in cluster rounds) and
    duplication from the {e sender's} private [Prng.stream], so a
    machine's draws depend only on its own send sequence — never on how
    machines are spread over domains — and one seed reproduces the same
    delivery trace at every domain count.

    Reordering needs no extra machinery: variable latency plus the
    drain's (maturity, sender, seq) sort yields it naturally.

    Profiles ([HEMLOCK_NET_PROFILE], default [ideal]):
    - [ideal] — the loss-free one-round bus the cluster always had.
      Consumes {e no} PRNG draws; behaviour and billed costs are
      byte-identical to the pre-network cluster.
    - [lan]   — 1–2 round latency, 0.2% loss, 0.1% duplication.
    - [wan]   — 2–6 round latency, 1% loss, 0.5% duplication.
    - [lossy] — 1–8 round latency, 15% loss, 3% duplication.

    Named partitions ({!partition}/{!heal}) drop traffic between groups
    at send time.  Telemetry (sent/delivered/dropped/duplicated and a
    delivery-latency histogram) is kept in per-machine cells so that
    each cell is only ever touched by the domain its machine is pinned
    to; {!telemetry} merges them in machine order. *)

type profile = Ideal | Lan | Wan | Lossy

val profile_to_string : profile -> string

(** @raise Invalid_argument on an unknown name. *)
val profile_of_string : string -> profile

(** The seed {!Cluster.create} uses when given none: 1. *)
val default_seed : int

type t

(** [create ~machines ~profile ~seed] — one sender stream per machine
    ([Prng.stream ~seed ~index:machine]). *)
val create : machines:int -> profile:profile -> seed:int -> t

val profile : t -> profile

(** [transmit t ~from ~dst] decides one link transmission's fate:
    [[]] if the datagram is lost (profile loss or an active partition),
    otherwise the latency in rounds of each copy to enqueue (head =
    original, tail = network-injected duplicates; every latency ≥ 1).
    Records send-side telemetry on [from]'s cell.  Under [Ideal] this
    is always [[1]] and consumes no draws. *)
val transmit : t -> from:int -> dst:int -> int list

(** Record a datagram lost to an injected [net.send] fault (no draws
    consumed; the link fault preempts the profile's coin flips). *)
val drop_at_send : t -> from:int -> unit

(** Record a matured datagram lost to an injected [net.deliver] fault. *)
val drop_at_deliver : t -> dst:int -> unit

(** Record a datagram landing in [dst]'s inbox after [rounds] of
    latency. *)
val delivered : t -> dst:int -> rounds:int -> unit

(** [partition t ~name ~groups] installs (or replaces) a named
    partition: machines in different groups cannot exchange datagrams
    while it is active.  Machines not listed in any group form one
    implicit extra group.  Call only while the cluster is quiescent. *)
val partition : t -> name:string -> groups:int list list -> unit

(** Remove a named partition (no-op if absent). *)
val heal : t -> name:string -> unit

(** Is traffic between these two machines currently blocked? *)
val partitioned : t -> int -> int -> bool

type telemetry = {
  t_sent : int;  (** link transmissions attempted (per destination) *)
  t_delivered : int;  (** datagrams that landed in an inbox *)
  t_dropped : int;  (** lost: profile loss, partition, or injected fault *)
  t_duplicated : int;  (** extra copies the network injected *)
  t_latency : int array;  (** histogram: [t_latency.(r)] deliveries after [r] rounds *)
}

(** Cluster-wide totals, merged over the per-machine cells in machine
    order. *)
val telemetry : t -> telemetry

(** [percentile tel p] is the smallest latency (rounds) covering [p]%
    of deliveries — 0 when nothing was delivered. *)
val percentile : telemetry -> int -> int
