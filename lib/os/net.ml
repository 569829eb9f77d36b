module Prng = Hemlock_util.Prng

type profile = Ideal | Lan | Wan | Lossy

let profile_to_string = function
  | Ideal -> "ideal"
  | Lan -> "lan"
  | Wan -> "wan"
  | Lossy -> "lossy"

let profile_of_string = function
  | "ideal" -> Ideal
  | "lan" -> Lan
  | "wan" -> Wan
  | "lossy" -> Lossy
  | s -> invalid_arg (Printf.sprintf "Net.profile_of_string: unknown profile %S" s)

let default_seed = 1

(* Loss and duplication are per-mille probabilities; latency is uniform
   in [lat_min, lat_max] rounds.  [Ideal] must stay draw-free so the
   default profile is bit-for-bit the old loss-free bus. *)
type params = { lat_min : int; lat_max : int; drop_pm : int; dup_pm : int }

let params_of = function
  | Ideal -> { lat_min = 1; lat_max = 1; drop_pm = 0; dup_pm = 0 }
  | Lan -> { lat_min = 1; lat_max = 2; drop_pm = 2; dup_pm = 1 }
  | Wan -> { lat_min = 2; lat_max = 6; drop_pm = 10; dup_pm = 5 }
  | Lossy -> { lat_min = 1; lat_max = 8; drop_pm = 150; dup_pm = 30 }

(* The histogram tops out well above any profile's latency; retried
   traffic cannot exceed it either because latencies are per-link. *)
let max_latency = 63

(* One cell per machine.  Send-side fields are only touched from the
   sending machine's domain, delivery-side fields only from the
   receiving machine's domain — and a machine is pinned to one domain
   per run, so the cells need no locks. *)
type cell = {
  mutable c_sent : int;
  mutable c_delivered : int;
  mutable c_dropped : int;
  mutable c_duplicated : int;
  c_latency : int array;
}

type t = {
  net_profile : profile;
  params : params;
  machines : int;
  senders : Prng.t array;
  cells : cell array;
  (* name -> group id per machine; -1 marks the implicit rest-group.
     Written only while the cluster is quiescent, read during sends. *)
  mutable parts : (string * int array) list;
}

let create ~machines ~profile ~seed =
  if machines <= 0 then invalid_arg "Net.create: need at least one machine";
  {
    net_profile = profile;
    params = params_of profile;
    machines;
    senders = Array.init machines (fun i -> Prng.stream ~seed ~index:i);
    cells =
      Array.init machines (fun _ ->
          {
            c_sent = 0;
            c_delivered = 0;
            c_dropped = 0;
            c_duplicated = 0;
            c_latency = Array.make (max_latency + 1) 0;
          });
    parts = [];
  }

let profile t = t.net_profile

(* ----- partitions ----- *)

let partition t ~name ~groups =
  let g = Array.make t.machines (-1) in
  List.iteri
    (fun gi members ->
      List.iter
        (fun m ->
          if m < 0 || m >= t.machines then invalid_arg "Net.partition: no such machine";
          g.(m) <- gi)
        members)
    groups;
  t.parts <- (name, g) :: List.remove_assoc name t.parts

let heal t ~name = t.parts <- List.remove_assoc name t.parts

let partitioned t a b = List.exists (fun (_, g) -> g.(a) <> g.(b)) t.parts

(* ----- the per-link fate decision ----- *)

let transmit t ~from ~dst =
  let c = t.cells.(from) in
  c.c_sent <- c.c_sent + 1;
  let p = t.params in
  if partitioned t from dst then begin
    c.c_dropped <- c.c_dropped + 1;
    []
  end
  else if p.drop_pm = 0 && p.dup_pm = 0 && p.lat_min = p.lat_max then
    (* the draw-free fast path: [Ideal] never touches the stream *)
    [ p.lat_min ]
  else begin
    let rng = t.senders.(from) in
    if Prng.int rng 1000 < p.drop_pm then begin
      c.c_dropped <- c.c_dropped + 1;
      []
    end
    else begin
      let latency () =
        if p.lat_max = p.lat_min then p.lat_min
        else p.lat_min + Prng.int rng (p.lat_max - p.lat_min + 1)
      in
      let first = latency () in
      if Prng.int rng 1000 < p.dup_pm then begin
        c.c_duplicated <- c.c_duplicated + 1;
        [ first; latency () ]
      end
      else [ first ]
    end
  end

let drop_at_send t ~from =
  let c = t.cells.(from) in
  c.c_sent <- c.c_sent + 1;
  c.c_dropped <- c.c_dropped + 1

let drop_at_deliver t ~dst =
  let c = t.cells.(dst) in
  c.c_dropped <- c.c_dropped + 1

let delivered t ~dst ~rounds =
  let c = t.cells.(dst) in
  c.c_delivered <- c.c_delivered + 1;
  c.c_latency.(min rounds max_latency) <- c.c_latency.(min rounds max_latency) + 1

(* ----- telemetry ----- *)

type telemetry = {
  t_sent : int;
  t_delivered : int;
  t_dropped : int;
  t_duplicated : int;
  t_latency : int array;
}

let telemetry t =
  let acc =
    {
      t_sent = 0;
      t_delivered = 0;
      t_dropped = 0;
      t_duplicated = 0;
      t_latency = Array.make (max_latency + 1) 0;
    }
  in
  Array.fold_left
    (fun acc c ->
      Array.iteri (fun i n -> acc.t_latency.(i) <- acc.t_latency.(i) + n) c.c_latency;
      {
        acc with
        t_sent = acc.t_sent + c.c_sent;
        t_delivered = acc.t_delivered + c.c_delivered;
        t_dropped = acc.t_dropped + c.c_dropped;
        t_duplicated = acc.t_duplicated + c.c_duplicated;
      })
    acc t.cells

let percentile tel p =
  let total = Array.fold_left ( + ) 0 tel.t_latency in
  if total = 0 then 0
  else begin
    (* smallest latency whose cumulative count reaches the p-th rank *)
    let target = min total (max 1 ((total * p + 99) / 100)) in
    let rec walk i seen =
      if i > max_latency then max_latency
      else
        let seen = seen + tel.t_latency.(i) in
        if seen >= target then i else walk (i + 1) seen
    in
    walk 0 0
  end
