(* Measurement core of the benchmark: op samples, billing checks, and
   the traced run's layer spans.

   An op is one closed-loop request (an exec, a sync, a gossip epoch);
   a cycle is the fixed sequence of ops a workload repeats.  Every op
   is timed and its simulated billing ([Stats] delta) is checked
   against the reference for its kind.  When the probe is armed, each
   layer call inside an op is recorded as a span (name, start, stop,
   op id) with the [Stats] and [Gc] deltas across it; a disarmed probe
   costs one branch per layer call. *)

module Stats = Hemlock_util.Stats

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let sorted_sub s lo hi =
    let b = Array.sub s.a lo (hi - lo) in
    Array.sort compare b;
    b

  (* Nearest-rank quantile of a sorted array, [q] in [0, 1]. *)
  let rank b q =
    let n = Array.length b in
    if n = 0 then nan
    else b.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

  let median_of b =
    let n = Array.length b in
    if n = 0 then nan
    else if n mod 2 = 1 then b.(n / 2)
    else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

  let median s = median_of (sorted_sub s 0 s.n)

  (* The highest percentile of the ladder with at least ten samples
     beyond it, with its value. *)
  let tail s =
    let b = sorted_sub s 0 s.n in
    let p =
      List.find_opt
        (fun p -> float_of_int s.n *. (100.0 -. p) /. 100.0 >= 10.0)
        [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
      |> Option.value ~default:50.0
    in
    (p, if p = 50.0 then median_of b else rank b (p /. 100.0))
end

(* What an op bills in the simulated cost model: the four counters the
   paper's results are stated in. *)
type bill = { instructions : int; faults : int; syscalls : int; cycles : int }

let bill_of (d : Stats.t) =
  {
    instructions = d.Stats.instructions;
    faults = d.Stats.faults;
    syscalls = d.Stats.syscalls;
    cycles = Stats.cycles d;
  }

let bill_to_string b =
  Printf.sprintf "insns %d faults %d syscalls %d cycles %d" b.instructions b.faults
    b.syscalls b.cycles

type kind = {
  k_name : string;
  k_all : Samples.t;  (** every timed op, ms *)
  k_plain : Samples.t;  (** ops of disarmed cycles, ms *)
  k_half : Samples.t array;  (** by half of the world the op ran in *)
  k_stats : Stats.t;  (** summed [Stats] deltas of its timed ops *)
  k_gc : float array;  (** summed minor words, minor and major collections *)
}

(* Per-layer accumulators of the traced run. *)
type layer = {
  mutable l_ns : int;
  mutable l_calls : int;
  l_stats : Stats.t;
  mutable l_minor_words : float;
}

type span = { s_name : string; s_op : int; s_start : int; s_stop : int }

type t = {
  traced : bool;
  mutable timed : bool;  (** recording samples (false during set-up) *)
  mutable armed : bool;  (** recording spans for the current cycle *)
  mutable half : int;  (** 0 in the first half of a world's cycles, else 1 *)
  mutable op_id : int;
  mutable op_stats : Stats.t;  (** snapshot at the last span boundary *)
  mutable op_minor : float;
  mutable last_stop : int;  (** end of the last span in the current op *)
  mutable child_ns : int;  (** layer time inside the current op *)
  mutable spans : span list;
  mutable min_coverage : float;
  mutable bench_ns : int;  (** armed op time not covered by layer spans *)
  layers : (string, layer) Hashtbl.t;
  kinds : (string, kind) Hashtbl.t;
  refs : (string, bill) Hashtbl.t;  (** reference bill per billing key *)
  mutable kind_order : string list;
  cycles_all : Samples.t;
  cycles_plain : Samples.t;
  cycles_armed : Samples.t;
  cycles_half : Samples.t array;
  cycles_norm : Samples.t;  (** cycles at nominal host speed *)
  domains : int;  (** domains the workload runs on *)
  host : Samples.t;  (** the host reference after each timed cycle, ms *)
  mutable cycle_ns : int;
  totals : Stats.t;  (** summed op deltas of the timed phase *)
  mutable bills : (string * bill) list;  (** timed ops in order, newest first *)
  mutable compared : int;  (** timed ops whose bill met a reference *)
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;
}

let create ~traced ~domains =
  {
    traced;
    timed = false;
    armed = false;
    half = 0;
    op_id = 0;
    op_stats = Stats.snapshot ();
    op_minor = 0.0;
    last_stop = 0;
    child_ns = 0;
    spans = [];
    min_coverage = 1.0;
    bench_ns = 0;
    layers = Hashtbl.create 16;
    kinds = Hashtbl.create 8;
    refs = Hashtbl.create 8;
    kind_order = [];
    cycles_all = Samples.create ();
    cycles_plain = Samples.create ();
    cycles_armed = Samples.create ();
    cycles_half = [| Samples.create (); Samples.create () |];
    cycles_norm = Samples.create ();
    domains;
    host = Samples.create ();
    cycle_ns = 0;
    totals = Stats.diff ~before:Stats.global ~after:Stats.global;
    bills = [];
    compared = 0;
    attempted = 0;
    failed = 0;
    messages = [];
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.messages < 8 then t.messages <- msg :: t.messages

let kind t name =
  match Hashtbl.find_opt t.kinds name with
  | Some k -> k
  | None ->
    let k =
      {
        k_name = name;
        k_all = Samples.create ();
        k_plain = Samples.create ();
        k_half = [| Samples.create (); Samples.create () |];
        k_stats = Stats.diff ~before:Stats.global ~after:Stats.global;
        k_gc = [| 0.0; 0.0; 0.0 |];
      }
    in
    Hashtbl.replace t.kinds name k;
    t.kind_order <- t.kind_order @ [ name ];
    k

let layer_acc t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l =
      {
        l_ns = 0;
        l_calls = 0;
        l_stats = Stats.diff ~before:Stats.global ~after:Stats.global;
        l_minor_words = 0.0;
      }
    in
    Hashtbl.replace t.layers name l;
    l

(* Close a span [t.last_stop, now) named [name] inside the current op,
   with the Stats and Gc deltas since the previous boundary.  Spans of
   an op are contiguous from its start, so the recording work (and any
   collection it triggers) lands in the next span rather than in a gap
   between them. *)
let close_span t name =
  let stop = now_ns () in
  let after = Stats.snapshot () and minor = Gc.minor_words () in
  let l = layer_acc t name in
  l.l_ns <- l.l_ns + (stop - t.last_stop);
  l.l_calls <- l.l_calls + 1;
  Stats.merge_into ~into:l.l_stats (Stats.diff ~before:t.op_stats ~after);
  l.l_minor_words <- l.l_minor_words +. (minor -. t.op_minor);
  t.child_ns <- t.child_ns + (stop - t.last_stop);
  t.spans <- { s_name = name; s_op = t.op_id; s_start = t.last_stop; s_stop = stop } :: t.spans;
  t.op_stats <- after;
  t.op_minor <- minor;
  t.last_stop <- stop

(* [layer t name f] runs one call into a layer of the simulator; armed,
   it closes a span named [name] when [f] returns. *)
let layer t name f =
  if not t.armed then f ()
  else begin
    let r = f () in
    close_span t name;
    r
  end

(* [mark t name] closes a span for a layer reached through a callback
   rather than a call the benchmark can wrap. *)
let mark t name = if t.armed then close_span t name

(* [op t name f ~check] runs one op: [f] does the layer calls, [check]
   inspects the result afterwards (untimed).  Billing must match the
   first timed op with the same key, [bill_as] (default [name]), unless
   [~billed:false]. *)
let op t name ?(billed = true) ?(bill_as = name) f ~check =
  let k = kind t name in
  let gc0 = Gc.quick_stat () in
  let before = Stats.snapshot () in
  t.op_id <- t.op_id + 1;
  t.child_ns <- 0;
  t.op_stats <- before;
  t.op_minor <- Gc.minor_words ();
  let t0 = now_ns () in
  t.last_stop <- t0;
  let r = try Ok (f ()) with e -> Error e in
  let t1 = now_ns () in
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  let gc1 = Gc.quick_stat () in
  t.attempted <- t.attempted + 1;
  (match r with
  | Error e -> fail t (Printf.sprintf "%s raised %s" name (Printexc.to_string e))
  | Ok v -> (
    match check v with
    | Ok () -> ()
    | Error msg -> fail t (Printf.sprintf "%s: %s" name msg)));
  if t.timed then begin
    let ms = ms_of_ns (t1 - t0) in
    Samples.add k.k_all ms;
    Samples.add k.k_half.(t.half) ms;
    if not t.armed then Samples.add k.k_plain ms;
    t.cycle_ns <- t.cycle_ns + (t1 - t0);
    Stats.merge_into ~into:t.totals d;
    Stats.merge_into ~into:k.k_stats d;
    k.k_gc.(0) <- k.k_gc.(0) +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    k.k_gc.(1) <- k.k_gc.(1) +. float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    k.k_gc.(2) <- k.k_gc.(2) +. float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections);
    let b = bill_of d in
    t.bills <- (name, b) :: t.bills;
    if billed then begin
      match Hashtbl.find_opt t.refs bill_as with
      | None -> Hashtbl.replace t.refs bill_as b
      | Some r when r = b -> t.compared <- t.compared + 1
      | Some r ->
        t.compared <- t.compared + 1;
        fail t
          (Printf.sprintf "%s billed %s, reference %s" bill_as (bill_to_string b)
             (bill_to_string r))
    end;
    if t.armed then begin
      let whole = t1 - t0 in
      t.spans <- { s_name = "op:" ^ name; s_op = t.op_id; s_start = t0; s_stop = t1 } :: t.spans;
      t.bench_ns <- t.bench_ns + (whole - t.child_ns);
      if whole > 0 then
        t.min_coverage <-
          Float.min t.min_coverage (float_of_int t.child_ns /. float_of_int whole)
    end
  end

(* Host speed.  On a host whose cores are shared with other tenants, the
   speed they give this process can drift by 2x within minutes, and such
   a drift moves every timing of a run alike.  A fixed computation of the
   benchmark's own, timed after every cycle, measures it: data-dependent
   branches over a table in cache and random writes to one that is not.
   It allocates nothing, so no collection owed by the simulator's garbage
   runs inside it.  Each cycle is reported at the host speed where the
   reference after it takes [host_nominal_ms]. *)
let host_nominal_ms = 0.4

(* one pair of tables per domain, made on first use, after [peak_rss_mb]
   is read *)
let host_tables = Array.init 2 (fun _ -> lazy (Array.make (1 lsl 15) 0, Array.make (1 lsl 19) 0))

let host_work w =
  let small, large = Lazy.force host_tables.(w) in
  let next x = (x * 1103515245) + 12345 in
  let x = ref 0x2545F491 and s = ref 0 in
  for i = 1 to 30_000 do
    x := next !x;
    let j = (!x lsr 7) land (Array.length small - 1) in
    let v = small.(j) in
    small.(j) <- v + i;
    if v land 1 = 0 then s := !s + (v lsr 3) else s := !s lxor i
  done;
  for i = 1 to 8_000 do
    x := next !x;
    let j = (!x lsr 7) land (Array.length large - 1) in
    large.(j) <- large.(j) + i
  done;
  ignore (Sys.opaque_identity !s)

let time_ms f =
  let t0 = now_ns () in
  f ();
  ms_of_ns (now_ns () - t0)

(* A workload on two domains spawns a pool of domains for every
   [Cluster.run] and meets its workers at a barrier every round.  On a
   shared host, how long a spawn and a cross-domain wake-up take drifts
   much further than compute speed does.  So on two domains the
   reference is shaped like an epoch: it spawns a helper domain, both run
   the computation, they meet at [host_rounds] barriers built like a
   pool's (a mutex and two conditions), and the helper is joined.  The
   minor heap is emptied first, outside the timing, so that the
   collection a spawn makes has none of the simulator's data to
   promote. *)
let host_rounds = 32

type barrier = {
  lock : Mutex.t;
  posted : Condition.t;
  finished : Condition.t;
  mutable round : int;
  mutable pending : bool;
}

let host_pair () =
  let b =
    {
      lock = Mutex.create ();
      posted = Condition.create ();
      finished = Condition.create ();
      round = 0;
      pending = false;
    }
  in
  let helper () =
    host_work 1;
    for r = 1 to host_rounds do
      Mutex.lock b.lock;
      while b.round < r do
        Condition.wait b.posted b.lock
      done;
      b.pending <- false;
      Condition.signal b.finished;
      Mutex.unlock b.lock
    done
  in
  let d = Domain.spawn helper in
  host_work 0;
  for r = 1 to host_rounds do
    Mutex.lock b.lock;
    b.round <- r;
    b.pending <- true;
    Condition.broadcast b.posted;
    while b.pending do
      Condition.wait b.finished b.lock
    done;
    Mutex.unlock b.lock
  done;
  Domain.join d

let host_ms t =
  if t.domains = 1 then time_ms (fun () -> host_work 0)
  else begin
    Array.iter (fun l -> ignore (Lazy.force l)) host_tables;
    Gc.minor ();
    time_ms host_pair
  end

let host_scale t = host_nominal_ms /. Samples.median t.host

(* The host speed right now, from [n] references: set-up is scaled by
   the references taken just after it. *)
let host_scale_now t n =
  let s = Samples.create () in
  for _ = 1 to n do
    Samples.add s (host_ms t)
  done;
  host_nominal_ms /. Samples.median s

(* Cycle bookkeeping: a traced run arms every other cycle, so the
   traced-minus-untraced difference comes from interleaved cycles. *)
let begin_cycle t =
  t.cycle_ns <- 0;
  t.armed <- t.timed && t.traced && Samples.(t.cycles_all.n) mod 2 = 1

let end_cycle t =
  if t.timed then begin
    let ms = ms_of_ns t.cycle_ns in
    Samples.add t.cycles_all ms;
    Samples.add t.cycles_half.(t.half) ms;
    Samples.add (if t.armed then t.cycles_armed else t.cycles_plain) ms;
    let host = host_ms t in
    Samples.add t.host host;
    Samples.add t.cycles_norm (ms *. host_nominal_ms /. host)
  end;
  t.armed <- false

let cycles t = t.cycles_all.Samples.n

(* Host time (ns) recorded per layer over armed cycles. *)
let layer_ns t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.l_ns | None -> 0

let write_trace t path ~workload ~seed =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"workload\": %S,\n  \"seed\": %d,\n  \"layers\": {" workload seed;
  let names = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.layers []) in
  List.iteri
    (fun i n ->
      let l = Hashtbl.find t.layers n in
      Printf.fprintf oc
        "%s\n    %S: { \"self_ns\": %d, \"calls\": %d, \"minor_words\": %.0f, \"stats\": %s }"
        (if i = 0 then "" else ",")
        n l.l_ns l.l_calls l.l_minor_words (Stats.to_json l.l_stats))
    names;
  (* per op kind, summed over its timed ops *)
  output_string oc "\n  },\n  \"ops\": {";
  List.iteri
    (fun i n ->
      let k = Hashtbl.find t.kinds n in
      Printf.fprintf oc
        "%s\n\
        \    %S: { \"n\": %d, \"median_ms\": %.6f, \"minor_words\": %.0f, \"minor_collections\": \
         %.0f, \"major_collections\": %.0f, \"stats\": %s }"
        (if i = 0 then "" else ",")
        n k.k_all.Samples.n (Samples.median k.k_all) k.k_gc.(0) k.k_gc.(1) k.k_gc.(2)
        (Stats.to_json k.k_stats))
    t.kind_order;
  output_string oc "\n  },\n  \"spans\": [";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n    [%S, %d, %d, %d]"
        (if i = 0 then "" else ",")
        s.s_name s.s_op s.s_start s.s_stop)
    (List.rev t.spans);
  output_string oc "\n  ]\n}\n";
  close_out oc
