(* The benchmark's main program.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Drives one world of the workload untimed, then measures fresh worlds,
   cycle after cycle closed-loop, until S seconds of cycles have run;
   builds at least [setups] worlds after the first for [setup_s].  Checks
   every op, prints a per-op table, and ends with one JSON line.  With --trace 0
   the JSON carries the end-to-end metrics; with --trace 1 it carries
   the per-layer metrics of a run whose odd cycles record layer spans,
   and the spans are written to .perfbench/trace-NAME-SEED.json. *)

module Stats = Hemlock_util.Stats
module Samples = Probe.Samples

let usage () =
  prerr_endline
    "usage: bench.exe --workload (link-boot|link-churn|exec-vm|cluster-lan) --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.0; trace = false } in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      a := { !a with workload = v };
      go rest
    | "--seed" :: v :: rest ->
      a := { !a with seed = int_of_string v };
      go rest
    | "--seconds" :: v :: rest ->
      a := { !a with seconds = float_of_string v };
      go rest
    | "--trace" :: v :: rest ->
      a := { !a with trace = int_of_string v <> 0 };
      go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !a

(* Builds timed for [setup_s], at least: the cold first build is left
   out, and each is scaled by host references taken just after it. *)
let setups = 5

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Op kinds of every workload, for the uniform [op.*] per-layer metrics. *)
let op_kinds = [ "boot"; "exec"; "sync"; "rewrite"; "loop"; "fork"; "sweep"; "cluster" ]

(* Layers the benchmark wraps, reported as self time per cycle. *)
let layer_spans =
  [
    ("kernel.reboot", "kernel.reboot_ms");
    ("kernel.spawn_exec", "kernel.spawn_exec_ms");
    ("kernel.spawn_native", "kernel.spawn_native_ms");
    ("kernel.run", "kernel.run_ms");
    ("ldl.stable_sync", "ldl.sync_ms");
    ("fs.write_file", "fs.write_ms");
    ("gossip.tick", "gossip.tick_ms");
    ("cluster.run", "cluster.run_ms");
  ]

(* How far the second half of each world's cycles moved from the first. *)
let half_drift h =
  let a = Samples.median h.(0) and b = Samples.median h.(1) in
  if Float.is_nan a || Float.is_nan b || a = 0.0 then 0.0 else Float.abs ((b /. a) -. 1.0)

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let per_layer (t : Probe.t) ~gauges0 ~gauges1 ~extras =
  let n = float_of_int (Probe.cycles t) in
  let armed = float_of_int (max 1 t.Probe.cycles_armed.Samples.n) in
  let s = t.Probe.totals in
  (* the collector's counters over the timed ops, summed over op kinds *)
  let gc i = Hashtbl.fold (fun _ k acc -> acc +. k.Probe.k_gc.(i)) t.Probe.kinds 0.0 /. n in
  let per_cycle x = float_of_int x /. n in
  let gauge name = float_of_int (List.assoc name gauges1) in
  let extra name = Option.value ~default:0.0 (List.assoc_opt name extras) in
  let total_ms = Array.fold_left ( +. ) 0.0 (Array.sub t.Probe.cycles_all.Samples.a 0 (Probe.cycles t)) in
  let drift =
    List.fold_left
      (fun acc k -> Float.max acc (half_drift (Probe.kind t k).Probe.k_half))
      0.0 t.Probe.kind_order
  in
  let gauge_drift =
    List.fold_left2 (fun acc (_, a) (_, b) -> acc + abs (b - a)) 0 gauges0 gauges1
  in
  let op_median k =
    match Hashtbl.find_opt t.Probe.kinds k with
    | Some k when k.Probe.k_plain.Samples.n > 0 -> Samples.median k.Probe.k_plain
    | _ -> 0.0
  in
  List.map (fun (span, name) -> (name, "ms", Probe.ms_of_ns (Probe.layer_ns t span) /. armed)) layer_spans
  @ [
      ("bench.self_ms", "ms", Probe.ms_of_ns t.Probe.bench_ns /. armed);
      ("kernel.context_switches", "count", per_cycle s.Stats.context_switches);
      ("kernel.syscalls", "count", per_cycle s.Stats.syscalls);
      ("kernel.procs_live", "count", gauge "kernel.procs_live");
      ("cpu.instructions", "count", per_cycle s.Stats.instructions);
      ( "cpu.ns_per_insn",
        "ns",
        if s.Stats.instructions = 0 then 0.0
        else total_ms *. 1e6 /. float_of_int s.Stats.instructions );
      ("cpu.decode_hits", "count", per_cycle s.Stats.decode_hits);
      ("trace.jit_compiles", "count", per_cycle s.Stats.jit_compiles);
      ("trace.jit_hits", "count", per_cycle s.Stats.jit_hits);
      ("trace.jit_exits", "count", per_cycle s.Stats.jit_exits);
      ("trace.jit_invalidations", "count", per_cycle s.Stats.jit_invalidations);
      ("address_space.tlb_hits", "count", per_cycle s.Stats.tlb_hits);
      ("address_space.tlb_misses", "count", per_cycle s.Stats.tlb_misses);
      ("address_space.tlb_hit_ratio", "ratio", ratio s.Stats.tlb_hits s.Stats.tlb_misses);
      ("segment.cow_faults", "count", per_cycle s.Stats.cow_faults);
      ("segment.pages_copied", "pages", per_cycle s.Stats.pages_copied);
      ("segment.bytes_saved", "bytes", per_cycle s.Stats.bytes_saved);
      ("segment.bytes_copied", "bytes", per_cycle s.Stats.bytes_copied);
      ("vm_object.major_faults", "count", per_cycle s.Stats.major_faults);
      ("vm_object.minor_faults", "count", per_cycle s.Stats.minor_faults);
      ("vm_object.pages_evicted", "pages", per_cycle s.Stats.pages_evicted);
      ("vm_object.pages_written_back", "pages", per_cycle s.Stats.pages_written_back);
      ("vm_object.peak_resident", "pages", extra "vm_object.peak_resident");
      ("ldl.modules_linked", "count", per_cycle s.Stats.modules_linked);
      ("ldl.symbols_resolved", "count", per_cycle s.Stats.symbols_resolved);
      ("ldl.relocs_applied", "count", per_cycle s.Stats.relocs_applied);
      ("link_plan.plan_hits", "count", per_cycle s.Stats.plan_hits);
      ("link_plan.plan_misses", "count", per_cycle s.Stats.plan_misses);
      ("link_plan.hit_ratio", "ratio", ratio s.Stats.plan_hits s.Stats.plan_misses);
      ("link_plan.plan_fallbacks", "count", per_cycle s.Stats.plan_fallbacks);
      ("search.cache_hits", "count", per_cycle s.Stats.search_cache_hits);
      ("objfile.sym_hash_hits", "count", per_cycle s.Stats.sym_hash_hits);
      ("objfile.sym_hash_misses", "count", per_cycle s.Stats.sym_hash_misses);
      ( "objfile.sym_hash_hit_ratio",
        "ratio",
        ratio s.Stats.sym_hash_hits s.Stats.sym_hash_misses );
      ("stable_link.loads", "count", per_cycle s.Stats.stable_loads);
      ("stable_link.persists", "count", per_cycle s.Stats.stable_persists);
      ("stable_link.rejects", "count", per_cycle s.Stats.stable_rejects);
      ("stable_link.files", "count", gauge "stable_link.files");
      ("ldl.sync_plans", "count", extra "ldl.sync_plans");
      ("ldl.sync_objs", "count", extra "ldl.sync_objs");
      ("ldl.sync_skipped", "count", extra "ldl.sync_skipped");
      ("fs.shared_free_slots", "count", gauge "fs.shared_free_slots");
      ("fs.journal_replays", "count", per_cycle s.Stats.journal_replays);
      ("cluster.rounds", "count", extra "cluster.rounds");
      ("cluster.round_us", "us", extra "cluster.round_us");
      ("cluster.messages_sent", "count", per_cycle s.Stats.messages_sent);
      ("net.sent", "count", extra "net.sent");
      ("net.delivered", "count", extra "net.delivered");
      ("net.delivery_ratio", "ratio", extra "net.delivery_ratio");
      ("net.dropped", "count", extra "net.dropped");
      ("net.duplicated", "count", extra "net.duplicated");
      ("net.retransmits", "count", per_cycle s.Stats.net_retransmits);
      ("net.timeouts", "count", extra "net.timeouts");
      ("net.latency_p50", "rounds", extra "net.latency_p50");
      ("net.latency_p99", "rounds", extra "net.latency_p99");
      ("domain_pool.round_us", "us", extra "domain_pool.round_us");
      ("domain_pool.spawn_ms", "ms", extra "domain_pool.spawn_ms");
      ("domain_pool.barrier_share", "ratio", extra "domain_pool.barrier_share");
      ("domain_pool.speedup_2d", "ratio", extra "domain_pool.speedup_2d");
      ("gc.minor_words", "words", gc 0);
      ("gc.minor_collections", "count", gc 1);
      ("gc.major_collections", "count", gc 2);
      ("sim.cycles", "cycles", per_cycle (Stats.cycles s));
      ( "tracing.overhead_ms",
        "ms",
        Samples.median t.Probe.cycles_armed -. Samples.median t.Probe.cycles_plain );
      ("tracing.coverage_min", "ratio", t.Probe.min_coverage);
      ("steady.max_half_drift", "ratio", drift);
      ("steady.gauge_drift", "count", float_of_int gauge_drift);
    ]
  @ List.map (fun k -> ("op." ^ k ^ "_ms", "ms", op_median k)) op_kinds

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_nan x || Float.is_integer x then "0"
  else Printf.sprintf "%.17g" x

let print_table (a : args) (t : Probe.t) ~nsetups ~setup_s ~elapsed ~worlds ~gauges0
    ~gauges1 =
  Printf.printf "workload %s  seed %d  trace %d  setups %d (median %.3f s)\n" a.workload
    a.seed (if a.trace then 1 else 0) nsetups setup_s;
  Printf.printf "%d worlds x %d cycles in %.2f s; host reference %.4f ms (x%.4f)\n\n" worlds
    (Probe.cycles t / worlds) elapsed (Samples.median t.Probe.host) (Probe.host_scale t);
  Printf.printf "%-10s %12s %7s %12s %7s %10s %10s\n" "op" "median_ms" "tail" "tail_ms" "n"
    "1st-half" "2nd-half";
  let row name s h =
    let p, v = Samples.tail s in
    Printf.printf "%-10s %12.4f %7s %12.4f %7d %10.4f %10.4f%s\n" name (Samples.median s)
      (Printf.sprintf "p%g" p) v s.Samples.n (Samples.median h.(0)) (Samples.median h.(1))
      (if half_drift h > 0.1 then "  DRIFT" else "")
  in
  List.iter
    (fun k ->
      let k = Probe.kind t k in
      row k.Probe.k_name k.Probe.k_all k.Probe.k_half)
    t.Probe.kind_order;
  row "cycle" t.Probe.cycles_all t.Probe.cycles_half;
  Printf.printf "\nerror_rate %g (%d failed / %d attempted); %d timed ops billed as a reference\n"
    (float_of_int t.Probe.failed /. float_of_int (max 1 t.Probe.attempted))
    t.Probe.failed t.Probe.attempted t.Probe.compared;
  List.iter (fun m -> Printf.printf "  failure: %s\n" m) (List.rev t.Probe.messages);
  List.iter2
    (fun (name, a) (_, b) ->
      Printf.printf "gauge %-22s %6d -> %6d%s\n" name a b (if a <> b then "  DRIFT" else ""))
    gauges0 gauges1

(* The mean over worlds of each workload-specific metric. *)
let average worlds =
  let n = float_of_int (List.length worlds) in
  List.map
    (fun (name, _) ->
      (name, List.fold_left (fun acc w -> acc +. List.assoc name w) 0.0 worlds /. n))
    (List.hd worlds)

let () =
  let a = parse_args () in
  let w =
    match List.find_opt (fun w -> w.Workloads.name = a.workload) Workloads.all with
    | Some w -> w
    | None -> usage ()
  in
  let t = Probe.create ~traced:a.trace ~domains:w.Workloads.domains in
  let built = Samples.create () in
  let build ~cold =
    Gc.full_major ();
    Hemlock_vm.Vm_object.reset ();
    let t0 = Probe.now_ns () in
    let world = w.Workloads.setup t ~seed:a.seed in
    let s = float_of_int (Probe.now_ns () - t0) /. 1e9 in
    if not cold then Samples.add built (s *. Probe.host_scale_now t 5);
    world
  in
  (* The first world is driven untimed.  It warms the process up, and
     the peak RSS after it is that of one world built and driven, before
     any host reference ran and before later worlds reuse its heap (how
     far fragmentation lifts the mark would depend on how many of them
     fit in the run).  Its ops are still checked. *)
  let warm = build ~cold:true in
  for _ = 1 to w.Workloads.cycles do
    warm.Workloads.cycle t
  done;
  let rss = peak_rss_mb () in
  let measured = ref 0 and extras = ref [] and gauges = ref ([], []) in
  let deadline = int_of_float (a.seconds *. 1e9) in
  while !extras = [] || !measured < deadline do
    let world = build ~cold:false in
    Gc.full_major ();
    let g0 = world.Workloads.gauges () in
    let bills0 = List.length t.Probe.bills in
    t.Probe.timed <- true;
    let t0 = Probe.now_ns () in
    for i = 1 to w.Workloads.cycles do
      t.Probe.half <- (if 2 * i <= w.Workloads.cycles then 0 else 1);
      Probe.begin_cycle t;
      world.Workloads.cycle t;
      Probe.end_cycle t
    done;
    measured := !measured + (Probe.now_ns () - t0);
    t.Probe.timed <- false;
    gauges := (g0, world.Workloads.gauges ());
    let bills =
      List.rev (List.filteri (fun i _ -> i < List.length t.Probe.bills - bills0) t.Probe.bills)
    in
    extras := world.Workloads.finish t ~cycles:w.Workloads.cycles ~bills :: !extras
  done;
  while built.Samples.n < setups do
    ignore (build ~cold:false)
  done;
  let worlds = List.length !extras in
  let setup_s = Samples.median built in
  let gauges0, gauges1 = !gauges in
  print_table a t ~nsetups:built.Samples.n ~setup_s
    ~elapsed:(float_of_int !measured /. 1e9)
    ~worlds ~gauges0 ~gauges1;
  let metrics =
    if a.trace then begin
      if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
      Probe.write_trace t
        (Printf.sprintf ".perfbench/trace-%s-%d.json" a.workload a.seed)
        ~workload:a.workload ~seed:a.seed;
      per_layer t ~gauges0 ~gauges1 ~extras:(average !extras)
    end
    else
      [
        ("cycle_ms", "ms", Samples.median t.Probe.cycles_norm);
        ("setup_s", "s", setup_s);
        ("peak_rss_mb", "MB", rss);
      ]
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.Probe.failed = 0) t.Probe.attempted t.Probe.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))
