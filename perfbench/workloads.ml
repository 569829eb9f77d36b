(* The four workloads.  Each builds a world from the seed, warms it up,
   and then repeats one cycle of ops closed-loop: the next op starts
   only when the previous one has finished and been checked.  See
   README.md for why each workload exists and which layers it loads. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Cluster = Hemlock_os.Cluster
module Net = Hemlock_os.Net
module Errno = Hemlock_os.Errno
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Layout = Hemlock_vm.Layout
module Vm_object = Hemlock_vm.Vm_object
module Prot = Hemlock_vm.Prot
module Stats = Hemlock_util.Stats
module Prng = Hemlock_util.Prng
module Domain_pool = Hemlock_util.Domain_pool
module Objfile = Hemlock_obj.Objfile
module Cc = Hemlock_cc.Cc
module Lds = Hemlock_linker.Lds
module Ldl = Hemlock_linker.Ldl
module Search = Hemlock_linker.Search
module Sharing = Hemlock_linker.Sharing
module Stable_link = Hemlock_linker.Stable_link
module Serializer = Hemlock_baseline.Serializer
module Modgen = Hemlock_apps.Modgen
module Rwho = Hemlock_apps.Rwho
module Gossip = Rwho.Gossip

type world = {
  cycle : Probe.t -> unit;
  gauges : unit -> (string * int) list;
      (** [kernel.procs_live], [fs.shared_free_slots], [stable_link.files] *)
  finish : Probe.t -> cycles:int -> bills:(string * Probe.bill) list -> (string * float) list;
      (** after the world's timed cycles, given its op bills in order:
          end-of-world checks, and the workload's own per-layer metrics
          per cycle of this world *)
}

(* A run measures a sequence of worlds, each built from the seed, warmed
   up, and then driven for [cycles] cycles.  State that
   grows with every op (link state of exited processes, pager
   registries) is thereby bounded, so a median does not depend on how
   many cycles fit in the run. *)
type workload = {
  name : string;
  cycles : int;  (** timed cycles per world *)
  domains : int;
  setup : Probe.t -> seed:int -> world;  (** build and warm up *)
}

(* ---------------------------------------------------------------------- *)
(* Shared helpers                                                          *)
(* ---------------------------------------------------------------------- *)

let boot () =
  let k = Kernel.create () in
  let ldl = Ldl.install k in
  Hemlock_runtime.Sync.install k;
  (k, ldl)

let install_c k path src =
  Fs.write_file (Kernel.fs k) path
    (Objfile.serialize (Cc.to_object ~name:(Filename.basename path) src))

let link k ~dir ~specs out =
  ignore
    (Lds.link
       { Search.fs = Kernel.fs k; cwd = Path.of_string ~cwd:Path.root dir; env = [] }
       ~specs:(List.map (fun (n, c) -> { Lds.sp_name = n; sp_class = c }) specs)
       ~output:out ())

(* Processes the benchmark spawns from the host have no parent, so they
   stay in the process table as zombies.  Like init adopting orphans, a
   native process adopts them and reaps each through [Kernel.waitpid];
   only that last reaper is left behind.  Runs between ops, unbilled to
   any op. *)
let reap k =
  match List.filter Proc.is_zombie (Kernel.processes k) with
  | [] -> ()
  | zombies ->
    let init =
      Kernel.spawn_native k ~name:"init" (fun k self ->
          List.iter (fun _ -> ignore (Kernel.waitpid k self)) zombies;
          0)
    in
    List.iter (fun z -> z.Proc.parent <- init.Proc.pid) zombies;
    Kernel.run k

let expect_exit p code =
  match p.Proc.state with
  | Proc.Zombie c when c = code -> Ok ()
  | Proc.Zombie c -> Error (Printf.sprintf "exit %d, want %d" c code)
  | Proc.Runnable | Proc.Blocked _ -> Error "did not exit"

let ( let* ) = Result.bind

let stable_files fs =
  if Fs.exists fs Stable_link.dir then List.length (Fs.readdir fs Stable_link.dir) else 0

let gauges_of ks fs =
  [
    ( "kernel.procs_live",
      List.fold_left (fun n k -> n + List.length (Kernel.processes k)) 0 ks );
    ("fs.shared_free_slots", Fs.shared_free_slots fs);
    ("stable_link.files", stable_files fs);
  ]

(* ---------------------------------------------------------------------- *)
(* link-boot and link-churn: the 96-module Modgen deep chain               *)
(* ---------------------------------------------------------------------- *)

let chain_modules = 96

let chain_prog = "/home/perf/prog"

let chain_console = string_of_int (Modgen.expected ~modules:chain_modules ~used:(chain_modules - 1))

type chain = {
  k : Kernel.t;
  ldl : Ldl.t;
  templates : string array;
  mutable sync_plans : int;
  mutable sync_objs : int;
  mutable sync_skipped : int;
}

let chain_boot () =
  let k, ldl = boot () in
  Fs.mkdir (Kernel.fs k) "/home/lib";
  let templates = Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules:chain_modules in
  Modgen.link_driver ~deep:chain_modules ldl ~dir:"/home/lib" ~out:chain_prog
    ~used:(chain_modules - 1);
  {
    k;
    ldl;
    templates = Array.of_list templates;
    sync_plans = 0;
    sync_objs = 0;
    sync_skipped = 0;
  }

(* The layer calls of one exec of the chain's program. *)
let chain_exec t c =
  let p = Probe.layer t "kernel.spawn_exec" (fun () -> Kernel.spawn_exec c.k chain_prog) in
  Probe.layer t "kernel.run" (fun () -> Kernel.run c.k);
  p

let check_chain c p =
  let* () = expect_exit p 0 in
  if String.trim (Kernel.console c.k) = chain_console then Ok ()
  else Error (Printf.sprintf "console %S, want %S" (Kernel.console c.k) chain_console)

let exec_op t c name =
  Kernel.console_clear c.k;
  Probe.op t name (fun () -> chain_exec t c) ~check:(check_chain c)

let boot_op t c =
  Kernel.console_clear c.k;
  Probe.op t "boot"
    (fun () ->
      Probe.layer t "kernel.reboot" (fun () -> Kernel.reboot c.k);
      chain_exec t c)
    ~check:(check_chain c)

let sync_op t c ~all_present ?billed () =
  Probe.op t "sync" ?billed
    (fun () -> Probe.layer t "ldl.stable_sync" (fun () -> Ldl.stable_sync c.ldl))
    ~check:(fun r ->
      if t.Probe.timed then begin
        c.sync_plans <- c.sync_plans + r.Ldl.sync_plans;
        c.sync_objs <- c.sync_objs + r.Ldl.sync_objs;
        c.sync_skipped <- c.sync_skipped + r.Ldl.sync_skipped
      end;
      if (not all_present) || (r.Ldl.sync_skipped = 0 && r.Ldl.sync_plans > 0) then Ok ()
      else
        Error
          (Printf.sprintf "sync persisted %d plans, skipped %d" r.Ldl.sync_plans
             r.Ldl.sync_skipped))

let chain_world c cycle =
  let fs = Kernel.fs c.k in
  {
    cycle;
    gauges = (fun () -> gauges_of [ c.k ] fs);
    finish =
      (fun _ ~cycles ~bills:_ ->
        let per_cycle n = float_of_int n /. float_of_int cycles in
        [
          ("ldl.sync_plans", per_cycle c.sync_plans);
          ("ldl.sync_objs", per_cycle c.sync_objs);
          ("ldl.sync_skipped", per_cycle c.sync_skipped);
        ]);
  }

(* Read path: stable-boot replay, then in-memory plan replay, then a
   sync that finds every file already present. *)
let link_boot =
  let setup t ~seed:_ =
    let c = chain_boot () in
    let cycle t =
      boot_op t c;
      exec_op t c "exec";
      sync_op t c ~all_present:true ();
      reap c.k
    in
    (* record the plans, persist them, and settle *)
    exec_op t c "exec";
    sync_op t c ~all_present:true ();
    for _ = 1 to 3 do
      cycle t
    done;
    chain_world c cycle
  in
  { name = "link-boot"; cycles = 96; domains = 1; setup }

let churn_warmup = 16

let churn_cycles = 32

(* Write path: a template rewritten in place invalidates plans; the exec
   after it re-resolves cold, the sync persists through the journal,
   and the boot after it shows what the store still holds. *)
let link_churn =
  let worlds = ref 0 in
  let setup t ~seed =
    let c = chain_boot () in
    let fs = Kernel.fs c.k in
    let bytes = Array.map (Fs.read_file fs) c.templates in
    (* What a rewrite costs depends on where the template sits in the
       chain.  So each run of cycles rewrites templates spread evenly
       along it, in a seed-shuffled order, and a median does not depend
       on which ones the seed picked.  Successive worlds step the offset,
       so that three of them rewrite every template once. *)
    let rng = Prng.create ~seed in
    let spread n offset =
      let a = Array.init n (fun i -> ((i * (chain_modules / n)) + offset) mod chain_modules) in
      Prng.shuffle rng a;
      a
    in
    let picks = ref (spread churn_warmup 0) and next = ref 0 in
    let cycle t =
      let i = !picks.(!next mod Array.length !picks) in
      incr next;
      (* what a write bills depends on the file's size *)
      Probe.op t "rewrite" ~bill_as:(Printf.sprintf "rewrite-%d" (Bytes.length bytes.(i)))
        (fun () ->
          Probe.layer t "fs.write_file" (fun () -> Fs.write_file fs c.templates.(i) bytes.(i)))
        ~check:(fun () -> Ok ());
      exec_op t c "exec";
      (* bills what it persists, which depends on the store's free slots *)
      sync_op t c ~all_present:false ~billed:false ();
      boot_op t c;
      reap c.k
    in
    exec_op t c "exec";
    ignore (Ldl.stable_sync c.ldl);
    (* Warm up past the point where /shared/.stable stops growing (about
       ten rewrites), so the timed phase does not move with run length.
       A fixed count keeps every world of a run the same size. *)
    for _ = 1 to churn_warmup do
      cycle t
    done;
    picks := spread churn_cycles (!worlds mod (chain_modules / churn_cycles));
    next := 0;
    incr worlds;
    chain_world c cycle
  in
  { name = "link-churn"; cycles = churn_cycles; domains = 1; setup }

(* ---------------------------------------------------------------------- *)
(* exec-vm: interpreter/JIT + TLB, COW fork, pager + writeback            *)
(* ---------------------------------------------------------------------- *)

(* The cross-module loop: 16000 iterations, each calling a public
   module twice; exits 42. *)
let loop_src =
  {|
extern int inc_a();
extern int inc_b();
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < 16000) {
    s = s + inc_a();
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s + inc_b();
    i = i + 1;
  }
  return s - 111958;
}
|}

(* Eight forks over a dirty 64-page heap; each child writes one page. *)
let fork_src =
  {|
int main() {
  int *p;
  int i;
  int pid;
  int kids;
  p = sbrk(262144);
  i = 0;
  while (i < 65536) { p[i] = i; i = i + 1024; }
  kids = 0;
  while (kids < 8) {
    pid = fork();
    if (pid == 0) {
      p[0] = kids + 1;
      exit(0);
    }
    wait();
    kids = kids + 1;
  }
  print_int(p[0]);
  return 0;
}
|}

let ram_pages = 256

let sweep_files = 4

let sweep_pages = sweep_files * Layout.shared_slot_size / Layout.page_size

(* The word the [j]th sweep stores at page [pg] of file [f]; sweep [-1]
   is the initial fill. *)
let sweep_word j f pg =
  if j < 0 then 0x01010101 * (65 + f) else ((j + 1) * 1_000_003) + (f lsl 20) + pg

let exec_vm =
  let setup t ~seed =
    Vm_object.ram_pages := Some ram_pages;
    Vm_object.reset ();
    let k, _ldl = boot () in
    let fs = Kernel.fs k in
    Fs.mkdir fs "/shared/lib";
    install_c k "/shared/lib/inc_a.o" "int inc_a() { return 3; }";
    install_c k "/shared/lib/inc_b.o" "int inc_b() { return 4; }";
    Fs.mkdir fs "/home/vm";
    install_c k "/home/vm/loop.o" loop_src;
    link k ~dir:"/home/vm"
      ~specs:
        [
          ("loop.o", Sharing.Static_private);
          ("/shared/lib/inc_a.o", Sharing.Dynamic_public);
          ("/shared/lib/inc_b.o", Sharing.Dynamic_public);
        ]
      "loop";
    install_c k "/home/vm/fork.o" fork_src;
    link k ~dir:"/home/vm" ~specs:[ ("fork.o", Sharing.Static_private) ] "fork";
    Fs.mkdir fs "/shared/ws";
    let file f = Printf.sprintf "/shared/ws/f%d" f in
    for f = 0 to sweep_files - 1 do
      Fs.create_file fs (file f);
      Fs.write_file fs (file f) (Bytes.make Layout.shared_slot_size (Char.chr (65 + f)))
    done;
    let per_file = Layout.shared_slot_size / Layout.page_size in
    let order = Array.init sweep_pages (fun i -> (i / per_file, i mod per_file)) in
    Prng.shuffle (Prng.create ~seed) order;
    let sweeps = ref 0 in
    let run_prog name =
      let p = Probe.layer t "kernel.spawn_exec" (fun () -> Kernel.spawn_exec k name) in
      Probe.layer t "kernel.run" (fun () -> Kernel.run k);
      p
    in
    let cycle t =
      Probe.op t "loop" (fun () -> run_prog "/home/vm/loop") ~check:(fun p -> expect_exit p 42);
      Kernel.console_clear k;
      Probe.op t "fork"
        (fun () -> run_prog "/home/vm/fork")
        ~check:(fun p ->
          let* () = expect_exit p 0 in
          if Kernel.console k = "0" then Ok ()
          else Error (Printf.sprintf "console %S" (Kernel.console k)));
      let j = !sweeps in
      incr sweeps;
      let bad = ref 0 in
      Probe.op t "sweep"
        (fun () ->
          let p =
            Probe.layer t "kernel.spawn_native" (fun () ->
                Kernel.spawn_native k ~name:"sweep" (fun k proc ->
                    let bases =
                      Array.init sweep_files (fun f ->
                          Kernel.map_shared_file k proc ~path:(file f) ~prot:Prot.Read_write)
                    in
                    Array.iter
                      (fun (f, pg) ->
                        let addr = bases.(f) + (pg * Layout.page_size) in
                        if Kernel.load_u32 k proc addr <> sweep_word (j - 1) f pg then incr bad;
                        Kernel.store_u32 k proc addr (sweep_word j f pg))
                      order;
                    0))
          in
          Probe.layer t "kernel.run" (fun () -> Kernel.run k);
          p)
        ~check:(fun p ->
          let* () = expect_exit p 0 in
          if !bad = 0 then Ok () else Error (Printf.sprintf "%d pages read back wrong" !bad));
      reap k
    in
    for _ = 1 to 2 do
      cycle t
    done;
    {
      cycle;
      gauges = (fun () -> gauges_of [ k ] fs);
      finish =
        (fun _ ~cycles:_ ~bills:_ ->
          [ ("vm_object.peak_resident", float_of_int (Vm_object.peak_resident ())) ]);
    }
  in
  { name = "exec-vm"; cycles = 48; domains = 1; setup }

(* ---------------------------------------------------------------------- *)
(* cluster-lan: 8 machines on 2 domains over the lan profile               *)
(* ---------------------------------------------------------------------- *)

let machines = 8

let domains = 2

(* Per-machine ISA work for each epoch, so a round carries compute. *)
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

type cluster = {
  g : Gossip.t;
  c : Cluster.t;
  user_rngs : Prng.t array;
  timeouts : int array;  (** per machine: each cell is touched by one domain *)
  ipc_bad : int array;
}

let cluster_boot ~seed ~domains =
  let g =
    Gossip.create ~profile:Net.Lan ~seed:((seed * 7919) + 1) ~domains Rwho.Shared_db ~machines ()
  in
  let c = Gossip.cluster g in
  for i = 0 to machines - 1 do
    let k = Cluster.machine c i in
    ignore (Ldl.install k);
    Hemlock_runtime.Sync.install k;
    Fs.mkdir (Kernel.fs k) "/home/w";
    install_c k "/home/w/main.o" compute_src;
    link k ~dir:"/home/w" ~specs:[ ("main.o", Sharing.Static_private) ] "prog"
  done;
  {
    g;
    c;
    user_rngs = Array.init machines (fun i -> Prng.stream ~seed:(seed + 0x515) ~index:i);
    timeouts = Array.make machines 0;
    ipc_bad = Array.make machines 0;
  }

(* A simulated user on machine [i]: local message-queue IPC, then one
   reliable remote exec on a random peer. *)
let user cl i k proc =
  let q = Printf.sprintf "user-m%d" i in
  if not (Kernel.msgq_exists k q) then Kernel.msgq_create k q ~capacity:4;
  for n = 1 to 3 do
    let msg = Bytes.make (16 + n) (Char.chr (96 + n)) in
    Kernel.msg_send k proc q msg;
    if not (Bytes.equal (Kernel.msg_recv k proc q) msg) then
      cl.ipc_bad.(i) <- cl.ipc_bad.(i) + 1
  done;
  let rng = cl.user_rngs.(i) in
  let p = Prng.int rng (machines - 1) in
  let p = if p >= i then p + 1 else p in
  let cost = 50 + Prng.int rng 200 in
  (match
     Cluster.send_reliable cl.c ~from:i ~dst:p
       (Serializer.to_binary (Serializer.List [ Serializer.Str "exec"; Serializer.Int cost ]))
   with
  | Ok () -> ()
  | Error Errno.ETIMEDOUT -> cl.timeouts.(i) <- cl.timeouts.(i) + 1
  | Error e -> failwith ("send_reliable: " ^ Errno.to_string e));
  0

let epoch_op t cl =
  let computes = Array.make machines None in
  let drive i k =
    computes.(i) <- Some (Kernel.spawn_exec k "/home/w/prog");
    ignore (Kernel.spawn_native k ~name:"user" (user cl i));
    (* [Gossip.epoch] calls [Cluster.run] right after the last drive *)
    if i = machines - 1 then Probe.mark t "gossip.tick"
  in
  let bad = Array.fold_left ( + ) 0 cl.ipc_bad in
  Probe.op t "cluster" ~billed:false
    (fun () ->
      Gossip.epoch ~drive cl.g;
      Probe.mark t "cluster.run")
    ~check:(fun () ->
      let* () =
        Array.fold_left
          (fun acc p ->
            let* () = acc in
            match p with Some p -> expect_exit p 42 | None -> Error "compute not spawned")
          (Ok ()) computes
      in
      if Array.fold_left ( + ) 0 cl.ipc_bad = bad then Ok () else Error "msgq IPC corrupted");
  for i = 0 to machines - 1 do
    reap (Cluster.machine cl.c i)
  done

let warm_epochs = 2

let cluster_cycles = 24

let cluster_fingerprint cl =
  let tel = Net.telemetry (Cluster.net cl.c) in
  ( Gossip.converge ~max_epochs:64 cl.g,
    Gossip.ruptime cl.g 0 ^ Gossip.rwho cl.g 0,
    (tel.Net.t_sent, tel.Net.t_delivered, tel.Net.t_dropped, tel.Net.t_duplicated),
    Cluster.rounds cl.c )

let median_ns f n =
  let s = Probe.Samples.create () in
  for _ = 1 to n do
    let t0 = Probe.now_ns () in
    f ();
    Probe.Samples.add s (float_of_int (Probe.now_ns () - t0))
  done;
  Probe.Samples.median s

(* Domain_pool on its own: an empty barrier round, and create+shutdown. *)
let pool_probe () =
  let spawn_ns = median_ns (fun () -> Domain_pool.shutdown (Domain_pool.create ~domains)) 9 in
  let pool = Domain_pool.create ~domains in
  let round_ns = median_ns (fun () -> Domain_pool.round pool ignore) 2000 in
  Domain_pool.shutdown pool;
  (round_ns, spawn_ns)

(* The 1-domain oracle of a world: the same seed, the same warm-up and
   the same epochs.  Every world is built alike, so one replay serves
   them all. *)
type oracle = {
  o_bills : Probe.bill list;
  o_state : int option * string * (int * int * int * int) * int;
  o_ms : float;  (** median epoch at 1 domain *)
  o_failures : string list;
}

let replay ~seed =
  let t = Probe.create ~traced:false ~domains:1 in
  let cl = cluster_boot ~seed ~domains:1 in
  for _ = 1 to warm_epochs do
    epoch_op t cl
  done;
  t.Probe.timed <- true;
  for _ = 1 to cluster_cycles do
    Probe.begin_cycle t;
    epoch_op t cl;
    Probe.end_cycle t
  done;
  t.Probe.timed <- false;
  {
    o_bills = List.rev_map snd t.Probe.bills;
    o_state = cluster_fingerprint cl;
    o_ms = Probe.Samples.median t.Probe.cycles_all;
    o_failures = t.Probe.messages;
  }

let cluster_lan =
  let oracle = ref None and pool = ref None in
  let setup t ~seed =
    let cl = cluster_boot ~seed ~domains in
    let cycle t = epoch_op t cl in
    for _ = 1 to warm_epochs do
      cycle t
    done;
    let rounds0 = Cluster.rounds cl.c and tel0 = Net.telemetry (Cluster.net cl.c) in
    let timeouts () = Array.fold_left ( + ) 0 cl.timeouts in
    let timeouts0 = timeouts () in
    let finish t ~cycles ~bills =
      let rounds = Cluster.rounds cl.c - rounds0 in
      let tel1 = Net.telemetry (Cluster.net cl.c) in
      let lat =
        {
          tel1 with
          Net.t_latency =
            Array.mapi
              (fun r n ->
                n - if r < Array.length tel0.Net.t_latency then tel0.Net.t_latency.(r) else 0)
              tel1.Net.t_latency;
        }
      in
      let timeouts = timeouts () - timeouts0 in
      let state = cluster_fingerprint cl in
      let o =
        match !oracle with
        | Some o -> o
        | None ->
          let o = replay ~seed in
          List.iter (fun m -> Probe.fail t ("1-domain replay: " ^ m)) o.o_failures;
          oracle := Some o;
          o
      in
      List.iteri
        (fun i ((_, b2), b1) ->
          if b1 <> b2 then
            Probe.fail t
              (Printf.sprintf "epoch %d billed %s at %d domains, %s at 1" i
                 (Probe.bill_to_string b2) domains (Probe.bill_to_string b1)))
        (List.combine bills o.o_bills);
      let converged, db, _, _ = state in
      if converged = None then Probe.fail t "gossip did not converge within 64 epochs";
      if state <> o.o_state then
        Probe.fail t (Printf.sprintf "cluster state differs at 1 domain (%s)" db);
      let op_ms = Probe.Samples.median (Probe.kind t "cluster").Probe.k_plain in
      let per_op n = float_of_int n /. float_of_int cycles in
      let pool =
        if t.Probe.traced then begin
          let round_ns, spawn_ns =
            match !pool with
            | Some p -> p
            | None ->
              let p = pool_probe () in
              pool := Some p;
              p
          in
          [
            ("domain_pool.round_us", round_ns /. 1e3);
            ("domain_pool.spawn_ms", spawn_ns /. 1e6);
            ("domain_pool.barrier_share", per_op rounds *. round_ns /. 1e6 /. op_ms);
            ("domain_pool.speedup_2d", o.o_ms /. op_ms);
          ]
        end
        else []
      in
      let d f = f tel1 - f tel0 in
      let sent = d (fun x -> x.Net.t_sent) and delivered = d (fun x -> x.Net.t_delivered) in
      [
        ("cluster.rounds", per_op rounds);
        ("cluster.round_us", op_ms *. 1e3 /. per_op rounds);
        ("net.sent", per_op sent);
        ("net.delivered", per_op delivered);
        ("net.delivery_ratio", float_of_int delivered /. float_of_int (max 1 sent));
        ("net.dropped", per_op (d (fun x -> x.Net.t_dropped)));
        ("net.duplicated", per_op (d (fun x -> x.Net.t_duplicated)));
        ("net.timeouts", per_op timeouts);
        ("net.latency_p50", float_of_int (Net.percentile lat 50));
        ("net.latency_p99", float_of_int (Net.percentile lat 99));
      ]
      @ pool
    in
    {
      cycle;
      gauges =
        (fun () ->
          gauges_of (List.init machines (Cluster.machine cl.c)) (Kernel.fs (Cluster.machine cl.c 0)));
      finish;
    }
  in
  { name = "cluster-lan"; cycles = cluster_cycles; domains; setup }

let all = [ link_boot; link_churn; exec_vm; cluster_lan ]
