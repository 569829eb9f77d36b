(* An SPMD pool over OCaml 5 domains with lockstep rounds.

   The caller is worker 0; [create ~domains] spawns [domains - 1] extra
   domains.  [round] posts one job by bumping the atomic generation
   [gen], runs share 0 on the calling domain, and returns only once the
   atomic count [pending] of workers still inside the round reaches 0 —
   a full barrier, so round N+1 never observes a torn round N.

   Both sides wait spin-then-park: a worker for the next generation,
   the coordinator for [pending] to close.  A waiter spins [spin_relaxes]
   [Domain.cpu_relax] iterations, which keep answering the
   stop-the-world requests of minor collections, then parks on [lock]
   and a condition.  A parker counts itself in an atomic parked count
   and then re-checks under [lock]; a poster publishes first, then takes
   [lock] and broadcasts only if that count is non-zero.  Atomics are
   sequentially consistent, so either the poster sees the parker's count
   and its broadcast reaches the parker (which holds [lock] until it
   waits), or the parker's re-check sees the post: no wake-up is lost.
   A pool with more domains than cores parks at once, since a spinner
   would only take the core the domain it waits for needs.

   Worker domains count into their own [Stats.cur ()] record; at
   [shutdown] each worker returns that record and the pool merges them
   into the spawner's record in worker-index order, so the merged totals
   are identical for every [domains] setting given the same work
   partition. *)

(* 0.44-0.60 ms on a 2-vCPU x86-64 VM (22-30 ns per relax), several
   cluster rounds long: a waiter catches the next post or close while
   spinning and parks only across a longer gap. *)
let spin_relaxes = 20_000

type t = {
  domains : int;
  spin : int;  (* relaxes before parking: 0 past the core count *)
  gen : int Atomic.t;  (* rounds posted, plus one for quit *)
  pending : int Atomic.t;  (* workers still inside the current round *)
  lock : Mutex.t;
  start : Condition.t;  (* a new round (or quit) was posted *)
  finish : Condition.t;  (* the last worker completed the current round *)
  start_parked : int Atomic.t;  (* workers parked, or parking, on [start] *)
  finish_parked : int Atomic.t;  (* the coordinator, parked on [finish] *)
  mutable fn : int -> unit;  (* the current round's job *)
  mutable quit : bool;
  failures : (exn * Printexc.raw_backtrace) option array;  (* by worker index *)
  mutable handles : Stats.t Domain.t array;
  mutable alive : bool;
}

(* Wait until [Atomic.get a = v]: spin [n] more relaxes, then park on
   [cond], counted in [parked].  Allocates nothing. *)
let rec await t parked cond a v n =
  if Atomic.get a <> v then
    if n > 0 then begin
      Domain.cpu_relax ();
      await t parked cond a v (n - 1)
    end
    else begin
      Mutex.lock t.lock;
      Atomic.incr parked;
      while Atomic.get a <> v do
        Condition.wait cond t.lock
      done;
      Atomic.decr parked;
      Mutex.unlock t.lock
    end

(* Wake the waiters parked on [cond]; call after publishing. *)
let wake t parked cond =
  if Atomic.get parked > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast cond;
    Mutex.unlock t.lock
  end

let worker_loop t w =
  let rec loop seen =
    (* every generation is run by every worker before the next is
       posted, so the one after [seen] is the next to wait for *)
    await t t.start_parked t.start t.gen (seen + 1) t.spin;
    (* reading the new [gen] orders the poster's [fn] and [quit] before us *)
    if t.quit then (* the worker's whole count record rides home through [join] *)
      Stats.cur ()
    else begin
      (try t.fn w with e -> t.failures.(w) <- Some (e, Printexc.get_raw_backtrace ()));
      (* the decrement publishes this share's writes to the coordinator *)
      if Atomic.fetch_and_add t.pending (-1) = 1 then wake t t.finish_parked t.finish;
      loop (seen + 1)
    end
  in
  loop 0

(* Tell the workers to exit, then join them and merge their counts. *)
let stop t =
  t.quit <- true;
  Atomic.incr t.gen;
  wake t t.start_parked t.start;
  (* join — and merge counters — in worker-index order, so totals are
     deterministic whatever order the domains actually exited in *)
  Array.iter
    (fun h ->
      let worker_stats = Domain.join h in
      Stats.merge_into ~into:(Stats.cur ()) worker_stats)
    t.handles;
  t.handles <- [||]

let create ~domains =
  if domains < 1 then invalid_arg "Domain_pool.create: need at least one domain";
  let t =
    {
      domains;
      spin = (if domains <= Domain.recommended_domain_count () then spin_relaxes else 0);
      gen = Atomic.make 0;
      pending = Atomic.make 0;
      lock = Mutex.create ();
      start = Condition.create ();
      finish = Condition.create ();
      start_parked = Atomic.make 0;
      finish_parked = Atomic.make 0;
      fn = ignore;
      quit = false;
      failures = Array.make domains None;
      handles = [||];
      alive = true;
    }
  in
  (try
     for w = 1 to domains - 1 do
       t.handles <- Array.append t.handles [| Domain.spawn (fun () -> worker_loop t w) |]
     done
   with e ->
     (* e.g. the runtime's cap on live domains: the workers already
        spawned must not stay parked for the life of the process *)
     let bt = Printexc.get_raw_backtrace () in
     stop t;
     Printexc.raise_with_backtrace e bt);
  t

let round t fn =
  if not t.alive then invalid_arg "Domain_pool.round: pool is shut down";
  if t.domains = 1 then fn 0
  else begin
    t.fn <- fn;
    Atomic.set t.pending (t.domains - 1);
    Atomic.incr t.gen;
    wake t t.start_parked t.start;
    (* share 0 runs here, concurrently with the workers *)
    (try fn 0 with e -> t.failures.(0) <- Some (e, Printexc.get_raw_backtrace ()));
    await t t.finish_parked t.finish t.pending 0 t.spin;
    (* every worker reached the barrier; re-raise the lowest-index
       failure so which exception wins never depends on scheduling *)
    match Array.find_map Fun.id t.failures with
    | None -> ()
    | Some (e, bt) ->
      Array.fill t.failures 0 t.domains None;
      Printexc.raise_with_backtrace e bt
  end

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    stop t
  end
