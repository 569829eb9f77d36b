(* An SPMD pool over OCaml 5 domains with lockstep rounds.

   The caller is worker 0; [create ~domains] spawns [domains - 1] extra
   domains that park on a condition variable between rounds.  [round]
   publishes one job, runs share 0 on the calling domain, and returns
   only after every worker has finished its share — a full barrier, so
   round N+1 never observes a torn round N.

   Worker domains count into their own [Stats.cur ()] record; at
   [shutdown] each worker returns that record and the pool merges them
   into the spawner's record in worker-index order, so the merged totals
   are identical for every [domains] setting given the same work
   partition. *)

type t = {
  domains : int;
  lock : Mutex.t;
  start : Condition.t;  (* a new round (or quit) was posted *)
  finish : Condition.t;  (* a worker completed the current round *)
  mutable gen : int;  (* round number; workers run when it passes theirs *)
  mutable fn : int -> unit;  (* the current round's job *)
  mutable quit : bool;
  mutable pending : int;  (* workers still inside the current round *)
  mutable failures : (int * exn * Printexc.raw_backtrace) list;
  mutable handles : Stats.t Domain.t array;
  mutable alive : bool;
}

let worker_loop t w =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.quit) && t.gen = !seen do
      Condition.wait t.start t.lock
    done;
    if t.quit then begin
      Mutex.unlock t.lock;
      (* the worker's whole count record rides home through [join] *)
      Stats.cur ()
    end
    else begin
      seen := t.gen;
      let fn = t.fn in
      Mutex.unlock t.lock;
      let err =
        try
          fn w;
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.lock;
      (match err with
      | Some (e, bt) -> t.failures <- (w, e, bt) :: t.failures
      | None -> ());
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finish;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Domain_pool.create: need at least one domain";
  let t =
    {
      domains;
      lock = Mutex.create ();
      start = Condition.create ();
      finish = Condition.create ();
      gen = 0;
      fn = ignore;
      quit = false;
      pending = 0;
      failures = [];
      handles = [||];
      alive = true;
    }
  in
  t.handles <-
    Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let round t fn =
  if not t.alive then invalid_arg "Domain_pool.round: pool is shut down";
  if t.domains = 1 then fn 0
  else begin
    Mutex.lock t.lock;
    t.fn <- fn;
    t.gen <- t.gen + 1;
    t.pending <- t.domains - 1;
    t.failures <- [];
    Condition.broadcast t.start;
    Mutex.unlock t.lock;
    (* share 0 runs here, concurrently with the workers *)
    let err0 =
      try
        fn 0;
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.lock;
    while t.pending > 0 do
      Condition.wait t.finish t.lock
    done;
    let failures = t.failures in
    Mutex.unlock t.lock;
    let failures =
      match err0 with Some (e, bt) -> (0, e, bt) :: failures | None -> failures
    in
    (* every worker reached the barrier; re-raise the lowest-index
       failure so which exception wins never depends on scheduling *)
    match List.sort (fun (a, _, _) (b, _, _) -> compare a b) failures with
    | [] -> ()
    | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  end

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Mutex.lock t.lock;
    t.quit <- true;
    Condition.broadcast t.start;
    Mutex.unlock t.lock;
    (* join — and merge counters — in worker-index order, so totals are
       deterministic whatever order the domains actually exited in *)
    Array.iter
      (fun h ->
        let worker_stats = Domain.join h in
        Stats.merge_into ~into:(Stats.cur ()) worker_stats)
      t.handles;
    t.handles <- [||]
  end
