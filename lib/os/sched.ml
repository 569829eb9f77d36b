module Stats = Hemlock_util.Stats

type blocked = { b_pid : int; b_comm : string; b_why : string }

exception Deadlock of blocked list

let deadlock_message blocked =
  String.concat ", "
    (List.map
       (fun b -> Printf.sprintf "pid %d (%s) waiting on %s" b.b_pid b.b_comm b.b_why)
       blocked)

let () =
  Printexc.register_printer (function
    | Deadlock blocked -> Some ("Deadlock: " ^ deadlock_message blocked)
    | _ -> None)

type t = {
  proc_table : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  daemons : (int, unit) Hashtbl.t;
  mutable tick_count : int;
  (* Pid-sorted snapshot of [proc_table], rebuilt lazily after an
     add/remove.  The scheduler walks the process list several times
     per pass, once per quantum — re-sorting the table each walk made
     every pass O(n log n) in the number of processes ever spawned
     (zombies included), which dominated long multi-process runs. *)
  mutable plist : Proc.t list;
  mutable plist_dirty : bool;
}

let create () =
  {
    proc_table = Hashtbl.create 32;
    next_pid = 1;
    daemons = Hashtbl.create 8;
    tick_count = 0;
    plist = [];
    plist_dirty = false;
  }

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let add t proc =
  Hashtbl.replace t.proc_table proc.Proc.pid proc;
  t.plist_dirty <- true

let remove t pid =
  Hashtbl.remove t.proc_table pid;
  Hashtbl.remove t.daemons pid;
  t.plist_dirty <- true

let find t pid = Hashtbl.find_opt t.proc_table pid

let processes t =
  if t.plist_dirty then begin
    t.plist <-
      List.sort
        (fun a b -> compare a.Proc.pid b.Proc.pid)
        (Hashtbl.fold (fun _ p acc -> p :: acc) t.proc_table []);
    t.plist_dirty <- false
  end;
  t.plist

let set_daemon t proc = Hashtbl.replace t.daemons proc.Proc.pid ()

let is_daemon t pid = Hashtbl.mem t.daemons pid

let ticks t = t.tick_count

let unblock_pass t =
  List.iter
    (fun p ->
      match p.Proc.state with
      | Proc.Blocked { cond; _ } when cond () -> p.Proc.state <- Proc.Runnable
      | Proc.Blocked _ | Proc.Runnable | Proc.Zombie _ -> ())
    (processes t)

let blocked_nondaemons t =
  List.filter_map
    (fun p ->
      match p.Proc.state with
      | Proc.Blocked { why; _ } when not (is_daemon t p.Proc.pid) ->
        Some { b_pid = p.Proc.pid; b_comm = p.Proc.comm; b_why = why }
      | Proc.Blocked _ | Proc.Runnable | Proc.Zombie _ -> None)
    (processes t)

(* One scheduler pass.  [run_one] gives a runnable process its quantum;
   the caller (Kernel) owns what a quantum means. *)
let step t ~run_one =
  unblock_pass t;
  let runnable = List.filter (fun p -> p.Proc.state = Proc.Runnable) (processes t) in
  match runnable with
  | [] -> if blocked_nondaemons t = [] then `Done else `Idle
  | ps ->
    List.iter
      (fun p ->
        if p.Proc.state = Proc.Runnable then begin
          t.tick_count <- t.tick_count + 1;
          (Stats.cur ()).context_switches <- (Stats.cur ()).context_switches + 1;
          run_one p
        end)
      ps;
    `Progress

let run ?(max_ticks = 2_000_000) t ~run_one ~on_budget =
  let deadline = t.tick_count + max_ticks in
  let rec loop () =
    if t.tick_count > deadline then on_budget ()
    else
      match step t ~run_one with
      | `Progress -> loop ()
      | `Done -> ()
      | `Idle -> raise (Deadlock (blocked_nondaemons t))
  in
  loop ()
