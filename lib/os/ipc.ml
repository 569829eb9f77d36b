module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

type msgq = { mq_queue : Bytes.t Queue.t; mq_capacity : int }

(* The service entry runs against the kernel, so the table is parametric
   over the kernel type ('k = Kernel.t) to keep this layer below it. *)
type 'k pd_service = { pd_owner : Proc.t; pd_entry : 'k -> Proc.t -> int -> int }

type 'k t = {
  msgqs : (string, msgq) Hashtbl.t;
  pd_services : (string, 'k pd_service) Hashtbl.t;
}

let create () = { msgqs = Hashtbl.create 8; pd_services = Hashtbl.create 8 }

(* --- message queues ---------------------------------------------------- *)

let msgq_create t name ~capacity =
  if Hashtbl.mem t.msgqs name then Error Errno.EEXIST
  else begin
    Hashtbl.replace t.msgqs name { mq_queue = Queue.create (); mq_capacity = capacity };
    Ok ()
  end

let msgq_exists t name = Hashtbl.mem t.msgqs name

let find_msgq t name =
  match Hashtbl.find_opt t.msgqs name with
  | Some q -> Ok q
  | None -> Error Errno.ENOENT

(* Blocking send/recv: native processes only (they wait through the
   scheduler's effect). *)

let msg_send t name b =
  match find_msgq t name with
  | Error err -> Error err
  | Ok q -> (
    match Fault.hit "ipc.send" with
    | exception Fault.Injected { failure; _ } -> Error (Errno.of_failure failure)
    | () ->
    Proc.wait_until
      ~why:(Printf.sprintf "msgq %s not full" name)
      (fun () -> Queue.length q.mq_queue < q.mq_capacity);
    let s = Stats.cur () in
    s.syscalls <- s.syscalls + 1;
    s.messages_sent <- s.messages_sent + 1;
    s.bytes_copied <- s.bytes_copied + Bytes.length b;
    Queue.add (Bytes.copy b) q.mq_queue;
    Ok ())

(* Non-blocking enqueue for deliveries that originate outside any
   process context — the cluster's network pump runs on the scheduler
   loop, where [Proc.wait_until]'s effect has no handler.  Performs no
   billing: the {e sender's} machine accounts for the transfer when the
   enqueue succeeds.  [Error EAGAIN] when the queue is full, so the
   caller can keep the message pending (backpressure) instead of
   dropping it. *)
let msg_enqueue t name b =
  match find_msgq t name with
  | Error err -> Error err
  | Ok q ->
    if Queue.length q.mq_queue >= q.mq_capacity then Error Errno.EAGAIN
    else begin
      Queue.add (Bytes.copy b) q.mq_queue;
      Ok ()
    end

let msg_recv t name =
  match find_msgq t name with
  | Error err -> Error err
  | Ok q ->
    Proc.wait_until
      ~why:(Printf.sprintf "msgq %s non-empty" name)
      (fun () -> not (Queue.is_empty q.mq_queue));
    let s = Stats.cur () in
    s.syscalls <- s.syscalls + 1;
    let b = Queue.take q.mq_queue in
    s.bytes_copied <- s.bytes_copied + Bytes.length b;
    Ok b

let msg_try_recv t name =
  match find_msgq t name with
  | Error err -> Error err
  | Ok q ->
    let s = Stats.cur () in
    s.syscalls <- s.syscalls + 1;
    if Queue.is_empty q.mq_queue then Ok None
    else begin
      let b = Queue.take q.mq_queue in
      s.bytes_copied <- s.bytes_copied + Bytes.length b;
      Ok (Some b)
    end

(* --- protection-domain calls ------------------------------------------- *)

let register_pd_service t ~name ~owner pd_entry =
  if Hashtbl.mem t.pd_services name then Error Errno.EEXIST
  else begin
    Hashtbl.replace t.pd_services name { pd_owner = owner; pd_entry };
    Ok ()
  end

let pd_call t kernel ~service arg =
  match Hashtbl.find_opt t.pd_services service with
  | None -> Error Errno.ENOENT
  | Some { pd_owner; pd_entry } ->
    (* Transient EAGAIN (only ever injected) gets a bounded, deterministic
       retry: the backoff is billed as spin instructions so the cost is
       visible in the simulated cycle count of faulted runs — and absent
       from unfaulted ones. *)
    let max_attempts = 4 in
    let rec attempt n =
      match Fault.hit "ipc.send" with
      | exception Fault.Injected { failure = Hemlock_util.Fault.Eagain; _ }
        when n < max_attempts - 1 ->
        let s = Stats.cur () in
        s.ipc_retries <- s.ipc_retries + 1;
        s.instructions <- s.instructions + (50 lsl n);
        attempt (n + 1)
      | exception Fault.Injected { failure; _ } -> Error (Errno.of_failure failure)
      | () ->
        (* One trap, two domain switches (in and out), no copying: the
           handler runs against the server's address space while the
           caller is suspended. *)
        let s = Stats.cur () in
        s.syscalls <- s.syscalls + 1;
        s.context_switches <- s.context_switches + 2;
        Ok (pd_entry kernel pd_owner arg)
    in
    attempt 0
