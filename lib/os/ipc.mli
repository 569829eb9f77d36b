(** Inter-process communication: System-V-style message queues and the
    paper's §6 protection-domain calls.

    Parametric over the kernel type (['k] is instantiated to
    [Kernel.t]) so the pd-service entry points can receive the kernel
    without this layer depending on it.  All failures are errnos;
    {!Kernel}'s compat wrappers turn them into [Os_error]. *)

type msgq

type 'k t

val create : unit -> 'k t

(** {1 Message queues} *)

(** [EEXIST] if the name is taken.  Sends block when full, receives
    when empty (native processes only — they block through the
    scheduler effect, with the queue name as the wait reason). *)
val msgq_create : 'k t -> string -> capacity:int -> (unit, Errno.t) result

val msgq_exists : 'k t -> string -> bool

(** [ENOENT] for an unknown queue, like the calls below. *)
val msg_send : 'k t -> string -> Bytes.t -> (unit, Errno.t) result

(** Non-blocking enqueue from {e outside} any process context (the
    cluster's network pump): never waits, never bills — the sender
    accounts for the transfer on success.  [EAGAIN] when the queue is
    full, so the caller can hold the message for a later retry instead
    of dropping it. *)
val msg_enqueue : 'k t -> string -> Bytes.t -> (unit, Errno.t) result

val msg_recv : 'k t -> string -> (Bytes.t, Errno.t) result
val msg_try_recv : 'k t -> string -> (Bytes.t option, Errno.t) result

(** {1 Protection-domain calls} *)

(** [EEXIST] if the service name is taken. *)
val register_pd_service :
  'k t -> name:string -> owner:Proc.t -> ('k -> Proc.t -> int -> int) -> (unit, Errno.t) result

(** Synchronous cross-domain call: runs the entry in the server's
    domain with the caller suspended.  [ENOENT] for unknown services. *)
val pd_call : 'k t -> 'k -> service:string -> int -> (int, Errno.t) result
