(** The scheduler: process table, pids, daemons, the round-robin run
    loop, and deadlock detection.

    What a quantum {e does} (stepping an ISA cpu, resuming a native
    continuation) stays in {!Kernel}; this layer decides {e who} runs,
    wakes blocked processes whose conditions hold, and diagnoses the
    idle-but-blocked state as a structured deadlock. *)

(** One stuck process in a deadlock report. *)
type blocked = { b_pid : int; b_comm : string; b_why : string }

(** Non-daemon processes are blocked and nothing can wake them.  A
    printer is registered, so an uncaught [Deadlock] shows
    {!deadlock_message} rather than an opaque payload. *)
exception Deadlock of blocked list

(** ["pid 4 (waiter) waiting on flock /tmp/l, pid 7 (…) …"] *)
val deadlock_message : blocked list -> string

type t

val create : unit -> t
val fresh_pid : t -> int
val add : t -> Proc.t -> unit

(** Forget a pid entirely (reaping); also clears daemon status. *)
val remove : t -> int -> unit

val find : t -> int -> Proc.t option

(** All processes, sorted by pid — the round-robin order. *)
val processes : t -> Proc.t list

val set_daemon : t -> Proc.t -> unit
val is_daemon : t -> int -> bool

(** Monotonic count of quanta handed out. *)
val ticks : t -> int

(** Blocked non-daemons with their wait reasons (the deadlock set when
    nothing is runnable). *)
val blocked_nondaemons : t -> blocked list

(** One pass: wake what can wake, then give every runnable process a
    quantum via [run_one].  [`Progress] — something ran; [`Idle] —
    nothing runnable but non-daemons are blocked; [`Done] — only
    zombies and blocked daemons remain. *)
val step : t -> run_one:(Proc.t -> unit) -> [ `Progress | `Idle | `Done ]

(** Loop {!step} to completion.  [on_budget] is called when [max_ticks]
    quanta have been spent (it should raise).
    @raise Deadlock on [`Idle]. *)
val run :
  ?max_ticks:int -> t -> run_one:(Proc.t -> unit) -> on_budget:(unit -> unit) -> unit
