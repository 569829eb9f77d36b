(** The simulated Unix kernel — a thin facade over the layered pieces.

    One [t] is one machine: a file system (with the shared partition), a
    process table with a round-robin scheduler ({!Sched}), signal
    (SIGSEGV) delivery, file descriptors and file locks ({!Vfs}),
    System-V-style message queues and protection-domain calls ({!Ipc}),
    and a console.  The kernel knows nothing about objects or linking
    (§2: "Objects have no meaning to the kernel"); the linkers live in a
    separate library and hook in through {!register_syscall},
    {!register_binfmt} and {!install_segv_handler}.

    Errors: internally every fallible kernel call returns
    [('a, Errno.t) result] (the [_r] variants below); the classic names
    are compat wrappers that raise {!Os_error} with the errno folded
    into the message.  ISA programs get the same errnos as negative
    [$v0] values and are never killed by a failed syscall. *)

type t

(** One stuck process in a deadlock report (re-export of
    {!Sched.blocked}). *)
type blocked = Sched.blocked = { b_pid : int; b_comm : string; b_why : string }

(** Non-daemon processes blocked with no runnable process to unblock
    them; the payload lists each with its wait reason (see
    {!Sched.deadlock_message} for rendering). *)
exception Deadlock of blocked list

(** Raised out of kernel calls on OS-level errors (bad fd, etc.); the
    message names the {!Errno.t}. *)
exception Os_error of string

(** [os_error ctx e] is the {!Os_error} the compat wrappers raise:
    [ctx], then [e]'s message and name.  For loaders and syscalls that
    live outside the kernel. *)
val os_error : string -> Errno.t -> exn

(** {1 Construction} *)

(** A booted kernel with a fresh file system and its own pager (a page
    cache and a clock over {!Hemlock_vm.Vm_object.ram_pages} frames, as
    set now), which every process's address space maps through.  Boot
    rescans the shared partition to rebuild the address lookup table,
    as in the paper. *)
val create : unit -> t

val fs : t -> Hemlock_sfs.Fs.t

(** Simulate a reboot: the in-kernel addr->path table is discarded and
    rebuilt by scanning the shared file system (crash survival, §3),
    then the registered reboot hooks run in registration order — the
    dynamic linker uses one to drop kernel-resident link state and
    refill its plan store from the copy under [/shared/.stable] if the
    file system has not changed since the copy was made. *)
val reboot : t -> unit

(** [add_reboot_hook t h] runs [h] after every {!reboot}, in
    registration order. *)
val add_reboot_hook : t -> (unit -> unit) -> unit

(** {1 Console} *)

val console : t -> string
val console_clear : t -> unit

(** {1 Faults and signals} *)

(** Re-export of {!Hemlock_isa.Trap.fault}: the kernel's fault record
    {e is} the trap pipeline's. *)
type fault = Hemlock_isa.Trap.fault = {
  f_addr : int;
  f_access : Hemlock_vm.Prot.access;
  f_reason : Hemlock_vm.Address_space.fault_reason;
}

(** Outcome of a SIGSEGV handler: the fault was fixed (restart the
    instruction); it will be fixable once a condition holds (e.g. a file
    lock is busy — block the process and retry); or this handler cannot
    deal with it (try the next handler in the chain). *)
type segv_result = Resolved | Retry_when of (unit -> bool) | Unhandled

type segv_handler = t -> Proc.t -> fault -> segv_result

(** [install_segv_handler t proc ~name h] pushes [h] onto the front of
    the process's handler chain.  The Hemlock runtime installs its
    handler here; a program-provided handler installed earlier keeps
    running as the fallback, mirroring the paper's wrapped [signal]. *)
val install_segv_handler : t -> Proc.t -> name:string -> segv_handler -> unit

(** {1 Extension points} *)

(** [register_syscall t num f] installs an ISA syscall (num >=
    {!Sysno.first_extension}).  [f] reaches user memory only through
    {!syscall_load_u32} and {!syscall_store_u32} (and {!peek_u32} in a
    wake-up condition), which resolve pager and copy-on-write faults and
    deliver the rest.  An [Address_space.Fault] that escapes [f] kills
    the caller, with the fault as the reason: the pc is already past
    the trap, so there is nothing to resume or retry.  [f] ends the
    syscall by returning (results in registers), by {!block_syscall},
    or by raising {!Os_error}, which kills the caller. *)
val register_syscall : t -> int -> (t -> Proc.t -> Hemlock_isa.Cpu.t -> unit) -> unit

(** [block_syscall ?why cpu cond] aborts the current ISA syscall so that
    it retries once [cond] holds: rewinds the pc past the trap and
    raises the scheduler's internal blocking exception.  [why] labels
    the wait in deadlock reports.  For use by registered extension
    syscalls (e.g. ldl waiting on a file lock). *)
val block_syscall : ?why:string -> Hemlock_isa.Cpu.t -> (unit -> bool) -> 'a

(** A binfmt loader: given the raw image and its path, set up the
    process's address space and return the entry point.  Loaders are
    tried in registration order; a loader rejects by raising
    [Wrong_format], and one that recognises the format but finds the
    image corrupt raises {!Os_error} carrying [ENOEXEC]. *)
exception Wrong_format

val register_binfmt :
  t -> name:string -> (t -> Proc.t -> Bytes.t -> path:string -> int) -> unit

(** {1 Processes} *)

(** [spawn_native t ~name body] creates a runnable native process.  Its
    body runs under the scheduler's effect handler, so it may call the
    blocking kernel operations below.  An exception the body raises
    kills the process, except [Hemlock_util.Fault.Crash], which stops
    the machine: it escapes {!run} and {!step}. *)
val spawn_native :
  t ->
  ?name:string ->
  ?env:(string * string) list ->
  ?cwd:Hemlock_sfs.Path.t ->
  (t -> Proc.t -> int) ->
  Proc.t

(** Mark a process as a daemon: the scheduler is allowed to finish while
    it is still blocked (e.g. a server waiting for messages). *)
val set_daemon : t -> Proc.t -> unit

(** [exec t proc path] replaces the process image: fresh address space,
    image loaded by a registered binfmt, stack mapped, ISA body
    installed.  Environment and cwd survive, as in Unix.
    @raise Os_error ([ENOENT]/[ENOEXEC]) on a missing file, when no
    loader accepts the image, or when the image is corrupt. *)
val exec : t -> Proc.t -> string -> unit

(** [spawn_blank t ~name ()] creates a process that stays blocked until
    given a body — used by loaders that populate the address space
    themselves (e.g. the jump-table baseline linker). *)
val spawn_blank :
  t ->
  ?name:string ->
  ?env:(string * string) list ->
  ?cwd:Hemlock_sfs.Path.t ->
  unit ->
  Proc.t

(** [set_isa_entry t proc ~entry] maps a stack, installs an ISA body
    starting at [entry], and makes the process runnable. *)
val set_isa_entry : t -> Proc.t -> entry:int -> unit

(** [spawn_exec t ~name path] = spawn a fresh process + [exec]. *)
val spawn_exec :
  t ->
  ?name:string ->
  ?env:(string * string) list ->
  ?cwd:Hemlock_sfs.Path.t ->
  string ->
  Proc.t

(** [add_fork_hook t h] runs [h] after every fork, in registration
    order (registration itself is O(1)); the dynamic linker uses this
    to clone its per-process link state. *)
val add_fork_hook : t -> (parent:Proc.t -> child:Proc.t -> unit) -> unit

val find_proc : t -> int -> Proc.t option
val processes : t -> Proc.t list

(** Native blocking wait; returns (pid, exit code).  Reaping (here or
    through the ISA [wait]) is the one point where an exited process's
    state dies: it leaves the process table, the {!add_reap_hook} hooks
    run, and its address space is released
    ({!Hemlock_vm.Address_space.release}).  Until then a zombie's
    mappings stay inspectable.
    @raise Os_error ([ECHILD]) if the process has no children. *)
val waitpid : t -> Proc.t -> (int * int)

(** [add_reap_hook t h] runs [h zombie] whenever a zombie is reaped,
    after it has left the process table and before its address space
    is released, in registration order; the dynamic linker uses this to
    drop the process's link state. *)
val add_reap_hook : t -> (Proc.t -> unit) -> unit

(** {1 Scheduling} *)

(** Run until every process has exited (daemons may remain blocked).
    @raise Deadlock when non-daemon processes are blocked with no
    runnable process to unblock them; the payload names each stuck
    process and what it is waiting on.
    @param max_ticks safety valve against runaway programs. *)
val run : ?max_ticks:int -> t -> unit

(** One scheduler pass: wake blocked processes whose conditions hold and
    give every runnable process a quantum.  [`Progress] — something ran;
    [`Idle] — nothing runnable but non-daemon processes are blocked
    (they may be waiting on events another machine will deliver);
    [`Done] — only zombies and blocked daemons remain.  {!Cluster} uses
    this to interleave several machines. *)
val step : t -> [ `Progress | `Idle | `Done ]

(** Blocked non-daemon processes with their wait reasons — the would-be
    {!Deadlock} payload.  {!Cluster} aggregates these across machines. *)
val blocked_processes : t -> blocked list

(** Non-blocking network delivery onto a machine-local message queue,
    from outside any process context (no carrier process, no billing —
    the sender accounts the transfer on success).  [EAGAIN] when the
    queue is full: the caller keeps the message pending rather than
    dropping it. *)
val enqueue_net : t -> string -> Bytes.t -> (unit, Errno.t) result

(** {1 Checked user-memory access for native code}

    These retry through SIGSEGV delivery, so native workload code
    touching a shared pointer gets the same lazy-mapping behaviour as
    ISA loads and stores.  @raise Proc.Killed when unhandled. *)

val load_u8 : t -> Proc.t -> int -> int
val load_u32 : t -> Proc.t -> int -> int
val store_u8 : t -> Proc.t -> int -> int -> unit
val store_u32 : t -> Proc.t -> int -> int -> unit

(** Read a NUL-terminated user string.  A missing terminator within the
    64 KB bound raises {!Os_error} carrying [EFAULT] (the errno every
    ISA syscall string argument also answers with), never a bare
    failure. *)
val read_cstring : t -> Proc.t -> int -> string

(** {1 User memory from a registered syscall}

    The counterparts of {!load_u32}/{!store_u32} for the body of a
    {!register_syscall} syscall, given the trapping [cpu].  A pager or
    copy-on-write fault is resolved inside the kernel and the access
    retried; any other fault goes down the SIGSEGV chain.  On
    [Resolved] the access is retried (boundedly); on [Retry_when] the
    syscall is blocked for re-execution ({!block_syscall}, waiting on
    ["mapping 0x…"]), so everything it did before the access must be
    safe to do again; on [Unhandled] {!Os_error} ends the syscall and
    kills the caller.  Nothing is billed to [instructions]. *)

val syscall_load_u32 : t -> Proc.t -> Hemlock_isa.Cpu.t -> int -> int
val syscall_store_u32 : t -> Proc.t -> Hemlock_isa.Cpu.t -> int -> int -> unit

(** [peek_u32 proc addr] reads a user word for a wake-up condition
    (the [cond] of {!block_syscall} or [Proc.wait_until]): a pager fault
    is resolved (the page may be evicted while the process waits), and
    any other fault reads as [None], "not yet".  No SIGSEGV delivery,
    nothing billed. *)
val peek_u32 : Proc.t -> int -> int option

(** {1 The new kernel calls (§2-3)} *)

(** Global address of a shared file. *)
val sys_path_to_addr : t -> Proc.t -> string -> int

(** Path of the shared file containing a public address. *)
val sys_addr_to_path : t -> Proc.t -> int -> string

(** Map a shared file into the process at its global address; returns
    the base.  Idempotent when already mapped. *)
val map_shared_file : t -> Proc.t -> path:string -> prot:Hemlock_vm.Prot.t -> int

(** [map_shared_segment t proc ~base ~path ~seg ~prot] maps [seg], the
    [/shared] file [path] whose slot starts at [base], into [proc] as a
    file-backed public mapping, unless [proc] already maps something at
    [base]; returns whether it mapped.  It bills nothing:
    {!map_shared_file} bills its syscall around it, and ldl maps public
    modules through it unbilled. *)
val map_shared_segment :
  t -> Proc.t -> base:int -> path:string -> seg:Hemlock_vm.Segment.t ->
  prot:Hemlock_vm.Prot.t -> bool

(** {1 File descriptors}

    Descriptor numbers follow Unix: allocation picks the lowest free
    slot from {!Vfs.first_fd}, so close-then-open reuses the number, and
    a table past {!Vfs.max_fds} descriptors answers [EMFILE]. *)

type fd = int

(** [sys_open t proc ?create ?trunc path] opens a file; [create] makes
    it when missing, [trunc] resets its length (O_TRUNC).
    @raise Os_error ([ENOENT], [EISDIR], [EMFILE], …) on failure. *)
val sys_open : t -> Proc.t -> ?create:bool -> ?trunc:bool -> string -> fd

val sys_open_r :
  t -> Proc.t -> ?create:bool -> ?trunc:bool -> string -> (fd, Errno.t) result

(** [sys_open_by_addr] is the overloaded open: open a shared file by any
    address inside it. *)
val sys_open_by_addr : t -> Proc.t -> int -> fd

val sys_open_by_addr_r : t -> Proc.t -> int -> (fd, Errno.t) result

val sys_read : t -> Proc.t -> fd -> int -> Bytes.t
val sys_read_r : t -> Proc.t -> fd -> int -> (Bytes.t, Errno.t) result
val sys_write : t -> Proc.t -> fd -> Bytes.t -> int
val sys_write_r : t -> Proc.t -> fd -> Bytes.t -> (int, Errno.t) result

(** Absolute seek.  Returns the new offset (Unix semantics); negative
    positions are [EINVAL]. *)
val sys_lseek : t -> Proc.t -> fd -> int -> int

val sys_lseek_r : t -> Proc.t -> fd -> int -> (int, Errno.t) result

(** [EBADF] on double close. *)
val sys_close : t -> Proc.t -> fd -> unit

val sys_close_r : t -> Proc.t -> fd -> (unit, Errno.t) result

(** {1 File locks} (ldl uses these to serialise shared-segment creation) *)

val try_flock : t -> Proc.t -> string -> bool

(** Blocking acquire (native processes only). *)
val flock : t -> Proc.t -> string -> unit

val funlock : t -> Proc.t -> string -> unit

(** Holder pid of the lock on a path, if locked. *)
val flock_holder : t -> string -> int option

(** {1 Message queues} (the messaging baseline, and rwhod's network) *)

(** [msgq_create t name ~capacity] makes a queue; sends block when full,
    receives when empty (native processes only). *)
val msgq_create : t -> string -> capacity:int -> unit

val msgq_exists : t -> string -> bool
val msg_send : t -> Proc.t -> string -> Bytes.t -> unit
val msg_recv : t -> Proc.t -> string -> Bytes.t
val msg_try_recv : t -> Proc.t -> string -> Bytes.t option

(** {1 Protection-domain calls}

    The paper's §6 future work: "a protection-domain switching system
    call ... to support synchronous communication across protection
    boundaries".  A server registers a named entry point; a client's
    [pd_call] switches into the server's domain, runs the entry with an
    argument word, and switches back with the result — two domain
    switches, no kernel copying, no scheduler round trip.  Arguments
    larger than a word travel through shared segments. *)

(** [register_pd_service t ~name ~owner f] exports entry point [f] from
    the [owner] process's domain. *)
val register_pd_service : t -> name:string -> owner:Proc.t -> (t -> Proc.t -> int -> int) -> unit

(** [pd_call t proc ~service arg] — synchronous cross-domain call.  The
    handler runs in the {e server's} protection domain (its address
    space), with the caller suspended, and the result word comes back.
    @raise Os_error ([ENOENT]) for unknown services. *)
val pd_call : t -> Proc.t -> service:string -> int -> int

(** {1 Misc} *)

(** Monotonic scheduler tick counter. *)
val ticks : t -> int
