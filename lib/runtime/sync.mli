(** Synchronisation on shared memory (§5 "Synchronization").

    Two layers, as the paper sketches: user-space spin locks (with a
    yield when contended, the "relinquish the processor when a lock is
    unavailable" policy of Karlin et al.), and kernel-supported lock
    syscalls for ISA programs.  A lock is one word of shared memory
    holding 0 (free) or the owner's pid. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc

(** {1 Native user-space spin locks} *)

(** [spin_init k proc addr] initialises the lock word. *)
val spin_init : Kernel.t -> Proc.t -> int -> unit

(** [spin_acquire k proc addr] spins (yielding each failed attempt)
    until it owns the lock. *)
val spin_acquire : Kernel.t -> Proc.t -> int -> unit

val spin_try_acquire : Kernel.t -> Proc.t -> int -> bool
val spin_release : Kernel.t -> Proc.t -> int -> unit

(** {1 Kernel lock syscalls for ISA programs}

    [install k] registers two syscalls (returning their numbers is not
    needed — use {!lock_sysno} / {!unlock_sysno}): acquire blocks the
    caller until the word at $a0 is free, then writes its pid; release
    reads the word, then clears it.  Both return 0.  They reach the word
    through {!Kernel.syscall_load_u32} and {!Kernel.syscall_store_u32},
    so the word may sit in a not-yet-mapped shared segment, on an
    evicted page, or on a page a forked child still shares
    copy-on-write (the caller writes its own copy, as any store would).
    A blocked acquire wakes when {!Kernel.peek_u32} reads the word as
    0.  Hem-C programs reach them through [lock_acquire(&word)] /
    [lock_release(&word)] wrappers emitted as plain syscalls. *)

val lock_sysno : int
val unlock_sysno : int
val install : Kernel.t -> unit

(** {1 Counting semaphore (native)} — a word holding the count. *)

val sem_init : Kernel.t -> Proc.t -> int -> int -> unit
val sem_post : Kernel.t -> Proc.t -> int -> unit

(** Blocks until the count is positive (polled through
    {!Kernel.peek_u32}), then decrements. *)
val sem_wait : Kernel.t -> Proc.t -> int -> unit
