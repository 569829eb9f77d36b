(** Trace JIT: hot basic-block heads are compiled into chains of OCaml
    closures (threaded code), removing fetch/decode/dispatch from hot
    paths entirely.

    {!Cpu.run_trap} calls {!enter} at every {e anchored} pc — a burst
    start or the successor of any taken branch.  Each head is counted;
    at {!threshold} entries the straight-line run starting there is
    compiled into a superblock (J followed, JAL inlined, a [jr]
    predicted as the return of an inlined call, the target of a
    [lui]/[ori] veneer or the register's value at compile time, a JALR
    ending the trace, conditional branches compiled as side-exit
    guards) and subsequent entries run the closure chain instead of
    the interpreter.  A trace that runs the quantum dry leaves a resume
    token, and the next quantum's {!enter} at the stop pc continues the
    trace there.

    Coherence: compiled code words are pinned under
    [(As.epoch, Segment.version)], degrading to word verification when
    a version moved, and every store executed inside a trace re-checks
    the trace's own code dependencies so self-modifying code can never
    run one stale instruction.  Simulated
    costs (instruction ticks, fuel, syscall/halt/fault accounting) are
    bit-identical to the interpreter; only the [jit_*] observability
    counters in {!Hemlock_util.Stats} differ.

    With {!Hemlock_util.Config.t.jit} off, {!Cpu.run_trap} never calls
    {!enter} and the plain interpreter runs byte-for-byte. *)

(** The compile threshold: [HEMLOCK_JIT_THRESHOLD] if set, else 50. *)
val threshold : int ref

(** Per-CPU JIT state: head counters, compiled traces, and the resume
    context traces write their exit pc/fuel into.  Created by
    {!Cpu.create}/{!Cpu.fork} over the CPU's own register array. *)
type state

(** [make regs] — fresh state whose compiled traces read and write
    [regs] directly. *)
val make : int array -> state

(** How a trace run left the closure chain.  The carried [int] is the
    fuel remaining; the resume pc is read with {!resume_pc}.

    - [X_side]: a guard took an uncompiled direction, the trace's
      straight-line run ended, or the fuel ran out — resume
      interpreting (or enter another trace) at {!resume_pc};
    - [X_halt (code, fuel)]: BREAK, exactly like the interpreter's
      [Trapped (Halt code)];
    - [X_syscall fuel]: SYSCALL billed and pc advanced past it, exactly
      like the interpreter's [Trapped Syscall].

    A trace entered with less fuel than its static length, or looping
    with less than a full pass left, runs an unfused twin chain that
    checks fuel before every instruction, so expiry lands on the
    interpreter's exact instruction boundary.  That stop is an [X_side
    0] that does not count as a [jit_exits] side exit; it leaves a
    one-shot resume token, which the next {!enter} uses only at the
    stop pc and only if the trace still validates. *)
type exit = X_side of int | X_halt of int * int | X_syscall of int

type outcome =
  | Missed  (** head below threshold or not compilable: interpret *)
  | Ran of exit  (** a compiled trace ran; pc is in the resume context *)

(** Arithmetic traps (division/remainder by zero) raised out of a
    compiled trace; {!Cpu.run_trap} converts them to [Cpu_error] with
    identical payload to the interpreter's. *)
exception Error of { e_pc : int; e_msg : string }

(** [enter st space pc fuel] — resume a stopped trace at [pc], or
    count, maybe compile, maybe run the trace headed at [pc].  May
    raise [As.Fault] (from a load/store, with the resume context set to
    the faulting instruction and its remaining fuel) or {!Error}. *)
val enter : state -> Hemlock_vm.Address_space.t -> int -> int -> outcome

(** Resume pc after an exit or fault: always the next instruction the
    interpreter would execute (for [X_halt] the BREAK itself, for
    [X_syscall] the instruction after the SYSCALL, for a fault the
    faulting instruction). *)
val resume_pc : state -> int

(** Fuel remaining at the faulting instruction (meaningful only after a
    fault raised out of {!enter}): the fault consumed no fuel, so this
    is the value the interpreter's loop would report. *)
val resume_fuel : state -> int
