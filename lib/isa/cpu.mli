(** The interpreter.  Every fetch, load and store goes through a
    {!Hemlock_vm.Address_space.t}, so touching an unmapped or protected
    address raises {!Hemlock_vm.Address_space.Fault} {e out of}
    {!step} with the pc still pointing at the faulting instruction —
    after the kernel runs the process's SIGSEGV handler the instruction
    restarts, exactly the behaviour Hemlock's lazy linker relies on. *)

type t = {
  regs : int array;
  mutable pc : int;
  jit : Trace.state;  (** per-CPU trace-JIT state (see {!Trace}) *)
}

type status =
  | Running
  | Halted of int  (** exit code *)
  | Syscall
      (** a SYSCALL trap: the pc is already past the instruction, so a
          handler that blocks and later resumes continues after the
          trap, and [syscalls] is billed; the handler reads and writes
          the registers itself *)

(** Arithmetic traps (division/remainder by zero). *)
exception Cpu_error of { pc : int; msg : string }

(** A fetched word that does not decode.  {!run_trap} converts it to
    {!Trap.Illegal} so the kernel can kill the process like a SIGILL;
    through {!step} it propagates to the caller. *)
exception Illegal_insn of { ill_pc : int; ill_word : int }

val create : entry:int -> sp:int -> t

(** [fork t] copies registers and pc; the child's trace JIT starts
    with no compiled traces. *)
val fork : t -> t

val reg : t -> Reg.t -> int

(** Writes to register 0 are discarded; values are masked to 32 bits. *)
val set_reg : t -> Reg.t -> int -> unit

(** Execute one instruction, with the plain interpreter.  May raise
    [Address_space.Fault] (pc unmoved), [Illegal_insn] or [Cpu_error]. *)
val step : t -> Hemlock_vm.Address_space.t -> status

(** Result of a {!run_trap} burst: the quantum's fuel ran dry, or the
    program trapped (syscall, fault, or halt — see {!Trap.t}). *)
type run_result = Out_of_fuel | Trapped of Trap.t

(** [run_trap ~fuel t as_] steps until the program traps or the fuel
    runs out, returning the trap (if any) and the fuel remaining, so the
    kernel can dispatch the trap and resume the same quantum: a SYSCALL
    returns [Trapped Syscall] with the pc past the instruction and one
    unit of fuel consumed, a memory fault returns [Trapped (Fault _)]
    with the pc unmoved and no fuel consumed, BREAK returns
    [Trapped (Halt code)], an undecodable word returns
    [Trapped (Illegal _)] with the pc unmoved and no fuel consumed.
    Arithmetic traps still raise [Cpu_error].

    When the trace JIT is on ({!Hemlock_util.Config.t.jit}) hot paths run
    as compiled closure chains; execution, traps and simulated costs
    are bit-identical to the plain interpreter either way. *)
val run_trap :
  fuel:int -> t -> Hemlock_vm.Address_space.t -> run_result * int

val pp : Format.formatter -> t -> unit
