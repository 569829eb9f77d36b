module As = Hemlock_vm.Address_space
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats
module Config = Hemlock_util.Config

type t = {
  regs : int array;
  mutable pc : int;
  jit : Trace.state;
}

type status = Running | Halted of int | Syscall

type run_result = Out_of_fuel | Trapped of Trap.t

exception Cpu_error of { pc : int; msg : string }

exception Illegal_insn of { ill_pc : int; ill_word : int }

let create ~entry ~sp =
  let regs = Array.make 32 0 in
  regs.(Reg.sp) <- sp;
  { regs; pc = entry; jit = Trace.make regs }

let fork t =
  let regs = Array.copy t.regs in
  { regs; pc = t.pc; jit = Trace.make regs }

(* Register indices come from 5-bit decode fields, so the 32-element
   array can skip bounds checks on the interpreter's hottest loads. *)
let reg t r = Array.unsafe_get t.regs r

let set_reg t r v = if r <> 0 then Array.unsafe_set t.regs r (Codec.mask32 v)

let signed t r = Codec.sext32 (Array.unsafe_get t.regs r)

let error t msg = raise (Cpu_error { pc = t.pc; msg })

(* Every fetch goes through the address space, so an unmapped or
   no-access page faults here, before anything is billed.  Each decode
   counts in [decode_hits], which the kernel never rolls back: with the
   JIT on, that is every instruction no compiled trace ran. *)
let step t space =
  let pc = t.pc in
  let word = As.fetch space pc in
  let insn =
    match Insn.decode word with
    | insn -> insn
    | exception Failure _ -> raise (Illegal_insn { ill_pc = pc; ill_word = word })
  in
  let s = Stats.cur () in
  s.instructions <- s.instructions + 1;
  s.decode_hits <- s.decode_hits + 1;
  let next = pc + 4 in
  (* Single-dispatch: every arm finishes the instruction itself, so the
     interpreter pays one tag switch per step. *)
  match insn with
  | Insn.Break -> Halted (Codec.sext32 (Array.unsafe_get t.regs Reg.a0))
  | Insn.Syscall ->
    t.pc <- next;
    s.syscalls <- s.syscalls + 1;
    Syscall
  | Insn.Sll (rd, rt, sh) ->
    set_reg t rd ((Array.unsafe_get t.regs rt) lsl sh);
    t.pc <- next;
    Running
  | Insn.Srl (rd, rt, sh) ->
    set_reg t rd ((Array.unsafe_get t.regs rt) lsr sh);
    t.pc <- next;
    Running
  | Insn.Sra (rd, rt, sh) ->
    set_reg t rd (Codec.sext32 (Array.unsafe_get t.regs rt) asr sh);
    t.pc <- next;
    Running
  | Insn.Add (rd, rs, rt) ->
    set_reg t rd ((Array.unsafe_get t.regs rs) + (Array.unsafe_get t.regs rt));
    t.pc <- next;
    Running
  | Insn.Sub (rd, rs, rt) ->
    set_reg t rd ((Array.unsafe_get t.regs rs) - (Array.unsafe_get t.regs rt));
    t.pc <- next;
    Running
  | Insn.Mul (rd, rs, rt) ->
    set_reg t rd (signed t rs * signed t rt);
    t.pc <- next;
    Running
  | Insn.Div (rd, rs, rt) ->
    if (Array.unsafe_get t.regs rt) = 0 then error t "division by zero";
    set_reg t rd (signed t rs / signed t rt);
    t.pc <- next;
    Running
  | Insn.Rem (rd, rs, rt) ->
    if (Array.unsafe_get t.regs rt) = 0 then error t "remainder by zero";
    set_reg t rd (signed t rs mod signed t rt);
    t.pc <- next;
    Running
  | Insn.And (rd, rs, rt) ->
    set_reg t rd ((Array.unsafe_get t.regs rs) land (Array.unsafe_get t.regs rt));
    t.pc <- next;
    Running
  | Insn.Or (rd, rs, rt) ->
    set_reg t rd ((Array.unsafe_get t.regs rs) lor (Array.unsafe_get t.regs rt));
    t.pc <- next;
    Running
  | Insn.Xor (rd, rs, rt) ->
    set_reg t rd ((Array.unsafe_get t.regs rs) lxor (Array.unsafe_get t.regs rt));
    t.pc <- next;
    Running
  | Insn.Slt (rd, rs, rt) ->
    set_reg t rd (if signed t rs < signed t rt then 1 else 0);
    t.pc <- next;
    Running
  | Insn.Sltu (rd, rs, rt) ->
    set_reg t rd (if (Array.unsafe_get t.regs rs) < (Array.unsafe_get t.regs rt) then 1 else 0);
    t.pc <- next;
    Running
  | Insn.Addi (rt, rs, imm) ->
    set_reg t rt ((Array.unsafe_get t.regs rs) + imm);
    t.pc <- next;
    Running
  | Insn.Slti (rt, rs, imm) ->
    set_reg t rt (if signed t rs < imm then 1 else 0);
    t.pc <- next;
    Running
  | Insn.Andi (rt, rs, imm) ->
    set_reg t rt ((Array.unsafe_get t.regs rs) land imm);
    t.pc <- next;
    Running
  | Insn.Ori (rt, rs, imm) ->
    set_reg t rt ((Array.unsafe_get t.regs rs) lor imm);
    t.pc <- next;
    Running
  | Insn.Xori (rt, rs, imm) ->
    set_reg t rt ((Array.unsafe_get t.regs rs) lxor imm);
    t.pc <- next;
    Running
  | Insn.Lui (rt, imm) ->
    set_reg t rt (imm lsl 16);
    t.pc <- next;
    Running
  | Insn.Lw (rt, base, off) ->
    set_reg t rt (As.load_u32 space (Codec.mask32 ((Array.unsafe_get t.regs base) + off)));
    t.pc <- next;
    Running
  | Insn.Lb (rt, base, off) ->
    set_reg t rt (As.load_u8 space (Codec.mask32 ((Array.unsafe_get t.regs base) + off)));
    t.pc <- next;
    Running
  | Insn.Sw (rt, base, off) ->
    As.store_u32 space (Codec.mask32 ((Array.unsafe_get t.regs base) + off))
      (Array.unsafe_get t.regs rt);
    t.pc <- next;
    Running
  | Insn.Sb (rt, base, off) ->
    As.store_u8 space
      (Codec.mask32 ((Array.unsafe_get t.regs base) + off))
      ((Array.unsafe_get t.regs rt) land 0xFF);
    t.pc <- next;
    Running
  | Insn.Beq (rs, rt, off) ->
    t.pc <- (if (Array.unsafe_get t.regs rs) = (Array.unsafe_get t.regs rt) then next + (off * 4) else next);
    Running
  | Insn.Bne (rs, rt, off) ->
    t.pc <- (if (Array.unsafe_get t.regs rs) <> (Array.unsafe_get t.regs rt) then next + (off * 4) else next);
    Running
  | Insn.Blez (rs, off) ->
    t.pc <- (if signed t rs <= 0 then next + (off * 4) else next);
    Running
  | Insn.Bgtz (rs, off) ->
    t.pc <- (if signed t rs > 0 then next + (off * 4) else next);
    Running
  | Insn.J field ->
    t.pc <- Insn.jump_target ~pc field;
    Running
  | Insn.Jal field ->
    set_reg t Reg.ra next;
    t.pc <- Insn.jump_target ~pc field;
    Running
  | Insn.Jr rs ->
    t.pc <- Array.unsafe_get t.regs rs;
    Running
  | Insn.Jalr (rd, rs) ->
    let target = Array.unsafe_get t.regs rs in
    set_reg t rd next;
    t.pc <- target;
    Running

(* --- trap-returning execution ----------------------------------------

   [run_trap] drives [step] and reifies every exit from user mode as a
   [Trap.t] instead of spreading them over a status value and two
   exceptions.  A SYSCALL pays its one instruction of fuel and bumps the
   syscall counter inside [step]; a fault consumes no fuel (the
   instruction did not complete and will restart). *)

(* One loop serves both configurations.  With the trace JIT enabled it
   also offers every {e anchored} pc — a burst start, or the successor
   of any step that was not a straight fall-through — to
   {!Trace.enter}; with it disabled every step is interpreted.  A
   compiled trace threads the remaining fuel through its closure chain
   and reports how it left; every exit re-anchors (trace tails are
   branch targets by construction).  A trace that runs the fuel dry
   stops on the interpreter's exact boundary and leaves a resume token,
   so the burst start of the next quantum — anchored like every burst
   start — continues in compiled code part-way through the trace.  The
   accounting mirrors the interpreter case-for-case: fuel-out at an
   instruction boundary, syscall/halt with one instruction billed,
   faults with the instruction billed but no fuel consumed and the pc
   on the faulting instruction. *)
let run_trap ~fuel t space =
  let st = t.jit in
  let rec go n anchored =
    if n = 0 then (Out_of_fuel, 0)
    else if not (anchored && Config.current.jit) then interp n
    else
      match Trace.enter st space t.pc n with
      | Trace.Missed -> interp n
      | Trace.Ran (Trace.X_side n') ->
        t.pc <- Trace.resume_pc st;
        go n' true
      | Trace.Ran (Trace.X_halt (code, n')) ->
        t.pc <- Trace.resume_pc st;
        (Trapped (Trap.Halt code), n')
      | Trace.Ran (Trace.X_syscall n') ->
        t.pc <- Trace.resume_pc st;
        (Trapped Trap.Syscall, n')
      | exception As.Fault { addr; access; reason } ->
        t.pc <- Trace.resume_pc st;
        ( Trapped
            (Trap.Fault { f_addr = addr; f_access = access; f_reason = reason }),
          Trace.resume_fuel st )
      | exception Trace.Error { e_pc; e_msg } ->
        t.pc <- e_pc;
        raise (Cpu_error { pc = e_pc; msg = e_msg })
  and interp n =
    let pc0 = t.pc in
    match step t space with
    | Running -> go (n - 1) (t.pc <> pc0 + 4)
    | Halted code -> (Trapped (Trap.Halt code), n - 1)
    | Syscall -> (Trapped Trap.Syscall, n - 1)
    | exception Illegal_insn { ill_pc; ill_word } ->
      (Trapped (Trap.Illegal { ill_pc; ill_word }), n)
    | exception As.Fault { addr; access; reason } ->
      ( Trapped
          (Trap.Fault { f_addr = addr; f_access = access; f_reason = reason }),
        n )
  in
  go fuel true

let pp ppf t =
  Format.fprintf ppf "@[<v>pc = 0x%08x@," t.pc;
  for i = 0 to 31 do
    if t.regs.(i) <> 0 then
      Format.fprintf ppf "%-5s = 0x%08x@," (Reg.name i) t.regs.(i)
  done;
  Format.fprintf ppf "@]"
