open Harness
module Reg = Hemlock_isa.Reg
module Insn = Hemlock_isa.Insn
module Cpu = Hemlock_isa.Cpu
module Trap = Hemlock_isa.Trap
module Trace = Hemlock_isa.Trace
module Disasm = Hemlock_isa.Disasm
module As = Hemlock_vm.Address_space
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module Stats = Hemlock_util.Stats

(* The trace JIT's contract is byte-identical execution: same registers,
   same memory, same trap sequence, same simulated cost model as the
   plain interpreter, for any program — including self-modifying code,
   undecodable words and quantum boundaries landing mid-trace.  The
   tests here run the same program under the interpreter (JIT off) and
   under an aggressive JIT (threshold 1, so everything compiles) in
   lockstep and compare everything observable. *)

let with_jit ~threshold:th f =
  let old_e = !Trace.enabled and old_t = !Trace.threshold in
  (match th with
  | Some t ->
    Trace.enabled := true;
    Trace.threshold := t
  | None -> Trace.enabled := false);
  Fun.protect
    ~finally:(fun () ->
      Trace.enabled := old_e;
      Trace.threshold := old_t)
    f

(* ----- ISA-level differential engine ----- *)

type engine_result = {
  er_events : string;  (* trap log: syscalls seen, halt, fault, illegal *)
  er_regs : int array;
  er_pc : int;
  er_text : string;  (* final code bytes: self-modifying stores land here *)
  er_data : string;
  er_instructions : int;
  er_syscalls : int;
  er_faults : int;
  er_cycles : int;
}

(* A tiny machine: text mapped RWX at 0x1000 (so programs can store
   over their own code), data at 0x8000, sp in the middle of data.  The
   driver mirrors the kernel's quantum loop: bursts of [quantum] fuel,
   syscalls resume the same burst (v1 := 2*v0+1 so results are
   data-dependent), faults and halts end the run, and a quanta cap
   bounds divergent programs — identical fuel accounting means both
   engines stop in identical states. *)
let run_engine ~quantum words =
  Stats.reset ();
  let sp = As.create () in
  let text = Segment.create ~name:"text" ~max_size:0x10000 () in
  List.iteri (fun i w -> Segment.set_u32 text (4 * i) w) words;
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:text ~prot:Prot.Read_write_exec
    ~share:As.Private ~label:"text" ();
  let data = Segment.create ~name:"data" ~max_size:0x10000 () in
  As.map sp ~base:0x8000 ~len:0x1000 ~seg:data ~prot:Prot.Read_write
    ~share:As.Private ~label:"data" ();
  let cpu = Cpu.create ~entry:0x1000 ~sp:0x8800 in
  let events = Buffer.create 64 in
  let rec quanta_loop quanta =
    if quanta = 0 then Buffer.add_string events "out-of-quanta"
    else
      let rec burst fuel =
        if fuel = 0 then `Again
        else
          match Cpu.run_trap ~fuel cpu sp with
          | Cpu.Out_of_fuel, _ -> `Again
          | Cpu.Trapped Trap.Syscall, left ->
            let v0 = Cpu.reg cpu Reg.v0 in
            Buffer.add_string events (Printf.sprintf "sys:%d;" v0);
            Cpu.set_reg cpu Reg.v1 ((2 * v0) + 1);
            burst left
          | Cpu.Trapped (Trap.Halt code), _ ->
            Buffer.add_string events (Printf.sprintf "halt:%d;" code);
            `Done
          | Cpu.Trapped (Trap.Fault f), _ ->
            Buffer.add_string events (Format.asprintf "%a;" Trap.pp_fault f);
            `Done
          | Cpu.Trapped (Trap.Illegal _ as tr), _ ->
            Buffer.add_string events (Format.asprintf "%a;" Trap.pp tr);
            `Done
          | exception Cpu.Cpu_error { pc; msg } ->
            Buffer.add_string events (Printf.sprintf "cpu-error:0x%08x:%s;" pc msg);
            `Done
      in
      match burst quantum with `Done -> () | `Again -> quanta_loop (quanta - 1)
  in
  quanta_loop 200;
  let s = Stats.snapshot () in
  {
    er_events = Buffer.contents events;
    er_regs = Array.copy cpu.Cpu.regs;
    er_pc = cpu.Cpu.pc;
    er_text = Bytes.to_string (Segment.contents text);
    er_data = Bytes.to_string (Segment.contents data);
    er_instructions = s.Stats.instructions;
    er_syscalls = s.Stats.syscalls;
    er_faults = s.Stats.faults;
    er_cycles = Stats.cycles s;
  }

let summarize r =
  Printf.sprintf "events=%s pc=0x%08x regs=[%s] insns=%d sys=%d faults=%d cycles=%d"
    r.er_events r.er_pc
    (String.concat ","
       (Array.to_list (Array.map (Printf.sprintf "%x") r.er_regs)))
    r.er_instructions r.er_syscalls r.er_faults r.er_cycles

let engines_agree ?(quantum = 17) words =
  let oracle = with_jit ~threshold:None (fun () -> run_engine ~quantum words) in
  let jitted = with_jit ~threshold:(Some 1) (fun () -> run_engine ~quantum words) in
  let warm = with_jit ~threshold:(Some 3) (fun () -> run_engine ~quantum words) in
  let agree a b =
    summarize a = summarize b && a.er_text = b.er_text && a.er_data = b.er_data
  in
  agree oracle jitted && agree oracle warm

let check_engines_agree ?(quantum = 17) name words =
  let oracle = with_jit ~threshold:None (fun () -> run_engine ~quantum words) in
  let jitted = with_jit ~threshold:(Some 1) (fun () -> run_engine ~quantum words) in
  check_string (name ^ ": summary") (summarize oracle) (summarize jitted);
  check_bool (name ^ ": text") true (oracle.er_text = jitted.er_text);
  check_bool (name ^ ": data") true (oracle.er_data = jitted.er_data)

(* ----- random programs ----- *)

(* Registers 0..9 (zero..t1) plus the pinned bases: t3 holds the text
   base for self-modifying stores, sp points into data.  Stored register
   values rarely decode, so code stores also exercise the
   illegal-instruction path differentially. *)
let gen_case =
  QCheck2.Gen.(
    let reg = int_range 0 9 in
    let insn =
      frequency
        [
          (3, map3 (fun a b c -> Insn.Add (a, b, c)) reg reg reg);
          (2, map3 (fun a b c -> Insn.Sub (a, b, c)) reg reg reg);
          (2, map3 (fun a b c -> Insn.Xor (a, b, c)) reg reg reg);
          (2, map3 (fun a b c -> Insn.Slt (a, b, c)) reg reg reg);
          (1, map3 (fun a b c -> Insn.Mul (a, b, c)) reg reg reg);
          (1, map3 (fun a b c -> Insn.Div (a, b, c)) reg reg reg);
          (1, map3 (fun a b c -> Insn.Rem (a, b, c)) reg reg reg);
          (4, map3 (fun a b i -> Insn.Addi (a, b, i)) reg reg (int_range (-100) 100));
          (2, map2 (fun a i -> Insn.Lui (a, i)) reg (int_range 0 0xFFFF));
          (3, map2 (fun r o -> Insn.Lw (r, Reg.sp, 4 * o)) reg (int_range (-64) 63));
          (3, map2 (fun r o -> Insn.Sw (r, Reg.sp, 4 * o)) reg (int_range (-64) 63));
          (2, map2 (fun r o -> Insn.Lb (r, Reg.sp, o)) reg (int_range (-256) 255));
          (2, map2 (fun r o -> Insn.Sb (r, Reg.sp, o)) reg (int_range (-256) 255));
          (* store into the program's own code page *)
          (2, map2 (fun r o -> Insn.Sw (r, Reg.t3, 4 * o)) reg (int_range 0 200));
          (* occasionally touch unmapped memory *)
          (1, map (fun r -> Insn.Lw (r, Reg.zero, 0)) reg);
          (3, map3 (fun a b o -> Insn.Beq (a, b, o)) reg reg (int_range (-10) 10));
          (3, map3 (fun a b o -> Insn.Bne (a, b, o)) reg reg (int_range (-10) 10));
          (1, map2 (fun a o -> Insn.Blez (a, o)) reg (int_range (-10) 10));
          (1, map2 (fun a o -> Insn.Bgtz (a, o)) reg (int_range (-10) 10));
          ( 2,
            map
              (fun t -> Insn.J (Insn.jump_field ~target:(0x1000 + (4 * t))))
              (int_range 0 100) );
          ( 1,
            map
              (fun t -> Insn.Jal (Insn.jump_field ~target:(0x1000 + (4 * t))))
              (int_range 0 100) );
          (1, return (Insn.Jr Reg.ra));
          (1, map2 (fun rd rs -> Insn.Jalr (rd, rs)) reg reg);
          (1, return Insn.Syscall);
          (1, return Insn.Break);
        ]
    in
    map2
      (fun body quantum ->
        let prologue =
          [
            Insn.Addi (Reg.t3, Reg.zero, 0x1000);
            Insn.Addi (Reg.ra, Reg.zero, 0x1000);
            Insn.Addi (Reg.t0, Reg.zero, 37);
            Insn.Addi (Reg.t1, Reg.zero, 11);
          ]
        in
        (List.map Insn.encode (prologue @ body), quantum))
      (list_size (int_range 10 60) insn)
      (int_range 1 60))

let print_case (words, quantum) =
  Printf.sprintf "quantum=%d\n%s" quantum
    (String.concat "\n"
       (List.mapi (fun i w -> Disasm.line ~pc:(0x1000 + (4 * i)) w) words))

let prop_differential =
  prop "jit: random programs match the interpreter exactly" ~count:150
    ~print:print_case gen_case (fun (words, quantum) ->
      engines_agree ~quantum words)

(* ----- directed self-modifying code ----- *)

(* Run an inner loop hot (its head compiles to a trace with a loop
   edge), then store 'addi t1, zero, 22' over the loop body and run the
   loop again.  The store guard must kick the trace out before the
   stale instruction can run, and the re-entry at the patched head must
   discard and recompile — observable as a [jit_invalidations] tick. *)
let self_modify_invalidates () =
  let patched = Insn.encode (Insn.Addi (Reg.t1, Reg.zero, 22)) in
  let words =
    List.map Insn.encode
      [
        Insn.Addi (Reg.t3, Reg.zero, 0x1000);
        Insn.Lui (Reg.t2, patched lsr 16);
        Insn.Ori (Reg.t2, Reg.t2, patched land 0xFFFF);
        Insn.Addi (Reg.a1, Reg.zero, 2);
        (* 0x1010 outer: *)
        Insn.Addi (Reg.t0, Reg.zero, 4);
        (* 0x1014 inner (patch target): *)
        Insn.Addi (Reg.t1, Reg.zero, 7);
        Insn.Addi (Reg.t0, Reg.t0, -1);
        Insn.Bgtz (Reg.t0, -3);
        Insn.Sw (Reg.t2, Reg.t3, 0x14);
        Insn.Addi (Reg.a1, Reg.a1, -1);
        Insn.Bgtz (Reg.a1, -7);
        Insn.Add (Reg.a0, Reg.t1, Reg.zero);
        Insn.Break;
      ]
  in
  check_engines_agree "self-modify" words;
  let r =
    with_jit ~threshold:(Some 1) (fun () ->
        let r = run_engine ~quantum:4000 words in
        check_bool "stores really invalidated a trace" true
          (Stats.global.Stats.jit_invalidations > 0);
        r)
  in
  (* the second outer round ran the patched instruction *)
  check_int "patched body executed" 22 r.er_regs.(Reg.t1);
  check_string "halted with patched value" "halt:22;" r.er_events

(* A divergent loop whose backward edge is a *conditional* branch to
   the entry — a mid-trace loop edge, not the fall-off-the-end tail.
   The taken edge must pass the same fuel gate as the tail edge: the
   compiled steps never check fuel, so an ungated re-entry would cycle
   inside a single [Cpu.run_trap] call forever and the driver's quanta
   cap could never fire.  Both engines must stop out-of-quanta in
   identical states. *)
let divergent_loop_terminates () =
  let words =
    List.map Insn.encode
      [
        Insn.Addi (Reg.t0, Reg.zero, 1);
        (* loop: *)
        Insn.Addi (Reg.t1, Reg.t1, 1);
        Insn.Bgtz (Reg.t0, -2);
        Insn.Break;
      ]
  in
  List.iter
    (fun quantum -> check_engines_agree ~quantum "divergent loop" words)
    [ 2; 7; 4000 ]

let quantum_boundaries () =
  (* A hot loop long enough that small quanta expire mid-trace. *)
  let words =
    List.map Insn.encode
      [
        Insn.Addi (Reg.t0, Reg.zero, 500);
        Insn.Addi (Reg.t1, Reg.zero, 0);
        (* loop: *)
        Insn.Add (Reg.t1, Reg.t1, Reg.t0);
        Insn.Addi (Reg.t0, Reg.t0, -1);
        Insn.Bne (Reg.t0, Reg.zero, -3);
        Insn.Add (Reg.a0, Reg.t1, Reg.zero);
        Insn.Break;
      ]
  in
  List.iter
    (fun quantum -> check_engines_agree ~quantum "quantum" words)
    [ 1; 2; 3; 7; 4000 ]

let counters_observe_jit () =
  let words =
    List.map Insn.encode
      [
        Insn.Addi (Reg.t0, Reg.zero, 200);
        Insn.Addi (Reg.t0, Reg.t0, -1);
        Insn.Bne (Reg.t0, Reg.zero, -2);
        Insn.Break;
      ]
  in
  with_jit ~threshold:(Some 1) (fun () ->
      ignore (run_engine ~quantum:4000 words);
      check_bool "compiles counted" true (Stats.global.Stats.jit_compiles > 0);
      check_bool "hits counted" true (Stats.global.Stats.jit_hits > 0));
  with_jit ~threshold:None (fun () ->
      ignore (run_engine ~quantum:4000 words);
      check_int "no compiles when disabled" 0 Stats.global.Stats.jit_compiles;
      check_int "no hits when disabled" 0 Stats.global.Stats.jit_hits)

(* ----- kernel-level: fork/COW and whole-machine equivalence ----- *)

let fork_cow_source =
  {|
extern int bump();
int main() {
  int pid;
  int i;
  int acc;
  acc = 0;
  pid = fork();
  i = 0;
  while (i < 200) { acc = acc + bump(); i = i + 1; }
  if (pid == 0) { print_int(acc); exit(0); }
  wait();
  print_int(acc);
  return 0;
}
|}

let run_fork_workload () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o"
    "int counter; int bump() { counter = counter + 1; return counter; }";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" fork_cow_source;
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/lib/counter.o", Sharing.Dynamic_public);
         ]
       "prog");
  Stats.reset ();
  let proc, out = run_program k "/home/t/prog" in
  check_int "exit" 0 (exit_code proc);
  let s = Stats.snapshot () in
  ( ( out,
      s.Stats.instructions,
      s.Stats.syscalls,
      s.Stats.faults,
      s.Stats.context_switches,
      Stats.cycles s ),
    s.Stats.jit_compiles )

(* Fork + COW under the JIT: the child's first post-fork writes break
   COW pages under compiled traces (the kernel resolves the write
   fault, the store retries); lazy linking flips page protections
   mid-run.  Console and the whole simulated cost model must not move,
   context switches included — quantum expiry lands on the same
   instruction either way.  At threshold 1 the compiler must really
   run: traces exist before the lazy linker patches the jump slots and
   before the fork breaks COW sharing. *)
let kernel_fork_cow_identical () =
  let base, _ = with_jit ~threshold:None run_fork_workload in
  let jit1, compiles1 = with_jit ~threshold:(Some 1) run_fork_workload in
  let jit50, _ = with_jit ~threshold:(Some 50) run_fork_workload in
  check_bool "threshold=1 compiles traces" true (compiles1 > 0);
  let check name (o_out, o_i, o_s, o_f, o_cs, o_cy) (j_out, j_i, j_s, j_f, j_cs, j_cy)
      =
    check_string (name ^ ": console") o_out j_out;
    check_int (name ^ ": instructions") o_i j_i;
    check_int (name ^ ": syscalls") o_s j_s;
    check_int (name ^ ": faults") o_f j_f;
    check_int (name ^ ": context switches") o_cs j_cs;
    check_int (name ^ ": cycles") o_cy j_cy
  in
  check "threshold=1" base jit1;
  check "threshold=50" base jit50

(* ----- illegal instruction trap (satellite: trap pipeline routing) ----- *)

let bad_word = 0xFC00_0000 (* opcode 63: undecodable *)

let illegal_insn_traps () =
  (* ISA level: an undecodable word is a trap, not a host exception; pc
     stays on the word, no fuel is consumed. *)
  let sp = As.create () in
  let text = Segment.create ~name:"text" ~max_size:0x10000 () in
  Segment.set_u32 text 0 (Insn.encode Insn.nop);
  Segment.set_u32 text 4 bad_word;
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:text ~prot:Prot.Read_exec
    ~share:As.Private ~label:"text" ();
  List.iter
    (fun th ->
      with_jit ~threshold:th (fun () ->
          let cpu = Cpu.create ~entry:0x1000 ~sp:0 in
          match Cpu.run_trap ~fuel:10 cpu sp with
          | Cpu.Trapped (Trap.Illegal { ill_pc; ill_word }), left ->
            check_int "pc in trap" 0x1004 ill_pc;
            check_int "word in trap" bad_word ill_word;
            check_int "pc unmoved" 0x1004 cpu.Cpu.pc;
            (* the nop consumed one unit; the illegal word none *)
            check_int "no fuel consumed" 9 left
          | _ -> Alcotest.fail "expected an illegal-instruction trap"))
    [ None; Some 1; Some 50 ]

let illegal_insn_kills_process_not_host () =
  let k, _ldl = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  (* a decodable prologue, then a word no decoder accepts *)
  install_s k "/home/t/bad.o"
    ("        .text\n        .globl main\nmain:\n        li $t0, 1\n"
   ^ Printf.sprintf "        .word 0x%08x\n" bad_word
   ^ "        li $v0, 1\n        syscall\n");
  ignore (link k ~dir:"/home/t" ~specs:[ ("bad.o", Sharing.Static_private) ] "prog");
  let proc, _out = run_program k "/home/t/prog" in
  check_int "process killed" (-1) (exit_code proc);
  check_bool "console names the trap" true
    (contains (Kernel.console k) "illegal instruction");
  check_bool "console names the word" true
    (contains (Kernel.console k) (Printf.sprintf "0x%08x" bad_word));
  (* the host survived: the same kernel keeps running programs *)
  let out = run_c_program (k, _ldl) "int main() { print_int(41); return 0; }" in
  check_string "host alive afterwards" "41" out

let suite =
  [
    prop_differential;
    test "jit: self-modifying store invalidates the trace" self_modify_invalidates;
    test "jit: quantum expiry lands on identical boundaries" quantum_boundaries;
    test "jit: divergent conditional loop still yields the quantum"
      divergent_loop_terminates;
    test "jit: counters observe compiles and hits" counters_observe_jit;
    test "jit: fork/COW workload identical with JIT on and off"
      kernel_fork_cow_identical;
    test "trap: illegal instruction is a trap, not a host error" illegal_insn_traps;
    test "trap: illegal instruction kills the process, not the host"
      illegal_insn_kills_process_not_host;
  ]
