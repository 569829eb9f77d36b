open Harness
module Reg = Hemlock_isa.Reg
module Insn = Hemlock_isa.Insn
module Cpu = Hemlock_isa.Cpu
module Trap = Hemlock_isa.Trap
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
   lockstep and compare everything observable.  Kernel workloads under
   the JIT run through test_oracle's harness. *)

let with_jit ~threshold = Test_oracle.under ?threshold { Config.current with jit = threshold <> None }

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
  er_decode_hits : int;  (* instructions the interpreter decoded *)
}

(* A tiny machine: text mapped RWX at 0x1000 (so programs can store
   over their own code), data at 0x8000, sp in the middle of data.  The
   driver mirrors the kernel's quantum loop: bursts of [quantum] fuel,
   syscalls resume the same burst (v1 := 2*v0+1 so results are
   data-dependent), faults and halts end the run, and a quanta cap
   bounds divergent programs — identical fuel accounting means both
   engines stop in identical states.  [between n cpu space text] runs
   after the [n]th quantum that ran dry, before the next one starts,
   so a test can change code or mappings exactly where it stopped. *)
let run_engine ?(between = fun _ _ _ _ -> ()) ~quantum words =
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
  let rec quanta_loop n =
    if n > 200 then Buffer.add_string events "out-of-quanta"
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
      match burst quantum with
      | `Done -> ()
      | `Again ->
        between n cpu sp text;
        quanta_loop (n + 1)
  in
  quanta_loop 1;
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
    er_decode_hits = s.Stats.decode_hits;
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
   illegal-instruction path differentially.  A code store hits a word of
   the program, often one just past itself that the same trace runs
   next, so a compiled store that skips its code guard lets a stale
   instruction run. *)
let gen_case =
  QCheck2.Gen.(
    let reg = int_range 0 9 in
    let prologue =
      [
        Insn.Addi (Reg.t3, Reg.zero, 0x1000);
        Insn.Addi (Reg.ra, Reg.zero, 0x1000);
        Insn.Addi (Reg.t0, Reg.zero, 37);
        Insn.Addi (Reg.t1, Reg.zero, 11);
      ]
    in
    (* the instruction at word [i] of a [len]-word program *)
    let insn ~len i =
      let code_word = oneof [ int_range 0 (len - 1); int_range (i + 1) (i + 3) ] in
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
          (* store into the program's own code *)
          (2, map2 (fun r w -> Insn.Sw (r, Reg.t3, 4 * w)) reg code_word);
          (2, map3 (fun r w b -> Insn.Sb (r, Reg.t3, (4 * w) + b)) reg code_word (int_range 0 3));
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
    let* n = int_range 10 60 in
    let first = List.length prologue in
    map2
      (fun body quantum -> (List.map Insn.encode (prologue @ body), quantum))
      (flatten_l (List.init n (fun j -> insn ~len:(first + n) (first + j))))
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
   fused steps never check fuel, so a re-entry that skipped the gate's
   switch to the fuel-checked twin would cycle inside a single
   [Cpu.run_trap] call forever and the engine's quanta cap could never
   fire.  Both engines must stop out-of-quanta in identical states. *)
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

(* A hot loop with a 5-instruction body: quanta of 7, 13 and 17 run
   dry part-way through its trace, so each leaves a resume token. *)
let resume_loop =
  List.map Insn.encode
    [
      Insn.Addi (Reg.t0, Reg.zero, 100);
      Insn.Addi (Reg.t1, Reg.zero, 0);
      (* 0x1008 loop: *)
      Insn.Add (Reg.t1, Reg.t1, Reg.t0);
      Insn.Addi (Reg.t2, Reg.t2, 3);
      Insn.Sub (Reg.a1, Reg.a1, Reg.t0);
      Insn.Addi (Reg.t0, Reg.t0, -1);
      Insn.Bne (Reg.t0, Reg.zero, -5);
      Insn.Add (Reg.a0, Reg.t1, Reg.zero);
      Insn.Break;
    ]

let resume_quanta = [ 7; 13; 17 ]

(* The same layout over data: each iteration stores t0's low byte at
   sp, counts t0 down and adds the word at sp to a1, so the load's
   inline cache holds the data page and a stale one reads an old sum.
   With quanta of 7, 13 and 17, [resume_invalidated]'s change lands
   between the store and the load, so the resumed run loads first. *)
let load_loop =
  List.map Insn.encode
    [
      Insn.Addi (Reg.t0, Reg.zero, 100);
      Insn.Sw (Reg.t0, Reg.sp, 0);
      (* 0x1008 loop: *)
      Insn.Sb (Reg.t0, Reg.sp, 0);
      Insn.Addi (Reg.t0, Reg.t0, -1);
      Insn.Lw (Reg.t2, Reg.sp, 0);
      Insn.Add (Reg.a1, Reg.a1, Reg.t2);
      Insn.Bne (Reg.t0, Reg.zero, -5);
      Insn.Add (Reg.a0, Reg.a1, Reg.zero);
      Insn.Break;
    ]

(* At threshold 1 every quantum of the loop resumes in compiled code:
   the prologue's trace and the loop's trace run every instruction. *)
let resume_in_compiled_code () =
  List.iter
    (fun quantum ->
      check_engines_agree ~quantum "resume" resume_loop;
      let r = with_jit ~threshold:(Some 1) (fun () -> run_engine ~quantum resume_loop) in
      check_int
        (Printf.sprintf "quantum %d: nothing interpreted" quantum)
        0 r.er_decode_hits)
    resume_quanta

(* Once the loop is hot, the first quantum that stops inside its body
   is followed by a change a resume token must not survive: the JIT at
   thresholds 1 and 3 must match the interpreter, which runs what is
   there now.  A resume that skipped validation would run the old
   instruction at the stop pc. *)
let resume_invalidated ?(words = resume_loop) name change () =
  let hook () =
    let fired = ref false in
    fun n cpu sp text ->
      let pc = cpu.Cpu.pc in
      if (not !fired) && n >= 6 && pc > 0x1008 && pc <= 0x1018 then begin
        fired := true;
        change pc sp text
      end
  in
  List.iter
    (fun quantum ->
      let run threshold =
        with_jit ~threshold (fun () -> run_engine ~between:(hook ()) ~quantum words)
      in
      let oracle = run None in
      List.iter
        (fun th ->
          let r = run (Some th) in
          let what = Printf.sprintf "%s, quantum %d, threshold %d" name quantum th in
          check_string what (summarize oracle) (summarize r);
          check_bool (what ^ ": text") true (oracle.er_text = r.er_text))
        [ 1; 3 ])
    resume_quanta

let patch_stop_word pc _ text =
  Segment.set_u32 text (pc - 0x1000) (Insn.encode (Insn.Addi (Reg.t2, Reg.t2, 100)))

let protect_text _ sp _ = As.protect sp 0x1000 Prot.No_access

let remap_text pc sp text =
  let other = Segment.create ~name:"other text" ~max_size:0x10000 () in
  Segment.blit_in other ~dst_off:0 (Segment.contents text);
  Segment.set_u32 other (pc - 0x1000) (Insn.encode (Insn.Addi (Reg.t2, Reg.t2, 100)));
  As.unmap sp 0x1000;
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:other ~prot:Prot.Read_write_exec ~share:As.Private
    ~label:"text" ()

(* New mappings move the epoch: a load cache must not read the old page. *)
let remap_data _ sp _ =
  let other = Segment.create ~name:"other data" ~max_size:0x10000 () in
  Segment.set_u32 other 0x800 1000;
  As.unmap sp 0x8000;
  As.map sp ~base:0x8000 ~len:0x1000 ~seg:other ~prot:Prot.Read_write ~share:As.Private
    ~label:"data" ()

(* The page is shared out, then written through its own segment: the
   segment maps a copy and the epoch stands still, so only the page
   generation tells the load cache. *)
let copy_data_page _ sp _ =
  match As.mapping_at sp 0x8000 with
  | Some (_, _, m) ->
    ignore (Segment.copy m.As.seg);
    Segment.set_u32 m.As.seg 0x800 1000
  | None -> assert false

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

(* ----- throughput floors ----- *)

(* On test_oracle's cross-module loop the JIT runs at least 10x as fast
   as the interpreter with no caches and 3x as fast as the TLB-only
   interpreter, and all three bill the same simulated costs.  One world
   per configuration; the switches are set while it is built and around
   every run, since an exec's address space captures the TLB flag when
   it is created.  Each round runs every configuration once, in an order
   that rotates from round to round, and each configuration's fastest
   round counts, which one preempted run cannot move. *)
let jit_throughput_floors () =
  let configs = [| (false, false); (true, false); (true, true) |] in
  let world (tlb, jit) =
    let under f = Config.with_ { Config.current with tlb; jit } f in
    let k, ldl =
      under (fun () ->
          Test_oracle.program ~libs:Test_oracle.loop_libs (Test_oracle.loop_src 4000) [] ignore)
    in
    fun () ->
      let st = under (fun () -> Test_oracle.exec k ldl "run" "/home/t/prog") in
      check_int "exit" 42 st.Test_oracle.code;
      Option.get st.Test_oracle.bill
  in
  let runs = Array.map world configs in
  (* the first run of each warms up and bills the costs compared *)
  let bill d =
    [ ("instructions", d.Stats.instructions); ("faults", d.Stats.faults);
      ("syscalls", d.Stats.syscalls); ("context_switches", d.Stats.context_switches);
      ("cycles", Stats.cycles d) ]
  in
  let bills = Array.map (fun run -> bill (run ())) runs in
  Array.iter (Alcotest.(check (list (pair string int))) "same bill" bills.(0)) bills;
  let best = Array.make 3 infinity in
  for round = 0 to 4 do
    for j = 0 to 2 do
      let c = (round + j) mod 3 in
      let t0 = Unix.gettimeofday () in
      ignore (runs.(c) ());
      best.(c) <- Float.min best.(c) (Unix.gettimeofday () -. t0)
    done
  done;
  let over c = best.(c) /. best.(2) in
  Printf.printf "JIT over no caches %.2fx, over the TLB-only interpreter %.2fx\n" (over 0)
    (over 1);
  check_bool (Printf.sprintf "JIT %.2fx over no caches, floor 10x" (over 0)) true (over 0 >= 10.0);
  check_bool (Printf.sprintf "JIT %.2fx over TLB only, floor 3x" (over 1)) true (over 1 >= 3.0)

(* ----- trace selection ----- *)

(* test_oracle's cross-module loop reaches each library through a
   linker veneer ([lui at; ori at; jr at]) and returns with [jr ra], the
   two indirect jumps selection predicts, so the first head to warm up
   (inc_a's entry) compiles one trace that runs whole iterations and
   side exits only when the loop ends.  Each exec gets a fresh address
   space, so it compiles afresh. *)
let one_trace_per_loop () =
  let s = Test_oracle.all_on () in
  let obs = ref [] in
  Test_oracle.under ~threshold:s.Test_oracle.threshold s.Test_oracle.cfg (fun () ->
      ignore
        (Test_oracle.program ~libs:Test_oracle.loop_libs (Test_oracle.loop_src 4000)
           [ "first"; "second" ]
           (fun st -> obs := st :: !obs)));
  List.iter
    (fun st ->
      let d = Option.get st.Test_oracle.bill and label = st.Test_oracle.label in
      check_int (label ^ " exit") 42 st.Test_oracle.code;
      check_int (label ^ " traces compiled") 1 d.Stats.jit_compiles;
      check_int (label ^ " side exits") 1 d.Stats.jit_exits)
    (List.rev !obs)

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
    test "jit: a quantum resumes part-way through a trace" resume_in_compiled_code;
    test "jit: resume after the stop word is patched"
      (resume_invalidated "patch" patch_stop_word);
    test "jit: resume after the text is protected" (resume_invalidated "protect" protect_text);
    test "jit: resume after another segment is mapped"
      (resume_invalidated "remap" remap_text);
    test "jit: resume after the data is remapped"
      (resume_invalidated ~words:load_loop "remap data" remap_data);
    test "jit: resume after the data page is copied and written"
      (resume_invalidated ~words:load_loop "copy data" copy_data_page);
    test "jit: counters observe compiles and hits" counters_observe_jit;
    test "jit: throughput floors over both interpreters" jit_throughput_floors;
    test "jit: a cross-module loop compiles one trace per exec" one_trace_per_loop;
    test "jit: fork/COW workload identical with JIT on and off"
      (Test_oracle.fork_check
         Test_oracle.
           [
             { oracle with cfg = { Config.oracle with jit = true }; threshold = 1 };
             all_on ~threshold:1 ();
             all_on ();
           ]);
    test "trap: illegal instruction is a trap, not a host error" illegal_insn_traps;
    test "trap: illegal instruction kills the process, not the host"
      illegal_insn_kills_process_not_host;
  ]
