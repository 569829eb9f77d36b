module As = Hemlock_vm.Address_space
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats
module Config = Hemlock_util.Config

(* --- Trace JIT: threaded OCaml closure chains ------------------------

   The interpreter pays fetch + decode + dispatch for every instruction.
   This module removes all three on hot paths: once a basic-block head
   has been entered [threshold] times, the straight-line run starting
   there — extended across unconditional branches, inlined calls and
   matched returns into a superblock — is compiled into a chain of
   OCaml closures, one per instruction, each doing its register/memory
   work directly and tail-calling the next.  Conditional branches become guards that side
   exit back to the interpreter when the unfollowed direction is taken;
   word loads and stores carry per-site inline caches and fall back to
   the address space's checked accessors (exact fault semantics) on any
   miss; byte loads and stores always take those accessors, as the
   interpreter does.

   Coherence: a compiled instruction is always the word a fetch through
   the address space would read now, so lazy linking's no-access trick
   stays sound:

   - every compiled instruction is recorded as a (segment, offset, word)
     dependency; entry validation compares [Segment.version] per
     dependency run and degrades to word verification when the version
     moved (self-modifying and code-adjacent data writes), re-keying or
     discarding the trace;
   - mapping geometry is pinned under [As.epoch]; when the epoch moved,
     entry validation re-resolves [As.exec_view] per dependency run and
     only re-stamps the trace when segment identity and delta are
     unchanged;
   - the epoch provably cannot change {e during} a trace run (only the
     kernel bumps it, and traces exit to the kernel for every syscall
     and fault), so a compiled load or store tests only its inline
     cache's page and bound.  The caches hold raw page bytes, so they
     are checked where their validity can change instead: entry
     validation empties them all when the epoch moved, and each run
     entry, like each slow-path store inside a run (the only place a
     run can itself break COW or allocate a page), empties those of
     any segment whose [Segment.page_gen] moved since they were
     filled;
   - a store executed {e inside} a trace re-checks the trace's own code
     dependencies and side exits (then invalidates) when it wrote over
     them, so self-modifying code can never run one stale instruction.

   Simulated costs are bit-identical to the interpreter, but the
   bookkeeping is batched instead of per-instruction: fuel is threaded
   through the chain (one decrement per instruction) and the
   instruction counter is settled at every exit as
   [entry fuel - remaining fuel] — the two are in lockstep because
   every step consumes exactly one fuel.  Each trace has two chains
   over the same instructions and the same pairs.  The fused chain
   runs only while the remaining quantum covers a full pass, so none
   of its steps checks fuel.  Its twin runs the quantum's tail: each
   link first checks that the fuel covers its width, stopping on its
   own pc at 0, and a pair reached with 1 runs its first instruction
   alone and stops on its second.  Expiry so lands on the
   interpreter's instruction boundary, and the stopped link is left as
   a resume token, so the next quantum continues in compiled code
   instead of interpreting up to the next head.  A faulting or trapping
   instruction bills its own tick on the way out (like [Cpu.step],
   which bills before executing), and syscall/halt exits replicate
   [Cpu.run_trap]'s accounting exactly. *)

let default_threshold = 50
let threshold = ref (Option.value Config.env.jit_threshold ~default:default_threshold)

let max_insns = 512
let min_insns = 3

exception Error of { e_pc : int; e_msg : string }

(* How a trace run ended.  [c_pc] (and for faults [c_fuel]) in the
   state's context carry the resume point; see [resume_pc]. *)
type exit = X_side of int | X_halt of int * int | X_syscall of int

type step = int -> exit

(* [c_fin] is the fuel the current run entered with: every exit settles
   the instruction counter as [c_fin - remaining]. *)
type ctx = { mutable c_pc : int; mutable c_fuel : int; mutable c_fin : int }

(* One contiguous run of compiled code words: the unit of invalidation
   checking.  [d_ver] is re-stamped whenever word verification proves
   the bytes unchanged. *)
type dep = {
  d_vlo : int;  (* vaddr of the first word *)
  d_seg : Segment.t;
  d_delta : int;  (* segment offset = vaddr + delta *)
  d_words : int array;
  mutable d_ver : int;
}

(* An inline cache (IC): the raw bytes of the page a compiled [LW] or
   [SW] site touched last, so a hit is one compare on the page, one on
   the bound and a direct read or write.  In-place writes to the page
   are visible through the bytes; anything that swaps the page out
   (COW break, zero-fill allocation, drop, replace) moves the segment's
   [page_gen], and the trace empties its ICs on that segment (see
   [check_gens]).  A load IC caches any resident page.  A store IC
   caches only exclusively owned pages ([Segment.owned_page_view]): a
   hit writes the bytes and bumps the segment version, exactly what
   [Segment.set_u32]'s owned-page arm would do.  A page still shared
   (with an image master, a module master or a fork sibling) takes
   [As.store_u32], which keeps [Segment]'s identical-write skip.  Both
   fill only for mappings whose {e effective} protection allows the
   access, so a COW mapping is never store-cached. *)
type ic = {
  mutable i_page : int;  (* vaddr page base; -1 = empty *)
  mutable i_lim : int;
      (* exclusive vaddr bound: the mapping's end, the page's end and,
         for a store, the segment's size, which a raw write cannot grow *)
  mutable i_bytes : Bytes.t;
  mutable i_seg : Segment.t;
  (* Stores only: whether the segment backs any of this trace's own
     code dependencies.  If not, a store through the IC provably cannot
     invalidate the trace and the post-store dep guard is skipped. *)
  mutable i_code : bool;
}

(* The [page_gen] of a segment some IC of the trace was filled from. *)
type gen = { g_seg : Segment.t; mutable g_gen : int }

(* [tr_first] is the fused chain, entered only with a full pass of fuel;
   [tr_twin] the fuel-checked chain, built on first use.  [tr_epoch] is
   the epoch the geometry and the ICs were last checked at; [tr_ics]
   holds one IC per word access site, shared by both chains. *)
type trace = {
  tr_entry : int;
  tr_len : int;
  tr_deps : dep array;
  mutable tr_epoch : int;
  mutable tr_valid : bool;
  mutable tr_first : step;
  mutable tr_twin : step;
  tr_ics : ic list;
  mutable tr_gens : gen list;
}

type entry = Counting of int | Compiled of trace

(* Where a twin step ran out of fuel: the next quantum resumes at
   [tk_step] if it starts at [tk_pc] and [tk_tr] still validates. *)
type token = { tk_pc : int; tk_tr : trace; tk_step : step }

type state = {
  st_regs : int array;
  st_ctx : ctx;
  st_tbl : (int, entry) Hashtbl.t;
  mutable st_space : As.t option;
  mutable st_token : token option;
}

type outcome = Missed | Ran of exit

let make regs =
  {
    st_regs = regs;
    st_ctx = { c_pc = 0; c_fuel = 0; c_fin = 0 };
    st_tbl = Hashtbl.create 64;
    st_space = None;
    st_token = None;
  }

let resume_pc st = st.st_ctx.c_pc
let resume_fuel st = st.st_ctx.c_fuel

(* --- superblock selection ------------------------------------------- *)

type kind =
  | K_plain
  | K_br_exit of int  (* conditional: side exit to target when taken *)
  | K_br_loop  (* conditional: taken edge loops to the trace entry *)
  | K_jump  (* unconditional, followed in-line: pure bill *)
  | K_jal  (* inlined call: set ra, continue at the target *)
  | K_jr_guard of int  (* predicted [jr]: guard regs[rs] = expected *)
  | K_jalr_exit  (* indirect call: set rd, exit to the target *)
  | K_syscall
  | K_halt

type sel = { s_pc : int; s_insn : Insn.t; s_kind : kind }

type tail = T_loop | T_exit of int | T_none

type dep_run = {
  dr_vlo : int;
  dr_seg : Segment.t;
  dr_delta : int;
  dr_hi : int;
  mutable dr_words_rev : int list;
  mutable dr_next : int;
}

(* Selection follows J and inlines every JAL, bounded only by
   [max_insns] and the revisited-pc rule, and predicts the two indirect
   jumps the toolchain emits.  A [jr ra] that returns from a call the
   trace inlined goes to that call's return address.  Any other [jr r]
   is a linker veneer ([lui r, hi; ori r, r, lo; jr r], the 28-bit jump
   limit's long call) or a return from the function the trace started
   in: right after the veneer's [lui]/[ori] it goes to their constant,
   otherwise to what [r] holds in [regs], the live register file, since
   the trace runs as soon as it is compiled.  Both compile as guards
   that side exit to the true target on a mispredict: a wrong
   prediction is never wrong execution.  A JALR (only hand-written
   code has one) ends the trace. *)
let select regs space entry =
  let sels = ref [] in
  let count = ref 0 in
  let seen = Hashtbl.create 64 in
  let runs = ref [] in
  let cur = ref None in
  let tail = ref T_none in
  let ras = ref [] in
  let dep_add pc word seg delta hi =
    match !cur with
    | Some r
      when r.dr_seg == seg && r.dr_delta = delta && pc = r.dr_next
           && pc + 4 <= r.dr_hi ->
      r.dr_words_rev <- word :: r.dr_words_rev;
      r.dr_next <- pc + 4
    | _ ->
      (match !cur with Some r -> runs := r :: !runs | None -> ());
      cur :=
        Some
          {
            dr_vlo = pc;
            dr_seg = seg;
            dr_delta = delta;
            dr_hi = hi;
            dr_words_rev = [ word ];
            dr_next = pc + 4;
          }
  in
  let fetch pc =
    match As.exec_view space pc with
    | seg, delta, hi -> (
      let word = Segment.get_u32 seg (pc + delta) in
      match Insn.decode word with
      | insn -> Some (seg, delta, hi, word, insn)
      | exception Failure _ -> None)
    | exception As.Fault _ -> None
  in
  let rec go pc =
    if !count >= max_insns then tail := T_exit pc
    else if pc = entry && !count > 0 then tail := T_loop
    else if Hashtbl.mem seen pc then tail := T_exit pc
    else
      match fetch pc with
      | None -> tail := T_exit pc
      | Some (seg, delta, hi, word, insn) -> (
        Hashtbl.add seen pc ();
        incr count;
        dep_add pc word seg delta hi;
        let push kind =
          sels := { s_pc = pc; s_insn = insn; s_kind = kind } :: !sels
        in
        match insn with
        | Insn.Break -> push K_halt
        | Insn.Syscall -> push K_syscall
        | Insn.J field ->
          push K_jump;
          go (Insn.jump_target ~pc field)
        | Insn.Jal field ->
          ras := (pc + 4) :: !ras;
          push K_jal;
          go (Insn.jump_target ~pc field)
        | Insn.Jr rs ->
          let target =
            match (!ras, !sels) with
            | ret :: rest, _ when rs = Reg.ra ->
              ras := rest;
              ret
            | _, { s_insn = Insn.Ori (r1, r2, lo); _ } :: { s_insn = Insn.Lui (r3, hi); _ } :: _
              when r1 = rs && r2 = rs && r3 = rs ->
              (hi lsl 16) lor lo
            | _ -> Array.unsafe_get regs rs
          in
          push (K_jr_guard target);
          go target
        | Insn.Jalr _ -> push K_jalr_exit
        | Insn.Beq (rs, rt, off) when rs = rt ->
          (* Always taken: follow it like an unconditional jump. *)
          push K_jump;
          go (pc + 4 + (4 * off))
        | Insn.Beq (_, _, off)
        | Insn.Bne (_, _, off)
        | Insn.Blez (_, off)
        | Insn.Bgtz (_, off) ->
          let taken = pc + 4 + (4 * off) in
          if taken = entry then push K_br_loop else push (K_br_exit taken);
          go (pc + 4)
        | _ ->
          push K_plain;
          go (pc + 4))
  in
  go entry;
  if !count < min_insns then None
  else begin
    (match !cur with Some r -> runs := r :: !runs | None -> ());
    let deps =
      List.rev_map
        (fun r ->
          {
            d_vlo = r.dr_vlo;
            d_seg = r.dr_seg;
            d_delta = r.dr_delta;
            d_words = Array.of_list (List.rev r.dr_words_rev);
            d_ver = Segment.version r.dr_seg;
          })
        !runs
      |> Array.of_list
    in
    Some (List.rev !sels, !tail, deps)
  end

(* --- validation ------------------------------------------------------ *)

(* Per dependency run: an untouched version proves the bytes; a moved
   version falls back to re-reading and comparing every word,
   re-stamping the version on an exact match so the next check is cheap
   again. *)
let dep_words_current d =
  let ver = Segment.version d.d_seg in
  ver = d.d_ver
  ||
  let n = Array.length d.d_words in
  let rec ok i =
    i >= n
    || Segment.get_u32 d.d_seg (d.d_vlo + (4 * i) + d.d_delta)
       = Array.unsafe_get d.d_words i
       && ok (i + 1)
  in
  if ok 0 then begin
    d.d_ver <- ver;
    true
  end
  else false

(* Epoch moved between runs: mappings may have changed under the trace.
   Re-resolve the geometry of every dependency run; the trace survives
   only if each still fetches from the same segment at the same delta
   (and the words check out), because the store guards compiled into it
   reference those segments by identity.  Its ICs may translate through
   the old mappings, so a surviving trace starts them all empty. *)
let revalidate_geometry tr space =
  let ok =
    try
      Array.for_all
        (fun d ->
          match As.exec_view space d.d_vlo with
          | seg, delta, hi ->
            seg == d.d_seg && delta = d.d_delta
            && d.d_vlo + (4 * Array.length d.d_words) <= hi
            && dep_words_current d)
        tr.tr_deps
    with As.Fault _ -> false
  in
  if ok then begin
    tr.tr_epoch <- As.epoch space;
    List.iter (fun ic -> ic.i_page <- -1) tr.tr_ics;
    tr.tr_gens <- []
  end;
  ok

let validate tr space =
  tr.tr_valid
  &&
  if As.epoch space = tr.tr_epoch then Array.for_all dep_words_current tr.tr_deps
  else revalidate_geometry tr space

(* --- inline data caches ---------------------------------------------- *)

let pmask = Layout.page_size - 1
let pbase_mask = lnot pmask

let rec empty_seg seg = function
  | [] -> ()
  | ic :: rest ->
    if ic.i_seg == seg then ic.i_page <- -1;
    empty_seg seg rest

(* Empty the ICs on every segment whose [page_gen] moved since it was
   noted: one of its pages may have changed identity, or become shared.
   Runs at each run entry and after each slow-path store, so an IC hit
   never reads a page the segment no longer maps. *)
let rec check_gens ics = function
  | [] -> ()
  | g :: rest ->
    let gen = Segment.page_gen g.g_seg in
    if gen <> g.g_gen then begin
      g.g_gen <- gen;
      empty_seg g.g_seg ics
    end;
    check_gens ics rest

(* Fill [ic] after an access at [a] succeeded.  Within a run only a
   slow-path store moves a [page_gen], and [check_gens] re-notes it
   right after, so a segment already noted is noted at [gen]. *)
let fill tr ic space a access =
  ic.i_page <- -1;
  match As.data_view space a access with
  | Some (seg, delta, hi) when delta land pmask = 0 -> (
    let store = access = Prot.Write in
    match (if store then Segment.owned_page_view else Segment.page_view) seg (a + delta) with
    | Some (bytes, gen) ->
      if not (List.exists (fun g -> g.g_seg == seg) tr.tr_gens) then
        tr.tr_gens <- { g_seg = seg; g_gen = gen } :: tr.tr_gens;
      ic.i_seg <- seg;
      ic.i_bytes <- bytes;
      ic.i_page <- a land pbase_mask;
      ic.i_lim <- min hi (ic.i_page + Layout.page_size);
      (* [off + n <= size] iff [a + n <= size - delta]. *)
      if store then ic.i_lim <- min ic.i_lim (Segment.size seg - delta)
    | None -> ())
  | _ -> ()

(* --- closure compilation --------------------------------------------- *)

(* The IC of a word access site, from its fusion op (see [op_of]). *)
let site_ic = function
  | Some (`Lw (_, _, _, ic) | `Sw (_, _, _, ic)) -> ic
  | Some (`Addi _) | None -> assert false

let compile st space entry_pc =
  match select st.st_regs space entry_pc with
  | None -> None
  | Some (sels, tail, deps) ->
    let regs = st.st_regs in
    let ctx = st.st_ctx in
    let anchor_seg = deps.(0).d_seg in
    let ics = ref [] in
    let new_ic () =
      let ic =
        { i_page = -1; i_lim = 0; i_bytes = Bytes.empty; i_seg = anchor_seg; i_code = true }
      in
      ics := ic :: !ics;
      ic
    in
    (* --- pair fusion --------------------------------------------------
       Compiled code is dominated by stack push/pop idioms — an ADDI
       adjust glued to a load or store — so adjacent pairs drawn from
       {ADDI, LW, SW} become one closure executing both instructions
       strictly in order.  A constant write is an ADDI from r0, which
       always reads 0 (neither [Cpu.set_reg] nor compiled code ever
       writes it): LUI, an inlined JAL's ra write, and a followed J
       (a write to r0 itself).  Each word access site gets its one IC
       here, which every closure compiled for the site shares. *)
    let op_of sel =
      match (sel.s_kind, sel.s_insn) with
      | K_jal, _ -> Some (`Addi (Reg.ra, 0, Codec.mask32 (sel.s_pc + 4)))
      | K_jump, _ -> Some (`Addi (0, 0, 0))
      | K_plain, Insn.Lui (rt, imm) -> Some (`Addi (rt, 0, imm lsl 16 land 0xFFFF_FFFF))
      | K_plain, Insn.Addi (rt, rs, imm) -> Some (`Addi (rt, rs, imm))
      | K_plain, Insn.Lw (rt, base, off) -> Some (`Lw (rt, base, off, new_ic ()))
      | K_plain, Insn.Sw (rt, base, off) -> Some (`Sw (rt, base, off, new_ic ()))
      | _ -> None
    in
    let sites = List.map (fun sel -> (sel, op_of sel)) sels in
    let unbuilt _ = assert false in
    let tr =
      {
        tr_entry = entry_pc;
        tr_len = List.length sels;
        tr_deps = deps;
        tr_epoch = As.epoch space;
        tr_valid = true;
        tr_first = unbuilt;
        tr_twin = unbuilt;
        tr_ics = !ics;
        tr_gens = [];
      }
    in
    let ndeps = Array.length deps in
    (* Post-store code-invalidation guard: cheap version compares,
       specialised for the overwhelmingly common single-run trace. *)
    let deps_fast =
      if ndeps = 1 then begin
        let d = deps.(0) in
        fun () -> Segment.version d.d_seg = d.d_ver
      end
      else
        fun () ->
        let rec ok i =
          i >= ndeps
          ||
          let d = Array.unsafe_get deps i in
          Segment.version d.d_seg = d.d_ver && ok (i + 1)
        in
        ok 0
    in
    let deps_reverify () = Array.for_all dep_words_current deps in
    let seg_in_deps seg =
      let rec go i =
        i < ndeps && ((Array.unsafe_get deps i).d_seg == seg || go (i + 1))
      in
      go 0
    in
    let tr_len = tr.tr_len in
    let store_guard_failed next_pc fuel =
      (* The store really changed compiled code: stop before any stale
         instruction can run and let the entry path recompile. *)
      tr.tr_valid <- false;
      let s = Stats.cur () in
      s.instructions <- s.instructions + (ctx.c_fin - fuel);
      s.jit_exits <- s.jit_exits + 1;
      ctx.c_pc <- next_pc;
      X_side fuel
    in
    let side_exit target fuel =
      let s = Stats.cur () in
      s.instructions <- s.instructions + (ctx.c_fin - fuel);
      s.jit_exits <- s.jit_exits + 1;
      ctx.c_pc <- target;
      X_side fuel
    in
    (* Fuel ran out on [pc], the boundary the interpreter stops on.
       Not a trace break (nothing was mispredicted): settle the run and
       leave [step], the twin link for [pc], for the next quantum. *)
    let out_of_fuel pc step =
      let s = Stats.cur () in
      s.instructions <- s.instructions + ctx.c_fin;
      ctx.c_pc <- pc;
      st.st_token <- Some { tk_pc = pc; tk_tr = tr; tk_step = step };
      X_side 0
    in
    (* The loop edge is the fused chain's only fuel check: loop in it
       while a full further iteration fits in the quantum, and in the
       twin, which stops on the exact instruction, otherwise.  Every
       re-entry at the trace head — the fall-off-the-end tail and any
       taken mid-trace branch back to the entry — passes through this
       gate: the fused steps never check fuel, so an ungated cycle
       would spin forever on a divergent program. *)
    let loop_edge fuel = if fuel >= tr_len then tr.tr_first fuel else tr.tr_twin fuel in
    let tail_step =
      match tail with
      | T_loop -> loop_edge
      | T_exit pc -> fun fuel -> side_exit pc fuel
      | T_none -> fun _ -> assert false
    in
    (* The one load path and the one store path of compiled code, shared
       by single steps and fused pairs.  [fl] is the fuel remaining at
       this instruction, stamped with the pc before the slow path so a
       fault resumes exactly here.  A hit tests only the page and the
       bound: the IC is valid for the whole run (see [check_gens]). *)
    let lw_do ic pc base off rt fl =
      let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
      let v =
        if ic.i_page = a land pbase_mask && a + 4 <= ic.i_lim then
          (* [a + 4 <= i_lim] and [a] on the cached page bound the unsafe
             read inside the page's bytes. *)
          Codec.unsafe_get_u32 ic.i_bytes (a land pmask)
        else begin
          ctx.c_pc <- pc;
          ctx.c_fuel <- fl;
          let v = As.load_u32 space a in
          fill tr ic space a Prot.Read;
          v
        end
      in
      if rt <> 0 then Array.unsafe_set regs rt v
    in
    (* Returns false when the store overwrote this trace's own code:
       the caller must side exit before the next compiled instruction.
       The slow path may break COW on a page or allocate one, so it
       re-checks the ICs' segments before anything reads through them. *)
    let sw_do ic pc base off rt fl =
      let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
      if ic.i_page = a land pbase_mask && a + 4 <= ic.i_lim then begin
        Codec.unsafe_set_u32 ic.i_bytes (a land pmask) (Array.unsafe_get regs rt);
        Segment.bump_version ic.i_seg;
        (not ic.i_code) || deps_fast () || deps_reverify ()
      end
      else begin
        ctx.c_pc <- pc;
        ctx.c_fuel <- fl;
        As.store_u32 space a (Array.unsafe_get regs rt);
        check_gens tr.tr_ics tr.tr_gens;
        fill tr ic space a Prot.Write;
        ic.i_code <- ic.i_page < 0 || seg_in_deps ic.i_seg;
        deps_fast () || deps_reverify ()
      end
    in
    (* Steps carry no fuel check and no instruction billing: the fused
       chain's entry gate guarantees [tr_len] fuel, each twin link checks
       its own width, every step consumes exactly one, and the exit
       helpers settle the counter from the difference.
       [Codec.mask32]/[Codec.sext32] are written out by hand.  The
       release build (no -opaque) would inline them, but dune's dev
       profile would not, and register values are already masked, so
       sign extension is one test on bit 31 where [sext32] masks
       first. *)
    let step_of (sel, op) next =
      let pc = sel.s_pc in
      let skip () fuel = next (fuel - 1) in
      match sel.s_kind with
      | K_halt ->
        fun fuel ->
          let s = Stats.cur () in
          s.instructions <- s.instructions + (ctx.c_fin - (fuel - 1));
          ctx.c_pc <- pc;
          let a0 = Array.unsafe_get regs Reg.a0 in
          X_halt
            ( (if a0 land 0x8000_0000 <> 0 then a0 - 0x1_0000_0000 else a0),
              fuel - 1 )
      | K_syscall ->
        fun fuel ->
          let s = Stats.cur () in
          s.instructions <- s.instructions + (ctx.c_fin - (fuel - 1));
          s.syscalls <- s.syscalls + 1;
          ctx.c_pc <- pc + 4;
          X_syscall (fuel - 1)
      | K_jump -> skip ()
      | K_jal ->
        let ret = Codec.mask32 (pc + 4) in
        fun fuel ->
          Array.unsafe_set regs Reg.ra ret;
          next (fuel - 1)
      | K_jr_guard expected -> (
        match sel.s_insn with
        | Insn.Jr rs ->
          fun fuel ->
            let target = Array.unsafe_get regs rs in
            if target = expected then next (fuel - 1)
            else side_exit target (fuel - 1)
        | _ -> assert false)
      | K_jalr_exit -> (
        match sel.s_insn with
        | Insn.Jalr (rd, rs) ->
          let ret = Codec.mask32 (pc + 4) in
          fun fuel ->
            let target = Array.unsafe_get regs rs in
            if rd <> 0 then Array.unsafe_set regs rd ret;
            side_exit target (fuel - 1)
        | _ -> assert false)
      | K_br_exit _ | K_br_loop -> (
        let taken_step =
          match sel.s_kind with
          | K_br_exit target -> fun fuel -> side_exit target fuel
          | K_br_loop -> loop_edge
          | _ -> assert false
        in
        match sel.s_insn with
        | Insn.Beq (rs, rt, _) ->
          fun fuel ->
            if Array.unsafe_get regs rs = Array.unsafe_get regs rt then
              taken_step (fuel - 1)
            else next (fuel - 1)
        | Insn.Bne (rs, rt, _) ->
          fun fuel ->
            if Array.unsafe_get regs rs <> Array.unsafe_get regs rt then
              taken_step (fuel - 1)
            else next (fuel - 1)
        | Insn.Blez (rs, _) ->
          fun fuel ->
            let v = Array.unsafe_get regs rs in
            if v = 0 || v land 0x8000_0000 <> 0 then taken_step (fuel - 1)
            else next (fuel - 1)
        | Insn.Bgtz (rs, _) ->
          fun fuel ->
            let v = Array.unsafe_get regs rs in
            if v <> 0 && v land 0x8000_0000 = 0 then taken_step (fuel - 1)
            else next (fuel - 1)
        | _ -> assert false)
      | K_plain -> (
        let sx v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
        match sel.s_insn with
        | Insn.Sll (rd, rt, sh) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rt lsl sh land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Srl (rd, rt, sh) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd (Array.unsafe_get regs rt lsr sh);
            next (fuel - 1)
        | Insn.Sra (rd, rt, sh) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (sx (Array.unsafe_get regs rt) asr sh land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Add (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              ((Array.unsafe_get regs rs + Array.unsafe_get regs rt)
              land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Sub (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              ((Array.unsafe_get regs rs - Array.unsafe_get regs rt)
              land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Mul (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (sx (Array.unsafe_get regs rs)
              * sx (Array.unsafe_get regs rt)
              land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Div (rd, rs, rt) ->
          fun fuel ->
            if Array.unsafe_get regs rt = 0 then begin
              ctx.c_pc <- pc;
              ctx.c_fuel <- fuel;
              raise (Error { e_pc = pc; e_msg = "division by zero" })
            end;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (sx (Array.unsafe_get regs rs)
                / sx (Array.unsafe_get regs rt)
                land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Rem (rd, rs, rt) ->
          fun fuel ->
            if Array.unsafe_get regs rt = 0 then begin
              ctx.c_pc <- pc;
              ctx.c_fuel <- fuel;
              raise (Error { e_pc = pc; e_msg = "remainder by zero" })
            end;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (sx (Array.unsafe_get regs rs)
                mod sx (Array.unsafe_get regs rt)
                land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.And (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rs land Array.unsafe_get regs rt);
            next (fuel - 1)
        | Insn.Or (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rs lor Array.unsafe_get regs rt);
            next (fuel - 1)
        | Insn.Xor (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rs lxor Array.unsafe_get regs rt);
            next (fuel - 1)
        | Insn.Slt (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (if sx (Array.unsafe_get regs rs) < sx (Array.unsafe_get regs rt)
               then 1
               else 0);
            next (fuel - 1)
        | Insn.Sltu (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (if Array.unsafe_get regs rs < Array.unsafe_get regs rt then 1
               else 0);
            next (fuel - 1)
        | Insn.Addi (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt
              ((Array.unsafe_get regs rs + imm) land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Slti (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt
              (if sx (Array.unsafe_get regs rs) < imm then 1 else 0);
            next (fuel - 1)
        | Insn.Andi (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt (Array.unsafe_get regs rs land imm);
            next (fuel - 1)
        | Insn.Ori (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt (Array.unsafe_get regs rs lor imm);
            next (fuel - 1)
        | Insn.Xori (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt (Array.unsafe_get regs rs lxor imm);
            next (fuel - 1)
        | Insn.Lui (rt, imm) ->
          if rt = 0 then skip ()
          else begin
            let v = imm lsl 16 land 0xFFFF_FFFF in
            fun fuel ->
              Array.unsafe_set regs rt v;
              next (fuel - 1)
          end
        | Insn.Lw (rt, base, off) ->
          let ic = site_ic op in
          fun fuel ->
            lw_do ic pc base off rt fuel;
            next (fuel - 1)
        | Insn.Lb (rt, base, off) ->
          fun fuel ->
            ctx.c_pc <- pc;
            ctx.c_fuel <- fuel;
            let v =
              As.load_u8 space ((Array.unsafe_get regs base + off) land 0xFFFF_FFFF)
            in
            if rt <> 0 then Array.unsafe_set regs rt v;
            next (fuel - 1)
        | Insn.Sw (rt, base, off) ->
          let ic = site_ic op in
          fun fuel ->
            if sw_do ic pc base off rt fuel then next (fuel - 1)
            else store_guard_failed (pc + 4) (fuel - 1)
        | Insn.Sb (rt, base, off) ->
          fun fuel ->
            ctx.c_pc <- pc;
            ctx.c_fuel <- fuel;
            As.store_u8 space
              ((Array.unsafe_get regs base + off) land 0xFFFF_FFFF)
              (Array.unsafe_get regs rt land 0xFF);
            check_gens tr.tr_ics tr.tr_gens;
            if deps_fast () || deps_reverify () then next (fuel - 1)
            else store_guard_failed (pc + 4) (fuel - 1)
        | Insn.Break | Insn.Syscall | Insn.J _ | Insn.Jal _ | Insn.Jr _
        | Insn.Jalr _ | Insn.Beq _ | Insn.Bne _ | Insn.Blez _ | Insn.Bgtz _ ->
          assert false)
    in
    (* Each fused arm is fully specialised at build time: no runtime
       dispatch on the opcode is ever introduced, because a shared
       dispatch site is exactly the kind of data-dependent indirect
       branch the fusion is trying to remove.  For the same reason each
       arm writes its register arithmetic out: a helper closing over
       [regs] would be a call per instruction without flambda.  The
       second instruction stamps its own pc and fuel before any access
       that can fault or fill, so traps, side exits and billing are
       indistinguishable from the unfused chain; a store that overwrites
       trace code still exits before the next compiled instruction
       runs. *)
    (* [next] must be in scope before the fused closure is built: a
       two-argument [fun next fuel -> ...] partially applied would
       route every chain hop through the generic currying apply. *)
    let fused pc1 pc2 o1 o2 next =
      match (o1, o2) with
      | `Addi (r1, s1, i1), `Addi (r2, s2, i2) ->
        fun fuel ->
          if r1 <> 0 then
            Array.unsafe_set regs r1 ((Array.unsafe_get regs s1 + i1) land 0xFFFF_FFFF);
          if r2 <> 0 then
            Array.unsafe_set regs r2 ((Array.unsafe_get regs s2 + i2) land 0xFFFF_FFFF);
          next (fuel - 2)
      | `Addi (r1, s1, i1), `Lw (rt, base, off, ic) ->
        fun fuel ->
          if r1 <> 0 then
            Array.unsafe_set regs r1 ((Array.unsafe_get regs s1 + i1) land 0xFFFF_FFFF);
          lw_do ic pc2 base off rt (fuel - 1);
          next (fuel - 2)
      | `Addi (r1, s1, i1), `Sw (rt, base, off, ic) ->
        fun fuel ->
          if r1 <> 0 then
            Array.unsafe_set regs r1 ((Array.unsafe_get regs s1 + i1) land 0xFFFF_FFFF);
          if sw_do ic pc2 base off rt (fuel - 1) then next (fuel - 2)
          else store_guard_failed (pc2 + 4) (fuel - 2)
      | `Lw (rt, base, off, ic), `Addi (r2, s2, i2) ->
        fun fuel ->
          lw_do ic pc1 base off rt fuel;
          if r2 <> 0 then
            Array.unsafe_set regs r2 ((Array.unsafe_get regs s2 + i2) land 0xFFFF_FFFF);
          next (fuel - 2)
      | `Lw (rt1, b1, o1, ic1), `Lw (rt2, b2, o2, ic2) ->
        fun fuel ->
          lw_do ic1 pc1 b1 o1 rt1 fuel;
          lw_do ic2 pc2 b2 o2 rt2 (fuel - 1);
          next (fuel - 2)
      | `Lw (rt1, b1, o1, ic1), `Sw (rt2, b2, o2, ic2) ->
        fun fuel ->
          lw_do ic1 pc1 b1 o1 rt1 fuel;
          if sw_do ic2 pc2 b2 o2 rt2 (fuel - 1) then next (fuel - 2)
          else store_guard_failed (pc2 + 4) (fuel - 2)
      | `Sw (rt, base, off, ic), `Addi (r2, s2, i2) ->
        fun fuel ->
          if sw_do ic pc1 base off rt fuel then begin
            if r2 <> 0 then
              Array.unsafe_set regs r2 ((Array.unsafe_get regs s2 + i2) land 0xFFFF_FFFF);
            next (fuel - 2)
          end
          else store_guard_failed (pc1 + 4) (fuel - 1)
      | `Sw (rt1, b1, o1, ic1), `Lw (rt2, b2, o2, ic2) ->
        fun fuel ->
          if sw_do ic1 pc1 b1 o1 rt1 fuel then begin
            lw_do ic2 pc2 b2 o2 rt2 (fuel - 1);
            next (fuel - 2)
          end
          else store_guard_failed (pc1 + 4) (fuel - 1)
      | `Sw (rt1, b1, o1, ic1), `Sw (rt2, b2, o2, ic2) ->
        fun fuel ->
          if sw_do ic1 pc1 b1 o1 rt1 fuel then
            if sw_do ic2 pc2 b2 o2 rt2 (fuel - 1) then next (fuel - 2)
            else store_guard_failed (pc2 + 4) (fuel - 2)
          else store_guard_failed (pc1 + 4) (fuel - 1)
    in
    let rec build = function
      | (s1, Some o1) :: (s2, Some o2) :: rest -> fused s1.s_pc s2.s_pc o1 o2 (build rest)
      | site :: rest -> step_of site (build rest)
      | [] -> tail_step
    in
    (* The twin: the same grouping, each link behind a test that the
       fuel covers its width.  A pair reached with 1 fuel runs its first
       instruction as a single step and stops on its second; that split
       is built the first time it is needed. *)
    let rec twin = function
      | ((s1, Some o1) as site1) :: ((s2, Some o2) as site2) :: rest ->
        let next = twin rest in
        let pair = fused s1.s_pc s2.s_pc o1 o2 next in
        let split = lazy (step_of site1 (checked site2 next)) in
        let rec link fuel =
          if fuel >= 2 then pair fuel
          else if fuel = 0 then out_of_fuel s1.s_pc link
          else Lazy.force split fuel
        in
        link
      | site :: rest -> checked site (twin rest)
      | [] -> tail_step
    and checked ((sel, _) as site) next =
      let pc = sel.s_pc and body = step_of site next in
      let rec link fuel = if fuel = 0 then out_of_fuel pc link else body fuel in
      link
    in
    tr.tr_first <- build sites;
    tr.tr_twin <-
      (fun fuel ->
        tr.tr_twin <- twin sites;
        tr.tr_twin fuel);
    Some tr

(* --- dispatch --------------------------------------------------------- *)

let bind st space =
  match st.st_space with
  | Some sp when sp == space -> ()
  | _ ->
    (* A state is tied to one address space (the kernel pairs each CPU
       with its process's space for life); a rebind is a test harness
       reusing a CPU, so just drop everything. *)
    Hashtbl.reset st.st_tbl;
    st.st_token <- None;
    st.st_space <- Some space

(* Run compiled code from [step] of [tr], once its ICs are checked
   against the segments' page generations, stamping the fuel every exit
   settles from. *)
let run st tr step fuel =
  let ctx = st.st_ctx in
  check_gens tr.tr_ics tr.tr_gens;
  ctx.c_fin <- fuel;
  let s = Stats.cur () in
  s.jit_hits <- s.jit_hits + 1;
  match step fuel with
  | x -> Ran x
  | exception e ->
    (* The trapping instruction was entered but not completed: settle
       the completed prefix plus its own tick (the interpreter bills
       before executing) and let the CPU translate the exception. *)
    s.instructions <- s.instructions + (ctx.c_fin - ctx.c_fuel) + 1;
    raise e

(* The fused chain needs fuel for its full static length, which spares
   its steps a fuel test; with less left, the twin runs to the exact
   boundary. *)
let run_trace st tr fuel =
  run st tr (if fuel >= tr.tr_len then tr.tr_first else tr.tr_twin) fuel

let compile_and_run st space pc fuel =
  match compile st space pc with
  | Some tr ->
    let s = Stats.cur () in
    s.jit_compiles <- s.jit_compiles + 1;
    Hashtbl.replace st.st_tbl pc (Compiled tr);
    run_trace st tr fuel
  | None ->
    (* Not compilable right now (too short, or the path is unfetchable
       — e.g. a lazily-linked page still mapped no-access).  Reset the
       counter rather than blacklisting: once the page is linked the
       head warms up again and compiles. *)
    Hashtbl.replace st.st_tbl pc (Counting 0);
    Missed

(* Count, maybe compile, maybe run the trace headed at [pc]. *)
let enter_head st space pc fuel =
  match Hashtbl.find_opt st.st_tbl pc with
  | Some (Compiled tr) ->
    if validate tr space then run_trace st tr fuel
    else begin
      let s = Stats.cur () in
      s.jit_invalidations <- s.jit_invalidations + 1;
      compile_and_run st space pc fuel
    end
  | Some (Counting n) ->
    let n = n + 1 in
    if n >= !threshold then compile_and_run st space pc fuel
    else begin
      Hashtbl.replace st.st_tbl pc (Counting n);
      Missed
    end
  | None ->
    if 1 >= !threshold then compile_and_run st space pc fuel
    else begin
      Hashtbl.add st.st_tbl pc (Counting 1);
      Missed
    end

(* A resume token is good for one [enter], at its own pc, and only if
   its trace still validates; the pc never becomes a head in [st_tbl]. *)
let enter st space pc fuel =
  bind st space;
  let token = st.st_token in
  st.st_token <- None;
  match token with
  | Some tk when tk.tk_pc = pc && validate tk.tk_tr space -> run st tk.tk_tr tk.tk_step fuel
  | _ -> enter_head st space pc fuel
