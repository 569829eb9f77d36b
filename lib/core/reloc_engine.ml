module Objfile = Hemlock_obj.Objfile
module Insn = Hemlock_isa.Insn
module Reg = Hemlock_isa.Reg
module Stats = Hemlock_util.Stats

exception Link_error of string

type sink = { get32 : int -> int; set32 : int -> int -> unit }

type veneer_pool = {
  vp_base : int;
  vp_cap : int;
  vp_get_next : unit -> int;
  vp_set_next : int -> unit;
}

let veneer_slot_bytes = 16

(* atomic: a global count, bumped by every cluster machine's linker on
   whatever domain that machine runs *)
let veneer_count = Atomic.make 0

let veneers_created () = Atomic.get veneer_count

let reset_veneer_count () = Atomic.set veneer_count 0

let errf fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

let write_veneer sink addr ~target =
  let hi = (target lsr 16) land 0xFFFF in
  let lo = target land 0xFFFF in
  sink.set32 addr (Insn.encode (Insn.Lui (Reg.at, hi)));
  sink.set32 (addr + 4) (Insn.encode (Insn.Ori (Reg.at, Reg.at, lo)));
  sink.set32 (addr + 8) (Insn.encode (Insn.Jr Reg.at));
  sink.set32 (addr + 12) (Insn.encode Insn.nop)

(* Decode a previously-written veneer's target, to reuse slots. *)
let veneer_target sink addr =
  match (Insn.decode (sink.get32 addr), Insn.decode (sink.get32 (addr + 4))) with
  | Insn.Lui (_, hi), Insn.Ori (_, _, lo) -> Some ((hi lsl 16) lor lo)
  | _, _ | (exception Failure _) -> None

let alloc_veneer sink pool ~target =
  let next = pool.vp_get_next () in
  let rec find_existing i =
    if i >= next then None
    else
      let addr = pool.vp_base + (i * veneer_slot_bytes) in
      if veneer_target sink addr = Some target then Some addr else find_existing (i + 1)
  in
  match find_existing 0 with
  | Some addr -> addr
  | None ->
    if next >= pool.vp_cap then errf "veneer pool exhausted (%d slots)" pool.vp_cap;
    let addr = pool.vp_base + (next * veneer_slot_bytes) in
    write_veneer sink addr ~target;
    pool.vp_set_next (next + 1);
    Atomic.incr veneer_count;
    addr

let apply sink ~at ~kind ~value ~gp ~veneer =
  (Stats.cur ()).relocs_applied <- (Stats.cur ()).relocs_applied + 1;
  let word = sink.get32 at in
  match kind with
  | Objfile.Abs32 -> sink.set32 at value
  | Objfile.Hi16 ->
    sink.set32 at ((word land lnot 0xFFFF) lor ((value lsr 16) land 0xFFFF))
  | Objfile.Lo16 -> sink.set32 at ((word land lnot 0xFFFF) lor (value land 0xFFFF))
  | Objfile.Jump26 ->
    let target =
      if Insn.jump_in_range ~pc:at ~target:value then value
      else
        match veneer with
        | Some pool ->
          let v = alloc_veneer sink pool ~target:value in
          if not (Insn.jump_in_range ~pc:at ~target:v) then
            errf "veneer at 0x%08x itself out of range of jump at 0x%08x" v at;
          v
        | None -> errf "jump at 0x%08x to 0x%08x out of range and no veneer pool" at value
    in
    sink.set32 at ((word land lnot 0x3FF_FFFF) lor Insn.jump_field ~target)
  | Objfile.Gprel16 -> (
    match gp with
    | None -> errf "GPREL16 relocation at 0x%08x in a module with no $gp base" at
    | Some gp ->
      let disp = value - gp in
      if disp < -0x8000 || disp > 0x7FFF then
        errf
          "GPREL16 displacement %d out of range at 0x%08x (sparse address space: \
           compile with gp disabled)"
          disp at;
      sink.set32 at ((word land lnot 0xFFFF) lor (disp land 0xFFFF)))

let link_pass ~obj ~bases ~resolve ~already ~mark sink ~gp ~veneer =
  let pending = ref [] in
  List.iteri
    (fun i r ->
      if not (already i) then
        match resolve r.Objfile.rel_symbol with
        | Some sym_addr ->
          (Stats.cur ()).symbols_resolved <- (Stats.cur ()).symbols_resolved + 1;
          let at = bases r.Objfile.rel_section + r.Objfile.rel_offset in
          apply sink ~at ~kind:r.Objfile.rel_kind
            ~value:(sym_addr + r.Objfile.rel_addend)
            ~gp ~veneer;
          mark i
        | None -> pending := i :: !pending)
    obj.Objfile.relocs;
  List.rev !pending
