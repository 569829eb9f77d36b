module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module As = Hemlock_vm.Address_space
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module Objfile = Hemlock_obj.Objfile
module Insn = Hemlock_isa.Insn
module Reg = Hemlock_isa.Reg
module Cpu = Hemlock_isa.Cpu
module Modinst = Hemlock_linker.Modinst
module Aout = Hemlock_linker.Aout
module Reloc_engine = Hemlock_linker.Reloc_engine
module Fs = Hemlock_sfs.Fs
module Stats = Hemlock_util.Stats

exception Link_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

let bind_sysno = 42

let stub_bytes = 16

type stub = { st_symbol : string; st_addr : int; mutable st_bound : bool }

type pstate = {
  mutable ps_instances : Modinst.t list;
  ps_exports : (string, int) Hashtbl.t;
  ps_stub_seg : Segment.t;
  ps_stub_base : int;
  ps_stub_cap : int;
  mutable ps_stub_next : int;
  ps_stubs : (int, stub) Hashtbl.t; (* id -> stub *)
  ps_by_symbol : (string, int) Hashtbl.t; (* symbol -> id *)
  mutable ps_bound : int;
}

type t = { k : Kernel.t; states : (int, pstate) Hashtbl.t }

let kernel t = t.k

let state t proc =
  match Hashtbl.find_opt t.states proc.Proc.pid with
  | Some ps -> ps
  | None -> errf "process %d has no PLT state (call load first)" proc.Proc.pid

let dummy_scope =
  { Modinst.sc_label = "plt"; sc_modules = []; sc_search = []; sc_parent = None }

let write_stub_trap ps ~id ~addr =
  let seg_off = addr - ps.ps_stub_base in
  Segment.set_u32 ps.ps_stub_seg seg_off (Insn.encode (Insn.Addi (Reg.a3, Reg.zero, id)));
  Segment.set_u32 ps.ps_stub_seg (seg_off + 4)
    (Insn.encode (Insn.Addi (Reg.v0, Reg.zero, bind_sysno)));
  Segment.set_u32 ps.ps_stub_seg (seg_off + 8) (Insn.encode Insn.Syscall);
  Segment.set_u32 ps.ps_stub_seg (seg_off + 12) (Insn.encode Insn.nop)

let write_stub_direct ps ~addr ~target =
  let seg_off = addr - ps.ps_stub_base in
  Segment.set_u32 ps.ps_stub_seg seg_off
    (Insn.encode (Insn.Lui (Reg.at, (target lsr 16) land 0xFFFF)));
  Segment.set_u32 ps.ps_stub_seg (seg_off + 4)
    (Insn.encode (Insn.Ori (Reg.at, Reg.at, target land 0xFFFF)));
  Segment.set_u32 ps.ps_stub_seg (seg_off + 8) (Insn.encode (Insn.Jr Reg.at));
  Segment.set_u32 ps.ps_stub_seg (seg_off + 12) (Insn.encode Insn.nop)

let stub_for ps symbol =
  match Hashtbl.find_opt ps.ps_by_symbol symbol with
  | Some id -> (Hashtbl.find ps.ps_stubs id).st_addr
  | None ->
    if ps.ps_stub_next >= ps.ps_stub_cap then errf "jump table full";
    let id = ps.ps_stub_next in
    ps.ps_stub_next <- id + 1;
    let addr = ps.ps_stub_base + (id * stub_bytes) in
    write_stub_trap ps ~id ~addr;
    Hashtbl.replace ps.ps_stubs id { st_symbol = symbol; st_addr = addr; st_bound = false };
    Hashtbl.replace ps.ps_by_symbol symbol id;
    addr

let load t proc ~located =
  let fs = Kernel.fs t.k in
  let objs =
    List.map
      (fun path ->
        match Objfile.parse (Fs.read_file fs ~cwd:proc.Proc.cwd path) with
        | obj ->
          if obj.Objfile.uses_gp then errf "module %s uses $gp" path;
          (path, obj)
        | exception Fs.Error { kind; _ } ->
          errf "library %s missing at load time: %s" path (Fs.err_kind_to_string kind)
        | exception Failure msg -> errf "bad template %s: %s" path msg)
      located
  in
  (* Jump table sized for every distinct external call target. *)
  let call_targets =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (_, obj) ->
           List.filter_map
             (fun r ->
               if r.Objfile.rel_kind = Objfile.Jump26 then Some r.Objfile.rel_symbol
               else None)
             obj.Objfile.relocs)
         objs)
  in
  let stub_cap = List.length call_targets + 4 in
  let stub_area = Layout.page_up (stub_cap * stub_bytes) in
  let stub_base =
    match
      As.find_gap proc.Proc.space ~lo:Aout.private_arena_lo ~hi:Aout.private_arena_hi
        ~size:stub_area
    with
    | Some base -> base
    | None -> errf "no arena space for the jump table"
  in
  let stub_seg = Segment.create ~name:(Printf.sprintf "plt:%d" proc.Proc.pid) ~max_size:stub_area () in
  Segment.resize stub_seg stub_area;
  As.map proc.Proc.space ~base:stub_base ~len:stub_area ~seg:stub_seg
    ~prot:Prot.Read_write_exec ~share:As.Private ~label:"jump-table" ();
  let ps =
    {
      ps_instances = [];
      ps_exports = Hashtbl.create 64;
      ps_stub_seg = stub_seg;
      ps_stub_base = stub_base;
      ps_stub_cap = stub_cap;
      ps_stub_next = 0;
      ps_stubs = Hashtbl.create 32;
      ps_by_symbol = Hashtbl.create 32;
      ps_bound = 0;
    }
  in
  Hashtbl.replace t.states proc.Proc.pid ps;
  (* Place every module eagerly. *)
  let instances =
    List.map
      (fun (path, obj) ->
        let size = Layout.page_up (Modinst.placed_size obj) in
        let base =
          match
            As.find_gap proc.Proc.space ~lo:Aout.private_arena_lo ~hi:Aout.private_arena_hi
              ~size
          with
          | Some base -> base
          | None -> errf "no arena space for %s" path
        in
        let inst = Modinst.private_instance ~located:path ~obj ~base ~scope:dummy_scope () in
        As.map proc.Proc.space ~base ~len:size ~seg:inst.Modinst.inst_seg
          ~prot:Prot.Read_write_exec ~share:As.Private ~label:path ();
        inst)
      objs
  in
  ps.ps_instances <- instances;
  (* Flat namespace: first definition wins. *)
  List.iter
    (fun inst ->
      List.iter
        (fun sym ->
          if not (Hashtbl.mem ps.ps_exports sym.Objfile.sym_name) then
            Hashtbl.replace ps.ps_exports sym.Objfile.sym_name (Modinst.symbol_addr inst sym))
        (Objfile.exports inst.Modinst.inst_obj))
    instances;
  (* Resolve: data eagerly, calls through stubs. *)
  let link_one inst =
    let obj = inst.Modinst.inst_obj in
    let image = Modinst.image_base inst in
    let text_b, data_b, bss_b = Objfile.section_bases obj in
    let bases = function
      | Objfile.Text -> image + text_b
      | Objfile.Data -> image + data_b
      | Objfile.Bss -> image + bss_b
    in
    let sink = Modinst.sink_of_segment inst.Modinst.inst_seg ~vaddr_base:inst.Modinst.inst_base in
    let resolve_data name =
      match Modinst.find_own inst name with
      | Some a -> Some a
      | None -> Hashtbl.find_opt ps.ps_exports name
    in
    List.iter
      (fun r ->
        let at = bases r.Objfile.rel_section + r.Objfile.rel_offset in
        let s = Stats.cur () in
        s.relocs_applied <- s.relocs_applied + 1;
        match r.Objfile.rel_kind with
        | Objfile.Jump26 ->
          (* Lazy function binding: always through the jump table, even
             for targets known now. *)
          let stub = stub_for ps r.Objfile.rel_symbol in
          let word = sink.Reloc_engine.get32 at in
          sink.Reloc_engine.set32 at
            ((word land lnot 0x3FF_FFFF) lor Insn.jump_field ~target:stub)
        | Objfile.Abs32 | Objfile.Hi16 | Objfile.Lo16 -> (
          match resolve_data r.Objfile.rel_symbol with
          | Some addr ->
            s.symbols_resolved <- s.symbols_resolved + 1;
            Reloc_engine.apply sink ~at ~kind:r.Objfile.rel_kind
              ~value:(addr + r.Objfile.rel_addend) ~gp:None ~veneer:None
          | None ->
            errf "undefined data reference %s in %s (SunOS-style loading verifies \
                  all names at load time)"
              r.Objfile.rel_symbol inst.Modinst.inst_key)
        | Objfile.Gprel16 -> errf "gp-relative relocation in %s" inst.Modinst.inst_key)
      obj.Objfile.relocs;
    inst.Modinst.inst_linked <- true;
    let s = Stats.cur () in
    s.modules_linked <- s.modules_linked + 1
  in
  List.iter link_one instances

let dlsym t proc name = Hashtbl.find_opt (state t proc).ps_exports name

let bound t proc = (state t proc).ps_bound

let stubs t proc = (state t proc).ps_stub_next

let install k =
  let t = { k; states = Hashtbl.create 8 } in
  Kernel.add_reap_hook k (fun proc -> Hashtbl.remove t.states proc.Proc.pid);
  Kernel.register_syscall k bind_sysno (fun _k proc cpu ->
      let ps = state t proc in
      let id = Cpu.reg cpu Reg.a3 in
      match Hashtbl.find_opt ps.ps_stubs id with
      | None -> raise (Kernel.Os_error (Printf.sprintf "plt: bad stub id %d" id))
      | Some stub -> (
        match Hashtbl.find_opt ps.ps_exports stub.st_symbol with
        | None ->
          raise (Kernel.Os_error (Printf.sprintf "plt: undefined function %s" stub.st_symbol))
        | Some target ->
          if not stub.st_bound then begin
            write_stub_direct ps ~addr:stub.st_addr ~target;
            stub.st_bound <- true;
            ps.ps_bound <- ps.ps_bound + 1;
            let s = Stats.cur () in
            s.symbols_resolved <- s.symbols_resolved + 1
          end;
          (* Restart execution at the target; $ra still holds the
             original caller's return address. *)
          cpu.Cpu.pc <- target));
  t
