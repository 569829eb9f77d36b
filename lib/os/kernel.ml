module As = Hemlock_vm.Address_space
module Vm_object = Hemlock_vm.Vm_object
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Cpu = Hemlock_isa.Cpu
module Reg = Hemlock_isa.Reg
module Trap = Hemlock_isa.Trap
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

type blocked = Sched.blocked = { b_pid : int; b_comm : string; b_why : string }

exception Deadlock = Sched.Deadlock
exception Os_error of string
exception Wrong_format

(* The compat face of the errno ABI: result-returning calls have an
   exception-raising wrapper whose message carries the errno. *)
let os_error ctx e = Os_error (Printf.sprintf "%s: %s (%s)" ctx (Errno.message e) (Errno.name e))

let ok_exn ctx = function Ok v -> v | Error e -> raise (os_error ctx e)

type fault = Trap.fault = {
  f_addr : int;
  f_access : Prot.access;
  f_reason : As.fault_reason;
}

type segv_result = Resolved | Retry_when of (unit -> bool) | Unhandled

type fd = Vfs.fd

type t = {
  fs : Fs.t;
  pager : Vm_object.pager;  (* every address space of this machine maps through it *)
  sched : Sched.t;
  vfs : Vfs.t;
  ipc : t Ipc.t;
  console_buf : Buffer.t;
  segv_handlers : (int, (string * handler) list) Hashtbl.t;
  ext_syscalls : (int, t -> Proc.t -> Cpu.t -> unit) Hashtbl.t;
  mutable binfmts : (string * (t -> Proc.t -> Bytes.t -> path:string -> int)) list;
  mutable fork_hooks : (parent:Proc.t -> child:Proc.t -> unit) list;
  mutable reboot_hooks : (unit -> unit) list;
  mutable reap_hooks : (Proc.t -> unit) list;
}

and handler = t -> Proc.t -> fault -> segv_result

type segv_handler = handler

(* Internal control-flow exceptions for ISA syscall dispatch. *)
exception Isa_exit of int
exception Isa_yield
exception Isa_blocked of { cond : unit -> bool; why : string }

let create () =
  let fs = Fs.create () in
  Fs.rescan_shared fs;
  {
    fs;
    pager = Vm_object.create_pager ();
    sched = Sched.create ();
    vfs = Vfs.create ();
    ipc = Ipc.create ();
    console_buf = Buffer.create 256;
    segv_handlers = Hashtbl.create 32;
    ext_syscalls = Hashtbl.create 8;
    binfmts = [];
    fork_hooks = [];
    reboot_hooks = [];
    reap_hooks = [];
  }

(* Hooks are kept newest-first (O(1) registration) and reversed into
   registration order at each call. *)
let add_fork_hook t hook = t.fork_hooks <- hook :: t.fork_hooks

let add_reboot_hook t hook = t.reboot_hooks <- hook :: t.reboot_hooks

let add_reap_hook t hook = t.reap_hooks <- hook :: t.reap_hooks

let fs t = t.fs

let reboot t =
  Fs.rescan_shared t.fs;
  List.iter (fun h -> h ()) (List.rev t.reboot_hooks)

let console t = Buffer.contents t.console_buf
let console_clear t = Buffer.clear t.console_buf

let ticks t = Sched.ticks t.sched

(* Fs failures stop leaking out of kernel calls as Fs.Error: anything
   the file system raises on the far side of the syscall boundary comes
   back as an errno. *)
let fs_result f =
  match f () with
  | v -> Ok v
  | exception Fs.Error { kind; _ } -> Error (Errno.of_fs_kind kind)
  | exception Fault.Injected { failure; _ } -> Error (Errno.of_failure failure)

(* --- protection-domain calls (the paper's future-work syscall) -------- *)

let register_pd_service t ~name ~owner pd_entry =
  ok_exn ("pd service " ^ name) (Ipc.register_pd_service t.ipc ~name ~owner pd_entry)

let pd_call t _proc ~service arg =
  ok_exn ("pd_call " ^ service) (Ipc.pd_call t.ipc t ~service arg)

(* --- signals ----------------------------------------------------------- *)

let install_segv_handler t proc ~name h =
  let chain = Option.value ~default:[] (Hashtbl.find_opt t.segv_handlers proc.Proc.pid) in
  Hashtbl.replace t.segv_handlers proc.Proc.pid ((name, h) :: chain)

let deliver_segv t proc fault =
  let s = Stats.cur () in
  s.faults <- s.faults + 1;
  let chain = Option.value ~default:[] (Hashtbl.find_opt t.segv_handlers proc.Proc.pid) in
  let rec walk = function
    | [] -> Unhandled
    | (_, h) :: rest -> (
      match h t proc fault with
      | Resolved -> Resolved
      | Retry_when cond -> Retry_when cond
      | Unhandled -> walk rest)
  in
  walk chain

(* --- extension points --------------------------------------------------- *)

let register_syscall t num f =
  if num < Sysno.first_extension then
    invalid_arg "Kernel.register_syscall: number reserved for the core";
  Hashtbl.replace t.ext_syscalls num f

let register_binfmt t ~name loader = t.binfmts <- t.binfmts @ [ (name, loader) ]

let block_syscall ?(why = "syscall retry") cpu cond =
  cpu.Cpu.pc <- cpu.Cpu.pc - 4;
  raise (Isa_blocked { cond; why })

(* --- process table ------------------------------------------------------ *)

let find_proc t pid = Sched.find t.sched pid

let processes t = Sched.processes t.sched

let set_daemon t proc = Sched.set_daemon t.sched proc

let exit_proc t proc code =
  proc.Proc.state <- Proc.Zombie code;
  (* Detach the dead space from every VmObject so eviction stops
     chasing it; the mapping table itself survives for post-mortem
     inspection, and [reap] releases it. *)
  As.detach_all proc.Proc.space;
  Vfs.close_all t.vfs ~pid:proc.Proc.pid;
  Vfs.release_locks t.vfs ~pid:proc.Proc.pid

let kill t proc ~reason =
  Buffer.add_string t.console_buf
    (Printf.sprintf "[kernel] pid %d (%s) killed: %s\n" proc.Proc.pid proc.Proc.comm reason);
  exit_proc t proc (-1)

let spawn_native t ?(name = "native") ?(env = []) ?(cwd = Path.root) body =
  let pid = Sched.fresh_pid t.sched in
  let proc =
    {
      Proc.pid;
      parent = 0;
      space = As.create ~pager:t.pager ();
      cwd;
      env;
      state = Proc.Runnable;
      body = Proc.Native { nstate = Proc.Done };
      brk = Layout.heap_base;
      comm = name;
    }
  in
  (match proc.Proc.body with
  | Proc.Native n -> n.Proc.nstate <- Proc.Not_started (fun () -> body t proc)
  | Proc.Isa _ -> assert false);
  Sched.add t.sched proc;
  proc

(* --- memory helpers ----------------------------------------------------- *)

let pp_fault f = Format.asprintf "%a" Trap.pp_fault f

(* The one rule for a fault the kernel takes on a process's memory.
   Pager and copy-on-write faults are kernel-internal protocols, resolved
   by [As.resolve] before SIGSEGV delivery enters the picture: user-level
   handlers (the lazy linker included) never see them, [Stats.faults]
   never counts them, and no fuel is consumed, so the cost model is
   pager- and COW-blind.  Anything else walks the SIGSEGV chain.
   [Resolved] means: retry the access. *)
let resolve_fault t proc ({ f_addr; f_access; f_reason } as fault) =
  if As.resolve proc.Proc.space ~addr:f_addr ~access:f_access f_reason then Resolved
  else deliver_segv t proc fault

(* Checked access for native process code: retries through SIGSEGV
   delivery, blocking on Retry_when conditions. *)
let rec native_access : 'a. t -> Proc.t -> (unit -> 'a) -> 'a =
  fun t proc f ->
  match f () with
  | v -> v
  | exception As.Fault { addr; access; reason } -> (
    let fault = { f_addr = addr; f_access = access; f_reason = reason } in
    match resolve_fault t proc fault with
    | Resolved -> native_access t proc f
    | Retry_when cond ->
      Proc.wait_until ~why:(pp_fault fault) cond;
      native_access t proc f
    | Unhandled -> raise (Proc.Killed { pid = proc.Proc.pid; reason = pp_fault fault }))

(* Each checked access bills one instruction, so native workload code
   and ISA code are accounted on the same scale. *)
let tick () =
  let s = Stats.cur () in
  s.instructions <- s.instructions + 1

let load_u8 t proc addr =
  tick ();
  native_access t proc (fun () -> As.load_u8 proc.Proc.space addr)

let load_u32 t proc addr =
  tick ();
  native_access t proc (fun () -> As.load_u32 proc.Proc.space addr)

let store_u8 t proc addr v =
  tick ();
  native_access t proc (fun () -> As.store_u8 proc.Proc.space addr v)

let store_u32 t proc addr v =
  tick ();
  native_access t proc (fun () -> As.store_u32 proc.Proc.space addr v)
(* An unterminated string argument is a malformed *argument*, not a
   simulator bug: surface it as EFAULT through the errno ABI instead of
   letting the raw exception kill the whole simulation. *)
let read_cstring t proc addr =
  match native_access t proc (fun () -> As.read_cstring proc.Proc.space addr) with
  | s -> s
  | exception As.Cstring_unterminated _ ->
    raise (os_error (Printf.sprintf "read_cstring 0x%08x" addr) Errno.EFAULT)

(* The one bounded loop for an ISA syscall touching user memory: each
   fault is resolved and the access retried.  A registered syscall
   passes its [cpu], and a [Retry_when] blocks it for re-execution.  A
   built-in syscall passes none, and a [Retry_when] is fatal: [read] and
   [addr_to_path] store after their side effects, so running them again
   would be wrong.  Either way an [Unhandled] fault kills the caller
   ([Os_error] ends the syscall in a kill). *)
let syscall_access ?cpu t proc f =
  let rec go fuel =
    if fuel = 0 then raise (Os_error "fault loop in syscall argument")
    else
      match f () with
      | v -> v
      | exception As.Fault { addr; access; reason } -> (
        let fault = { f_addr = addr; f_access = access; f_reason = reason } in
        match (resolve_fault t proc fault, cpu) with
        | Resolved, _ -> go (fuel - 1)
        | Retry_when cond, Some cpu ->
          block_syscall ~why:(Printf.sprintf "mapping 0x%08x" addr) cpu cond
        | (Retry_when _ | Unhandled), _ ->
          raise (Os_error ("fault in syscall argument: " ^ pp_fault fault)))
  in
  go 64

(* A built-in syscall's buffer of [len] bytes at [addr], copied one page
   at a time by [f off n] (bytes [off, off + n) of the buffer), each page
   under its own [syscall_access]: a resolved fault retries only the page
   it struck, so the copy's length is not bounded by the loop's tries. *)
let syscall_pages t proc addr len f =
  let rec go off =
    if off < len then begin
      let n = min (len - off) (Layout.page_size - ((addr + off) land (Layout.page_size - 1))) in
      syscall_access t proc (fun () -> f off n);
      go (off + n)
    end
  in
  go 0

let syscall_load_u32 t proc cpu addr =
  syscall_access ~cpu t proc (fun () -> As.load_u32 proc.Proc.space addr)

let syscall_store_u32 t proc cpu addr v =
  syscall_access ~cpu t proc (fun () -> As.store_u32 proc.Proc.space addr v)

(* A wake-up condition's read: a pager fault is resolved (the word's
   page may be evicted while its process waits, and the condition could
   never come true otherwise); any other fault reads as "not yet". *)
let peek_u32 proc addr =
  let space = proc.Proc.space in
  let rec go first =
    match As.load_u32 space addr with
    | v -> Some v
    | exception As.Fault { addr; access; reason } ->
      if first && As.resolve space ~addr ~access reason then go false else None
  in
  go true

(* --- the new kernel calls ------------------------------------------------ *)

let sys_path_to_addr_r t proc path =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  fs_result (fun () -> Fs.addr_of_path t.fs ~cwd:proc.Proc.cwd path)

let sys_path_to_addr t proc path =
  ok_exn ("path_to_addr " ^ path) (sys_path_to_addr_r t proc path)

let sys_addr_to_path_r t _proc addr =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  fs_result (fun () -> Fs.path_of_addr t.fs addr)

let sys_addr_to_path t proc addr =
  ok_exn (Printf.sprintf "addr_to_path 0x%08x" addr) (sys_addr_to_path_r t proc addr)

let map_shared_segment t proc ~base ~path ~seg ~prot =
  match As.mapping_at proc.Proc.space base with
  | Some _ -> false
  | None ->
    As.map proc.Proc.space ~base ~len:Layout.shared_slot_size ~seg
      ~kind:
        (Vm_object.File_backed
           { path; writeback = (fun ~page -> Fs.page_writeback t.fs ~path ~seg ~page) })
      ~prot ~share:As.Public ~label:path ();
    true

let map_shared_file t proc ~path ~prot =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  ok_exn ("map_shared_file " ^ path)
    (fs_result (fun () ->
         let base = Fs.addr_of_path t.fs ~cwd:proc.Proc.cwd path in
         let canonical = Fs.path_of_addr t.fs base in
         ignore
           (map_shared_segment t proc ~base ~path:canonical ~seg:(Fs.segment_of t.fs canonical)
              ~prot);
         base))

(* --- file descriptors ----------------------------------------------------- *)

let sys_open_r t proc ?(create = false) ?(trunc = false) path =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  s.files_opened <- s.files_opened + 1;
  match
    fs_result (fun () ->
        Fault.hit "vfs.open";
        let cwd = proc.Proc.cwd in
        if create && not (Fs.exists t.fs ~cwd path) then Fs.create_file t.fs ~cwd path;
        let seg = Fs.segment_of t.fs ~cwd path in
        if trunc then Segment.resize seg 0;
        seg)
  with
  | Ok seg -> Vfs.alloc t.vfs ~pid:proc.Proc.pid seg
  | Error e -> Error e

let sys_open t proc ?create ?trunc path =
  ok_exn ("open " ^ path) (sys_open_r t proc ?create ?trunc path)

let sys_open_by_addr_r t proc addr =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  s.files_opened <- s.files_opened + 1;
  match
    fs_result (fun () ->
        let path = Fs.path_of_addr t.fs addr in
        Fs.segment_of t.fs path)
  with
  | Ok seg -> Vfs.alloc t.vfs ~pid:proc.Proc.pid seg
  | Error e -> Error e

let sys_open_by_addr t proc addr =
  ok_exn (Printf.sprintf "open 0x%08x" addr) (sys_open_by_addr_r t proc addr)

let sys_read_r t proc fd len =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  match Vfs.read t.vfs ~pid:proc.Proc.pid fd len with
  | Ok b ->
    s.bytes_copied <- s.bytes_copied + Bytes.length b;
    Ok b
  | Error e -> Error e

let sys_read t proc fd len = ok_exn (Printf.sprintf "read fd %d" fd) (sys_read_r t proc fd len)

let sys_write_r t proc fd b =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  match Vfs.write t.vfs ~pid:proc.Proc.pid fd b with
  | Ok n ->
    s.bytes_copied <- s.bytes_copied + n;
    Ok n
  | Error e -> Error e

let sys_write t proc fd b = ok_exn (Printf.sprintf "write fd %d" fd) (sys_write_r t proc fd b)

let sys_lseek_r t proc fd pos =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  Vfs.lseek t.vfs ~pid:proc.Proc.pid fd pos

let sys_lseek t proc fd pos =
  ok_exn (Printf.sprintf "lseek fd %d" fd) (sys_lseek_r t proc fd pos)

let sys_close_r t proc fd =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  Vfs.close t.vfs ~pid:proc.Proc.pid fd

let sys_close t proc fd = ok_exn (Printf.sprintf "close fd %d" fd) (sys_close_r t proc fd)

(* --- file locks ------------------------------------------------------------ *)

let lock_key proc path = Path.to_string (Path.of_string ~cwd:proc.Proc.cwd path)

let try_flock t proc path =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  Vfs.try_lock t.vfs ~key:(lock_key proc path) ~pid:proc.Proc.pid

let flock t proc path =
  let key = lock_key proc path in
  Proc.wait_until ~why:("flock " ^ key) (fun () -> not (Vfs.locked t.vfs ~key));
  ignore (try_flock t proc path)

let funlock t proc path =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  match Vfs.unlock t.vfs ~key:(lock_key proc path) ~pid:proc.Proc.pid with
  | Ok () -> ()
  | Error _ -> raise (Os_error "funlock: not the lock holder")

let flock_holder t path =
  Vfs.lock_holder t.vfs ~key:(Path.to_string (Path.of_string ~cwd:Path.root path))

(* --- message queues ---------------------------------------------------------- *)

let msgq_create t name ~capacity =
  match Ipc.msgq_create t.ipc name ~capacity with
  | Ok () -> ()
  | Error _ -> raise (Os_error ("msgq exists: " ^ name))

let msgq_exists t name = Ipc.msgq_exists t.ipc name

let msg_send t _proc name b = ok_exn ("msgq " ^ name) (Ipc.msg_send t.ipc name b)

let msg_recv t _proc name = ok_exn ("msgq " ^ name) (Ipc.msg_recv t.ipc name)

let msg_try_recv t _proc name = ok_exn ("msgq " ^ name) (Ipc.msg_try_recv t.ipc name)

(* --- exec / fork -------------------------------------------------------------- *)

let stack_bytes = 256 * 1024

let map_stack t proc =
  ignore t;
  let seg =
    Segment.create ~name:(Printf.sprintf "stack:%d" proc.Proc.pid) ~max_size:stack_bytes ()
  in
  As.map proc.Proc.space ~base:(Layout.stack_limit - stack_bytes) ~len:stack_bytes ~seg
    ~kind:Vm_object.Anonymous ~prot:Prot.Read_write ~share:As.Private ~label:"stack" ()

let exec t proc path =
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  (* Signal dispositions are reset across exec, as in Unix. *)
  Hashtbl.remove t.segv_handlers proc.Proc.pid;
  let image =
    ok_exn ("exec " ^ path)
      (fs_result (fun () -> Fs.read_file t.fs ~cwd:proc.Proc.cwd path))
  in
  let rec try_loaders = function
    | [] ->
      raise
        (os_error (Printf.sprintf "exec %s: unrecognised format" path) Errno.ENOEXEC)
    | (_, loader) :: rest -> (
      (* exec replaces the image: release the previous space (the
         original one first, then each failed loader attempt's). *)
      As.release proc.Proc.space;
      proc.Proc.space <- As.create ~pager:t.pager ();
      match loader t proc image ~path with
      | entry -> entry
      | exception Wrong_format -> try_loaders rest)
  in
  let entry = try_loaders t.binfmts in
  map_stack t proc;
  proc.Proc.brk <- Layout.heap_base;
  proc.Proc.comm <- path;
  let cpu = Cpu.create ~entry ~sp:(Layout.stack_limit - 64) in
  proc.Proc.body <- Proc.Isa cpu;
  proc.Proc.state <- Proc.Runnable

let spawn_blank t ?(name = "blank") ?(env = []) ?(cwd = Path.root) () =
  let proc = spawn_native t ~name ~env ~cwd (fun _ _ -> 0) in
  proc.Proc.state <- Proc.Blocked { cond = (fun () -> false); why = "a body" };
  proc

let set_isa_entry t proc ~entry =
  (match As.mapping_at proc.Proc.space (Layout.stack_limit - stack_bytes) with
  | Some _ -> ()
  | None -> map_stack t proc);
  let cpu = Cpu.create ~entry ~sp:(Layout.stack_limit - 64) in
  proc.Proc.body <- Proc.Isa cpu;
  proc.Proc.state <- Proc.Runnable

let spawn_exec t ?(name = "a.out") ?(env = []) ?(cwd = Path.root) path =
  let proc = spawn_native t ~name ~env ~cwd (fun _ _ -> 0) in
  exec t proc path;
  proc

let fork_isa t proc =
  match proc.Proc.body with
  | Proc.Native _ -> raise (Os_error "fork: only ISA processes can fork")
  | Proc.Isa cpu ->
    let s = Stats.cur () in
    s.syscalls <- s.syscalls + 1;
    let pid = Sched.fresh_pid t.sched in
    let child_cpu = Cpu.fork cpu in
    let child =
      {
        Proc.pid;
        parent = proc.Proc.pid;
        space = As.clone proc.Proc.space;
        cwd = proc.Proc.cwd;
        env = proc.Proc.env;
        state = Proc.Runnable;
        body = Proc.Isa child_cpu;
        brk = proc.Proc.brk;
        comm = proc.Proc.comm;
      }
    in
    (* The child inherits the parent's signal dispositions. *)
    (match Hashtbl.find_opt t.segv_handlers proc.Proc.pid with
    | Some chain -> Hashtbl.replace t.segv_handlers pid chain
    | None -> ());
    Sched.add t.sched child;
    List.iter (fun hook -> hook ~parent:proc ~child) (List.rev t.fork_hooks);
    child

let children t pid =
  List.filter (fun p -> p.Proc.parent = pid) (processes t)

let reap t proc =
  let kids = children t proc.Proc.pid in
  match List.find_opt Proc.is_zombie kids with
  | Some z -> (
    match z.Proc.state with
    | Proc.Zombie code ->
      (* The one place a process leaves the table, and the one point
         where what it owned dies: the hooks drop their per-process
         state, then the address space is released. *)
      Sched.remove t.sched z.Proc.pid;
      Hashtbl.remove t.segv_handlers z.Proc.pid;
      List.iter (fun hook -> hook z) (List.rev t.reap_hooks);
      As.release z.Proc.space;
      Some (z.Proc.pid, code)
    | Proc.Runnable | Proc.Blocked _ -> assert false)
  | None -> None

let waitpid t proc =
  if children t proc.Proc.pid = [] then raise (os_error "waitpid" Errno.ECHILD);
  Proc.wait_until ~why:"waitpid: a child to exit" (fun () ->
      List.exists Proc.is_zombie (children t proc.Proc.pid));
  let s = Stats.cur () in
  s.syscalls <- s.syscalls + 1;
  Option.get (reap t proc)

(* --- ISA syscall dispatch -------------------------------------------------------- *)

let sbrk t proc bytes =
  let old = proc.Proc.brk in
  if bytes > 0 then begin
    let len = Layout.page_up bytes in
    if proc.Proc.brk + len > Layout.heap_limit then Error Errno.ENOMEM
    else begin
      let seg =
        Segment.create ~name:(Printf.sprintf "heap:%d:0x%x" proc.Proc.pid old) ~max_size:len ()
      in
      Segment.resize seg len;
      As.map proc.Proc.space ~base:old ~len ~seg ~kind:Vm_object.Anonymous
        ~prot:Prot.Read_write ~share:As.Private ~label:"heap" ();
      proc.Proc.brk <- old + len;
      ignore t;
      Ok old
    end
  end
  else Ok old

(* Failed syscalls answer with a negative errno in $v0 — the Linux
   convention — so compiled programs observe and recover from ENOENT,
   EBADF, ENOSPC, … instead of dying inside the kernel. *)
let set_errno cpu e = Cpu.set_reg cpu Reg.v0 (Codec.mask32 (-Errno.code e))

let set_result cpu = function
  | Ok v -> Cpu.set_reg cpu Reg.v0 v
  | Error e -> set_errno cpu e

(* Read a syscall's string argument; an unterminated string answers the
   syscall with -EFAULT rather than killing the process (or, worse, the
   simulator). *)
let isa_cstring t proc addr =
  match syscall_access t proc (fun () -> As.read_cstring proc.Proc.space addr) with
  | s -> Ok s
  | exception As.Cstring_unterminated _ -> Error Errno.EFAULT

let dispatch t proc cpu =
  let v0 = Cpu.reg cpu Reg.v0 in
  let a0 = Cpu.reg cpu Reg.a0 in
  let a1 = Cpu.reg cpu Reg.a1 in
  let a2 = Cpu.reg cpu Reg.a2 in
  if v0 = Sysno.exit then raise (Isa_exit (Codec.sext32 a0))
  else if v0 = Sysno.fork then begin
    let child = fork_isa t proc in
    (match child.Proc.body with
    | Proc.Isa child_cpu -> Cpu.set_reg child_cpu Reg.v0 0
    | Proc.Native _ -> assert false);
    Cpu.set_reg cpu Reg.v0 child.Proc.pid
  end
  else if v0 = Sysno.wait then begin
    if children t proc.Proc.pid = [] then set_errno cpu Errno.ECHILD
    else
      match reap t proc with
      | Some (pid, code) ->
        Cpu.set_reg cpu Reg.v0 pid;
        Cpu.set_reg cpu Reg.v1 code
      | None ->
        (* Block and retry the syscall: rewind past the trap. *)
        cpu.Cpu.pc <- cpu.Cpu.pc - 4;
        raise
          (Isa_blocked
             {
               cond = (fun () -> List.exists Proc.is_zombie (children t proc.Proc.pid));
               why = "wait: a child to exit";
             })
  end
  else if v0 = Sysno.getpid then Cpu.set_reg cpu Reg.v0 proc.Proc.pid
  else if v0 = Sysno.yield then raise Isa_yield
  else if v0 = Sysno.sbrk then set_result cpu (sbrk t proc a0)
  else if v0 = Sysno.print_int then
    Buffer.add_string t.console_buf (string_of_int (Codec.sext32 a0))
  else if v0 = Sysno.print_str then begin
    match isa_cstring t proc a0 with
    | Ok s -> Buffer.add_string t.console_buf s
    | Error e -> set_errno cpu e
  end
  else if v0 = Sysno.path_to_addr then begin
    match isa_cstring t proc a0 with
    | Ok path -> set_result cpu (sys_path_to_addr_r t proc path)
    | Error e -> set_errno cpu e
  end
  else if v0 = Sysno.addr_to_path then begin
    match sys_addr_to_path_r t proc a0 with
    | Ok path ->
      let truncated = String.sub path 0 (min (String.length path) (max 0 (a2 - 1))) in
      syscall_access t proc (fun () ->
          String.iteri
            (fun i c -> As.store_u8 proc.Proc.space (a1 + i) (Char.code c))
            truncated;
          As.store_u8 proc.Proc.space (a1 + String.length truncated) 0);
      Cpu.set_reg cpu Reg.v0 (String.length truncated)
    | Error e -> set_errno cpu e
  end
  else if v0 = Sysno.open_ then begin
    match isa_cstring t proc a0 with
    | Ok path ->
      set_result cpu
        (sys_open_r t proc
           ~create:(a1 land Sysno.o_create <> 0)
           ~trunc:(a1 land Sysno.o_trunc <> 0)
           path)
    | Error e -> set_errno cpu e
  end
  else if v0 = Sysno.close then
    set_result cpu (Result.map (fun () -> 0) (sys_close_r t proc a0))
  else if v0 = Sysno.read then begin
    match sys_read_r t proc a0 (Codec.sext32 a2) with
    | Ok b ->
      syscall_pages t proc a1 (Bytes.length b) (fun off n ->
          for i = off to off + n - 1 do
            As.store_u8 proc.Proc.space (a1 + i) (Char.code (Bytes.get b i))
          done);
      Cpu.set_reg cpu Reg.v0 (Bytes.length b)
    | Error e -> set_errno cpu e
  end
  else if v0 = Sysno.write then begin
    let len = Codec.sext32 a2 in
    if len < 0 then set_errno cpu Errno.EINVAL
    else begin
      let b = Bytes.create len in
      syscall_pages t proc a1 len (fun off n ->
          for i = off to off + n - 1 do
            Bytes.set b i (Char.chr (As.load_u8 proc.Proc.space (a1 + i)))
          done);
      set_result cpu (sys_write_r t proc a0 b)
    end
  end
  else if v0 = Sysno.lseek then set_result cpu (sys_lseek_r t proc a0 (Codec.sext32 a1))
  else
    match Hashtbl.find_opt t.ext_syscalls v0 with
    | Some f -> f t proc cpu
    | None ->
      (* Unknown numbers are a recoverable error, not a kill: the one
         deliberate hole programs can probe. *)
      set_errno cpu Errno.ENOSYS

(* --- the trap pipeline ------------------------------------------------------------ *)

let quantum = 4000

(* Every exit from user mode arrives here as a Trap.t.  [`Stop] ends the
   process's quantum (blocked, yielded, exited, or a fault that must be
   retried from the top); [`Continue] resumes the interrupted burst.

   The pipeline takes no locks: a kernel and everything reachable from
   it (its Fs, processes, address spaces, segments and VM objects) is
   touched by one domain at a time.  [Cluster.run] keeps each machine
   on one worker for the whole run, and nothing else steps a kernel off
   the calling domain. *)

(* A fault the kernel resolves itself resumes the burst with no fuel
   consumed, so the quantum (and [context_switches]) are exactly what
   they would be without the pager or COW.  [Cpu.step] bills
   [instructions] between fetch and execute, so a load or store fault
   raises after its tick and the retried access would count twice: the
   tick is rolled back unless the access was a fetch, which faults
   before the tick.  A COW fault is always a store. *)
let internal_fault proc { f_addr; f_access; f_reason } =
  let resolved = As.resolve proc.Proc.space ~addr:f_addr ~access:f_access f_reason in
  if resolved && f_access <> Prot.Exec then begin
    let s = Stats.cur () in
    s.instructions <- s.instructions - 1
  end;
  resolved

let handle_trap t proc cpu trap =
  match trap with
  | Trap.Halt code ->
    exit_proc t proc code;
    `Stop
  | Trap.Illegal _ ->
    (* SIGILL: the process dies, the simulator does not. *)
    kill t proc ~reason:(Format.asprintf "%a" Trap.pp trap);
    `Stop
  | Trap.Fault fault -> (
    if internal_fault proc fault then `Continue
    else
      (* SIGSEGV delivery for a fault the kernel could not resolve. *)
      match deliver_segv t proc fault with
      | Resolved -> `Stop (* pc still points at the faulting instruction *)
      | Retry_when cond ->
        proc.Proc.state <- Proc.Blocked { cond; why = pp_fault fault };
        `Stop
      | Unhandled ->
        kill t proc ~reason:(pp_fault fault);
        `Stop)
  | Trap.Syscall -> (
    match dispatch t proc cpu with
    | () -> `Continue
    | exception Isa_exit code ->
      exit_proc t proc code;
      `Stop
    | exception Isa_yield -> `Stop
    | exception Isa_blocked { cond; why } ->
      proc.Proc.state <- Proc.Blocked { cond; why };
      `Stop
    | exception Os_error msg ->
      kill t proc ~reason:msg;
      `Stop
    | exception As.Fault { addr; access; reason } ->
      (* A registered syscall touched user memory raw, not through the
         syscall accessors.  The pc is already past the trap, so there is
         nothing to resume or retry: the caller dies of the fault. *)
      kill t proc ~reason:(pp_fault { f_addr = addr; f_access = access; f_reason = reason });
      `Stop)

let run_isa_quantum t proc cpu =
  let rec burst fuel =
    if fuel > 0 then
      match Cpu.run_trap ~fuel cpu proc.Proc.space with
      | Cpu.Out_of_fuel, _ -> ()
      | Cpu.Trapped trap, left -> (
        match handle_trap t proc cpu trap with
        | `Continue -> burst left
        | `Stop -> ())
  in
  try burst quantum with
  | Cpu.Cpu_error { pc; msg } ->
    kill t proc ~reason:(Printf.sprintf "cpu error at 0x%08x: %s" pc msg)

let resume_native t proc n =
  let handler =
    {
      Effect.Deep.retc = (fun code -> Proc.Finished code);
      exnc =
        (fun e ->
          match e with Proc.Exit_proc code -> Proc.Finished code | e -> Proc.Crashed e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Proc.Yield ->
            Some
              (fun (k : (a, Proc.outcome) Effect.Deep.continuation) ->
                n.Proc.nstate <- Proc.Suspended k;
                Proc.Paused)
          | Proc.Wait_until { cond; why } ->
            Some
              (fun (k : (a, Proc.outcome) Effect.Deep.continuation) ->
                n.Proc.nstate <- Proc.Suspended k;
                proc.Proc.state <- Proc.Blocked { cond; why };
                Proc.Paused)
          | _ -> None);
    }
  in
  let outcome =
    match n.Proc.nstate with
    | Proc.Not_started f ->
      n.Proc.nstate <- Proc.Done;
      Effect.Deep.match_with f () handler
    | Proc.Suspended k ->
      n.Proc.nstate <- Proc.Done;
      Effect.Deep.continue k ()
    | Proc.Done -> Proc.Finished 0
  in
  match outcome with
  | Proc.Finished code -> exit_proc t proc code
  | Proc.Crashed (Proc.Killed { reason; _ }) -> kill t proc ~reason
  (* power loss stops the machine, not just this process *)
  | Proc.Crashed (Fault.Crash _ as e) -> raise e
  | Proc.Crashed e -> kill t proc ~reason:("uncaught exception: " ^ Printexc.to_string e)
  | Proc.Paused -> ()

let run_one t proc =
  match proc.Proc.body with
  | Proc.Isa cpu -> run_isa_quantum t proc cpu
  | Proc.Native n -> resume_native t proc n

let step t = Sched.step t.sched ~run_one:(run_one t)

let blocked_processes t = Sched.blocked_nondaemons t.sched

let run ?max_ticks t =
  Sched.run ?max_ticks t.sched ~run_one:(run_one t) ~on_budget:(fun () ->
      raise (Os_error "Kernel.run: tick budget exhausted"))

(* --- network delivery ------------------------------------------------------------- *)

(* Direct enqueue onto a machine-local message queue, for deliveries
   that originate outside any process — the cluster's network pump.
   No carrier process is spawned and nothing is billed here: the
   {e sending} machine accounts [messages_sent]/[bytes_copied] when the
   enqueue succeeds, and a full queue answers [EAGAIN] so the sender
   holds the message instead of dropping it. *)
let enqueue_net t name payload = Ipc.msg_enqueue t.ipc name payload
