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
  sched : Sched.t;
  vfs : Vfs.t;
  ipc : t Ipc.t;
  console_buf : Buffer.t;
  segv_handlers : (int, (string * handler) list) Hashtbl.t;
  ext_syscalls : (int, t -> Proc.t -> Cpu.t -> unit) Hashtbl.t;
  mutable binfmts : (string * (t -> Proc.t -> Bytes.t -> path:string -> int)) list;
  mutable fork_hooks : (parent:Proc.t -> child:Proc.t -> unit) list;
  mutable reboot_hooks : (unit -> unit) list;
}

and handler = t -> Proc.t -> fault -> segv_result

type segv_handler = handler

(* Internal control-flow exceptions for ISA syscall dispatch. *)
exception Isa_exit of int
exception Isa_yield
exception Isa_blocked of { cond : unit -> bool; why : string }
exception Isa_fatal of string

let create () =
  let fs = Fs.create () in
  Fs.rescan_shared fs;
  {
    fs;
    sched = Sched.create ();
    vfs = Vfs.create ();
    ipc = Ipc.create ();
    console_buf = Buffer.create 256;
    segv_handlers = Hashtbl.create 32;
    ext_syscalls = Hashtbl.create 8;
    binfmts = [];
    fork_hooks = [];
    reboot_hooks = [];
  }

(* Hooks are kept newest-first (O(1) registration) and reversed into
   registration order at each fork. *)
let add_fork_hook t hook = t.fork_hooks <- hook :: t.fork_hooks

let add_reboot_hook t hook = t.reboot_hooks <- hook :: t.reboot_hooks

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

let pd_call_r t proc ~service arg =
  ignore proc;
  Ipc.pd_call t.ipc t ~service arg

let pd_call t proc ~service arg =
  ok_exn ("pd_call " ^ service) (pd_call_r t proc ~service arg)

(* --- signals ----------------------------------------------------------- *)

let install_segv_handler t proc ~name h =
  let chain = Option.value ~default:[] (Hashtbl.find_opt t.segv_handlers proc.Proc.pid) in
  Hashtbl.replace t.segv_handlers proc.Proc.pid ((name, h) :: chain)

let deliver_segv t proc fault =
  (Stats.cur ()).faults <- (Stats.cur ()).faults + 1;
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
     inspection.  Segment refcounts stay (the documented
     no-release-on-exit rule). *)
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
      space = As.create ();
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

let fault_of_exn = function
  | As.Fault { addr; access; reason } ->
    Some { f_addr = addr; f_access = access; f_reason = reason }
  | _ -> None

let pp_fault f = Format.asprintf "%a" Trap.pp_fault f

(* Copy-on-write faults are a kernel-internal protocol, resolved before
   SIGSEGV delivery ever enters the picture: user-level handlers (the
   lazy linker included) never see them, [Stats.faults] never counts
   them, and an ISA process's quantum is not ended by one.  When this
   returns true the mapping's write permission is restored and the
   caller must simply retry the faulting access. *)
let cow_fault proc fault =
  fault.f_reason = As.Protection
  && fault.f_access = Prot.Write
  && As.resolve_cow proc.Proc.space fault.f_addr

(* Demand-paging faults ride the same kernel-internal protocol: a
   [Not_resident] access materialises the page (evicting under a full
   RAM budget) and the caller retries.  Never delivered to user
   handlers, never billed to [Stats.faults], no fuel consumed — so the
   cost model is pager-blind. *)
let pager_fault proc fault =
  fault.f_reason = As.Not_resident
  && As.resolve_pager proc.Proc.space fault.f_addr fault.f_access

(* Checked access for native process code: retries through SIGSEGV
   delivery, blocking on Retry_when conditions. *)
let rec native_access : 'a. t -> Proc.t -> (unit -> 'a) -> 'a =
  fun t proc f ->
  try f () with
  | As.Fault _ as e -> (
    let fault = Option.get (fault_of_exn e) in
    if pager_fault proc fault || cow_fault proc fault then native_access t proc f
    else
      match deliver_segv t proc fault with
      | Resolved -> native_access t proc f
      | Retry_when cond ->
        Proc.wait_until ~why:(pp_fault fault) cond;
        native_access t proc f
      | Unhandled ->
        raise (Proc.Killed { pid = proc.Proc.pid; reason = pp_fault fault }))

(* Each checked access bills one instruction, so native workload code
   and ISA code are accounted on the same scale. *)
let tick () = (Stats.cur ()).instructions <- (Stats.cur ()).instructions + 1

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

let write_cstring t proc addr s =
  native_access t proc (fun () ->
      String.iteri (fun i c -> As.store_u8 proc.Proc.space (addr + i) (Char.code c)) s;
      As.store_u8 proc.Proc.space (addr + String.length s) 0)

(* Bounded retry for faults taken while the kernel touches user memory on
   behalf of an ISA syscall (e.g. reading a path argument). *)
let isa_access t proc f =
  let rec go fuel =
    if fuel = 0 then raise (Isa_fatal "fault loop in syscall argument")
    else
      try f () with
      | As.Fault _ as e -> (
        let fault = Option.get (fault_of_exn e) in
        if pager_fault proc fault || cow_fault proc fault then go (fuel - 1)
        else
          match deliver_segv t proc fault with
          | Resolved -> go (fuel - 1)
          | Retry_when _ | Unhandled ->
            raise (Isa_fatal ("fault in syscall argument: " ^ pp_fault fault)))
  in
  go 64

(* --- the new kernel calls ------------------------------------------------ *)

let sys_path_to_addr_r t proc path =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  fs_result (fun () -> Fs.addr_of_path t.fs ~cwd:proc.Proc.cwd path)

let sys_path_to_addr t proc path =
  ok_exn ("path_to_addr " ^ path) (sys_path_to_addr_r t proc path)

let sys_addr_to_path_r t _proc addr =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  fs_result (fun () -> Fs.path_of_addr t.fs addr)

let sys_addr_to_path t proc addr =
  ok_exn (Printf.sprintf "addr_to_path 0x%08x" addr) (sys_addr_to_path_r t proc addr)

let map_shared_file_r t proc ~path ~prot =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  fs_result (fun () ->
      let base = Fs.addr_of_path t.fs ~cwd:proc.Proc.cwd path in
      let canonical = Fs.path_of_addr t.fs base in
      match As.mapping_at proc.Proc.space base with
      | Some _ -> base
      | None ->
        let seg = Fs.segment_of t.fs canonical in
        As.map proc.Proc.space ~base ~len:Layout.shared_slot_size ~seg
          ~kind:
            (Vm_object.File_backed
               {
                 path = canonical;
                 writeback =
                   (fun ~page -> Fs.page_writeback t.fs ~path:canonical ~seg ~page);
               })
          ~prot ~share:As.Public ~label:canonical ();
        base)

let map_shared_file t proc ~path ~prot =
  ok_exn ("map_shared_file " ^ path) (map_shared_file_r t proc ~path ~prot)

(* --- file descriptors ----------------------------------------------------- *)

let sys_open_r t proc ?(create = false) ?(trunc = false) path =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  (Stats.cur ()).files_opened <- (Stats.cur ()).files_opened + 1;
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
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  (Stats.cur ()).files_opened <- (Stats.cur ()).files_opened + 1;
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
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  match Vfs.read t.vfs ~pid:proc.Proc.pid fd len with
  | Ok b ->
    (Stats.cur ()).bytes_copied <- (Stats.cur ()).bytes_copied + Bytes.length b;
    Ok b
  | Error e -> Error e

let sys_read t proc fd len = ok_exn (Printf.sprintf "read fd %d" fd) (sys_read_r t proc fd len)

let sys_write_r t proc fd b =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  match Vfs.write t.vfs ~pid:proc.Proc.pid fd b with
  | Ok n ->
    (Stats.cur ()).bytes_copied <- (Stats.cur ()).bytes_copied + n;
    Ok n
  | Error e -> Error e

let sys_write t proc fd b = ok_exn (Printf.sprintf "write fd %d" fd) (sys_write_r t proc fd b)

let sys_lseek_r t proc fd pos =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  Vfs.lseek t.vfs ~pid:proc.Proc.pid fd pos

let sys_lseek t proc fd pos =
  ok_exn (Printf.sprintf "lseek fd %d" fd) (sys_lseek_r t proc fd pos)

let sys_close_r t proc fd =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  Vfs.close t.vfs ~pid:proc.Proc.pid fd

let sys_close t proc fd = ok_exn (Printf.sprintf "close fd %d" fd) (sys_close_r t proc fd)

(* --- file locks ------------------------------------------------------------ *)

let lock_key proc path = Path.to_string (Path.of_string ~cwd:proc.Proc.cwd path)

let try_flock t proc path =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
  Vfs.try_lock t.vfs ~key:(lock_key proc path) ~pid:proc.Proc.pid

let flock t proc path =
  let key = lock_key proc path in
  Proc.wait_until ~why:("flock " ^ key) (fun () -> not (Vfs.locked t.vfs ~key));
  ignore (try_flock t proc path)

let funlock t proc path =
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
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

let msgq_length t name = ok_exn ("msgq " ^ name) (Ipc.msgq_length t.ipc name)

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
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
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
      (* exec replaces the image: tear the previous space down (the
         original one first, then each failed loader attempt's). *)
      As.teardown proc.Proc.space;
      proc.Proc.space <- As.create ();
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
    (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
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
      Sched.remove t.sched z.Proc.pid;
      Hashtbl.remove t.segv_handlers z.Proc.pid;
      Some (z.Proc.pid, code)
    | Proc.Runnable | Proc.Blocked _ -> assert false)
  | None -> None

let waitpid t proc =
  if children t proc.Proc.pid = [] then raise (os_error "waitpid" Errno.ECHILD);
  Proc.wait_until ~why:"waitpid: a child to exit" (fun () ->
      List.exists Proc.is_zombie (children t proc.Proc.pid));
  (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
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
  match isa_access t proc (fun () -> As.read_cstring proc.Proc.space addr) with
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
      isa_access t proc (fun () ->
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
      isa_access t proc (fun () ->
          Bytes.iteri (fun i c -> As.store_u8 proc.Proc.space (a1 + i) (Char.code c)) b);
      Cpu.set_reg cpu Reg.v0 (Bytes.length b)
    | Error e -> set_errno cpu e
  end
  else if v0 = Sysno.write then begin
    let len = Codec.sext32 a2 in
    if len < 0 then set_errno cpu Errno.EINVAL
    else begin
      let b =
        isa_access t proc (fun () ->
            Bytes.init len (fun i -> Char.chr (As.load_u8 proc.Proc.space (a1 + i))))
      in
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
let internal_fault ?(ticked = true) proc fault =
  if pager_fault proc fault then begin
    (* Like COW, resume the burst with no fuel consumed.  The tick
       rollback is asymmetric because [Cpu.step] bills [instructions]
       {e between} fetch and execute: a fetch fault raises before the
       tick, a load/store fault after, so only the latter double-counts
       on retry.  [~ticked:false] marks the raw-syscall path, where no
       interpreter tick happened at all. *)
    if ticked && fault.f_access <> Prot.Exec then
      (Stats.cur ()).instructions <- (Stats.cur ()).instructions - 1;
    true
  end
  else if cow_fault proc fault then begin
    (* The faulting store never completed and consumed no fuel; resume
       the burst so the quantum (and [context_switches]) are exactly
       what they would be without COW.  The store's [instructions] tick
       already happened in [Cpu.step], so roll it back — the retried
       store counts once, keeping the cost model COW-blind. *)
    (Stats.cur ()).instructions <- (Stats.cur ()).instructions - 1;
    true
  end
  else false

(* SIGSEGV delivery for a fault the kernel could not resolve
   internally. *)
let deliver_fault t proc fault =
  match deliver_segv t proc fault with
  | Resolved -> `Stop (* pc still points at the faulting instruction *)
  | Retry_when cond ->
    proc.Proc.state <- Proc.Blocked { cond; why = pp_fault fault };
    `Stop
  | Unhandled ->
    kill t proc ~reason:(pp_fault fault);
    `Stop

let handle_trap t proc cpu trap =
  match trap with
  | Trap.Halt code ->
    exit_proc t proc code;
    `Stop
  | Trap.Illegal _ ->
    (* SIGILL: the process dies, the simulator does not. *)
    kill t proc ~reason:(Format.asprintf "%a" Trap.pp trap);
    `Stop
  | Trap.Fault fault ->
    if internal_fault proc fault then `Continue else deliver_fault t proc fault
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
    | exception Isa_fatal msg ->
      kill t proc ~reason:msg;
      `Stop
    | exception Os_error msg ->
      kill t proc ~reason:msg;
      `Stop
    | exception (As.Fault _ as e) ->
      (* A registered syscall touched user memory raw; same treatment
         as a fault trap from the interpreter — except no instruction
         ticked, so the pager branch must not roll one back. *)
      let fault = Option.get (fault_of_exn e) in
      if internal_fault ~ticked:false proc fault then `Continue
      else deliver_fault t proc fault)

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
