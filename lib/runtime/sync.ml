module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Reg = Hemlock_isa.Reg
module Cpu = Hemlock_isa.Cpu

(* ----- native spin locks ----- *)

let spin_init k proc addr = Kernel.store_u32 k proc addr 0

let spin_try_acquire k proc addr =
  (* The scheduler is cooperative, so load+store with no intervening
     yield is atomic for native code. *)
  if Kernel.load_u32 k proc addr = 0 then begin
    Kernel.store_u32 k proc addr proc.Proc.pid;
    true
  end
  else false

let spin_acquire k proc addr =
  let rec loop () =
    if not (spin_try_acquire k proc addr) then begin
      Proc.yield ();
      loop ()
    end
  in
  loop ()

let spin_release k proc addr = Kernel.store_u32 k proc addr 0

(* ----- kernel lock syscalls for ISA programs ----- *)

let lock_sysno = Hemlock_os.Sysno.lock_acquire
let unlock_sysno = Hemlock_os.Sysno.lock_release

let free_now proc addr () = Kernel.peek_u32 proc addr = Some 0

(* The lock word may live in a not-yet-mapped shared segment, on an
   evicted page, or on a page the process still shares copy-on-write
   after a fork: the kernel's syscall accessors resolve each of these
   (or block the syscall until a SIGSEGV handler can). *)
let install k =
  Kernel.register_syscall k lock_sysno (fun k proc cpu ->
      let addr = Cpu.reg cpu Reg.a0 in
      if Kernel.syscall_load_u32 k proc cpu addr = 0 then begin
        Kernel.syscall_store_u32 k proc cpu addr proc.Proc.pid;
        Cpu.set_reg cpu Reg.v0 0
      end
      else
        Kernel.block_syscall
          ~why:(Printf.sprintf "lock word 0x%08x" addr)
          cpu (free_now proc addr));
  Kernel.register_syscall k unlock_sysno (fun k proc cpu ->
      let addr = Cpu.reg cpu Reg.a0 in
      ignore (Kernel.syscall_load_u32 k proc cpu addr);
      Kernel.syscall_store_u32 k proc cpu addr 0;
      Cpu.set_reg cpu Reg.v0 0)

(* ----- counting semaphores (native) ----- *)

let sem_init k proc addr v = Kernel.store_u32 k proc addr v

let sem_post k proc addr = Kernel.store_u32 k proc addr (Kernel.load_u32 k proc addr + 1)

let sem_wait k proc addr =
  (* Touch the word through the checked path first, so an unmapped
     semaphore segment is faulted in before the polling below, which
     resolves only pager faults. *)
  ignore (Kernel.load_u32 k proc addr);
  let positive () =
    match Kernel.peek_u32 proc addr with Some 0 | None -> false | Some _ -> true
  in
  let rec loop () =
    Proc.wait_until positive;
    let v = Kernel.load_u32 k proc addr in
    if v > 0 then Kernel.store_u32 k proc addr (v - 1) else loop ()
  in
  loop ()
