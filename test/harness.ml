(** Shared helpers for the test suites. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Objfile = Hemlock_obj.Objfile
module Asm = Hemlock_isa.Asm
module Cc = Hemlock_cc.Cc
module Lds = Hemlock_linker.Lds
module Ldl = Hemlock_linker.Ldl
module Search = Hemlock_linker.Search
module Sharing = Hemlock_linker.Sharing
module Config = Hemlock_util.Config

(** A booted machine with the Hemlock linker and lock syscalls. *)
let boot () =
  let k = Kernel.create () in
  let ldl = Ldl.install k in
  Hemlock_runtime.Sync.install k;
  (k, ldl)

let write_obj k path obj = Fs.write_file (Kernel.fs k) path (Objfile.serialize obj)

(** Compile Hem-C source and install the template at [path]. *)
let install_c k path src =
  write_obj k path (Cc.to_object ~name:(Filename.basename path) src)

(** Assemble and install the template at [path]. *)
let install_s k path src =
  write_obj k path (Asm.assemble ~name:(Filename.basename path) src)

let ctx_in k dir ?(env = []) () =
  { Search.fs = Kernel.fs k; cwd = Path.of_string ~cwd:Path.root dir; env }

(** Link specs into [out] with cwd [dir]. *)
let link k ?(dir = "/home") ?env ?cli_dirs ?duplicate_policy ~specs out =
  Lds.link (ctx_in k dir ?env ()) ?cli_dirs ?duplicate_policy
    ~specs:(List.map (fun (name, cls) -> { Lds.sp_name = name; sp_class = cls }) specs)
    ~output:out ()

(** Run a program to completion and return the console output. *)
let run_program k ?env path =
  Kernel.console_clear k;
  let proc = Kernel.spawn_exec k ?env ~name:path path in
  Kernel.run k;
  (proc, Kernel.console k)

(** The kernel's side of the pager and COW protocols, for direct
    address-space tests: a fault [As.resolve] resolves retries [f];
    anything else propagates. *)
let rec resolving sp f =
  let module As = Hemlock_vm.Address_space in
  try f () with
  | As.Fault { addr; access; reason } when As.resolve sp ~addr ~access reason -> resolving sp f

(** A public-module template with one counter. *)
let counter_template = "int counter;\nint bump() { counter = counter + 1; return counter; }\n"

(** Run a program and return its trimmed console with the counters it
    moved. *)
let exec_measured k prog =
  let (_, console), d = Hemlock_util.Stats.measure (fun () -> run_program k prog) in
  (String.trim console, d)

(** Run raw ISA code until BREAK or the fuel runs out; any other trap
    fails the test. *)
let run_isa ~fuel cpu space =
  let module Cpu = Hemlock_isa.Cpu in
  let module Trap = Hemlock_isa.Trap in
  match Cpu.run_trap ~fuel cpu space with
  | (Cpu.Out_of_fuel | Cpu.Trapped (Trap.Halt _)), _ -> ()
  | Cpu.Trapped tr, _ -> Alcotest.failf "unexpected trap: %a" Trap.pp tr

(** Run a native body to completion; returns its result. *)
let run_native k ?env ?cwd f =
  let result = ref None in
  ignore
    (Kernel.spawn_native k ~name:"test-native" ?env ?cwd (fun k proc ->
         result := Some (f k proc);
         0));
  Kernel.run k;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "native test body did not finish"

(** Reap every zombie, as init reaps orphans: a fresh native process
    adopts them all and [waitpid]s each, so only that reaper is left
    behind (the next call reaps it). *)
let reap_all k =
  match List.filter Proc.is_zombie (Kernel.processes k) with
  | [] -> ()
  | zombies ->
    let init =
      Kernel.spawn_native k ~name:"init" (fun k self ->
          List.iter (fun _ -> ignore (Kernel.waitpid k self)) zombies;
          0)
    in
    List.iter (fun z -> z.Proc.parent <- init.Proc.pid) zombies;
    Kernel.run k

(** Words of live heap after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(** [check_flat what words] — the last of a series of {!live_words}
    checkpoints is within 2% of the first. *)
let check_flat what words =
  let first = List.hd words and last = List.hd (List.rev words) in
  if abs (last - first) * 50 > first then
    Alcotest.failf "%s: live words %s" what
      (String.concat " -> " (List.map string_of_int words))

(** Compile+link+run a single static-private Hem-C program; returns
    console output. *)
let run_c_program (k, _ldl) src =
  if not (Fs.exists (Kernel.fs k) "/home/t") then Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/main.o" src;
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "prog");
  snd (run_program k "/home/t/prog")

let exit_code proc =
  match proc.Proc.state with
  | Proc.Zombie code -> code
  | Proc.Runnable | Proc.Blocked _ -> Alcotest.fail "process still alive"

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test name f = Alcotest.test_case name `Quick f

(** Substring check for error-message assertions. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(** Register a QCheck property as an alcotest case. *)
let prop name ?(count = 200) ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)
