(* ldsc — drive the Hemlock toolchain from the host command line.

   Source files from the host file system are loaded into a fresh
   simulated machine, compiled (Hem-C for .c, assembly for .s), linked
   with lds under the sharing classes given on the command line, and
   executed; the simulated console is printed.

     ldsc run main.c counter.c:dpub        # share counter.c publicly
     ldsc run -L libs main.c lib.o:dp      # dynamic private module
     ldsc run --runs 3 main.c counter.c:dpub   # run the program 3 times
     ldsc compile prog.c -o prog.o         # emit a template to the host
     ldsc objdump prog.o                   # inspect a template
     ldsc asm prog.c                       # show generated assembly *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Layout = Hemlock_vm.Layout
module As = Hemlock_vm.Address_space
module Stats = Hemlock_util.Stats
module Objfile = Hemlock_obj.Objfile
module Cc = Hemlock_cc.Cc
module Asm = Hemlock_isa.Asm
module Lds = Hemlock_linker.Lds
module Ldl = Hemlock_linker.Ldl
module Search = Hemlock_linker.Search
module Sharing = Hemlock_linker.Sharing
open Cmdliner

let read_host_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_host_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* A spec is "file" or "file:class". *)
let parse_spec s =
  match String.rindex_opt s ':' with
  | Some i ->
    let file = String.sub s 0 i in
    let cls = String.sub s (i + 1) (String.length s - i - 1) in
    (match Sharing.of_string cls with
    | Some cls -> Ok (file, cls)
    | None -> Error (Printf.sprintf "unknown sharing class %S in %S" cls s))
  | None -> Ok (s, Sharing.Static_private)

let compile_host_file ~use_gp path =
  let src = read_host_file path in
  let name = Filename.basename path in
  match Filename.extension path with
  | ".c" -> Cc.to_object ~use_gp ~name:(Filename.remove_extension name ^ ".o") src
  | ".lisp" | ".lsp" ->
    Hemlock_lisp.Lisp.to_object ~name:(Filename.remove_extension name ^ ".o") src
  | ".s" -> Asm.assemble ~name:(Filename.remove_extension name ^ ".o") src
  | ".o" -> Objfile.parse (Bytes.of_string src)
  | ext -> failwith (Printf.sprintf "%s: unknown source kind %S (want .c/.lisp/.s/.o)" path ext)

(* ----- run ----- *)

let cmd_run specs lib_dirs env_pairs use_gp show_stats show_layout show_linkstat runs =
  let specs =
    List.map (fun s -> match parse_spec s with Ok v -> v | Error e -> failwith e) specs
  in
  if specs = [] then failwith "no input files";
  let k = Kernel.create () in
  let ldl = Ldl.install k in
  Ldl.set_linkstat ldl show_linkstat;
  Hemlock_runtime.Sync.install k;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/work";
  if not (Fs.exists fs "/shared/lib") then Fs.mkdir fs "/shared/lib";
  (* Install each file: public templates go to /shared/lib, the rest to
     /home/work. *)
  let lds_specs =
    List.map
      (fun (file, cls) ->
        let obj = compile_host_file ~use_gp file in
        let base = Filename.remove_extension (Filename.basename file) ^ ".o" in
        let dest =
          if Sharing.is_public cls then "/shared/lib/" ^ base else "/home/work/" ^ base
        in
        Fs.write_file fs dest (Objfile.serialize obj);
        { Lds.sp_name = dest; sp_class = cls })
      specs
  in
  let env = List.map (fun kv ->
      match String.index_opt kv '=' with
      | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
      | None -> (kv, "")) env_pairs
  in
  let ctx = { Search.fs; cwd = Path.of_string ~cwd:Path.root "/home/work"; env } in
  let warnings =
    Lds.link ctx ~cli_dirs:lib_dirs ~specs:lds_specs ~output:"a.out" ()
  in
  List.iter (Printf.eprintf "lds: warning: %s\n") warnings;
  Stats.reset ();
  let last = ref None in
  for run = 1 to runs do
    Kernel.console_clear k;
    let proc = Kernel.spawn_exec k ~env "/home/work/a.out" in
    Kernel.run k;
    last := Some proc;
    let code = match proc.Proc.state with Proc.Zombie c -> c | _ -> -1 in
    if runs > 1 then Printf.printf "--- run %d (exit %d) ---\n" run code;
    print_string (Kernel.console k);
    if runs = 1 && code <> 0 then Printf.eprintf "[exit code %d]\n" code
  done;
  List.iter (Printf.eprintf "ldl: warning: %s\n") (Ldl.warnings ldl);
  (match (show_layout, !last) with
  | true, Some proc ->
    Printf.printf "--- address space ---\n%s\n" (Format.asprintf "%a" As.pp proc.Proc.space)
  | _, _ -> ());
  if show_stats then
    Printf.printf "--- stats ---\n%s\n" (Format.asprintf "%a" Stats.pp (Stats.snapshot ()));
  if show_linkstat then
    Printf.printf "--- linkstat ---\n%s\n" (Ldl.linkstat_json ldl);
  0

(* ----- compile / asm / objdump ----- *)

let cmd_compile file out use_gp =
  let obj = compile_host_file ~use_gp file in
  let out =
    match out with Some o -> o | None -> Filename.remove_extension file ^ ".o"
  in
  write_host_file out (Bytes.to_string (Objfile.serialize obj));
  Printf.printf "wrote %s (%d bytes text, %d data, %d bss, %d relocs)\n" out
    (Bytes.length obj.Objfile.text) (Bytes.length obj.Objfile.data) obj.Objfile.bss_size
    (List.length obj.Objfile.relocs);
  0

let cmd_asm file use_gp =
  print_string (Cc.to_asm ~use_gp (read_host_file file));
  0

let cmd_exedump file =
  let bytes = Bytes.of_string (read_host_file file) in
  if not (Hemlock_linker.Aout.looks_like bytes) then failwith (file ^ ": not an a.out");
  Format.printf "%a@." Hemlock_linker.Aout.pp (Hemlock_linker.Aout.parse bytes);
  0

let cmd_objdump file =
  let obj = Objfile.parse (Bytes.of_string (read_host_file file)) in
  Format.printf "%a@." Objfile.pp obj;
  Format.printf "disassembly:@.%s" (Hemlock_isa.Disasm.text ~base:0 obj.Objfile.text);
  0

(* ----- cmdliner plumbing ----- *)

let wrap f =
  try f () with
  | Failure msg | Cc.Error msg | Hemlock_lisp.Lisp.Error msg ->
    Printf.eprintf "ldsc: %s\n" msg;
    1
  | Lds.Link_error msg ->
    Printf.eprintf "ldsc: link error: %s\n" msg;
    1
  | Hemlock_linker.Modinst.Link_error msg ->
    Printf.eprintf "ldsc: link error: %s\n" msg;
    1
  | Fs.Error { op; path; kind } ->
    Printf.eprintf "ldsc: %s %s: %s\n" op path (Fs.err_kind_to_string kind);
    1
  | Sys_error msg ->
    Printf.eprintf "ldsc: %s\n" msg;
    1

let specs_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE[:CLASS]"
         ~doc:"Source files (.c Hem-C, .lisp Hem-Lisp, .s assembly, .o template), each optionally \
               tagged with a sharing class: sp (static-private, default), dp \
               (dynamic-private), spub (static-public), dpub (dynamic-public).")

let lib_dirs_arg =
  Arg.(value & opt_all string [] & info [ "L" ] ~docv:"DIR" ~doc:"Extra module search directory.")

let env_arg =
  Arg.(value & opt_all string [] & info [ "env" ] ~docv:"K=V"
         ~doc:"Environment variable for the program (e.g. LD_LIBRARY_PATH=/x).")

let use_gp_arg =
  Arg.(value & flag & info [ "use-gp" ]
         ~doc:"Compile with \\$gp-relative addressing for scalar globals (rejected \
               for public modules, as in the paper).")

let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print simulator cost counters.")

let layout_arg =
  Arg.(value & flag & info [ "layout" ] ~doc:"Print the final process's address space.")

let linkstat_arg =
  Arg.(value & flag & info [ "linkstat" ]
         ~doc:"Record and print the kernel linkstat dump: per-process \
               symbol-resolution provenance (cold walk vs. plan replay vs. \
               stable-boot replay, hash vs. linear probe) and the full \
               cost-counter snapshot, as JSON.  Provenance is recorded only \
               with this flag.")

let runs_arg =
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N"
         ~doc:"Execute the program N times (public modules persist between runs).")

let out_arg = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT" ~doc:"Output file.")

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Compile, link and execute a program on a fresh simulated machine")
    Term.(
      const (fun specs dirs env gp st lay lstat runs ->
          wrap (fun () -> cmd_run specs dirs env gp st lay lstat runs))
      $ specs_arg $ lib_dirs_arg $ env_arg $ use_gp_arg $ stats_arg $ layout_arg
      $ linkstat_arg $ runs_arg)

let compile_cmd =
  Cmd.v (Cmd.info "compile" ~doc:"Compile one source file to a template .o on the host")
    Term.(const (fun f o gp -> wrap (fun () -> cmd_compile f o gp)) $ file_arg $ out_arg $ use_gp_arg)

let asm_cmd =
  Cmd.v (Cmd.info "asm" ~doc:"Show the assembly generated for a Hem-C file")
    Term.(const (fun f gp -> wrap (fun () -> cmd_asm f gp)) $ file_arg $ use_gp_arg)

let objdump_cmd =
  Cmd.v (Cmd.info "objdump" ~doc:"Inspect a template object file")
    Term.(const (fun f -> wrap (fun () -> cmd_objdump f)) $ file_arg)

let exedump_cmd =
  Cmd.v (Cmd.info "exedump" ~doc:"Inspect an a.out produced by lds (use `run --keep` flows or compile one out-of-tree)")
    Term.(const (fun f -> wrap (fun () -> cmd_exedump f)) $ file_arg)

let () =
  let info =
    Cmd.info "ldsc"
      ~doc:"The Hemlock toolchain driver: linking shared segments, in simulation"
  in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; compile_cmd; asm_cmd; objdump_cmd; exedump_cmd ]))
