module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Prot = Hemlock_vm.Prot
module Objfile = Hemlock_obj.Objfile
module Cc = Hemlock_cc.Cc
module Lds = Hemlock_linker.Lds
module Ldl = Hemlock_linker.Ldl
module Search = Hemlock_linker.Search
module Sharing = Hemlock_linker.Sharing
module Modinst = Hemlock_linker.Modinst

let max_workers = 64

let shared_data_source =
  Printf.sprintf
    {|
int presto_lock;
int presto_nworkers;
int presto_results[%d];
|}
    max_workers

let child_source ~work_iters =
  Printf.sprintf
    {|
extern int presto_lock;
extern int presto_nworkers;
extern int presto_results[%d];

int work(int idx) {
  int i;
  int acc;
  acc = idx;
  i = 0;
  while (i < %d) {
    acc = (acc * 13 + idx + 7) %% 100000;
    i = i + 1;
  }
  return acc + 1;
}

int main() {
  int idx;
  lock_acquire(&presto_lock);
  idx = presto_nworkers;
  presto_nworkers = idx + 1;
  lock_release(&presto_lock);
  presto_results[idx] = work(idx);
  return 0;
}
|}
    max_workers work_iters

let expected_results ~workers ~work_iters =
  let work idx =
    let acc = ref idx in
    for _ = 1 to work_iters do
      acc := ((!acc * 13) + idx + 7) mod 100000
    done;
    !acc + 1
  in
  List.init workers work

(* ----- the 432-line post-processor, in miniature ----- *)

(* Rewrites "la $reg, var" references to shared variables into absolute
   addresses.  Exactly the fragile business the paper describes: it
   pattern-matches the compiler's output. *)
let postprocess ~shared asm =
  let rewritten = ref 0 in
  let rewrite_line line =
    let trimmed = String.trim line in
    let is_la = String.length trimmed > 3 && String.sub trimmed 0 3 = "la " in
    if not is_la then line
    else
      match String.index_opt trimmed ',' with
      | None -> line
      | Some comma ->
        let target = String.trim (String.sub trimmed (comma + 1) (String.length trimmed - comma - 1)) in
        let reg = String.trim (String.sub trimmed 2 (comma - 2)) in
        (match List.assoc_opt target shared with
        | Some addr ->
          incr rewritten;
          Printf.sprintf "        la   %s, %d" reg addr
        | None -> line)
  in
  let lines = String.split_on_char '\n' asm in
  let out = String.concat "\n" (List.map rewrite_line lines) in
  (out, !rewritten)

(* ----- common pieces ----- *)

let write_obj fs path obj = Fs.write_file fs path (Objfile.serialize obj)

let spawn_children k ~prog ~env ~workers ~parent =
  List.init workers (fun i ->
      let child = Kernel.spawn_exec k ~name:(Printf.sprintf "worker%d" i) ~env prog in
      child.Proc.parent <- parent.Proc.pid;
      child)

let wait_all k proc n =
  for _ = 1 to n do
    ignore (Kernel.waitpid k proc)
  done

let read_results k proc ~base_of_results ~workers =
  List.init workers (fun i -> Kernel.load_u32 k proc (base_of_results + (4 * i)))

(* ----- the Hemlock protocol ----- *)

let run_hemlock ldl ~workers ~work_iters ~app_id =
  if workers > max_workers then invalid_arg "Presto.run_hemlock: too many workers";
  let k = Ldl.kernel ldl in
  let fs = Kernel.fs k in
  (* One-time setup: template and worker program. *)
  let templates = "/shared/presto" in
  if not (Fs.exists fs templates) then Fs.mkdir fs templates;
  let template_path = templates ^ "/shared_data.o" in
  if not (Fs.exists fs template_path) then
    write_obj fs template_path (Cc.to_object ~name:"shared_data.o" shared_data_source);
  let home = "/home/presto_" ^ app_id in
  Fs.mkdir fs home;
  write_obj fs (home ^ "/main.o")
    (Cc.to_object ~name:"main.o" (child_source ~work_iters));
  let ctx = { Search.fs; cwd = Path.of_string ~cwd:Path.root home; env = [] } in
  (* The children name the shared data as a bare dynamic public module:
     where it is found is decided at run time by LD_LIBRARY_PATH. *)
  let _warnings =
    Lds.link ctx
      ~specs:
        [
          { Lds.sp_name = "main.o"; sp_class = Sharing.Static_private };
          { Lds.sp_name = "shared_data.o"; sp_class = Sharing.Dynamic_public };
        ]
      ~output:"worker" ()
  in
  let results = ref [] in
  ignore
    (Kernel.spawn_native k ~name:"presto-parent" (fun k proc ->
         (* The parent does none of the application's work and never
            links the shared data. *)
         if not (Fs.exists fs "/shared/tmp") then Fs.mkdir fs "/shared/tmp";
         let tmpdir = "/shared/tmp/" ^ app_id in
         Fs.mkdir fs tmpdir;
         Fs.symlink fs ~target:template_path (tmpdir ^ "/shared_data.o");
         let env = [ ("LD_LIBRARY_PATH", tmpdir) ] in
         let kids = spawn_children k ~prog:(home ^ "/worker") ~env ~workers ~parent:proc in
         ignore kids;
         wait_all k proc workers;
         (* Read the results out of the created module, then clean up:
            segment, template symlink, temporary directory. *)
         let inst =
           Modinst.public_instance
             { Search.fs; cwd = proc.Proc.cwd; env = proc.Proc.env }
             ~module_path:(tmpdir ^ "/shared_data")
             ~scope:{ Modinst.sc_label = "parent"; sc_modules = []; sc_search = []; sc_parent = None }
         in
         ignore (Kernel.map_shared_file k proc ~path:(tmpdir ^ "/shared_data") ~prot:Prot.Read_only);
         let base =
           match Modinst.find_export inst "presto_results" with
           | Some addr -> addr
           | None -> failwith "presto_results not exported"
         in
         results := read_results k proc ~base_of_results:base ~workers;
         Fs.unlink fs (tmpdir ^ "/shared_data");
         Fs.unlink fs (tmpdir ^ "/shared_data.o");
         Fs.rmdir fs tmpdir;
         0));
  Kernel.run k;
  !results

(* ----- the post-processor baseline ----- *)

let run_postprocessed ldl ~workers ~work_iters ~app_id =
  if workers > max_workers then invalid_arg "Presto.run_postprocessed: too many workers";
  let k = Ldl.kernel ldl in
  let fs = Kernel.fs k in
  (* Pre-agreed shared segment for the explicitly placed variables. *)
  if not (Fs.exists fs "/shared/presto") then Fs.mkdir fs "/shared/presto";
  let seg_path = "/shared/presto/seg_" ^ app_id in
  Fs.create_file fs seg_path;
  let base = Fs.addr_of_path fs seg_path in
  let shared =
    [ ("presto_lock", base); ("presto_nworkers", base + 4); ("presto_results", base + 8) ]
  in
  (* Compile, then grovel over the assembly. *)
  let asm = Cc.to_asm (child_source ~work_iters) in
  let lines_scanned = List.length (String.split_on_char '\n' asm) in
  (* Bill the groveling: the paper's post-processor consumed a quarter to
     a third of total compilation time; ~60 cycles of lex work per
     assembly line reproduces that share against our pipeline. *)
  let s = Hemlock_util.Stats.cur () in
  s.instructions <- s.instructions + (60 * lines_scanned);
  let asm', rewritten = postprocess ~shared asm in
  let obj =
    match Hemlock_isa.Asm.assemble ~name:"main.o" asm' with
    | obj -> obj
    | exception Hemlock_isa.Asm.Error { line; msg } ->
      failwith (Printf.sprintf "post-processed asm line %d: %s" line msg)
  in
  let home = "/home/presto_pp_" ^ app_id in
  Fs.mkdir fs home;
  write_obj fs (home ^ "/main.o") obj;
  let ctx = { Search.fs; cwd = Path.of_string ~cwd:Path.root home; env = [] } in
  let _warnings =
    Lds.link ctx
      ~specs:[ { Lds.sp_name = "main.o"; sp_class = Sharing.Static_private } ]
      ~output:"worker" ()
  in
  let results = ref [] in
  ignore
    (Kernel.spawn_native k ~name:"presto-pp-parent" (fun k proc ->
         (* Zero the segment (lock and counter). *)
         ignore (Kernel.map_shared_file k proc ~path:seg_path ~prot:Prot.Read_write);
         for i = 0 to 1 + workers do
           Kernel.store_u32 k proc (base + (4 * i)) 0
         done;
         let kids = spawn_children k ~prog:(home ^ "/worker") ~env:[] ~workers ~parent:proc in
         (* The old world: the parent must push the mapping into every
            child (inherited shmat); nothing faults it in on demand. *)
         List.iter
           (fun child ->
             ignore (Kernel.map_shared_file k child ~path:seg_path ~prot:Prot.Read_write))
           kids;
         wait_all k proc workers;
         results := read_results k proc ~base_of_results:(base + 8) ~workers;
         Fs.unlink fs seg_path;
         0));
  Kernel.run k;
  (!results, (lines_scanned, rewritten))
