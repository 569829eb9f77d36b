module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Sysno = Hemlock_os.Sysno
module Errno = Hemlock_os.Errno
module Objfile = Hemlock_obj.Objfile
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module As = Hemlock_vm.Address_space
module Vm_object = Hemlock_vm.Vm_object
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module Stats = Hemlock_util.Stats
module Codec = Hemlock_util.Codec
module Fault = Hemlock_util.Fault
module Config = Hemlock_util.Config
module Interval_map = Hemlock_util.Interval_map

exception Link_error = Reloc_engine.Link_error

(* Raised when progress needs a file lock someone else holds; translated
   to a blocked syscall (ISA), a Retry_when (fault handler), or a
   wait_until (native callers). *)
exception Would_block of (unit -> bool)

let errf fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

(* Per-symbol resolution provenance (observability only, recorded while
   linkstat is armed): how the last resolution of each name was
   answered, and how often the name was resolved at all (once per link
   pass that asked for it).  Strings are kept flat so the JSON export
   needs no joins: [pv_source] is "cold" | "replay" | "stable" |
   "dlsym", [pv_probe] is "hash" | "linear" | "plan", [pv_origin] is the
   exporting instance key (or "image" | "plan" | "own"), [pv_scope] the
   scope label the walk found it at. *)
type prov = {
  mutable pv_count : int;
  mutable pv_source : string;
  mutable pv_probe : string;
  mutable pv_origin : string;
  mutable pv_scope : string;
}

(* What the walk knows of one scope node with a non-empty module list,
   valid at one generation and cwd (see [validate]): the node's
   effective search directories, each listed name's located spelling,
   and the resumable export index, that is the part of the list the
   hashed walk has not passed yet and the first exporter (address,
   instance key) of each name among the modules before that point. *)
type scope_index = {
  si_dirs : string list;
  si_located : (string, string option) Hashtbl.t;
  mutable si_rest : string list;
  si_exports : (string, int * string) Hashtbl.t;
}

(* Scope nodes by identity: a node is shared by every walk through it,
   and a replayed plan instantiates under the live nodes too, so [==]
   finds a node's index or digest without comparing module lists and
   parent chains. *)
module Scope_tbl = Hashtbl.Make (struct
  type t = Modinst.scope

  let equal = ( == )
  let hash s = Hashtbl.hash s.Modinst.sc_label
end)

type pstate = {
  mutable ps_aout : Aout.t option;
  mutable ps_image_seg : Segment.t option;
  mutable ps_instances : Modinst.t list;
  mutable ps_root : Modinst.scope;
  (* the image's retained relocations that no completed start-up
     resolved, grouped by symbol *)
  mutable ps_pending : Reloc_engine.relocs;
  mutable ps_veneer_next : int;
  mutable ps_started : bool;
  (* program identity for link plans: path + load-image (segment id,
     version), when this state came from an exec *)
  mutable ps_prog : (string * int * int) option;
  (* host-side indexes over ps_instances (always kept in sync):
     by address range for the fault path, by key for locate results,
     plus the not-yet-linked worklist for LD_BIND_NOW *)
  mutable ps_by_addr : Modinst.t Interval_map.t;
  ps_by_key : (string, Modinst.t) Hashtbl.t;
  mutable ps_unlinked : Modinst.t list;
  (* per-scope walk state and the modules refused so far, all valid
     for [ps_index_gen] and [ps_index_cwd] only (instances never move
     within a process, so they can only go stale through the namespace
     or a relative search directory) *)
  ps_index : scope_index Scope_tbl.t;
  ps_refused : (string, unit) Hashtbl.t;
  mutable ps_index_gen : int;
  mutable ps_index_cwd : Path.t;
  ps_digests : string Scope_tbl.t;  (* see [scope_digest] *)
  (* [prog_key]'s answer and the cwd, environment and bind mode it was
     built from *)
  mutable ps_key : (Path.t * (string * string) list * bool * string) option;
  (* host-side: per-symbol resolution provenance for linkstat, filled
     only while [linkstat] is armed *)
  ps_prov : (string, prov) Hashtbl.t;
  (* incrementally-maintained digest of the instance set: the XOR of
     each instance's fragment digest.  XOR makes the combination
     order-independent, so an insert is O(1) instead of re-digesting
     the whole set — [inst_digest] runs once per planned region, and
     regions interleave with instantiation, which made the old
     whole-array re-digest O(N^2) per exec *)
  mutable ps_digest : Bytes.t;  (* 16 raw digest bytes *)
}

(* The region being recorded: its scope, its instantiations, and whether
   its walk refused a module. *)
type recording = {
  rec_scope : Modinst.scope;
  mutable rec_deps : Link_plan.dep list;
  mutable rec_refused : bool;
}

type t = {
  k : Kernel.t;
  states : (int, pstate) Hashtbl.t;
  mutable warn : string list;
  mutable bind_now : bool;
  (* linkstat: record each resolution's provenance in [ps_prov] *)
  mutable linkstat : bool;
  plans : Link_plan.store;  (* kernel-wide memoized link plans *)
  (* Host-side memos of this kernel's files, each entry keyed by a file
     segment id and tagged with the version it was built from (see
     [memo]): decoded templates and their relocations grouped by symbol;
     each template's placed image, COW-copied into every private
     instance; and each program's decoded image, with its retained
     relocations grouped and its placed image, COW-copied into every
     process that execs it.  The placed masters are never mapped, so
     they stay pristine however processes scribble on their copies. *)
  objs : (int, int * Objfile.t) Hashtbl.t;
  relocs : (int, int * Reloc_engine.relocs) Hashtbl.t;
  masters : (int, int * Segment.t) Hashtbl.t;
  images : (int, int * (Aout.t * Reloc_engine.relocs * Segment.t Lazy.t)) Hashtbl.t;
  mutable plan_rec : recording option;
  (* regions that raised mid-recording: a retried region would record an
     incomplete instantiation list, so never plan these again *)
  poisoned : (string, unit) Hashtbl.t;
  (* the Fs generation at which /shared/.stable was last made an exact
     copy of [plans]; a reboot reads the copy back only at that
     generation *)
  mutable synced_gen : int;
}

let kernel t = t.k

let set_bind_now t v = t.bind_now <- v

let set_linkstat t v = t.linkstat <- v

let warnings t = List.rev t.warn

let warn t fmt = Printf.ksprintf (fun s -> t.warn <- s :: t.warn) fmt

let ctx_of t proc =
  { Search.fs = Kernel.fs t.k; cwd = proc.Proc.cwd; env = proc.Proc.env }

let state t proc = Hashtbl.find_opt t.states proc.Proc.pid

(* A process's link state as exec, fork or attach starts it: the
   host-side indexes start empty ([rebuild_indexes] fills them). *)
let new_pstate ?aout ?image_seg ?(instances = []) ?(pending = Reloc_engine.group [])
    ?(veneer_next = 0) ?prog ~started root =
  {
    ps_aout = aout;
    ps_image_seg = image_seg;
    ps_instances = instances;
    ps_root = root;
    ps_pending = pending;
    ps_veneer_next = veneer_next;
    ps_started = started;
    ps_prog = prog;
    ps_by_addr = Interval_map.empty;
    ps_by_key = Hashtbl.create 16;
    ps_unlinked = [];
    ps_index = Scope_tbl.create 16;
    ps_refused = Hashtbl.create 4;
    ps_index_gen = -1;
    ps_index_cwd = Path.root;
    ps_digests = Scope_tbl.create 16;
    ps_key = None;
    ps_prov = Hashtbl.create 64;
    ps_digest = Bytes.make 16 '\000';
  }

let note_prov t ps name ~source ~probe ~origin ~scope =
  if t.linkstat then
    match Hashtbl.find_opt ps.ps_prov name with
    | Some p ->
      p.pv_count <- p.pv_count + 1;
      p.pv_source <- source;
      p.pv_probe <- probe;
      p.pv_origin <- origin;
      p.pv_scope <- scope
    | None ->
      Hashtbl.replace ps.ps_prov name
        { pv_count = 1; pv_source = source; pv_probe = probe; pv_origin = origin;
          pv_scope = scope }

let instances t proc =
  match state t proc with Some ps -> List.rev ps.ps_instances | None -> []

let instance_covering ps addr =
  Option.map (fun (_, _, inst) -> inst) (Interval_map.find addr ps.ps_by_addr)

let find_instance ps located = Hashtbl.find_opt ps.ps_by_key located

(* One instance's contribution to the set digest: identity, placement,
   publicness and decode content identity — everything a plan needs the
   pre-existing set to match on. *)
let inst_fragment inst =
  let sid, sver = inst.Modinst.inst_src in
  Digest.string
    (String.concat "\x01"
       [
         inst.Modinst.inst_key;
         string_of_int inst.Modinst.inst_base;
         (if inst.Modinst.inst_public then "1" else "0");
         string_of_int sid;
         string_of_int sver;
       ])

let digest_xor acc frag =
  for i = 0 to 15 do
    Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code frag.[i]))
  done

(* [m] with [inst] indexed by its range, [inst_base] to [Modinst.limit].
   No two instances share a range: a public instance sits in its module
   file's slot, and one module file has one key (its header's template),
   so it is instantiated once per process. *)
let add_range inst m = Interval_map.add ~lo:inst.Modinst.inst_base ~hi:(Modinst.limit inst) inst m

(* Register a fresh instance in the list and every index. *)
let add_instance ps inst =
  ps.ps_instances <- inst :: ps.ps_instances;
  Hashtbl.replace ps.ps_by_key inst.Modinst.inst_key inst;
  let acc = Bytes.copy ps.ps_digest in
  digest_xor acc (inst_fragment inst);
  ps.ps_digest <- acc;
  ps.ps_by_addr <- add_range inst ps.ps_by_addr;
  if not inst.Modinst.inst_linked then ps.ps_unlinked <- inst :: ps.ps_unlinked

let rebuild_indexes ps =
  Hashtbl.reset ps.ps_by_key;
  List.iter (fun i -> Hashtbl.replace ps.ps_by_key i.Modinst.inst_key i) ps.ps_instances;
  ps.ps_by_addr <- List.fold_right add_range ps.ps_instances Interval_map.empty;
  let acc = Bytes.make 16 '\000' in
  List.iter (fun i -> digest_xor acc (inst_fragment i)) ps.ps_instances;
  ps.ps_digest <- acc;
  ps.ps_unlinked <- List.filter (fun i -> not i.Modinst.inst_linked) ps.ps_instances

(* The entry of [tbl] for the file content identity [(sid, sver)],
   built on a miss.  One entry per file segment id: a newer version
   replaces it, so a rewritten file leaves nothing stale behind and each
   table is bounded by the kernel's files. *)
let memo tbl (sid, sver) build =
  match Hashtbl.find_opt tbl sid with
  | Some (ver, v) when ver = sver -> v
  | Some _ | None ->
    let v = build () in
    Hashtbl.replace tbl sid (sver, v);
    v

let decode t src bytes = memo t.objs src (fun () -> Objfile.parse (bytes ()))

let is_shared_located located =
  Path.is_prefix ~prefix:[ "shared" ] (Path.of_string ~cwd:Path.root located)

(* Serialise creation of a public module with a file lock; the first
   process of a parallel application creates and initialises the shared
   data, its siblings block then link the existing file (§4, fn 3). *)
let ensure_public_created t proc ~located ~obj =
  let fs = Kernel.fs t.k in
  let module_path = Modinst.module_file_of_template located in
  let ready () = Modinst.published fs module_path in
  if ready () then module_path
  else begin
    let lock_name = module_path ^ ".lock" in
    if not (Kernel.try_flock t.k proc lock_name) then
      raise (Would_block (fun () -> Kernel.flock_holder t.k lock_name = None));
    Fun.protect
      ~finally:(fun () -> Kernel.funlock t.k proc lock_name)
      (fun () ->
        if not (ready ()) then
          ignore
            (Modinst.create_public_file (ctx_of t proc) ~template_path:located ~obj
               ~module_path));
    module_path
  end

(* Effective search directories for a scope: its own, then its
   ancestors' up to the root (whose list is the run-time search path). *)
let rec scope_dirs scope =
  scope.Modinst.sc_search
  @ (match scope.Modinst.sc_parent with Some p -> scope_dirs p | None -> [])

(* A plan names a dependency's scope by depth: [depth_above scope anc 0]
   is how many parents above [scope] [anc] stands (-1 if it is not in
   [scope]'s chain), and [ancestor scope n] the scope [n] parents up. *)
let rec depth_above scope anc n =
  if scope == anc then n
  else match scope.Modinst.sc_parent with Some p -> depth_above p anc (n + 1) | None -> -1

let rec ancestor scope n =
  if n = 0 then Some scope else Option.bind scope.Modinst.sc_parent (fun p -> ancestor p (n - 1))

(* ----- instantiation ------------------------------------------------------ *)

let instantiate t proc ps ~located ~public ~parent_scope =
  Fault.hit "ldl.instantiate";
  let ctx = ctx_of t proc in
  let obj, src = Modinst.load_template ~decode:(decode t) ctx located in
  if obj.Objfile.uses_gp then
    errf "module %s uses $gp: ldl requires modules compiled with gp disabled" located;
  let scope =
    {
      Modinst.sc_label = located;
      sc_modules = obj.Objfile.own_modules;
      sc_search = obj.Objfile.own_search_path;
      sc_parent = Some parent_scope;
    }
  in
  (* Mappings this call adds to the process; a failure after any of them
     unwinds the lot, so a half-instantiated module never stays visible
     in the instance set or the address space. *)
  let mapped = ref [] in
  let unwind () =
    if !mapped <> [] then begin
      As.release ~only:!mapped proc.Proc.space;
      let s = Stats.cur () in
      s.link_rollbacks <- s.link_rollbacks + 1
    end
  in
  let inst =
    try
      if public then begin
        if not (is_shared_located located) then
          errf "public module template %s must reside on the shared partition" located;
        let module_path = ensure_public_created t proc ~located ~obj in
        let inst = Modinst.public_instance ~decode:(decode t) ctx ~module_path ~scope in
        (* The module file may be another template's, reached through a
           symlink: refuse it rather than link [located] as that
           template, so one module file is one instance, under the
           spelling it was created from. *)
        if inst.Modinst.inst_key <> located then
          errf "module file %s was created from %s, not %s" module_path
            inst.Modinst.inst_key located;
        let fully = Modinst.Header.fully_linked inst.Modinst.inst_seg in
        let prot = if fully then Prot.Read_write_exec else Prot.No_access in
        if
          Kernel.map_shared_segment t.k proc ~base:inst.Modinst.inst_base ~path:module_path
            ~seg:inst.Modinst.inst_seg ~prot
        then mapped := inst.Modinst.inst_base :: !mapped;
        Fault.hit "ldl.instantiate.mid";
        if fully then begin
          inst.Modinst.inst_linked <- true;
          let s = Stats.cur () in
          s.modules_linked <- s.modules_linked + 1
        end;
        inst
      end
      else begin
        let size = Layout.page_up (Modinst.placed_size obj) in
        let base =
          match
            As.find_gap proc.Proc.space ~lo:Aout.private_arena_lo ~hi:Aout.private_arena_hi
              ~size
          with
          | Some base -> base
          | None -> errf "out of private arena space for %s" located
        in
        let master =
          if Config.current.cow then
            Some
              (memo t.masters src (fun () ->
                   Modinst.placed_image ~name:("module-master:" ^ located) obj))
          else None
        in
        let inst = Modinst.private_instance ~src ?master ~located ~obj ~base ~scope () in
        let prot =
          if obj.Objfile.relocs = [] then Prot.Read_write_exec else Prot.No_access
        in
        As.map proc.Proc.space ~base ~len:size ~seg:inst.Modinst.inst_seg
          ~kind:Vm_object.Anonymous ~prot ~share:As.Private ~label:located ();
        mapped := base :: !mapped;
        Fault.hit "ldl.instantiate.mid";
        if prot = Prot.Read_write_exec then begin
          inst.Modinst.inst_linked <- true;
          let s = Stats.cur () in
          s.modules_linked <- s.modules_linked + 1
        end;
        inst
      end
    with
    | Fault.Crash _ as e -> raise e (* machine stopped: nothing unwinds *)
    | e ->
      unwind ();
      raise e
  in
  add_instance ps inst;
  (match t.plan_rec with
  | Some r ->
    r.rec_deps <-
      {
        Link_plan.dep_located = located;
        dep_public = public;
        dep_base = inst.Modinst.inst_base;
        dep_src = inst.Modinst.inst_src;
        dep_depth = depth_above r.rec_scope parent_scope 0;
      }
      :: r.rec_deps
  | None -> ());
  inst

(* Make sure the module at [located] is instantiated (mapped, possibly
   without access), under [scope] if it is not yet. *)
let ensure_instance t proc ps ~scope located =
  match find_instance ps located with
  | Some inst -> inst
  | None -> instantiate t proc ps ~located ~public:(is_shared_located located) ~parent_scope:scope

(* The walk's state ([ps_index], [ps_refused]) holds for one
   [Fs.generation] and cwd: instantiating a public module creates its
   file, moving the generation mid-walk, and a relative search
   directory names another directory after a chdir. *)
let validate t proc ps =
  let gen = Fs.generation (Kernel.fs t.k) in
  if gen <> ps.ps_index_gen || proc.Proc.cwd != ps.ps_index_cwd then begin
    Scope_tbl.reset ps.ps_index;
    Hashtbl.reset ps.ps_refused;
    ps.ps_index_gen <- gen;
    ps.ps_index_cwd <- proc.Proc.cwd
  end

let scope_index t proc ps scope =
  validate t proc ps;
  match Scope_tbl.find_opt ps.ps_index scope with
  | Some ix -> ix
  | None ->
    let ix =
      {
        si_dirs = scope_dirs scope;
        si_located = Hashtbl.create 16;
        si_rest = scope.Modinst.sc_modules;
        si_exports = Hashtbl.create 16;
      }
    in
    Scope_tbl.replace ps.ps_index scope ix;
    ix

(* Module [name] through [scope]'s effective directories, located once
   per generation and cwd, for start-up, both walks and [dlopen]
   alike. *)
let located t proc ps scope name =
  let ix = scope_index t proc ps scope in
  match Hashtbl.find_opt ix.si_located name with
  | Some answer -> answer
  | None ->
    let answer = Search.locate (ctx_of t proc) ~dirs:ix.si_dirs name in
    Hashtbl.replace ix.si_located name answer;
    answer

(* A module whose instantiation by a walk raised [Link_error] is
   refused: the walk warns once and passes it, and the process remembers
   it at this generation and cwd, so neither walk reads its template
   again until they move.  What a walk passes depends on what was
   refused before it, so a plan's key names the refused modules
   ([refused_key]), and a region that refused one is never planned: its
   replay would skip the attempt that a cold walk repeats. *)
let refuse t proc ps located why =
  validate t proc ps;
  Hashtbl.replace ps.ps_refused located ();
  Option.iter (fun r -> r.rec_refused <- true) t.plan_rec;
  warn t "module %s refused: %s" located why

let refused_key ps =
  String.concat "\x03" (List.sort compare (Hashtbl.fold (fun m () acc -> m :: acc) ps.ps_refused []))

(* Module [name] of [scope]'s list, as the walk finds it: located once,
   instantiated if need be, [None] if it locates nowhere or is refused.
   [Would_block] and crashes propagate. *)
let listed_instance t proc ps scope name =
  match located t proc ps scope name with
  | None -> None
  | Some located when Hashtbl.mem ps.ps_refused located -> find_instance ps located
  | Some located -> (
    match ensure_instance t proc ps ~scope located with
    | inst -> Some inst
    | exception Link_error why ->
      refuse t proc ps located why;
      None)

(* Scoped symbol resolution: this scope's module list, then the parent
   chain; at the root, also the main image's exports.  [in_list] answers
   one node's module list; an empty list is asked nothing, so it gets
   no index.  Successes carry provenance: the exporting instance (or
   "image") and the scope node whose module list answered. *)
let rec walk_scopes ps in_list scope name =
  match
    match scope.Modinst.sc_modules with [] -> None | _ :: _ -> in_list scope name
  with
  | Some (addr, origin) -> Some (addr, origin, scope.Modinst.sc_label)
  | None -> (
    match scope.Modinst.sc_parent with
    | Some parent -> walk_scopes ps in_list parent name
    | None -> (
      match ps.ps_aout with
      | Some aout ->
        Option.map
          (fun off -> (Aout.image_base + off, "image", scope.Modinst.sc_label))
          (Aout.find_symbol aout name)
      | None -> None))

(* The reference walk: every module of the list, in order, located,
   instantiated and probed for the name. *)
let in_list_linear t proc ps scope name =
  List.find_map
    (fun mname ->
      match listed_instance t proc ps scope mname with
      | Some inst ->
        Option.map (fun addr -> (addr, inst.Modinst.inst_key)) (Modinst.find_export inst name)
      | None -> None)
    scope.Modinst.sc_modules

(* The same walk, resumed instead of restarted.  Each scope's index
   answers for the modules the walk has already passed, which it located
   and instantiated (or refused) at this generation and cwd in this
   process, so re-walking them would repeat no simulated action; a miss
   walks on from where the walk stopped, in list order.  The rules that
   keep it the linear walk:
   - every index holds for one [Fs.generation] and cwd, checked at
     every level, because instantiating a public module creates its
     file (moving the generation) mid-walk;
   - the first exporter wins, as [Modinst.find_export] answers;
   - the cursor passes a module only once [listed_instance] returned, so
     a walk that raised ([Would_block] on a creation lock, a crash)
     retries that module next time. *)
let in_list_indexed t proc ps scope name =
  let ix = scope_index t proc ps scope in
  let rec go () =
    match Hashtbl.find_opt ix.si_exports name with
    | Some hit ->
      let s = Stats.cur () in
      s.sym_hash_hits <- s.sym_hash_hits + 1;
      Some hit
    | None -> (
      match ix.si_rest with
      | [] -> None
      | mname :: rest ->
        (match listed_instance t proc ps scope mname with
        | Some inst ->
          Modinst.iter_exports inst (fun n addr ->
              if not (Hashtbl.mem ix.si_exports n) then
                Hashtbl.replace ix.si_exports n (addr, inst.Modinst.inst_key))
        | None -> ());
        ix.si_rest <- rest;
        go ())
  in
  go ()

let probe_kind () = if Config.current.symhash then "hash" else "linear"

let resolve_scoped t proc ps scope name =
  let in_list = if Config.current.symhash then in_list_indexed else in_list_linear in
  walk_scopes ps (in_list t proc ps) scope name

(* ----- memoized link plans ------------------------------------------------ *)

(* One scope node spelled out: its label, module list and search list. *)
let spell s =
  let terminated l = String.concat "" (List.map (fun x -> x ^ "\x03") l) in
  String.concat "\x02"
    [ s.Modinst.sc_label; terminated s.Modinst.sc_modules; terminated s.Modinst.sc_search ]

(* A node's digest covers its spelling and its parent's digest, so it
   pins the whole chain above it.  A node never changes, so it is
   digested at most once per process, whatever the generation. *)
let rec scope_digest ps s =
  match Scope_tbl.find_opt ps.ps_digests s with
  | Some d -> d
  | None ->
    let d = Digest.string (spell s ^ "\x04" ^ parent_digest ps s) in
    Scope_tbl.replace ps.ps_digests s d;
    d

and parent_digest ps s =
  match s.Modinst.sc_parent with Some p -> scope_digest ps p | None -> ""

(* Program identity: path, load-image segment id+version, cwd,
   LD_LIBRARY_PATH, and the bind mode.  Built once per process and
   rebuilt only when the cwd, the environment or the bind mode has
   changed since. *)
let prog_key t proc ps =
  match ps.ps_prog with
  | None -> None
  | Some (path, segid, segver) -> (
    let cwd = proc.Proc.cwd and env = proc.Proc.env and bind = t.bind_now in
    match ps.ps_key with
    | Some (c, e, b, key) when c == cwd && e == env && b = bind -> Some key
    | Some _ | None ->
      let llp = Option.value ~default:"" (List.assoc_opt "LD_LIBRARY_PATH" env) in
      let key =
        String.concat "\x01"
          [ path; string_of_int segid; string_of_int segver; Path.to_string cwd; llp;
            string_of_bool bind ]
      in
      ps.ps_key <- Some (cwd, env, bind, key);
      Some key)

(* Replay a plan's instantiations through the ordinary path — every
   simulated cost (reads, mappings, creation locks) recurs exactly —
   verifying each recorded base and template content identity.  The
   latter catches in-place rewrites that are invisible to
   [Fs.generation] (stores through a read-write file mapping): the
   fresh decode would differ from the one the addresses were computed
   against.  Each instance hangs off the live ancestor of the region's
   [scope] its depth names, which the key pins to the recorded one; a
   depth past the root fails like a mismatch.  On mismatch the plan is
   rejected; whatever was instantiated so far is exactly what the cold
   path would have instantiated, so falling back is safe. *)
let replay_deps t proc ps ~scope plan =
  List.for_all
    (fun d ->
      match ancestor scope d.Link_plan.dep_depth with
      | None -> false
      | Some parent_scope ->
        let inst =
          match find_instance ps d.Link_plan.dep_located with
          | Some inst -> inst
          | None ->
            instantiate t proc ps ~located:d.Link_plan.dep_located
              ~public:d.Link_plan.dep_public ~parent_scope
        in
        inst.Modinst.inst_base = d.Link_plan.dep_base
        && inst.Modinst.inst_src = d.Link_plan.dep_src)
    plan.Link_plan.plan_deps

(* Run the cold region while capturing its instantiations and resolved
   addresses, then memoize.  If the region raises (a creation lock, a
   link error) the key is poisoned: a retry would record only the
   leftover instantiations and the incomplete plan could strand a
   private module unmapped in some later process.  So is a region that
   refused a module (see [refuse]), or that instantiated under a
   scope outside [scope]'s chain, which no depth names. *)
let record_plan t ~fs ~scope key cold =
  let addrs = Hashtbl.create 16 in
  let r = { rec_scope = scope; rec_deps = []; rec_refused = false } in
  let saved = t.plan_rec in
  t.plan_rec <- Some r;
  match cold ~record:(fun sym addr -> Hashtbl.replace addrs sym addr) with
  | () ->
    t.plan_rec <- saved;
    if r.rec_refused || List.exists (fun d -> d.Link_plan.dep_depth < 0) r.rec_deps then
      Hashtbl.replace t.poisoned key ()
    else
      Link_plan.record t.plans ~fs key
        { Link_plan.plan_deps = List.rev r.rec_deps; plan_addrs = addrs; plan_copy = Unsaved }
  | exception e ->
    t.plan_rec <- saved;
    Hashtbl.replace t.poisoned key ();
    raise e

(* Resolution may consult instances instantiated by *earlier* regions:
   they appear in [plan_addrs] but, not being re-instantiated, leave no
   dependency entry for replay to verify.  Key every plan on a digest of
   the whole pre-existing instance set — identity, placement, publicness
   and decode content identity — so a plan only replays into a process
   whose already-instantiated modules make every recorded address valid.
   Fault order is execution-dependent (and the program key cannot see
   what drives it), so two execs of one program may well reach the same
   region with different sets; they simply use distinct plan slots. *)
let inst_digest ps = Digest.to_hex (Bytes.to_string ps.ps_digest)

(* The plan-or-cold driver: [run] performs the relocation work given a
   resolve function; [cold_resolve] is the scope walk from [scope]; [key]
   builds the region's plan key, only when plans are on.  A miss records
   the cold region.  A replay that fails verification drops the plan
   (reaping its file if one holds it) and runs cold *without*
   recording: it may already have instantiated some of the plan's
   dependencies, which a recording made now would leave out.  An
   injected failure runs cold and keeps the plan.  [Link_error] while
   replaying counts as failed verification (the cold run raises it
   again if it is real); [Would_block] and [Fault.Crash] propagate. *)
let planned t proc ps ~scope ~key ~cold_resolve ~run =
  match if Config.current.plans then key () else None with
  | None -> run cold_resolve
  | Some key -> (
    let fs = Kernel.fs t.k in
    validate t proc ps;
    let key =
      if Hashtbl.length ps.ps_refused = 0 then key ^ "\x05" ^ inst_digest ps
      else String.concat "\x05" [ key; inst_digest ps; refused_key ps ]
    in
    match Link_plan.lookup t.plans ~fs key with
    | None ->
      Link_plan.miss ();
      if Hashtbl.mem t.poisoned key then run cold_resolve
      else
        record_plan t ~fs ~scope key (fun ~record ->
            run (fun name ->
                match cold_resolve name with
                | Some addr ->
                  record name addr;
                  Some addr
                | None -> None))
    | Some plan -> (
      match
        Fault.hit "plan.replay";
        try replay_deps t proc ps ~scope plan with Link_error _ -> false
      with
      | true ->
        Link_plan.hit ();
        let stable = plan.Link_plan.plan_copy = Loaded in
        if stable then begin
          Stable_link.note_load ();
          plan.Link_plan.plan_copy <- Saved
        end;
        let source = if stable then "stable" else "replay" in
        run (fun name ->
            match Hashtbl.find_opt plan.Link_plan.plan_addrs name with
            | Some addr ->
              note_prov t ps name ~source ~probe:"plan" ~origin:"plan" ~scope:"";
              Some addr
            | None -> None)
      | false ->
        Link_plan.miss ();
        Link_plan.remove t.plans key;
        if plan.Link_plan.plan_copy <> Unsaved then Stable_link.reject fs ~key;
        run cold_resolve
      | exception Fault.Injected _ ->
        let s = Stats.cur () in
        s.plan_fallbacks <- s.plan_fallbacks + 1;
        Link_plan.miss ();
        run cold_resolve))

(* ----- the lazy link pass ------------------------------------------------- *)

(* The template's relocations grouped by symbol, once per decode: the
   memo is keyed like [objs] and dropped with it at reboot. *)
let grouped t inst =
  memo t.relocs inst.Modinst.inst_src (fun () ->
      Reloc_engine.group inst.Modinst.inst_obj.Objfile.relocs)

let link_instance t proc ps inst =
  if not inst.Modinst.inst_linked then begin
    let obj = inst.Modinst.inst_obj in
    let fs = Kernel.fs t.k in
    let image = Modinst.image_base inst in
    let text_b, data_b, bss_b = Objfile.section_bases obj in
    let bases = function
      | Objfile.Text -> image + text_b
      | Objfile.Data -> image + data_b
      | Objfile.Bss -> image + bss_b
    in
    let cold_resolve name =
      match Modinst.find_own inst name with
      | Some addr ->
        note_prov t ps name ~source:"cold" ~probe:(probe_kind ())
          ~origin:inst.Modinst.inst_key ~scope:inst.Modinst.inst_key;
        Some addr
      | None -> (
        match resolve_scoped t proc ps inst.Modinst.inst_scope name with
        | Some (addr, origin, slabel) ->
          note_prov t ps name ~source:"cold" ~probe:(probe_kind ()) ~origin ~scope:slabel;
          Some addr
        | None -> None)
    in
    let already, mark =
      if inst.Modinst.inst_public then
        ( Modinst.Header.applied inst.Modinst.inst_seg,
          Modinst.Header.set_applied inst.Modinst.inst_seg )
      else
        ( (fun i -> inst.Modinst.inst_applied.(i)),
          fun i -> inst.Modinst.inst_applied.(i) <- true )
    in
    let sink = Modinst.sink_of_segment inst.Modinst.inst_seg ~vaddr_base:inst.Modinst.inst_base in
    let relocs = grouped t inst in
    let run resolve =
      let left =
        Reloc_engine.link_pass ~relocs ~bases ~resolve
          ~epoch:(fun () -> Fs.generation fs)
          ~already ~mark sink ~gp:None ~veneer:(Some (Modinst.veneer_pool inst))
      in
      if left <> [] then
        warn t "module %s: %d reference(s) unresolved at the root (left to fault)"
          inst.Modinst.inst_key (List.length left)
    in
    let scope = inst.Modinst.inst_scope in
    let key () =
      Option.map
        (fun pk ->
          String.concat "\x01"
            [ "mod"; pk; inst.Modinst.inst_key; string_of_bool inst.Modinst.inst_public;
              string_of_int inst.Modinst.inst_base; spell scope; parent_digest ps scope ])
        (prog_key t proc ps)
    in
    planned t proc ps ~scope ~key ~cold_resolve ~run;
    As.protect proc.Proc.space inst.Modinst.inst_base Prot.Read_write_exec;
    inst.Modinst.inst_linked <- true;
    let s = Stats.cur () in
    s.modules_linked <- s.modules_linked + 1
  end

(* ----- start-up (crt0's trap) ---------------------------------------------- *)

let image_sink ps =
  match ps.ps_image_seg with
  | Some seg -> Modinst.sink_of_segment seg ~vaddr_base:Aout.image_base
  | None -> errf "no image for this process"

let resolve_image_pending t proc ps =
  match ps.ps_aout with
  | None -> ()
  | Some aout ->
    let sink = image_sink ps in
    let pool =
      {
        Reloc_engine.vp_base = Aout.image_base + aout.Aout.veneer_off;
        vp_cap = aout.Aout.veneer_cap;
        vp_get_next = (fun () -> ps.ps_veneer_next);
        vp_set_next = (fun n -> ps.ps_veneer_next <- n);
      }
    in
    let gp = Option.map (fun off -> Aout.image_base + off) aout.Aout.gp_base_off in
    let fs = Kernel.fs t.k in
    (* A retained relocation's offset is from the image base, whatever
       its section.  Nothing is marked as it goes: a start-up that
       raised retries every relocation. *)
    let run resolve =
      let relocs = ps.ps_pending in
      let left =
        Reloc_engine.link_pass ~relocs
          ~bases:(fun _ -> Aout.image_base)
          ~resolve
          ~epoch:(fun () -> Fs.generation fs)
          ~already:(fun _ -> false)
          ~mark:ignore sink ~gp ~veneer:(Some pool)
      in
      ps.ps_pending <-
        Reloc_engine.group (List.map (fun i -> relocs.Reloc_engine.rl_all.(i)) left)
    in
    let cold_resolve name =
      match resolve_scoped t proc ps ps.ps_root name with
      | Some (addr, origin, slabel) ->
        note_prov t ps name ~source:"cold" ~probe:(probe_kind ()) ~origin ~scope:slabel;
        Some addr
      | None -> None
    in
    let key () = Option.map (fun pk -> "rip\x01" ^ pk) (prog_key t proc ps) in
    planned t proc ps ~scope:ps.ps_root ~key ~cold_resolve ~run

let ldl_startup t proc ps =
  match ps.ps_aout with
  | None -> ()
  | Some aout ->
    let root =
      {
        Modinst.sc_label = proc.Proc.comm;
        sc_modules =
          List.map (fun sp -> sp.Aout.sp_template) aout.Aout.static_pubs
          @ List.map (fun d -> d.Aout.dd_name) aout.Aout.dynamics;
        sc_search = Search.runtime_dirs (ctx_of t proc) ~recorded:aout.Aout.static_dirs;
        sc_parent = None;
      }
    in
    ps.ps_root <- root;
    (* Each module is located as the root walk locates it, once.  A
       failure here is only warned: the walk tries the module again, as
       its own sharing class may differ from the descriptor's. *)
    let start ~what name located ~public =
      if find_instance ps located = None then
        match instantiate t proc ps ~located ~public ~parent_scope:root with
        | (_ : Modinst.t) -> ()
        | exception Link_error msg -> warn t "%s %s: %s" what name msg
    in
    (* Map (and if necessary recreate) the static public modules. *)
    List.iter
      (fun sp ->
        let name = sp.Aout.sp_template in
        match located t proc ps root name with
        | None -> warn t "static public module %s not found at run time" name
        | Some located -> start ~what:"static public" name located ~public:(is_shared_located located))
      aout.Aout.static_pubs;
    (* Create/instantiate dynamic modules, honouring the descriptor class. *)
    List.iter
      (fun d ->
        let name = d.Aout.dd_name in
        match located t proc ps root name with
        | None -> warn t "dynamic module %s not found" name
        | Some located ->
          start ~what:"dynamic" name located ~public:(d.Aout.dd_class = Sharing.Dynamic_public))
      aout.Aout.dynamics;
    (* Resolve the image's retained references against what is now mapped
       — including symbols whose location was unknown at static link
       time (the dld-style capability). *)
    resolve_image_pending t proc ps;
    (* LD_BIND_NOW: chase the whole reachability graph up front. *)
    if t.bind_now then begin
      let rec fixpoint () =
        (* ps_unlinked is a worklist: linking can instantiate more
           modules, which add_instance appends to it. *)
        match ps.ps_unlinked with
        | [] -> ()
        | inst :: rest ->
          ps.ps_unlinked <- rest;
          if not inst.Modinst.inst_linked then link_instance t proc ps inst;
          fixpoint ()
      in
      fixpoint ()
    end;
    ps.ps_started <- true

(* ----- the fault handler (§2) ----------------------------------------------- *)

let handle_fault t _k proc fault =
  match state t proc with
  | None -> Kernel.Unhandled
  | Some ps -> (
    let addr = fault.Kernel.f_addr in
    let finish f =
      match f () with
      | () -> Kernel.Resolved
      | exception Would_block cond -> Kernel.Retry_when cond
      | exception Link_error msg ->
        warn t "fault at 0x%08x: %s" addr msg;
        Kernel.Unhandled
      | exception Fault.Injected { site; failure } ->
        (* Injected failures must stay inside the trap pipeline: the
           faulting process gets a segfault kill, not an OCaml
           exception escaping the simulator. *)
        warn t "fault at 0x%08x: injected %s at %s" addr
          (Fault.failure_name failure) site;
        Kernel.Unhandled
    in
    match instance_covering ps addr with
    | Some inst when not inst.Modinst.inst_linked ->
      (* Lazy linking: resolve all of the touched module's references,
         mapping in (possibly inaccessibly) any modules they need. *)
      finish (fun () -> link_instance t proc ps inst)
    | Some _ -> Kernel.Unhandled
    | None ->
      if Layout.is_public addr then begin
        match Fs.path_of_addr (Kernel.fs t.k) addr with
        | exception Fs.Error _ -> Kernel.Unhandled
        | path ->
          let seg = Fs.segment_of (Kernel.fs t.k) path in
          let is_module = Modinst.Header.is_module_file seg in
          if is_module && instance_covering ps (Fs.addr_of_path (Kernel.fs t.k) path) <> None
          then
            (* A module this process already has, touched past its placed
               extent: linking it again cannot resolve that. *)
            Kernel.Unhandled
          else if is_module then
            finish (fun () ->
                let scope =
                  {
                    Modinst.sc_label = path;
                    sc_modules = [];
                    sc_search = [];
                    sc_parent = Some ps.ps_root;
                  }
                in
                let inst =
                  Modinst.public_instance ~decode:(decode t) (ctx_of t proc) ~module_path:path
                    ~scope
                in
                ignore
                  (Kernel.map_shared_segment t.k proc ~base:inst.Modinst.inst_base ~path
                     ~seg:inst.Modinst.inst_seg ~prot:Prot.No_access);
                add_instance ps inst;
                link_instance t proc ps inst)
          else
            (* An ordinary shared file: map it so the pointer chase can
               proceed (access rights permitting). *)
            finish (fun () ->
                ignore (Kernel.map_shared_file t.k proc ~path ~prot:Prot.Read_write))
      end
      else Kernel.Unhandled)

(* ----- binfmt loader ---------------------------------------------------------- *)

let count_used_veneers aout =
  let text = aout.Aout.text in
  let rec go i n =
    if i >= aout.Aout.veneer_cap then n
    else
      let off = aout.Aout.veneer_off + (i * Reloc_engine.veneer_slot_bytes) in
      if off + 4 <= Bytes.length text && Codec.get_u32 text off <> 0 then go (i + 1) (n + 1)
      else go (i + 1) n
  in
  go 0 0

let empty_root proc =
  { Modinst.sc_label = proc.Proc.comm; sc_modules = []; sc_search = []; sc_parent = None }

(* Image bytes are hostile input: exec of one that does not parse, or
   whose entry, retained relocations or veneer pool lie outside the
   bytes it carries, or that does not fit below the heap, fails with
   ENOEXEC before anything is mapped. *)
let enoexec path fmt =
  Printf.ksprintf
    (fun why -> raise (Kernel.os_error (Printf.sprintf "exec %s: %s" path why) Errno.ENOEXEC))
    fmt

let check_image path aout =
  let text = Bytes.length aout.Aout.text in
  let carried = text + Bytes.length aout.Aout.data in
  if aout.Aout.entry_off + 4 > text then
    enoexec path "entry +0x%x outside the text" aout.Aout.entry_off;
  if aout.Aout.veneer_off + (aout.Aout.veneer_cap * Reloc_engine.veneer_slot_bytes) > text then
    enoexec path "veneer pool outside the text";
  List.iter
    (fun r ->
      if r.Objfile.rel_offset + 4 > carried then
        enoexec path "relocation at +0x%x outside the image" r.Objfile.rel_offset)
    aout.Aout.pending;
  if Aout.image_base + Layout.page_up (Aout.image_size aout) > Layout.heap_base then
    enoexec path "image of %d bytes does not fit below the heap" (Aout.image_size aout)

let loader t _k proc bytes ~path =
  if not (Aout.looks_like bytes) then raise Kernel.Wrong_format;
  (* Identify the backing file so the decode and the placed image can be
     memoized and link plans keyed; an image that is somehow not
     addressable by path just skips all three. *)
  let src =
    match Fs.segment_of (Kernel.fs t.k) ~cwd:proc.Proc.cwd path with
    | fseg -> Some (Segment.id fseg, Segment.version fseg)
    | exception Fs.Error _ -> None
  in
  let build_image aout name =
    let size = Layout.page_up (Aout.image_size aout) in
    let seg = Segment.create ~name ~max_size:size () in
    Segment.blit_in seg ~dst_off:0 aout.Aout.text;
    Segment.blit_in seg ~dst_off:(Bytes.length aout.Aout.text) aout.Aout.data;
    Segment.resize seg size;
    seg
  in
  (* The serialized file layout differs from the placed image, so the
     file segment itself cannot back the mapping; instead the placed
     image is built once per file content and shared COW. *)
  let decode_image () =
    let aout = try Aout.parse bytes with Failure why -> enoexec path "%s" why in
    check_image path aout;
    (aout, Reloc_engine.group aout.Aout.pending, lazy (build_image aout ("image-master:" ^ path)))
  in
  let aout, pending, master =
    match src with Some src -> memo t.images src decode_image | None -> decode_image ()
  in
  let seg =
    match src with
    | Some _ when Config.current.cow -> Segment.copy (Lazy.force master)
    | Some _ | None -> build_image aout ("image:" ^ path)
  in
  As.map proc.Proc.space ~base:Aout.image_base ~len:(Segment.max_size seg) ~seg
    ~kind:Vm_object.Anonymous ~prot:Prot.Read_write_exec ~share:As.Private ~label:path ();
  Hashtbl.replace t.states proc.Proc.pid
    (new_pstate ~aout ~image_seg:seg ~pending
       ~veneer_next:(count_used_veneers aout)
       ?prog:(Option.map (fun (id, ver) -> (path, id, ver)) src)
       ~started:false (empty_root proc));
  Kernel.install_segv_handler t.k proc ~name:"hemlock-ldl" (handle_fault t);
  Aout.image_base + aout.Aout.entry_off

(* ----- fork hook ------------------------------------------------------------------ *)

let clone_for_fork t ~parent ~child =
  match state t parent with
  | None -> ()
  | Some ps ->
    let remap base fallback =
      match As.mapping_at child.Proc.space base with
      | Some (_, _, m) -> m.As.seg
      | None -> fallback
    in
    let clone_inst inst =
      if inst.Modinst.inst_public then { inst with Modinst.inst_key = inst.Modinst.inst_key }
      else
        {
          inst with
          Modinst.inst_seg = remap inst.Modinst.inst_base inst.Modinst.inst_seg;
          inst_applied = Array.copy inst.Modinst.inst_applied;
        }
    in
    (* Provenance is per-process observability: the child starts empty
       and accumulates its own post-fork resolutions. *)
    let child_ps =
      new_pstate ?aout:ps.ps_aout
        ?image_seg:(Option.map (fun seg -> remap Aout.image_base seg) ps.ps_image_seg)
        ~instances:(List.map clone_inst ps.ps_instances)
        ~pending:ps.ps_pending ~veneer_next:ps.ps_veneer_next ?prog:ps.ps_prog
        ~started:ps.ps_started ps.ps_root
    in
    rebuild_indexes child_ps;
    Hashtbl.replace t.states child.Proc.pid child_ps

(* ----- public entry points ---------------------------------------------------------- *)

let install k =
  let t =
    {
      k;
      states = Hashtbl.create 16;
      warn = [];
      bind_now = false;
      linkstat = false;
      plans = Link_plan.create_store ();
      objs = Hashtbl.create 64;
      relocs = Hashtbl.create 64;
      masters = Hashtbl.create 64;
      images = Hashtbl.create 16;
      plan_rec = None;
      poisoned = Hashtbl.create 16;
      synced_gen = -1;
    }
  in
  Kernel.register_binfmt k ~name:"hexe" (fun kk proc bytes ~path -> loader t kk proc bytes ~path);
  Kernel.register_syscall k Sysno.ldl_run (fun _k proc cpu ->
      match state t proc with
      | None -> ()
      | Some ps -> (
        if not ps.ps_started then
          try ldl_startup t proc ps with
          | Would_block cond -> Kernel.block_syscall ~why:"ldl: a creation lock" cpu cond
          | Link_error msg -> warn t "ldl: %s" msg));
  Kernel.add_fork_hook k (fun ~parent ~child -> clone_for_fork t ~parent ~child);
  Kernel.add_reap_hook k (fun proc -> Hashtbl.remove t.states proc.Proc.pid);
  (* Reboot kills the kernel-resident LINK STATE — the plan store, the
     template decode memo and the relocations it grouped — of which
     stable linking keeps only the plans in /shared.  Placed CONTENT
     stays, as does the kernel's pager: the placed-module masters and
     the decoded and placed images are identified by the (id, version)
     of segments that survive the reboot, modelling bytes in the
     persistent segment store.  All of it is host-side; simulated costs
     never change.  Then the hook reads the plans back, only at the
     generation the copy was made at — read first, because a plan reap
     moves it without changing anything a module lookup sees. *)
  Kernel.add_reboot_hook k (fun () ->
      let fs = Kernel.fs k in
      let gen = Fs.generation fs in
      Link_plan.reset_store t.plans;
      Hashtbl.reset t.poisoned;
      Hashtbl.reset t.objs;
      Hashtbl.reset t.relocs;
      if Config.current.plans && gen = t.synced_gen then
        List.iter
          (fun (key, plan) -> Link_plan.record t.plans ~fs key plan)
          (Stable_link.load_plans fs));
  t

let attach t proc =
  if state t proc = None then begin
    let root =
      {
        Modinst.sc_label = proc.Proc.comm;
        sc_modules = [];
        sc_search = Search.runtime_dirs (ctx_of t proc) ~recorded:Search.default_dirs;
        sc_parent = None;
      }
    in
    Hashtbl.replace t.states proc.Proc.pid (new_pstate ~started:true root);
    Kernel.install_segv_handler t.k proc ~name:"hemlock-ldl" (handle_fault t)
  end

let rec retry_native f =
  match f () with
  | v -> v
  | exception Would_block cond ->
    Proc.wait_until ~why:"ldl: a creation lock" cond;
    retry_native f

let dlopen t proc name =
  attach t proc;
  let ps = Option.get (state t proc) in
  retry_native (fun () ->
      match located t proc ps ps.ps_root name with
      | Some located -> ensure_instance t proc ps ~scope:ps.ps_root located
      | None -> errf "dlopen: cannot find module %s" name)

let dlsym t proc name =
  attach t proc;
  let ps = Option.get (state t proc) in
  retry_native (fun () ->
      match resolve_scoped t proc ps ps.ps_root name with
      | Some (addr, origin, slabel) ->
        note_prov t ps name ~source:"dlsym" ~probe:(probe_kind ()) ~origin ~scope:slabel;
        Some addr
      | None ->
        (* dld-style: symbols of explicitly loaded modules are visible
           even when no module list names them. *)
        List.find_map
          (fun inst ->
            Option.map
              (fun addr ->
                note_prov t ps name ~source:"dlsym" ~probe:(probe_kind ())
                  ~origin:inst.Modinst.inst_key ~scope:"loaded";
                addr)
              (Modinst.find_export inst name))
          ps.ps_instances)

let link_now t proc inst =
  match state t proc with
  | None -> errf "link_now: process not attached"
  | Some ps -> retry_native (fun () -> link_instance t proc ps inst)

(* ----- stable sync ------------------------------------------------------------------ *)

type sync_report = Stable_link.sync_report = {
  sync_plans : int;
  sync_objs : int;
  sync_skipped : int;
}

(* An explicit sync point, not persist-at-record: recording happens
   while the namespace is still mutating, and every [Fs.write_file]
   moves the generation the copy is tied to.  The writes are billed, so
   no exec path syncs implicitly.  The sync's own unlinks and writes
   touch only files no module lookup names, so store and copy are both
   valid at the generation it ends at, unless an unlink failed. *)
let stable_sync t =
  if not Config.current.plans then { sync_plans = 0; sync_objs = 0; sync_skipped = 0 }
  else begin
    let fs = Kernel.fs t.k in
    let report, exact = Stable_link.sync fs ~plans:(Link_plan.entries t.plans ~fs) in
    Link_plan.keep t.plans ~fs;
    t.synced_gen <- (if exact then Fs.generation fs else -1);
    report
  end

(* ----- linkstat: resolution provenance as JSON -------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prov_rows ps =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name p acc -> (name, p) :: acc) ps.ps_prov [])

let linkstat_proc_json t proc =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[";
  (match state t proc with
  | None -> ()
  | Some ps ->
    List.iteri
      (fun i (name, p) ->
        if i > 0 then Buffer.add_string b ",";
        Buffer.add_string b
          (Printf.sprintf
             "\n  { \"symbol\": \"%s\", \"origin\": \"%s\", \"scope\": \"%s\", \
              \"probe\": \"%s\", \"source\": \"%s\", \"count\": %d }"
             (json_escape name) (json_escape p.pv_origin) (json_escape p.pv_scope)
             (json_escape p.pv_probe) (json_escape p.pv_source) p.pv_count))
      (prov_rows ps));
  Buffer.add_string b "\n]";
  Buffer.contents b

(* Per-process aggregates plus kernel-wide totals and the full counter
   set — the "kernel linkstat" dump. *)
let linkstat_json t =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"processes\": [";
  let pids =
    List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) t.states [])
  in
  let tot = Hashtbl.create 16 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let counts_json tbl =
    let rows =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v) rows)
  in
  List.iteri
    (fun i pid ->
      let ps = Hashtbl.find t.states pid in
      let sources = Hashtbl.create 8 and probes = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ p ->
          bump sources p.pv_source;
          bump probes p.pv_probe;
          bump tot ("source:" ^ p.pv_source);
          bump tot ("probe:" ^ p.pv_probe))
        ps.ps_prov;
      let prog =
        match ps.ps_prog with Some (path, _, _) -> path | None -> "(attached)"
      in
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"pid\": %d, \"prog\": \"%s\", \"n_symbols\": %d, \
            \"by_source\": { %s }, \"by_probe\": { %s } }"
           pid (json_escape prog) (Hashtbl.length ps.ps_prov) (counts_json sources)
           (counts_json probes)))
    pids;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b (Printf.sprintf "  \"totals\": { %s },\n" (counts_json tot));
  Buffer.add_string b
    (Printf.sprintf "  \"stats\": %s\n}" (Stats.to_json (Stats.snapshot ())));
  Buffer.contents b
