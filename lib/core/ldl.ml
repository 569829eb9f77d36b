module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Sysno = Hemlock_os.Sysno
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

exception Link_error = Reloc_engine.Link_error

(* Raised when progress needs a file lock someone else holds; translated
   to a blocked syscall (ISA), a Retry_when (fault handler), or a
   wait_until (native callers). *)
exception Would_block of (unit -> bool)

let errf fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

(* Per-symbol resolution provenance (observability only): how the last
   resolution of each name was answered, and how often the name was
   resolved at all.  Strings are kept flat so the JSON export needs no
   joins: [pv_source] is "cold" | "replay" | "stable" | "dlsym",
   [pv_probe] is "hash" | "linear" | "plan", [pv_origin] is
   the exporting instance key (or "image" | "plan" | "own"), [pv_scope]
   the scope label the walk found it at. *)
type prov = {
  mutable pv_count : int;
  mutable pv_source : string;
  mutable pv_probe : string;
  mutable pv_origin : string;
  mutable pv_scope : string;
}

(* The resumable export index of one scope node: the part of its module
   list the walk has not passed yet, and the first exporter (address,
   instance key) of each name among the modules before that point. *)
type scope_index = {
  mutable si_rest : string list;
  si_exports : (string, int * string) Hashtbl.t;
}

type pstate = {
  mutable ps_aout : Aout.t option;
  mutable ps_image_seg : Segment.t option;
  mutable ps_instances : Modinst.t list;
  mutable ps_root : Modinst.scope;
  mutable ps_pending : Objfile.reloc list;
  mutable ps_veneer_next : int;
  mutable ps_started : bool;
  (* program identity for link plans: path + load-image (segment id,
     version), when this state came from an exec *)
  mutable ps_prog : (string * int * int) option;
  (* host-side indexes over ps_instances (always kept in sync):
     by base for the fault path, by key for locate results, plus the
     not-yet-linked worklist for LD_BIND_NOW *)
  mutable ps_sorted : Modinst.t array;
  ps_by_key : (string, Modinst.t) Hashtbl.t;
  mutable ps_unlinked : Modinst.t list;
  (* per-scope export indexes, all valid for [ps_index_gen] only
     (instances never move within a process, so an index can only go
     stale through the namespace) *)
  ps_index : (Modinst.scope, scope_index) Hashtbl.t;
  mutable ps_index_gen : int;
  (* host-side: per-symbol resolution provenance for linkstat *)
  ps_prov : (string, prov) Hashtbl.t;
  (* incrementally-maintained digest of the instance set: the XOR of
     each instance's fragment digest.  XOR makes the combination
     order-independent, so an insert is O(1) instead of re-digesting
     the whole set — [inst_digest] runs once per planned region, and
     regions interleave with instantiation, which made the old
     whole-array re-digest O(N^2) per exec *)
  mutable ps_digest : Bytes.t;  (* 16 raw digest bytes *)
}

type t = {
  k : Kernel.t;
  states : (int, pstate) Hashtbl.t;
  mutable warn : string list;
  mutable bind_now : bool;
  plans : Modinst.scope Link_plan.store;  (* kernel-wide memoized link plans *)
  (* Zero-copy exec: the placed image of a program, built once per
     backing-file content identity (segment id, version) and COW-copied
     into every subsequent process.  The master is never mapped, so it
     stays pristine however processes scribble on their images. *)
  images : (int * int, Segment.t) Hashtbl.t;
  mutable plan_rec : Modinst.scope Link_plan.dep list ref option;
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

let warnings t = List.rev t.warn

let warn t fmt = Printf.ksprintf (fun s -> t.warn <- s :: t.warn) fmt

let ctx_of t proc =
  { Search.fs = Kernel.fs t.k; cwd = proc.Proc.cwd; env = proc.Proc.env }

let state t proc = Hashtbl.find_opt t.states proc.Proc.pid

let note_prov ps name ~source ~probe ~origin ~scope =
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

(* Binary search the sorted-by-base index for the instance whose range
   contains [addr]: instances never overlap (distinct shared slots or
   disjoint arena gaps), so the rightmost base <= addr is the only
   candidate. *)
let instance_covering ps addr =
  let arr = ps.ps_sorted in
  let rec go lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid).Modinst.inst_base <= addr then go (mid + 1) hi else go lo mid
  in
  let i = go 0 (Array.length arr) in
  if i >= 0 && Modinst.contains arr.(i) addr then Some arr.(i) else None

let instance_at t proc addr =
  match state t proc with
  | None -> None
  | Some ps -> instance_covering ps addr

let pending_image_relocs t proc =
  match state t proc with Some ps -> ps.ps_pending | None -> []

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

(* Register a fresh instance in the list and every index. *)
let add_instance ps inst =
  ps.ps_instances <- inst :: ps.ps_instances;
  Hashtbl.replace ps.ps_by_key inst.Modinst.inst_key inst;
  let acc = Bytes.copy ps.ps_digest in
  digest_xor acc (inst_fragment inst);
  ps.ps_digest <- acc;
  let n = Array.length ps.ps_sorted in
  let arr = Array.make (n + 1) inst in
  let rec ins i =
    if i < n && ps.ps_sorted.(i).Modinst.inst_base < inst.Modinst.inst_base then begin
      arr.(i) <- ps.ps_sorted.(i);
      ins (i + 1)
    end
    else
      for j = i to n - 1 do
        arr.(j + 1) <- ps.ps_sorted.(j)
      done
  in
  ins 0;
  ps.ps_sorted <- arr;
  if not inst.Modinst.inst_linked then ps.ps_unlinked <- inst :: ps.ps_unlinked

let rebuild_indexes ps =
  Hashtbl.reset ps.ps_by_key;
  List.iter (fun i -> Hashtbl.replace ps.ps_by_key i.Modinst.inst_key i) ps.ps_instances;
  let arr = Array.of_list ps.ps_instances in
  Array.sort (fun a b -> compare a.Modinst.inst_base b.Modinst.inst_base) arr;
  ps.ps_sorted <- arr;
  let acc = Bytes.make 16 '\000' in
  List.iter (fun i -> digest_xor acc (inst_fragment i)) ps.ps_instances;
  ps.ps_digest <- acc;
  ps.ps_unlinked <- List.filter (fun i -> not i.Modinst.inst_linked) ps.ps_instances

(* Returns the decoded template and its content identity — the backing
   segment's (id, version) — so callers can tell two decodes of the same
   path apart after an in-place rewrite. *)
let load_template ctx path =
  match Fs.read_file ctx.Search.fs ~cwd:ctx.Search.cwd path with
  | bytes -> (
    let seg = Fs.segment_of ctx.Search.fs ~cwd:ctx.Search.cwd path in
    match Link_plan.parse_obj ~seg bytes with
    | obj -> (obj, (Segment.id seg, Segment.version seg))
    | exception Failure msg -> errf "bad template %s: %s" path msg)
  | exception Fs.Error { kind; _ } ->
    errf "cannot read template %s: %s" path (Fs.err_kind_to_string kind)

let is_shared_located located =
  Path.is_prefix ~prefix:[ "shared" ] (Path.of_string ~cwd:Path.root located)

let module_file_of_template located =
  if Filename.check_suffix located ".o" then Filename.chop_suffix located ".o"
  else errf "public module template %s does not end in .o" located

(* Serialise creation of a public module with a file lock; the first
   process of a parallel application creates and initialises the shared
   data, its siblings block then link the existing file (§4, fn 3). *)
let ensure_public_created t proc ~located ~obj =
  let fs = Kernel.fs t.k in
  let module_path = module_file_of_template located in
  let ready () =
    Fs.exists fs module_path
    && Modinst.Header.is_module_file (Fs.segment_of fs module_path)
  in
  if ready () then module_path
  else begin
    let lock_name = module_path ^ ".lock" in
    if not (Kernel.try_flock t.k proc lock_name) then
      raise (Would_block (fun () -> Kernel.flock_holder t.k lock_name = None));
    Fun.protect
      ~finally:(fun () -> Kernel.funlock t.k proc lock_name)
      (fun () ->
        if not (ready ()) then begin
          if Fs.exists fs module_path then
            errf "%s exists but is not a Hemlock module" module_path;
          ignore
            (Modinst.create_public_file (ctx_of t proc) ~template_path:located ~obj
               ~module_path)
        end);
    module_path
  end

(* Effective search directories for a scope: its own, then its
   ancestors' up to the root (whose list is the run-time search path). *)
let rec scope_dirs scope =
  scope.Modinst.sc_search
  @ (match scope.Modinst.sc_parent with Some p -> scope_dirs p | None -> [])

(* ----- instantiation ------------------------------------------------------ *)

let instantiate t proc ps ~located ~public ~parent_scope =
  Fault.hit "ldl.instantiate";
  let ctx = ctx_of t proc in
  let obj, src = load_template ctx located in
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
      List.iter
        (fun base ->
          (match As.mapping_at proc.Proc.space base with
          | Some (_, _, m) when m.As.share = As.Private ->
            (* A discarded private instance segment is dead for good:
               release its page refcounts now (the master template's
               pages return to sole ownership, so its next sharing-out
               starts clean) and drop its pager identity. *)
            Segment.release m.As.seg;
            Vm_object.forget m.As.seg
          | Some _ | None -> ());
          As.unmap proc.Proc.space base)
        !mapped;
      (Stats.cur ()).link_rollbacks <- (Stats.cur ()).link_rollbacks + 1
    end
  in
  let inst =
    try
      if public then begin
        if not (is_shared_located located) then
          errf "public module template %s must reside on the shared partition" located;
        let module_path = ensure_public_created t proc ~located ~obj in
        let inst = Modinst.public_instance ctx ~module_path ~scope in
        let fully = Modinst.Header.fully_linked inst.Modinst.inst_seg in
        let prot = if fully then Prot.Read_write_exec else Prot.No_access in
        (match As.mapping_at proc.Proc.space inst.Modinst.inst_base with
        | Some _ -> ()
        | None ->
          let seg = inst.Modinst.inst_seg in
          As.map proc.Proc.space ~base:inst.Modinst.inst_base ~len:Layout.shared_slot_size
            ~seg
            ~kind:
              (Vm_object.File_backed
                 {
                   path = module_path;
                   writeback =
                     (fun ~page ->
                       Fs.page_writeback (Kernel.fs t.k) ~path:module_path ~seg ~page);
                 })
            ~prot ~share:As.Public ~label:module_path ();
          mapped := inst.Modinst.inst_base :: !mapped);
        Fault.hit "ldl.instantiate.mid";
        if fully then begin
          inst.Modinst.inst_linked <- true;
          (Stats.cur ()).modules_linked <- (Stats.cur ()).modules_linked + 1
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
        let inst = Modinst.private_instance ~src ~located ~obj ~base ~scope () in
        let prot =
          if obj.Objfile.relocs = [] then Prot.Read_write_exec else Prot.No_access
        in
        As.map proc.Proc.space ~base ~len:size ~seg:inst.Modinst.inst_seg
          ~kind:Vm_object.Anonymous ~prot ~share:As.Private ~label:located ();
        mapped := base :: !mapped;
        Fault.hit "ldl.instantiate.mid";
        if prot = Prot.Read_write_exec then begin
          inst.Modinst.inst_linked <- true;
          (Stats.cur ()).modules_linked <- (Stats.cur ()).modules_linked + 1
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
  | Some acc ->
    acc :=
      {
        Link_plan.dep_located = located;
        dep_public = public;
        dep_base = inst.Modinst.inst_base;
        dep_src = inst.Modinst.inst_src;
        dep_parent = parent_scope;
      }
      :: !acc
  | None -> ());
  inst

(* Locate a module by name through a scope's effective directories and
   make sure it is instantiated (mapped, possibly without access). *)
let ensure_instance_by_name t proc ps ~scope name =
  let ctx = ctx_of t proc in
  match Search.locate ctx ~dirs:(scope_dirs scope) name with
  | None -> None
  | Some located -> (
    match find_instance ps located with
    | Some inst -> Some inst
    | None ->
      Some (instantiate t proc ps ~located ~public:(is_shared_located located) ~parent_scope:scope))

(* Scoped symbol resolution: this scope's module list, then the parent
   chain; at the root, also the main image's exports.  [in_list] answers
   one node's module list.  Successes carry provenance: the exporting
   instance (or "image") and the scope node whose module list
   answered. *)
let rec walk_scopes ps in_list scope name =
  match in_list scope name with
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
      match ensure_instance_by_name t proc ps ~scope mname with
      | Some inst ->
        Option.map (fun addr -> (addr, inst.Modinst.inst_key)) (Modinst.find_export inst name)
      | None -> None)
    scope.Modinst.sc_modules

(* The same walk, resumed instead of restarted.  Each scope's index
   answers for the modules the walk has already passed, which it located
   and instantiated at this generation in this process, so re-walking
   them would repeat no simulated action; a miss walks on from where the
   walk stopped, in list order.  The rules that keep it the linear walk:
   - every index holds for one [Fs.generation], checked at every level,
     because instantiating a public module creates its file (moving the
     generation) mid-walk;
   - the first exporter wins, as [Modinst.find_export] answers;
   - the cursor passes a module only once [ensure_instance_by_name]
     returned, so a walk that raised ([Would_block] on a creation lock,
     [Link_error], a crash) retries that module next time. *)
let scope_index t ps scope =
  let gen = Fs.generation (Kernel.fs t.k) in
  if gen <> ps.ps_index_gen then begin
    Hashtbl.reset ps.ps_index;
    ps.ps_index_gen <- gen
  end;
  match Hashtbl.find_opt ps.ps_index scope with
  | Some ix -> ix
  | None ->
    let ix = { si_rest = scope.Modinst.sc_modules; si_exports = Hashtbl.create 16 } in
    Hashtbl.replace ps.ps_index scope ix;
    ix

let in_list_indexed t proc ps scope name =
  let ix = scope_index t ps scope in
  let rec go () =
    match Hashtbl.find_opt ix.si_exports name with
    | Some hit ->
      (Stats.cur ()).sym_hash_hits <- (Stats.cur ()).sym_hash_hits + 1;
      Some hit
    | None -> (
      match ix.si_rest with
      | [] -> None
      | mname :: rest ->
        (match ensure_instance_by_name t proc ps ~scope mname with
        | Some inst ->
          Modinst.iter_exports inst (fun n addr ->
              if not (Hashtbl.mem ix.si_exports n) then
                Hashtbl.replace ix.si_exports n (addr, inst.Modinst.inst_key))
        | None -> ());
        ix.si_rest <- rest;
        go ())
  in
  go ()

let probe_kind () = if !Objfile.sym_hash_enabled then "hash" else "linear"

let resolve_scoped t proc ps scope name =
  let in_list = if !Objfile.sym_hash_enabled then in_list_indexed else in_list_linear in
  walk_scopes ps (in_list t proc ps) scope name

(* ----- memoized link plans ------------------------------------------------ *)

let scope_sig scope =
  let b = Buffer.create 64 in
  let rec go s =
    Buffer.add_string b s.Modinst.sc_label;
    Buffer.add_char b '\x02';
    List.iter
      (fun m ->
        Buffer.add_string b m;
        Buffer.add_char b '\x03')
      s.Modinst.sc_modules;
    Buffer.add_char b '\x02';
    List.iter
      (fun d ->
        Buffer.add_string b d;
        Buffer.add_char b '\x03')
      s.Modinst.sc_search;
    match s.Modinst.sc_parent with
    | Some p ->
      Buffer.add_char b '\x04';
      go p
    | None -> ()
  in
  go scope;
  Buffer.contents b

(* Program identity: path, load-image segment id+version, cwd, exec-time
   LD_LIBRARY_PATH, and the bind mode. *)
let prog_key t proc ps =
  match ps.ps_prog with
  | None -> None
  | Some (path, segid, segver) ->
    let llp = Option.value ~default:"" (List.assoc_opt "LD_LIBRARY_PATH" proc.Proc.env) in
    Some
      (Printf.sprintf "%s\x01%d\x01%d\x01%s\x01%s\x01%b" path segid segver
         (Path.to_string proc.Proc.cwd) llp t.bind_now)

(* Replay a plan's instantiations through the ordinary path — every
   simulated cost (reads, mappings, creation locks) recurs exactly —
   verifying each recorded base and template content identity.  The
   latter catches in-place rewrites that are invisible to
   [Fs.generation] (stores through a read-write file mapping): the
   fresh decode would differ from the one the addresses were computed
   against.  On mismatch the plan is rejected; whatever was
   instantiated so far is exactly what the cold path would have
   instantiated, so falling back is safe. *)
let replay_deps t proc ps plan =
  List.for_all
    (fun d ->
      let inst =
        match find_instance ps d.Link_plan.dep_located with
        | Some inst -> inst
        | None ->
          instantiate t proc ps ~located:d.Link_plan.dep_located
            ~public:d.Link_plan.dep_public ~parent_scope:d.Link_plan.dep_parent
      in
      inst.Modinst.inst_base = d.Link_plan.dep_base
      && inst.Modinst.inst_src = d.Link_plan.dep_src)
    plan.Link_plan.plan_deps

(* Run the cold region while capturing its instantiations and resolved
   addresses, then memoize.  If the region raises (a creation lock, a
   link error) the key is poisoned: a retry would record only the
   leftover instantiations and the incomplete plan could strand a
   private module unmapped in some later process. *)
let record_plan t ~fs key cold =
  let addrs = Hashtbl.create 16 in
  let acc = ref [] in
  let saved = t.plan_rec in
  t.plan_rec <- Some acc;
  match cold ~record:(fun sym addr -> Hashtbl.replace addrs sym addr) with
  | () ->
    t.plan_rec <- saved;
    Link_plan.record t.plans ~fs key
      { Link_plan.plan_deps = List.rev !acc; plan_addrs = addrs; plan_copy = Unsaved }
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
   resolve function; [cold_resolve] is the scope walk.  A miss records
   the cold region.  A replay that fails verification drops the plan
   (reaping its file if one holds it) and runs cold *without*
   recording: it may already have instantiated some of the plan's
   dependencies, which a recording made now would leave out.  An
   injected failure runs cold and keeps the plan.  [Link_error] while
   replaying counts as failed verification (the cold run raises it
   again if it is real); [Would_block] and [Fault.Crash] propagate. *)
let planned t proc ps ~key ~cold_resolve ~run =
  match if !Link_plan.enabled then key else None with
  | None -> run cold_resolve
  | Some key -> (
    let fs = Kernel.fs t.k in
    let key = key ^ "\x05" ^ inst_digest ps in
    match Link_plan.lookup t.plans ~fs key with
    | None ->
      Link_plan.miss ();
      if Hashtbl.mem t.poisoned key then run cold_resolve
      else
        record_plan t ~fs key (fun ~record ->
            run (fun name ->
                match cold_resolve name with
                | Some addr ->
                  record name addr;
                  Some addr
                | None -> None))
    | Some plan -> (
      match
        Fault.hit "plan.replay";
        try replay_deps t proc ps plan with Link_error _ -> false
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
              note_prov ps name ~source ~probe:"plan" ~origin:"plan" ~scope:"";
              Some addr
            | None -> None)
      | false ->
        Link_plan.miss ();
        Link_plan.remove t.plans key;
        if plan.Link_plan.plan_copy <> Unsaved then Stable_link.reject fs ~key;
        run cold_resolve
      | exception Fault.Injected _ ->
        (Stats.cur ()).plan_fallbacks <- (Stats.cur ()).plan_fallbacks + 1;
        Link_plan.miss ();
        run cold_resolve))

(* ----- the lazy link pass ------------------------------------------------- *)

let link_instance t proc ps inst =
  if not inst.Modinst.inst_linked then begin
    let obj = inst.Modinst.inst_obj in
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
        note_prov ps name ~source:"cold" ~probe:(probe_kind ())
          ~origin:inst.Modinst.inst_key ~scope:inst.Modinst.inst_key;
        Some addr
      | None -> (
        match resolve_scoped t proc ps inst.Modinst.inst_scope name with
        | Some (addr, origin, slabel) ->
          note_prov ps name ~source:"cold" ~probe:(probe_kind ()) ~origin ~scope:slabel;
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
    let run resolve =
      let left =
        Reloc_engine.link_pass ~obj ~bases ~resolve ~already ~mark sink ~gp:None
          ~veneer:(Some (Modinst.veneer_pool inst))
      in
      if left <> [] then
        warn t "module %s: %d reference(s) unresolved at the root (left to fault)"
          inst.Modinst.inst_key (List.length left)
    in
    let key =
      Option.map
        (fun pk ->
          Printf.sprintf "mod\x01%s\x01%s\x01%b\x01%d\x01%s" pk inst.Modinst.inst_key
            inst.Modinst.inst_public inst.Modinst.inst_base
            (scope_sig inst.Modinst.inst_scope))
        (prog_key t proc ps)
    in
    planned t proc ps ~key ~cold_resolve ~run;
    As.protect proc.Proc.space inst.Modinst.inst_base Prot.Read_write_exec;
    inst.Modinst.inst_linked <- true;
    (Stats.cur ()).modules_linked <- (Stats.cur ()).modules_linked + 1
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
    let run resolve =
      let still = ref [] in
      List.iter
        (fun r ->
          match resolve r.Objfile.rel_symbol with
          | Some addr ->
            (Stats.cur ()).symbols_resolved <- (Stats.cur ()).symbols_resolved + 1;
            Reloc_engine.apply sink
              ~at:(Aout.image_base + r.Objfile.rel_offset)
              ~kind:r.Objfile.rel_kind
              ~value:(addr + r.Objfile.rel_addend)
              ~gp ~veneer:(Some pool)
          | None -> still := r :: !still)
        ps.ps_pending;
      ps.ps_pending <- List.rev !still
    in
    let cold_resolve name =
      match resolve_scoped t proc ps ps.ps_root name with
      | Some (addr, origin, slabel) ->
        note_prov ps name ~source:"cold" ~probe:(probe_kind ()) ~origin ~scope:slabel;
        Some addr
      | None -> None
    in
    let key = Option.map (fun pk -> "rip\x01" ^ pk) (prog_key t proc ps) in
    planned t proc ps ~key ~cold_resolve ~run

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
    (* Map (and if necessary recreate) the static public modules. *)
    List.iter
      (fun sp ->
        match ensure_instance_by_name t proc ps ~scope:root sp.Aout.sp_template with
        | Some _ -> ()
        | None -> warn t "static public module %s not found at run time" sp.Aout.sp_template
        | exception Link_error msg -> warn t "static public %s: %s" sp.Aout.sp_template msg)
      aout.Aout.static_pubs;
    (* Create/instantiate dynamic modules, honouring the descriptor class. *)
    List.iter
      (fun d ->
        let ctx = ctx_of t proc in
        match Search.locate ctx ~dirs:(scope_dirs root) d.Aout.dd_name with
        | None -> warn t "dynamic module %s not found" d.Aout.dd_name
        | Some located -> (
          if find_instance ps located = None then
            match
              instantiate t proc ps ~located
                ~public:(d.Aout.dd_class = Sharing.Dynamic_public)
                ~parent_scope:root
            with
            | (_ : Modinst.t) -> ()
            | exception Link_error msg -> warn t "dynamic %s: %s" d.Aout.dd_name msg))
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
          if Modinst.Header.is_module_file seg then
            finish (fun () ->
                let scope =
                  {
                    Modinst.sc_label = path;
                    sc_modules = [];
                    sc_search = [];
                    sc_parent = Some ps.ps_root;
                  }
                in
                let inst = Modinst.public_instance (ctx_of t proc) ~module_path:path ~scope in
                (match As.mapping_at proc.Proc.space inst.Modinst.inst_base with
                | Some _ -> ()
                | None ->
                  let seg = inst.Modinst.inst_seg in
                  As.map proc.Proc.space ~base:inst.Modinst.inst_base
                    ~len:Layout.shared_slot_size ~seg
                    ~kind:
                      (Vm_object.File_backed
                         {
                           path;
                           writeback =
                             (fun ~page ->
                               Fs.page_writeback (Kernel.fs t.k) ~path ~seg ~page);
                         })
                    ~prot:Prot.No_access ~share:As.Public ~label:path ());
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

let loader t _k proc bytes ~path =
  if not (Aout.looks_like bytes) then raise Kernel.Wrong_format;
  (* Identify the backing file so the decode can be memoized and link
     plans keyed; an image that is somehow not addressable by path just
     skips both. *)
  let prog =
    match Fs.segment_of (Kernel.fs t.k) ~cwd:proc.Proc.cwd path with
    | fseg -> Some (path, Segment.id fseg, Segment.version fseg)
    | exception Fs.Error _ -> None
  in
  let aout =
    match prog with
    | Some _ ->
      let fseg = Fs.segment_of (Kernel.fs t.k) ~cwd:proc.Proc.cwd path in
      Link_plan.parse_aout ~seg:fseg bytes
    | None -> Aout.parse bytes
  in
  let size = Aout.image_size aout in
  let build_image name =
    let seg = Segment.create ~name ~max_size:(Layout.page_up size) () in
    Segment.blit_in seg ~dst_off:0 aout.Aout.text;
    Segment.blit_in seg ~dst_off:(Bytes.length aout.Aout.text) aout.Aout.data;
    Segment.resize seg (Layout.page_up size);
    seg
  in
  let seg =
    match prog with
    | Some (_, fid, fver) when !Segment.cow_enabled ->
      (* The serialized file layout differs from the placed image, so
         the file segment itself cannot back the mapping; instead the
         placed image is built once per file content and shared COW. *)
      let master =
        match Hashtbl.find_opt t.images (fid, fver) with
        | Some master -> master
        | None ->
          let master = build_image ("image-master:" ^ path) in
          Hashtbl.replace t.images (fid, fver) master;
          master
      in
      Segment.copy master
    | Some _ | None -> build_image ("image:" ^ path)
  in
  As.map proc.Proc.space ~base:Aout.image_base ~len:(Layout.page_up size) ~seg
    ~kind:Vm_object.Anonymous ~prot:Prot.Read_write_exec ~share:As.Private ~label:path ();
  Hashtbl.replace t.states proc.Proc.pid
    {
      ps_aout = Some aout;
      ps_image_seg = Some seg;
      ps_instances = [];
      ps_root = empty_root proc;
      ps_pending = aout.Aout.pending;
      ps_veneer_next = count_used_veneers aout;
      ps_started = false;
      ps_prog = prog;
      ps_sorted = [||];
      ps_by_key = Hashtbl.create 16;
      ps_unlinked = [];
      ps_index = Hashtbl.create 16;
      ps_index_gen = -1;
      ps_prov = Hashtbl.create 64;
      ps_digest = Bytes.make 16 '\000';
    };
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
    let child_ps =
      {
        ps_aout = ps.ps_aout;
        ps_image_seg =
          Option.map (fun seg -> remap Aout.image_base seg) ps.ps_image_seg;
        ps_instances = List.map clone_inst ps.ps_instances;
        ps_root = ps.ps_root;
        ps_pending = ps.ps_pending;
        ps_veneer_next = ps.ps_veneer_next;
        ps_started = ps.ps_started;
        ps_prog = ps.ps_prog;
        ps_sorted = [||];
        ps_by_key = Hashtbl.create 16;
        ps_unlinked = [];
        ps_index = Hashtbl.create 16;
        ps_index_gen = -1;
        (* provenance is per-process observability: the child starts
           empty and accumulates its own post-fork resolutions *)
        ps_prov = Hashtbl.create 64;
        ps_digest = Bytes.make 16 '\000';
      }
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
      plans = Link_plan.create_store ();
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
  (* Reboot kills the kernel-resident LINK STATE — the plan store, the
     template decode memo, the export-symbol indexes, the locate cache —
     which stable linking keeps a copy of in /shared (or leaves cold).
     Placed CONTENT stays: the image and placed-module masters and the
     decoded-image memo are keyed by the (id, version) of segments that
     survive the reboot, modelling bytes in the persistent segment
     store.  All of it is host-side; simulated costs never change.  Then
     the hook reseeds the symbol indexes, and the plans only at the
     generation the copy was made at — read first, because an index
     reap moves it without changing anything a module lookup sees. *)
  Kernel.add_reboot_hook k (fun () ->
      let fs = Kernel.fs k in
      let gen = Fs.generation fs in
      Link_plan.reset_store t.plans;
      Hashtbl.reset t.poisoned;
      Link_plan.clear_obj_cache ();
      Objfile.clear_index_memo ();
      Search.clear_locate_cache ();
      if !Link_plan.enabled then begin
        Stable_link.seed_indexes fs;
        if gen = t.synced_gen then
          List.iter
            (fun (key, plan) -> Link_plan.record t.plans ~fs key plan)
            (Stable_link.load_plans fs)
      end);
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
    Hashtbl.replace t.states proc.Proc.pid
      {
        ps_aout = None;
        ps_image_seg = None;
        ps_instances = [];
        ps_root = root;
        ps_pending = [];
        ps_veneer_next = 0;
        ps_started = true;
        ps_prog = None;
        ps_sorted = [||];
        ps_by_key = Hashtbl.create 16;
        ps_unlinked = [];
        ps_index = Hashtbl.create 16;
        ps_index_gen = -1;
        ps_prov = Hashtbl.create 64;
        ps_digest = Bytes.make 16 '\000';
      };
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
      match ensure_instance_by_name t proc ps ~scope:ps.ps_root name with
      | Some inst -> inst
      | None -> errf "dlopen: cannot find module %s" name)

let dlsym t proc name =
  attach t proc;
  let ps = Option.get (state t proc) in
  retry_native (fun () ->
      match resolve_scoped t proc ps ps.ps_root name with
      | Some (addr, origin, slabel) ->
        note_prov ps name ~source:"dlsym" ~probe:(probe_kind ()) ~origin ~scope:slabel;
        Some addr
      | None ->
        (* dld-style: symbols of explicitly loaded modules are visible
           even when no module list names them. *)
        List.find_map
          (fun inst ->
            Option.map
              (fun addr ->
                note_prov ps name ~source:"dlsym" ~probe:(probe_kind ())
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
  if not !Link_plan.enabled then { sync_plans = 0; sync_objs = 0; sync_skipped = 0 }
  else begin
    let fs = Kernel.fs t.k in
    let plans = Link_plan.entries t.plans ~fs in
    let objs = Hashtbl.create 64 in
    (* Symbol indexes come from the live instance sets, not from plan
       deps: a plan records only the instantiations its own region
       performed (a driver that names every module up front leaves the
       deps empty), while the instances hold every template actually
       decoded. *)
    Hashtbl.iter
      (fun _ ps ->
        Array.iter
          (fun inst ->
            let src = inst.Modinst.inst_src in
            if src <> (-1, -1) && not (Hashtbl.mem objs src) then
              Hashtbl.replace objs src (inst.Modinst.inst_key, inst.Modinst.inst_obj))
          ps.ps_sorted)
      t.states;
    let obj_list =
      List.sort
        (fun ((a : string), _, _) (b, _, _) -> String.compare a b)
        (Hashtbl.fold (fun src (located, obj) acc -> (located, src, obj) :: acc) objs [])
    in
    let report, exact = Stable_link.sync fs ~plans ~objs:obj_list in
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
