module Segment = Hemlock_vm.Segment
module Layout = Hemlock_vm.Layout
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

type err_kind =
  | Not_found
  | Not_a_directory
  | Is_a_directory
  | Already_exists
  | No_space
  | Not_shared
  | Hard_links_prohibited
  | Symlink_loop
  | Not_empty
  | Cross_partition

exception Error of { op : string; path : string; kind : err_kind }

let err_kind_to_string = function
  | Not_found -> "no such file or directory"
  | Not_a_directory -> "not a directory"
  | Is_a_directory -> "is a directory"
  | Already_exists -> "file exists"
  | No_space -> "no space left on shared partition"
  | Not_shared -> "not on the shared partition"
  | Hard_links_prohibited -> "hard links prohibited on shared partition"
  | Symlink_loop -> "too many levels of symbolic links"
  | Not_empty -> "directory not empty"
  | Cross_partition -> "rename across the shared partition boundary"

let error op path kind = raise (Error { op; path = Path.to_string path; kind })

type file_kind = Regular | Directory | Symlink

type stat = {
  st_kind : file_kind;
  st_size : int;
  st_ino : int;
  st_addr : int option;
}

type node = File of file | Dir of dir | Link of string

and file = {
  seg : Segment.t;
  ino : int;
  mutable slot : int option;
  mutable nlink : int;
}

and dir = { entries : (string, node) Hashtbl.t; dir_ino : int }

type intent =
  | Intent_create of { path : string }
  | Intent_rename of { src : string; dst : string }
  | Intent_write of { path : string; digest : string }
  | Intent_module of { module_path : string }
  | Intent_pageout of { path : string; page : int; digest : string }

type t = {
  root : node;
  mutable next_ino : int;
  slots : string option array;
  (* the prototype's linear table indexed by slot: the path of the
     /shared file at each of the 32-bit layout's slots, [None] if free *)
  mutable generation : int; (* bumped by every namespace/content mutation *)
  mutable journal : (int * intent) list; (* pending intents, newest first *)
  mutable next_jid : int;
}

let generation t = t.generation

let touch t = t.generation <- t.generation + 1

let shared_prefix = [ "shared" ]

let is_shared_path p = Path.is_prefix ~prefix:shared_prefix p

let normal_file_max = 16 * 1024 * 1024

let fresh_ino t =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  ino

let new_dir t = Dir { entries = Hashtbl.create 8; dir_ino = fresh_ino t }

let create () =
  let root = { entries = Hashtbl.create 8; dir_ino = 2 } in
  let t =
    {
      root = Dir root;
      next_ino = 4096; (* normal-partition inodes; shared inodes are slots 0..1023 *)
      slots = Array.make Layout.shared_slots None;
      generation = 0;
      journal = [];
      next_jid = 1;
    }
  in
  let add name = Hashtbl.replace root.entries name (new_dir t) in
  List.iter add [ "shared"; "tmp"; "etc"; "home" ];
  let usr = { entries = Hashtbl.create 8; dir_ino = fresh_ino t } in
  Hashtbl.replace usr.entries "lib" (new_dir t);
  Hashtbl.replace root.entries "usr" (Dir usr);
  t

(* Resolve [p] to (canonical_path, node), the node as the tree stores
   it (so nodes compare with [==]).  [follow_last] controls whether a
   symlink in the final component is chased; with it off, the path is
   the directories resolved and the last component as found.  At most
   [max_links] symlinks are chased. *)
let max_links = 40

let resolve_node t ~op ~follow_last p =
  let rec walk fuel canon node = function
    | [] -> (canon, node)
    | comp :: rest -> (
      match node with
      | File _ | Link _ -> error op canon Not_a_directory
      | Dir dir -> (
        match Hashtbl.find_opt dir.entries comp with
        | None -> error op (canon @ [ comp ]) Not_found
        | Some (Link target) when follow_last || rest <> [] ->
          if fuel = 0 then error op (canon @ [ comp ]) Symlink_loop;
          walk (fuel - 1) [] t.root (Path.of_string ~cwd:canon target @ rest)
        | Some child -> walk fuel (canon @ [ comp ]) child rest))
  in
  walk max_links [] t.root p

(* The one lookup that never raises: [None] for a path that does not
   resolve (missing, through a file, or a loop). *)
let find t ~follow_last p =
  match resolve_node t ~op:"lookup" ~follow_last p with
  | found -> Some found
  | exception Error _ -> None

let resolve_dir t ~op p =
  match resolve_node t ~op ~follow_last:true p with
  | canon, Dir d -> (canon, d)
  | canon, (File _ | Link _) -> error op canon Not_a_directory

let resolve_file t ~op p =
  match resolve_node t ~op ~follow_last:true p with
  | canon, File f -> (canon, f)
  | canon, Dir _ -> error op canon Is_a_directory
  | _, Link _ -> assert false (* follow_last chases links *)

(* Shared-partition slot management. *)

let alloc_slot t ~op path =
  let rec scan i =
    if i >= Layout.shared_slots then error op path No_space
    else if Option.is_none t.slots.(i) then i
    else scan (i + 1)
  in
  scan 0

let publish_slot t slot path = t.slots.(slot) <- Some path

let free_slot t slot = t.slots.(slot) <- None

let sorted_names dir =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) dir.entries [])

(* [iter_files f canon node] calls [f] on every regular file at or under
   [node], which [canon] names, in sorted order; symlinks are not
   followed.  [iter_shared] walks the whole shared partition. *)
let rec iter_files f canon = function
  | File file -> f canon file
  | Link _ -> ()
  | Dir d ->
    List.iter (fun n -> iter_files f (canon @ [ n ]) (Hashtbl.find d.entries n)) (sorted_names d)

let iter_shared t f =
  Option.iter (fun (c, node) -> iter_files f c node) (find t ~follow_last:false shared_prefix)

(* Publish or re-point a shared file's slot (re-pointing happens when a
   rename moves it: the address is permanent, the path is not). *)
let publish t canon f = Option.iter (fun slot -> publish_slot t slot (Path.to_string canon)) f.slot

(* Intent journal.  The journal lives in [t] — the same place as the
   "disk" — so it survives a simulated crash; an entry present at fsck
   time is exactly an operation that began but never acknowledged.
   Journal bookkeeping does not bump [generation]: intents carry no
   namespace information of their own (the repairs fsck makes do
   bump it, through the ordinary mutation helpers). *)

let journal_begin t intent =
  let jid = t.next_jid in
  t.next_jid <- jid + 1;
  t.journal <- (jid, intent) :: t.journal;
  jid

let journal_end t jid = t.journal <- List.filter (fun (j, _) -> j <> jid) t.journal

let journal_pending t = List.rev t.journal

(* One page of a shared file's dirty mapping, made durable.  A mapped
   shared file and its memory are the {e same} segment, so the content
   is already in place by construction: what the pager needs from the
   file system is a {e durability barrier} — a record that this page
   was mid-flush if the machine dies inside it.  Nothing runs between
   entering the barrier and its [fs.pageout] site, so the record is
   filed only when a crash there leaves it behind: the page's digest
   as it stands at the barrier, the newest entry in the journal.  fsck
   then digest-checks the page: matching means the pageout completed
   (replay/acknowledge), anything else rolls the intent back.  A
   flush that does not crash copies, hashes and journals nothing, and
   a transient injected failure re-raises with no journal residue, so
   the pager can abort that eviction. *)
let page_digest seg page =
  Digest.bytes
    (Segment.blit_out seg ~src_off:(page lsl Layout.page_shift) ~len:Layout.page_size)

let page_writeback t ~path ~seg ~page =
  try Fault.hit "fs.pageout"
  with Fault.Crash _ as e ->
    ignore (journal_begin t (Intent_pageout { path; page; digest = page_digest seg page }));
    raise e

(* Path-level API *)

let parse t ?(cwd = Path.root) s =
  ignore t;
  Path.of_string ~cwd s

let mkdir t ?cwd s =
  let op = "mkdir" in
  touch t;
  let p = parse t ?cwd s in
  if p = [] then error op p Already_exists;
  let canon, dir = resolve_dir t ~op (Path.parent p) in
  let name = Path.basename p in
  if Hashtbl.mem dir.entries name then error op (canon @ [ name ]) Already_exists;
  Hashtbl.replace dir.entries name (new_dir t)

let rec create_path t fuel p =
  let op = "create" in
  if p = [] then error op p Is_a_directory;
  let canon, dir = resolve_dir t ~op (Path.parent p) in
  let name = Path.basename p in
  let full = canon @ [ name ] in
  match Hashtbl.find_opt dir.entries name with
  | Some (File f) ->
    Fault.hit "fs.create";
    Segment.resize f.seg 0 (* truncate; keeps slot+address *)
  | Some (Dir _) -> error op full Is_a_directory
  | Some (Link target) ->
    (* Creating through a symlink creates the target. *)
    if fuel = 0 then error op full Symlink_loop;
    create_path t (fuel - 1) (Path.of_string ~cwd:canon target)
  | None ->
    Fault.hit "fs.create";
    if is_shared_path full then begin
      (* Multi-step: publish the slot, then insert the directory entry.
         A journal entry brackets the window so fsck can tell an
         interrupted create from an acknowledged one. *)
      let slot = alloc_slot t ~op full in
      let jid = journal_begin t (Intent_create { path = Path.to_string full }) in
      let file =
        {
          seg = Segment.create ~name:(Path.to_string full) ~max_size:Layout.shared_slot_size ();
          ino = slot;
          slot = Some slot;
          nlink = 1;
        }
      in
      try
        publish_slot t slot (Path.to_string full);
        Fault.hit "fs.create.mid";
        Hashtbl.replace dir.entries name (File file);
        Fault.hit "fs.create.commit";
        journal_end t jid
      with Fault.Injected _ as e ->
        (* Recoverable failure mid-create: undo both steps so the caller
           observes an errno and an unchanged file system.  (A [Crash]
           deliberately skips this — the machine stopped.) *)
        free_slot t slot;
        Hashtbl.remove dir.entries name;
        journal_end t jid;
        raise e
    end
    else
      let file =
        {
          seg = Segment.create ~name:(Path.to_string full) ~max_size:normal_file_max ();
          ino = fresh_ino t;
          slot = None;
          nlink = 1;
        }
      in
      Hashtbl.replace dir.entries name (File file)

let create_file t ?cwd s =
  touch t;
  create_path t max_links (parse t ?cwd s)

let exists t ?cwd s = Option.is_some (find t ~follow_last:true (parse t ?cwd s))

let is_dir t ?cwd s =
  match find t ~follow_last:true (parse t ?cwd s) with
  | Some (_, Dir _) -> true
  | Some _ | None -> false

let stat_of_node = function
  | Dir d -> { st_kind = Directory; st_size = 0; st_ino = d.dir_ino; st_addr = None }
  | Link target ->
    { st_kind = Symlink; st_size = String.length target; st_ino = 0; st_addr = None }
  | File f ->
    {
      st_kind = Regular;
      st_size = Segment.size f.seg;
      st_ino = f.ino;
      st_addr = Option.map Layout.addr_of_slot f.slot;
    }

let stat t ?cwd s =
  let _, node = resolve_node t ~op:"stat" ~follow_last:true (parse t ?cwd s) in
  stat_of_node node

let lookup t ?cwd s =
  let p = parse t ?cwd s in
  match find t ~follow_last:false p with
  | Some (spelled, Link _) ->
    Option.map (fun (_, node) -> (Path.to_string spelled, stat_of_node node))
      (find t ~follow_last:true p)
  | Some (spelled, node) -> Some (Path.to_string spelled, stat_of_node node)
  | None -> None

let lstat t ?cwd s =
  let _, node = resolve_node t ~op:"lstat" ~follow_last:false (parse t ?cwd s) in
  stat_of_node node

let segment_of t ?cwd s =
  let _, f = resolve_file t ~op:"mmap" (parse t ?cwd s) in
  f.seg

let read_segment t ?cwd s =
  let _, f = resolve_file t ~op:"read" (parse t ?cwd s) in
  let st = Stats.cur () in
  st.bytes_copied <- st.bytes_copied + Segment.size f.seg;
  st.files_opened <- st.files_opened + 1;
  f.seg

let read_file t ?cwd s =
  let seg = read_segment t ?cwd s in
  Segment.blit_out seg ~src_off:0 ~len:(Segment.size seg)

(* Remove [p]'s directory entry, if its parent resolves, without passing
   through the fault-sited [unlink]: undo and fsck repair paths must
   themselves be injection-free. *)
let remove_entry t p =
  match find t ~follow_last:true (Path.parent p) with
  | Some (_, Dir d) ->
    Hashtbl.remove d.entries (Path.basename p);
    touch t
  | Some _ | None -> ()

(* The same for a regular file, which gives up its slot with its last
   name. *)
let drop_entry t canon =
  match find t ~follow_last:false canon with
  | Some (_, File f) ->
    remove_entry t canon;
    f.nlink <- f.nlink - 1;
    if f.nlink = 0 then Option.iter (free_slot t) f.slot
  | Some _ | None -> ()

(* Shared [write_file]/[append_file] body.  [content] is the full
   contents the file will hold on success (for a fresh file this is all
   of [b], so its digest lets fsck decide replay vs. roll back).
   Ordering for a fresh file: journal the intended write, create, then
   write — a crash anywhere inside resolves to the pre-state because the
   digest cannot match a partial file. *)
let write_like t ~op ~site p b ~apply ~would_overflow =
  touch t;
  let fresh = not (exists t (Path.to_string p)) in
  let canon_guess =
    (* canonical path for journaling; for a fresh file the parent must
       already exist, so canonicalise through it *)
    if fresh then
      let parent_canon, _ = resolve_dir t ~op (Path.parent p) in
      parent_canon @ [ Path.basename p ]
    else
      let canon, _ = resolve_file t ~op p in
      canon
  in
  let jid =
    if fresh && is_shared_path canon_guess then
      Some
        (journal_begin t
           (Intent_write { path = Path.to_string canon_guess; digest = Digest.bytes b }))
    else None
  in
  let roll_back () =
    if fresh then drop_entry t canon_guess;
    Option.iter (journal_end t) jid
  in
  (try if fresh then create_file t (Path.to_string p)
   with
   | Fault.Crash _ as e -> raise e (* no cleanup: the journal entry is the evidence *)
   | e ->
     Option.iter (journal_end t) jid;
     raise e);
  let canon, f = resolve_file t ~op p in
  (try Fault.hit site
   with Fault.Injected _ as e ->
     roll_back ();
     raise e);
  if would_overflow f then begin
    roll_back ();
    error op canon No_space
  end;
  apply f;
  Option.iter (journal_end t) jid

let write_file t ?cwd s b =
  let p = parse t ?cwd s in
  write_like t ~op:"write" ~site:"fs.write" p b
    ~would_overflow:(fun f -> Bytes.length b > Segment.max_size f.seg)
    ~apply:(fun f ->
      let st = Stats.cur () in
      st.bytes_copied <- st.bytes_copied + Bytes.length b;
      st.files_opened <- st.files_opened + 1;
      Segment.replace f.seg b)

let append_file t ?cwd s b =
  let p = parse t ?cwd s in
  write_like t ~op:"append" ~site:"fs.append" p b
    ~would_overflow:(fun f -> Segment.size f.seg + Bytes.length b > Segment.max_size f.seg)
    ~apply:(fun f ->
      let st = Stats.cur () in
      st.bytes_copied <- st.bytes_copied + Bytes.length b;
      Segment.blit_in f.seg ~dst_off:(Segment.size f.seg) b)

let symlink t ?cwd ~target s =
  let op = "symlink" in
  touch t;
  let p = parse t ?cwd s in
  if p = [] then error op p Already_exists;
  let canon, dir = resolve_dir t ~op (Path.parent p) in
  let name = Path.basename p in
  if Hashtbl.mem dir.entries name then error op (canon @ [ name ]) Already_exists;
  Hashtbl.replace dir.entries name (Link target)

let hard_link t ?cwd ~existing s =
  let op = "link" in
  touch t;
  let src = parse t ?cwd existing in
  let dst = parse t ?cwd s in
  if dst = [] then error op dst Already_exists;
  let src_canon, f = resolve_file t ~op src in
  let canon, dir = resolve_dir t ~op (Path.parent dst) in
  let name = Path.basename dst in
  let full = canon @ [ name ] in
  if is_shared_path src_canon || is_shared_path full then
    error op full Hard_links_prohibited;
  if Hashtbl.mem dir.entries name then error op full Already_exists;
  f.nlink <- f.nlink + 1;
  Hashtbl.replace dir.entries name (File f)

let unlink t ?cwd s =
  let op = "unlink" in
  touch t;
  let p = parse t ?cwd s in
  if p = [] then error op p Is_a_directory;
  let canon, dir = resolve_dir t ~op (Path.parent p) in
  let name = Path.basename p in
  let full = canon @ [ name ] in
  match Hashtbl.find_opt dir.entries name with
  | None -> error op full Not_found
  | Some (Dir _) -> error op full Is_a_directory
  | Some (Link _) ->
    Fault.hit "fs.unlink";
    Hashtbl.remove dir.entries name
  | Some (File f) ->
    Fault.hit "fs.unlink";
    Hashtbl.remove dir.entries name;
    (* Crash window: entry gone, slot still published.  No journal —
       [rescan_shared] rebuilds the table from the tree, which clears
       the dangling slot on its own. *)
    (try Fault.hit "fs.unlink.mid"
     with Fault.Injected _ as e ->
       Hashtbl.replace dir.entries name (File f);
       raise e);
    f.nlink <- f.nlink - 1;
    if f.nlink = 0 then Option.iter (free_slot t) f.slot

let rmdir t ?cwd s =
  let op = "rmdir" in
  touch t;
  let p = parse t ?cwd s in
  if p = [] then error op p Not_empty;
  let canon, dir = resolve_dir t ~op (Path.parent p) in
  let name = Path.basename p in
  let full = canon @ [ name ] in
  match Hashtbl.find_opt dir.entries name with
  | None -> error op full Not_found
  | Some (File _ | Link _) -> error op full Not_a_directory
  | Some (Dir d) ->
    if Hashtbl.length d.entries > 0 then error op full Not_empty;
    Hashtbl.remove dir.entries name

let rename t ?cwd ~src dst =
  let op = "rename" in
  touch t;
  let srcp = parse t ?cwd src in
  let dstp = parse t ?cwd dst in
  if srcp = [] || dstp = [] then error op srcp Is_a_directory;
  if Path.is_prefix ~prefix:srcp dstp then error op dstp Already_exists;
  let src_canon, src_dir = resolve_dir t ~op (Path.parent srcp) in
  let src_name = Path.basename srcp in
  let src_full = src_canon @ [ src_name ] in
  let node =
    match Hashtbl.find_opt src_dir.entries src_name with
    | Some node -> node
    | None -> error op src_full Not_found
  in
  let dst_canon, dst_dir = resolve_dir t ~op (Path.parent dstp) in
  let dst_name = Path.basename dstp in
  let dst_full = dst_canon @ [ dst_name ] in
  if Hashtbl.mem dst_dir.entries dst_name then error op dst_full Already_exists;
  if is_shared_path src_full <> is_shared_path dst_full then
    error op dst_full Cross_partition;
  Fault.hit "fs.rename";
  (* Addresses are permanent: fix the kernel's addr->path table for any
     shared file whose path just changed (the moved file itself, or the
     contents of a moved directory). *)
  let fix = iter_files (publish t) in
  let shared = is_shared_path dst_full in
  let jid =
    if shared then
      Some
        (journal_begin t
           (Intent_rename
              { src = Path.to_string src_full; dst = Path.to_string dst_full }))
    else None
  in
  (* Crash-safe ordering: insert at the destination first, remove the
     source second.  A crash between the two leaves both names visible —
     never zero — and fsck completes the rename from the journal. *)
  try
    Hashtbl.replace dst_dir.entries dst_name node;
    Fault.hit "fs.rename.mid";
    Hashtbl.remove src_dir.entries src_name;
    if shared then fix dst_full node;
    Fault.hit "fs.rename.commit";
    Option.iter (journal_end t) jid
  with Fault.Injected _ as e ->
    (* undo: restore the source view of the world *)
    Hashtbl.remove dst_dir.entries dst_name;
    Hashtbl.replace src_dir.entries src_name node;
    if shared then fix src_full node;
    Option.iter (journal_end t) jid;
    raise e

let readdir t ?cwd s =
  sorted_names (snd (resolve_dir t ~op:"readdir" (parse t ?cwd s)))

(* The paper's new kernel calls. *)

let addr_of_path t ?cwd s =
  let op = "addr_of_path" in
  let canon, f = resolve_file t ~op (parse t ?cwd s) in
  match f.slot with
  | Some slot -> Layout.addr_of_slot slot
  | None -> error op canon Not_shared

let path_of_addr t a =
  let op = "path_of_addr" in
  if not (Layout.is_public a) then
    raise (Error { op; path = Printf.sprintf "0x%08x" a; kind = Not_shared });
  match t.slots.(Layout.slot_of_addr a) with
  | Some p -> p
  | None -> raise (Error { op; path = Printf.sprintf "0x%08x" a; kind = Not_found })

let rescan_shared t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  iter_shared t (publish t)

type fsck_report = {
  fsck_replayed : int;
  fsck_rolled_back : int;
  fsck_repairs : string list;
  fsck_orphans : string list;
  fsck_clean : bool;
}

let fsck t =
  (* Boot-time view first: rebuild the addr table from the tree, which
     already clears dangling slots left by an interrupted unlink. *)
  rescan_shared t;
  let replayed = ref 0 and rolled = ref 0 in
  let repairs = ref [] and orphans = ref [] in
  let note msg = repairs := msg :: !repairs in
  (* An intent may name anything; a path that does not resolve names
     nothing. *)
  let lookup path = find t ~follow_last:false (Path.of_string ~cwd:Path.root path) in
  let process intent =
    match intent with
    | Intent_create { path } -> (
      match lookup path with
      | Some (_, File _) ->
        (* The create finished but was never acknowledged: keep the file
           (roll forward) and flag it so a reaping policy can decide. *)
        incr replayed;
        orphans := path :: !orphans
      | Some _ | None -> incr rolled)
    | Intent_rename { src; dst } -> (
      match (lookup src, lookup dst) with
      | Some (src_canon, src_node), Some (dst_canon, dst_node) when src_node == dst_node ->
        (* One node under two paths: the insert happened, the remove
           did not, so finish the rename.  Under one path (the root
           included) there is nothing left to remove. *)
        if src_canon <> dst_canon then begin
          remove_entry t src_canon;
          note (Printf.sprintf "completed rename %s -> %s" src dst)
        end;
        incr replayed
      | None, Some _ -> incr replayed (* already complete *)
      | Some _, _ | None, None ->
        (* Two different nodes mean the insert never happened ([rename]
           refuses an existing destination): leave both. *)
        incr rolled)
    | Intent_write { path; digest } -> (
      match lookup path with
      | Some (_, File f) ->
        if Digest.bytes (Segment.contents f.seg) = digest then incr replayed
        else begin
          drop_entry t (Path.of_string ~cwd:Path.root path);
          note (Printf.sprintf "rolled back partial write of %s" path);
          incr rolled
        end
      | Some _ | None -> incr rolled)
    | Intent_pageout { path; page; digest } -> (
      match lookup path with
      | Some (_, File f)
        when page >= 0 && (page + 1) lsl Layout.page_shift <= Segment.max_size f.seg ->
        if page_digest f.seg page = digest then incr replayed
        else begin
          (* The page changed between the barrier and the crash; the
             file is still self-consistent (memory and file are one
             segment), so the intent is simply withdrawn. *)
          note (Printf.sprintf "discarded stale pageout of %s page %d" path page);
          incr rolled
        end
      | Some _ | None -> incr rolled)
    | Intent_module { module_path } -> (
      match lookup module_path with
      | Some (_, File f) ->
        (* Published = the magic was written, which is the last step of
           module creation; sniff it directly (the fs layer cannot see
           [Modinst.Header]). *)
        let published =
          Segment.size f.seg >= 4
          && Bytes.to_string (Segment.blit_out f.seg ~src_off:0 ~len:4) = "HMOD"
        in
        if published then incr replayed
        else begin
          drop_entry t (Path.of_string ~cwd:Path.root module_path);
          note (Printf.sprintf "removed unpublished module %s" module_path);
          incr rolled
        end
      | Some _ | None -> incr rolled)
  in
  (* Each intent is retired as soon as it is resolved, so a crash part-way
     through recovery leaves exactly the unprocessed ones for the next
     fsck.  [fs.fsck] is the crash point before each; an injected errno
     there has nothing to abort. *)
  List.iter
    (fun (jid, intent) ->
      (try Fault.hit "fs.fsck" with Fault.Injected _ -> ());
      process intent;
      journal_end t jid)
    (journal_pending t);
  (* Invariant sweep over the shared tree: every file carries an
     in-range slot and no slot is claimed by two paths. *)
  let slot_paths : (int, string list) Hashtbl.t = Hashtbl.create 64 in
  iter_shared t (fun canon f ->
      let path = Path.to_string canon in
      match f.slot with
      | Some s when s >= 0 && s < Layout.shared_slots ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt slot_paths s) in
        Hashtbl.replace slot_paths s (path :: prev)
      | Some s -> note (Printf.sprintf "file %s has out-of-range slot %d" path s)
      | None -> note (Printf.sprintf "shared file %s has no slot" path));
  Hashtbl.iter
    (fun slot paths ->
      match List.sort String.compare paths with
      | _keep :: (_ :: _ as extras) ->
        List.iter
          (fun extra ->
            (* the file stays live under its kept name: drop only the entry *)
            remove_entry t (Path.of_string ~cwd:Path.root extra);
            note (Printf.sprintf "slot %d aliased; removed %s" slot extra))
          extras
      | _ -> ())
    slot_paths;
  (* Repairs may have changed the namespace: settle the table again. *)
  rescan_shared t;
  let st = Stats.cur () in
  st.journal_replays <- st.journal_replays + !replayed;
  st.journal_rollbacks <- st.journal_rollbacks + !rolled;
  let repairs = List.rev !repairs in
  {
    fsck_replayed = !replayed;
    fsck_rolled_back = !rolled;
    fsck_repairs = repairs;
    fsck_orphans = List.rev !orphans;
    fsck_clean = !replayed = 0 && !rolled = 0 && repairs = [];
  }

let shared_free_slots t =
  Array.fold_left (fun acc path -> if Option.is_none path then acc + 1 else acc) 0 t.slots

let shared_table t =
  List.of_seq
    (Seq.filter_map
       (fun (slot, path) -> Option.map (fun p -> (slot, p)) path)
       (Array.to_seqi t.slots))
