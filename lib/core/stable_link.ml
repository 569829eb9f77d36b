module Fs = Hemlock_sfs.Fs
module Segment = Hemlock_vm.Segment
module Objfile = Hemlock_obj.Objfile
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

(* Stable linking: the link-plan store's copy under [/shared/.stable],
   next to the segments it describes, so a reboot can refill the store
   (and the symbol-index caches) from files instead of cold scope walks.
   A file's name digests the plan key (resp. the template identity).
   That fixes an index file's bytes but not a plan file's, so a sync
   keeps a plan file only while its plan's [plan_copy] says it holds
   that plan.  Every file seals its body with an md5 digest; a load
   checks it (plus magic and version) and reaps the file on a mismatch.
   The digest is no MAC, so every count in a body is checked against
   the bytes left before it sizes anything.  Loads read segments, not
   [Fs.read_file], so they stay invisible to the simulated cost model;
   only the sync's writes are billed. *)

let dir = "/shared/.stable"

let plan_magic = "HSPL"
let obj_magic = "HSOB"
let version = 1

let plan_name key = "plan-" ^ Digest.to_hex (Digest.string key)

let plan_path key = dir ^ "/" ^ plan_name key

let obj_name ~located ~src:(sid, sver) =
  "obj-" ^ Digest.to_hex (Digest.string (Printf.sprintf "%s\x01%d\x01%d" located sid sver))

let bump_persists () = (Stats.cur ()).stable_persists <- (Stats.cur ()).stable_persists + 1
let bump_loads () = (Stats.cur ()).stable_loads <- (Stats.cur ()).stable_loads + 1
let bump_rejects () = (Stats.cur ()).stable_rejects <- (Stats.cur ()).stable_rejects + 1

(* ----- wire format --------------------------------------------------------

   header: magic(4) | version u8 | md5(body) raw 16 | body

   plan body:   str key
                u32 ndeps { str located | u8 public | u32 base
                            | i32 src_id | i32 src_ver | scope }
                u32 naddrs { str sym | u32 addr }   (sorted by sym)
   scope:       str label | u16 nmodules strs | u16 nsearch strs
                | u8 has_parent [ scope ]
   obj body:    str located | i32 src_id | i32 src_ver
                | u32 len | HOB2 bytes *)

(* [Segment.version] can be -1-free in practice, but [Modinst.inst_src]
   is (-1, -1) for objects that never came from a file; keep the
   encoding total over ints that fit 32 bits signed. *)
let w_i32 w v = Codec.Writer.u32 w (v land 0xFFFF_FFFF)

let r_i32 r =
  let v = Codec.Reader.u32 r in
  if v > 0x7FFF_FFFF then v - 0x1_0000_0000 else v

let rec w_scope w s =
  Codec.Writer.str w s.Modinst.sc_label;
  Codec.Writer.u16 w (List.length s.Modinst.sc_modules);
  List.iter (Codec.Writer.str w) s.Modinst.sc_modules;
  Codec.Writer.u16 w (List.length s.Modinst.sc_search);
  List.iter (Codec.Writer.str w) s.Modinst.sc_search;
  match s.Modinst.sc_parent with
  | Some p ->
    Codec.Writer.u8 w 1;
    w_scope w p
  | None -> Codec.Writer.u8 w 0

let rec r_scope r =
  let sc_label = Codec.Reader.str r in
  let n = Codec.Reader.u16 r in
  let ms = ref [] in
  for _ = 1 to n do
    ms := Codec.Reader.str r :: !ms
  done;
  let n = Codec.Reader.u16 r in
  let ds = ref [] in
  for _ = 1 to n do
    ds := Codec.Reader.str r :: !ds
  done;
  let sc_parent = if Codec.Reader.u8 r = 1 then Some (r_scope r) else None in
  {
    Modinst.sc_label;
    sc_modules = List.rev !ms;
    sc_search = List.rev !ds;
    sc_parent;
  }

let seal magic body =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u8 w version;
  Codec.Writer.bytes w (Bytes.of_string (Digest.bytes body));
  Codec.Writer.bytes w body;
  Codec.Writer.contents w

(* Strip and verify the header; [Failure] on anything unexpected. *)
let unseal magic bytes =
  let r = Codec.Reader.create bytes in
  let m = Bytes.to_string (Codec.Reader.bytes r 4) in
  if not (String.equal m magic) then failwith "stable: bad magic";
  if Codec.Reader.u8 r <> version then failwith "stable: bad version";
  let digest = Bytes.to_string (Codec.Reader.bytes r 16) in
  let body = Codec.Reader.bytes r (Bytes.length bytes - Codec.Reader.pos r) in
  if not (String.equal digest (Digest.bytes body)) then failwith "stable: bad digest";
  body

let encode_plan ~key (plan : Modinst.scope Link_plan.plan) =
  let w = Codec.Writer.create () in
  Codec.Writer.str w key;
  Codec.Writer.u32 w (List.length plan.Link_plan.plan_deps);
  List.iter
    (fun d ->
      Codec.Writer.str w d.Link_plan.dep_located;
      Codec.Writer.u8 w (if d.Link_plan.dep_public then 1 else 0);
      Codec.Writer.u32 w d.Link_plan.dep_base;
      let sid, sver = d.Link_plan.dep_src in
      w_i32 w sid;
      w_i32 w sver;
      w_scope w d.Link_plan.dep_parent)
    plan.Link_plan.plan_deps;
  let addrs =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun s a acc -> (s, a) :: acc) plan.Link_plan.plan_addrs [])
  in
  Codec.Writer.u32 w (List.length addrs);
  List.iter
    (fun (s, a) ->
      Codec.Writer.str w s;
      Codec.Writer.u32 w a)
    addrs;
  seal plan_magic (Codec.Writer.contents w)

let decode_plan bytes =
  let body = unseal plan_magic bytes in
  let r = Codec.Reader.create body in
  let key = Codec.Reader.str r in
  let ndeps = Codec.Reader.u32 r in
  let deps = ref [] in
  for _ = 1 to ndeps do
    let dep_located = Codec.Reader.str r in
    let dep_public = Codec.Reader.u8 r = 1 in
    let dep_base = Codec.Reader.u32 r in
    let sid = r_i32 r in
    let sver = r_i32 r in
    let dep_parent = r_scope r in
    deps :=
      { Link_plan.dep_located; dep_public; dep_base; dep_src = (sid, sver); dep_parent }
      :: !deps
  done;
  let naddrs = Codec.Reader.u32 r in
  (* an entry takes at least 6 bytes (empty name, address) *)
  if naddrs > (Bytes.length body - Codec.Reader.pos r) / 6 then
    failwith "stable: address count exceeds the file";
  let addrs = Hashtbl.create (max 16 naddrs) in
  for _ = 1 to naddrs do
    let s = Codec.Reader.str r in
    let a = Codec.Reader.u32 r in
    Hashtbl.replace addrs s a
  done;
  (key, { Link_plan.plan_deps = List.rev !deps; plan_addrs = addrs; plan_copy = Loaded })

let encode_obj ~located ~src:(sid, sver) obj =
  let w = Codec.Writer.create () in
  Codec.Writer.str w located;
  w_i32 w sid;
  w_i32 w sver;
  let payload = Objfile.serialize ~with_index:true obj in
  Codec.Writer.u32 w (Bytes.length payload);
  Codec.Writer.bytes w payload;
  seal obj_magic (Codec.Writer.contents w)

let decode_obj bytes =
  let r = Codec.Reader.create (unseal obj_magic bytes) in
  let located = Codec.Reader.str r in
  let sid = r_i32 r in
  let sver = r_i32 r in
  let payload = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  (located, (sid, sver), payload)

(* ----- the copy ------------------------------------------------------------ *)

let ensure_dir fs = if not (Fs.exists fs dir) then Fs.mkdir fs dir

(* An unlink that fails leaves the file; only a crash propagates. *)
let unlink fs path =
  match Fs.unlink fs path with
  | () -> true
  | exception (Fs.Error _ | Fault.Injected _) -> false

let reap fs path =
  ignore (unlink fs path);
  bump_rejects ()

(* Whether [located] still holds the template version [src]: an exited
   process's instances may name a version since rewritten. *)
let live fs ~located ~src:(sid, sver) =
  match Fs.segment_of fs located with
  | seg -> Segment.id seg = sid && Segment.version seg = sver
  | exception Fs.Error _ -> false

type sync_report = { sync_plans : int; sync_objs : int; sync_skipped : int }

(* Each file's name is digested once, and decides both what to unlink
   and what to write.  Only an index file, or the file of a plan that
   is not [Unsaved], is known to hold what the copy wants; every other
   file is unlinked, and each missing one then gets a fresh journalled
   write, which [Fs.fsck] rolls back wholesale after a crash.  A key
   too long for the u16 string encoding cannot be written; plans are
   keyed by digested program identities in practice, so such a plan is
   just skipped. *)
let sync fs ~plans ~objs =
  let too_long, plans = List.partition (fun (key, _) -> String.length key > 0xFFFF) plans in
  (* name, whether a file of that name holds it, encoder, plan *)
  let files =
    List.filter_map
      (fun (located, src, obj) ->
        if live fs ~located ~src then
          Some (obj_name ~located ~src, true, (fun () -> encode_obj ~located ~src obj), None)
        else None)
      objs
    @ List.map
        (fun (key, plan) ->
          ( plan_name key,
            plan.Link_plan.plan_copy <> Link_plan.Unsaved,
            (fun () -> encode_plan ~key plan),
            Some plan ))
        plans
  in
  (* name of a file to keep -> already on disk *)
  let keep = Hashtbl.create 256 in
  List.iter (fun (name, held, _, _) -> if held then Hashtbl.replace keep name false) files;
  let skipped = ref (List.length too_long) and exact = ref true in
  (match Fs.readdir fs dir with
  | exception Fs.Error _ -> if files <> [] then ensure_dir fs
  | names ->
    List.iter
      (fun name ->
        if Hashtbl.mem keep name then Hashtbl.replace keep name true
        else if not (unlink fs (dir ^ "/" ^ name)) then begin
          incr skipped;
          exact := false
        end)
      names);
  let nplans = ref 0 and nobjs = ref 0 in
  List.iter
    (fun (name, _, encode, plan) ->
      let copied =
        Hashtbl.find_opt keep name = Some true
        ||
        match
          Fault.hit "fs.stable";
          Fs.write_file fs (dir ^ "/" ^ name) (encode ())
        with
        | () ->
          bump_persists ();
          true
        | exception (Fault.Injected _ | Fs.Error _) ->
          incr skipped;
          false
      in
      match plan with
      | _ when not copied -> ()
      | None -> incr nobjs
      | Some plan ->
        incr nplans;
        if plan.Link_plan.plan_copy = Unsaved then plan.Link_plan.plan_copy <- Saved)
    files;
  ({ sync_plans = !nplans; sync_objs = !nobjs; sync_skipped = !skipped }, !exact)

(* ----- loading -------------------------------------------------------------- *)

let reject fs ~key = reap fs (plan_path key)

let note_load = bump_loads

(* One pass over the directory decodes and digest-verifies every plan
   file, reaping the ones that no longer parse or that sit under another
   key's name (a failed replay reaps by key). *)
let load_plans fs =
  match Fs.readdir fs dir with
  | exception Fs.Error _ -> []
  | names ->
    List.fold_left
      (fun acc name ->
        if String.starts_with ~prefix:"plan-" name then begin
          let path = dir ^ "/" ^ name in
          match Fs.segment_of fs path with
          | exception Fs.Error _ -> acc
          | seg -> (
            match decode_plan (Segment.contents seg) with
            | key, plan when String.equal (plan_name key) name -> (key, plan) :: acc
            | _ | (exception Failure _) ->
              reap fs path;
              acc)
        end
        else acc)
      [] names

(* Seed the (host-side) template decode and export-index caches from
   every persisted symbol index whose backing template still has the
   recorded content identity.  Parsing the embedded HOB2 installs the
   export index in the per-domain memo keyed by the parsed object's own
   symbol list, and [Link_plan.seed_obj] makes that parsed object the
   one future decodes of the template return — so both caches are warm
   for exactly the object replay will use. *)
let seed_indexes fs =
  match Fs.readdir fs dir with
  | exception Fs.Error _ -> ()
  | names ->
    List.iter
      (fun name ->
        if String.starts_with ~prefix:"obj-" name then begin
          let path = dir ^ "/" ^ name in
          match Fs.segment_of fs path with
          | exception Fs.Error _ -> ()
          | seg -> (
            match decode_obj (Segment.contents seg) with
            | exception Failure _ -> reap fs path
            | located, src, payload -> (
              if not (live fs ~located ~src) then reap fs path
              else
                match Objfile.parse payload with
                | obj ->
                  Link_plan.seed_obj ~src obj;
                  bump_loads ()
                | exception Failure _ -> reap fs path))
        end)
      names

(* ----- hooks for the crash sweep and the janitor ----------------------------- *)

(* A deterministic plan blob for [key] — what the crash sweep writes so
   its oracle can predict the exact post-recovery file contents. *)
let raw_blob ~key =
  let addrs = Hashtbl.create 1 in
  Hashtbl.replace addrs "k" (String.length key);
  encode_plan ~key { Link_plan.plan_deps = []; plan_addrs = addrs; plan_copy = Unsaved }

(* Same fault site as a sync's write; the blob for a key never changes,
   so an existing file is kept. *)
let persist_raw fs ~key =
  ensure_dir fs;
  Fault.hit "fs.stable";
  let path = plan_path key in
  if not (Fs.exists fs path) then Fs.write_file fs path (raw_blob ~key)

let valid_segment seg =
  match
    let bytes = Segment.contents seg in
    if Bytes.length bytes >= 4 && Bytes.to_string (Bytes.sub bytes 0 4) = obj_magic then
      ignore (decode_obj bytes)
    else ignore (decode_plan bytes)
  with
  | () -> true
  | exception _ -> false
