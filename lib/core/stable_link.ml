module Fs = Hemlock_sfs.Fs
module Segment = Hemlock_vm.Segment
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

(* Stable linking: the link-plan store's copy under [/shared/.stable],
   next to the segments it describes, so a reboot can refill the store
   from files instead of cold scope walks.  A file's name digests the
   plan key, which does not fix the file's bytes, so a sync keeps a file
   only while its plan's [plan_copy] says it holds that plan.  Every
   file seals its body with an md5 digest; a load checks it (plus magic
   and version) and reaps the file on a mismatch.  The digest is no MAC,
   so every count in a body is checked against the bytes left before it
   sizes anything.  Loads read segments, not [Fs.read_file], so they
   stay invisible to the simulated cost model; only the sync's writes
   are billed. *)

let dir = "/shared/.stable"

let plan_magic = "HSPL"
let version = 2

let plan_name key = "plan-" ^ Digest.to_hex (Digest.string key)

let plan_path key = dir ^ "/" ^ plan_name key

let bump_persists () =
  let s = Stats.cur () in
  s.stable_persists <- s.stable_persists + 1

let bump_rejects () =
  let s = Stats.cur () in
  s.stable_rejects <- s.stable_rejects + 1

(* ----- wire format --------------------------------------------------------

   header: magic(4) | version u8 | md5(body) raw 16 | body

   plan body:   str key
                u32 ndeps { str located | u8 public | u32 base
                            | i32 src_id | i32 src_ver | u16 depth }
                u32 naddrs { str sym | u32 addr }   (sorted by sym)

   A dependency names its parent scope by depth, not by content: the
   key pins the region's scope chain, so a file does not grow with it.
   A depth fits its u16: a process holds at most 57,344 private (a page
   each in its arena) and 1,024 public instances, a scope node each. *)

(* [Segment.version] can be -1-free in practice, but [Modinst.inst_src]
   is (-1, -1) for objects that never came from a file; keep the
   encoding total over ints that fit 32 bits signed. *)
let w_i32 w v = Codec.Writer.u32 w (v land 0xFFFF_FFFF)

let r_i32 r =
  let v = Codec.Reader.u32 r in
  if v > 0x7FFF_FFFF then v - 0x1_0000_0000 else v

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

let encode_plan ~key (plan : Link_plan.plan) =
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
      Codec.Writer.u16 w d.Link_plan.dep_depth)
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
    let dep_depth = Codec.Reader.u16 r in
    deps :=
      { Link_plan.dep_located; dep_public; dep_base; dep_src = (sid, sver); dep_depth }
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

type sync_report = { sync_plans : int; sync_objs : int; sync_skipped : int }

(* Each file's name is digested once, and decides both what to unlink
   and what to write.  Only the file of a plan that is not [Unsaved] is
   known to hold what the copy wants; every other file is unlinked, and
   each missing one then gets a fresh journalled write, which [Fs.fsck]
   rolls back wholesale after a crash.  A key too long for the u16
   string encoding cannot be written; plans are keyed by digested
   program identities in practice, so such a plan is just skipped. *)
let sync fs ~plans =
  let too_long, plans = List.partition (fun (key, _) -> String.length key > 0xFFFF) plans in
  let files = List.map (fun (key, plan) -> (plan_name key, key, plan)) plans in
  (* name of a file to keep -> already on disk *)
  let keep = Hashtbl.create 256 in
  List.iter
    (fun (name, _, plan) ->
      if plan.Link_plan.plan_copy <> Link_plan.Unsaved then Hashtbl.replace keep name false)
    files;
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
  let nplans = ref 0 in
  List.iter
    (fun (name, key, plan) ->
      let copied =
        Hashtbl.find_opt keep name = Some true
        ||
        match
          Fault.hit "fs.stable";
          Fs.write_file fs (dir ^ "/" ^ name) (encode_plan ~key plan)
        with
        | () ->
          bump_persists ();
          true
        | exception (Fault.Injected _ | Fs.Error _) ->
          incr skipped;
          false
      in
      if copied then begin
        incr nplans;
        if plan.Link_plan.plan_copy = Unsaved then plan.Link_plan.plan_copy <- Saved
      end)
    files;
  ({ sync_plans = !nplans; sync_objs = 0; sync_skipped = !skipped }, !exact)

(* ----- loading -------------------------------------------------------------- *)

let reject fs ~key = reap fs (plan_path key)

let note_load () =
  let s = Stats.cur () in
  s.stable_loads <- s.stable_loads + 1

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

(* ----- hooks for crash-consistency tests and the janitor --------------------- *)

(* A deterministic plan blob for [key] — what test traffic writes so its
   oracle can predict the exact post-recovery file contents. *)
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
  match decode_plan (Segment.contents seg) with
  | _ -> true
  | exception _ -> false
