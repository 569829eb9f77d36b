(* Stable linking: /shared/.stable as the copy of the link-plan store.
   Covers stable-boot ≡ cold-boot equivalence (output and simulated
   costs), invalidation on module rewrite, on a shadowing module and on
   an in-place template rewrite, a store that stays the size of what is
   live, corrupt and forged file reaping, crash and error injection
   during a persist, and the janitor's policy over the stable
   namespace. *)

open Harness
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault
module Segment = Hemlock_vm.Segment
module Modgen = Hemlock_apps.Modgen
module Link_plan = Hemlock_linker.Link_plan
module Stable_link = Hemlock_linker.Stable_link
module Janitor = Hemlock_runtime.Janitor
module Codec = Hemlock_util.Codec

(* A chain of [modules] templates under /home/lib and a driver that
   calls through all of them.  On a deep chain the driver names every
   module, so the whole workload rides the root scope — the shape the
   stable-boot bench measures.  On a plain one each module names its
   successor, so each link region instantiates the next template. *)
let build_chain ~deep (_k, ldl) ~modules =
  let fs = Kernel.fs (Ldl.kernel ldl) in
  Fs.mkdir fs "/home/lib";
  ignore (Modgen.install ~deep ldl ~dir:"/home/lib" ~modules);
  Modgen.link_driver
    ~deep:(if deep then modules else 0)
    ldl ~dir:"/home/lib" ~out:"/home/d/prog" ~used:(modules - 1);
  string_of_int (Modgen.expected ~modules ~used:(modules - 1))

let build_deep_chain = build_chain ~deep:true

let exec_measured k prog =
  let out = ref "" in
  let (), d =
    Stats.measure (fun () ->
        let _, console = run_program k prog in
        out := console)
  in
  (String.trim !out, d)

(* The files under /shared/.stable whose names start with [prefix]. *)
let stable_paths fs prefix =
  match Fs.readdir fs Stable_link.dir with
  | names ->
    List.filter_map
      (fun n ->
        if String.starts_with ~prefix n then Some (Stable_link.dir ^ "/" ^ n) else None)
      names
  | exception Fs.Error _ -> []

(* Overwrite a file through its backing segment: unlike [Fs.write_file]
   this moves neither the FS generation nor the path, so a reboot still
   reads the file back. *)
let store_through_segment fs path bytes =
  let seg = Fs.segment_of fs path in
  Segment.resize seg 0;
  Segment.blit_in seg ~dst_off:0 bytes

(* The billed cost model: everything the simulation charges for.  The
   stable boot path must leave every one of these untouched. *)
let billed d =
  ( d.Stats.instructions,
    d.Stats.faults,
    d.Stats.syscalls,
    d.Stats.context_switches,
    Stats.cycles d,
    d.Stats.symbols_resolved,
    d.Stats.modules_linked,
    d.Stats.relocs_applied,
    d.Stats.bytes_copied,
    d.Stats.pages_mapped )

(* ----- stable-boot ≡ cold-boot -------------------------------------------- *)

(* One machine syncs its plans and reboots warm; an identical twin
   reboots without a sync, so its first exec walks cold.  First-exec
   console output and the whole billed cost model must agree exactly —
   the persisted files may only move host-side work.  With plans on, the
   stable boot's first exec replays exactly the plans the sync wrote,
   every one read back from its file, and the cold boot's replays none. *)
let boot_equivalence modules =
  let first_exec stable =
    let ((k, _) as m) = boot () in
    let want = build_deep_chain m ~modules in
    let out0, _ = exec_measured k "/home/d/prog" in
    if out0 <> want then Alcotest.failf "seed exec output %s, want %s" out0 want;
    let sync =
      if stable then Ldl.stable_sync (snd m)
      else { Ldl.sync_plans = 0; sync_objs = 0; sync_skipped = 0 }
    in
    Kernel.reboot k;
    let out, d = exec_measured k "/home/d/prog" in
    if out <> want then Alcotest.failf "first exec output %s, want %s" out want;
    (out, d, sync)
  in
  let out_stable, d_stable, sync = first_exec true in
  let out_cold, d_cold, _ = first_exec false in
  out_stable = out_cold
  && billed d_stable = billed d_cold
  && ((not !Link_plan.enabled)
     || (sync.Ldl.sync_plans > 0
        && sync.Ldl.sync_objs > 0
        && d_stable.Stats.plan_hits = sync.Ldl.sync_plans
        && d_stable.Stats.plan_misses = 0
        && d_stable.Stats.stable_loads = d_stable.Stats.plan_hits
        && d_cold.Stats.plan_hits = 0
        && d_cold.Stats.stable_loads = 0))

let prop_boot_equivalence =
  prop "stable boot ≡ cold boot: output and simulated costs" ~count:6
    ~print:string_of_int
    QCheck2.Gen.(int_range 3 10)
    boot_equivalence

(* ----- invalidation -------------------------------------------------------- *)

(* Rewriting a module between boots moves the FS generation past the
   one the sync recorded, so the reboot loads no plan at all: the exec
   walks cold and must see the new data. *)
let rewrite_between_boots_walks_cold () =
  let ((k, ldl) as m) = boot () in
  let modules = 4 in
  let want = build_deep_chain m ~modules in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  ignore (Ldl.stable_sync ldl);
  (* Rewrite the terminal module's datum: every caller's sum
     changes. *)
  install_c k (Printf.sprintf "/home/lib/mod%d.o" (modules - 1))
    (Printf.sprintf {|
int d%d = 999;
int f%d(int x) {
  return d%d;
}
|}
       (modules - 1) (modules - 1) (modules - 1));
  Lds.embed_metadata (ctx_in k "/" ())
    ~template:(Printf.sprintf "/home/lib/mod%d.o" (modules - 1))
    ~modules:[] ~search_path:[ "/home/lib" ];
  Kernel.reboot k;
  let want' =
    (* same recursion as [Modgen.expected], terminal datum now 999 —
       which every level's [d_i + d_{i+1}] term also picks up *)
    let datum i = if i = modules - 1 then 999 else 100 + i in
    let rec f i x =
      if x < 1 then datum i else f (i + 1) (x - 1) + datum i + datum (i + 1)
    in
    string_of_int (f 0 (modules - 1))
  in
  let out, d = exec_measured k "/home/d/prog" in
  check_string "rewritten module visible on the stable boot" want' out;
  if !Link_plan.enabled then
    check_int "stale stable plans are not replayed" 0 d.Stats.plan_hits

(* A module that shadows a bound one must win as soon as it appears,
   whatever a reboot read back.  [mod0] in /usr/lib names [mod1], found
   in /usr/lib until a [mod1] appears in /home/d, which the program's
   run-time search path lists first.  [order] places the shadow's
   arrival: after the boot exec, after a second reboot, between the
   sync and the reboot, or before an exec and a second sync — which
   records and copies a new plan under the key of the synced one.
   Returns the console of every exec. *)
let shadow_run ~sync order =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  install_c k "/usr/lib/mod1.o" "int f1() { return 7; }";
  install_c k "/usr/lib/mod0.o" "extern int f1(); int f0() { return f1() + 1; }";
  Lds.embed_metadata (ctx_in k "/" ()) ~template:"/usr/lib/mod0.o" ~modules:[ "mod1.o" ]
    ~search_path:[];
  Fs.mkdir fs "/home/d";
  install_c k "/home/d/main.o"
    "extern int f0(); int main() { print_int(f0()); return 0; }";
  ignore
    (link k ~dir:"/home/d"
       ~specs:[ ("main.o", Sharing.Static_private); ("mod0.o", Sharing.Dynamic_private) ]
       "prog");
  let outs = ref [] in
  let exec () = outs := String.trim (snd (run_program k "/home/d/prog")) :: !outs in
  let shadow () = install_c k "/home/d/mod1.o" "int f1() { return 500; }" in
  exec ();
  if sync then ignore (Ldl.stable_sync ldl);
  (match order with
  | `After_boot_exec ->
    Kernel.reboot k;
    exec ();
    shadow ()
  | `After_second_reboot ->
    Kernel.reboot k;
    exec ();
    Kernel.reboot k;
    shadow ()
  | `Before_reboot ->
    shadow ();
    Kernel.reboot k
  | `Before_second_sync ->
    shadow ();
    exec ();
    if sync then ignore (Ldl.stable_sync ldl);
    Kernel.reboot k);
  exec ();
  exec ();
  List.rev !outs

let shadow_wins_over_synced_plans () =
  List.iter
    (fun (name, order) ->
      let cold = shadow_run ~sync:false order in
      check_bool (name ^ ": the shadow changes what a cold walk binds") true
        (List.hd cold <> List.nth cold (List.length cold - 1));
      check_string (name ^ ": every exec prints what a machine that never syncs prints")
        (String.concat " " cold)
        (String.concat " " (shadow_run ~sync:true order)))
    [
      ("shadow after the boot exec", `After_boot_exec);
      ("shadow after a second reboot", `After_second_reboot);
      ("shadow between sync and reboot", `Before_reboot);
      ("shadow before an exec and a second sync", `Before_second_sync);
    ]

(* A rewrite through the template file's backing segment bumps neither
   Fs.generation nor the file path — but the fresh decode's content
   identity no longer matches the plan's recorded dependency, so the
   replay verifies false, rejects, and reaps the stable file. *)
let mapped_rewrite_rejects_and_reaps () =
  let ((k, ldl) as m) = boot () in
  let fs = Kernel.fs k in
  ignore m;
  Fs.mkdir fs "/home/lib";
  (* Non-deep chain: each link region instantiates its successor, so
     plans carry dependency entries for replay to verify. *)
  ignore (Modgen.install ldl ~dir:"/home/lib" ~modules:4);
  Modgen.link_driver ldl ~dir:"/home/lib" ~out:"/home/d/prog" ~used:3;
  let want = string_of_int (Modgen.expected ~modules:4 ~used:3) in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  let report = Ldl.stable_sync ldl in
  if !Link_plan.enabled then
    check_bool "plans persisted" true (report.Ldl.sync_plans > 0);
  let stable_files () =
    match Fs.readdir fs Stable_link.dir with
    | names -> List.length names
    | exception Fs.Error _ -> 0
  in
  let persisted = stable_files () in
  (* Rewrite mod1 through its segment: invisible to the FS
     generation, visible to the content identity. *)
  let obj =
    {
      (Cc.to_object ~name:"mod1.o"
         {|
extern int f2(int x);
extern int d2;
int d1 = 500;
int f1(int x) {
  if (x < 1) { return d1; }
  return f2(x - 1) + d1 + d2;
}
|})
      with
      Objfile.own_modules = [ "mod2.o" ];
      own_search_path = [ "/home/lib" ];
    }
  in
  let gen0 = Fs.generation fs in
  store_through_segment fs "/home/lib/mod1.o" (Objfile.serialize obj);
  check_int "mapped rewrite invisible to the FS generation" gen0 (Fs.generation fs);
  Kernel.reboot k;
  let out, d = exec_measured k "/home/d/prog" in
  check_bool "exec after the mapped rewrite sees the new data" true
    (out <> want && out <> "");
  (* f0(3) with d1 = 500: (103 + 102 + 103) + 500 + 102, then + 100 + 500 *)
  check_string "the new data is the rewritten datum's" "1510" out;
  if !Link_plan.enabled then begin
    check_bool "mismatched stable files rejected" true (d.Stats.stable_rejects > 0);
    check_bool "rejected files reaped" true (stable_files () < persisted)
  end;
  (* Later execs in the same boot link like the first: nothing the
     failed replay left behind may be recorded as a plan that skips
     mod1's instantiation. *)
  List.iter
    (fun nth ->
      let proc, console = run_program k "/home/d/prog" in
      check_int (nth ^ " exec in the boot exits 0") 0 (exit_code proc);
      check_string (nth ^ " exec in the boot sees the new data") out (String.trim console))
    [ "second"; "third" ]

(* A plan that fails verification is dropped: the region's next run
   records afresh, and the exec after that replays every region.  The
   rewritten template must be one a region instantiates, so that the
   region keeps its key and finds the stale plan: a rewrite of a
   module instantiated before the region (as in test_linkfast's mapped
   rewrite) changes the key instead, and nothing fails to replay.  The
   plans here were read back at a reboot.  One whose first replay hits
   an injected fault is kept, and each counts as a stable load once,
   on the replay that verifies it.  One that fails verification after
   that still reaps its file. *)
let failed_replay_drops_the_plan () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/lib";
  ignore (Modgen.install ldl ~dir:"/home/lib" ~modules:4);
  Modgen.link_driver ldl ~dir:"/home/lib" ~out:"/home/d/prog" ~used:3;
  let want = string_of_int (Modgen.expected ~modules:4 ~used:3) in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  ignore (Ldl.stable_sync ldl);
  let persisted = List.length (stable_paths fs "plan-") in
  Kernel.reboot k;
  Fault.configure "plan.replay@1=eio";
  let out1, d1 = Fun.protect ~finally:Fault.clear (fun () -> exec_measured k "/home/d/prog") in
  let out2, d2 = exec_measured k "/home/d/prog" in
  check_string "exec after the injected fault" want out1;
  check_string "exec after the fallback" want out2;
  if !Link_plan.enabled then begin
    check_int "one fallback" 1 (d1.Stats.plan_fallbacks + d2.Stats.plan_fallbacks);
    check_int "each read-back plan is one stable load" persisted
      (d1.Stats.stable_loads + d2.Stats.stable_loads)
  end;
  (* same bytes, new template version: mod0's plan names the old one *)
  store_through_segment fs "/home/lib/mod1.o" (Fs.read_file fs "/home/lib/mod1.o");
  let misses =
    List.map
      (fun _ ->
        let out, d = exec_measured k "/home/d/prog" in
        check_string "exec output" want out;
        d.Stats.plan_misses)
      [ 1; 2; 3 ]
  in
  if !Link_plan.enabled then begin
    check_bool "the failed plan's file reaped" true
      (List.length (stable_paths fs "plan-") < persisted);
    check_int "third exec after the rewrite misses no plan" 0 (List.nth misses 2)
  end

(* ----- the store stays the size of what is live ---------------------------- *)

(* The link-churn cycle: each rewrite retires one template version.  On
   a deep chain that retires every plan keyed on it; on a plain chain
   the region that instantiates the rewritten template keeps its key
   and records a new plan under it, which the sync must copy over the
   old file.  After each sync the directory holds exactly one plan file
   per live plan and one index file per live template, the sync's own
   writes leave the store warm, and every boot replays all of its
   regions. *)
let store_tracks_live_plans ~deep =
  let ((k, ldl) as m) = boot () in
  let fs = Kernel.fs k in
  let modules = 24 in
  let want = build_chain ~deep m ~modules in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  ignore (Ldl.stable_sync ldl);
  for cycle = 1 to 12 do
    let template = Printf.sprintf "/home/lib/mod%d.o" (cycle * 7 mod modules) in
    Fs.write_file fs template (Fs.read_file fs template);
    let out, _ = exec_measured k "/home/d/prog" in
    check_string "exec after the rewrite" want out;
    let r = Ldl.stable_sync ldl in
    if !Link_plan.enabled then begin
      check_int "sync skipped nothing" 0 r.Ldl.sync_skipped;
      check_bool "sync has plans to copy" true (r.Ldl.sync_plans > 0);
      check_int
        (Printf.sprintf "cycle %d: one plan file per live plan" cycle)
        r.Ldl.sync_plans
        (List.length (stable_paths fs "plan-"));
      check_int
        (Printf.sprintf "cycle %d: one index file per live template" cycle)
        modules
        (List.length (stable_paths fs "obj-"));
      let _, d = exec_measured k "/home/d/prog" in
      check_int (Printf.sprintf "cycle %d: exec after the sync misses no plan" cycle) 0
        d.Stats.plan_misses;
      let _, d = Stats.measure (fun () -> Ldl.stable_sync ldl) in
      check_int (Printf.sprintf "cycle %d: a second sync writes nothing" cycle) 0
        d.Stats.stable_persists
    end;
    Kernel.reboot k;
    let out, d = exec_measured k "/home/d/prog" in
    check_string "boot exec" want out;
    if !Link_plan.enabled then
      check_int (Printf.sprintf "cycle %d: boot exec misses no plan" cycle) 0
        d.Stats.plan_misses
  done

(* ----- corrupt persisted plan ---------------------------------------------- *)

(* A byte flipped through the file's segment keeps the FS generation, so
   the reboot reads the file, fails its seal and reaps it.  The same
   flip written with [Fs.write_file] moves the generation instead, so
   the reboot reads no plan at all. *)
let corrupt_plan_is_reaped () =
  let ((k, ldl) as m) = boot () in
  let fs = Kernel.fs k in
  let want = build_deep_chain m ~modules:4 in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  ignore (Ldl.stable_sync ldl);
  if !Link_plan.enabled then begin
    let victim () =
      match stable_paths fs "plan-" with
      | p :: _ -> p
      | [] -> Alcotest.fail "no persisted plan files"
    in
    (* Flip the last byte: the sealed digest no longer matches. *)
    let flipped path =
      let b = Fs.read_file fs path in
      Bytes.set b
        (Bytes.length b - 1)
        (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0xFF));
      b
    in
    let path = victim () in
    store_through_segment fs path (flipped path);
    Kernel.reboot k;
    let out, _ = exec_measured k "/home/d/prog" in
    check_string "exec correct despite the corrupt plan" want out;
    check_bool "corrupt plan reaped on its failed load" true (not (Fs.exists fs path));
    ignore (Ldl.stable_sync ldl);
    let path = victim () in
    Fs.write_file fs path (flipped path);
    Kernel.reboot k;
    let out, d = exec_measured k "/home/d/prog" in
    check_string "exec correct after a whole-file corruption" want out;
    check_int "no plan replayed after the generation moved" 0 d.Stats.plan_hits
  end

(* The md5 seal is no MAC, so a plan file is untrusted input: a few
   bytes that claim 2^24 symbol addresses must be rejected before
   anything is sized from the claim, and a well-sealed plan stored under
   another key's name must be rejected too, since a failed replay reaps
   a plan's file by its key. *)
let forged_files_are_reaped () =
  let ((k, ldl) as m) = boot () in
  let fs = Kernel.fs k in
  let want = build_deep_chain m ~modules:4 in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  ignore (Ldl.stable_sync ldl);
  if !Link_plan.enabled then begin
    let path, renamed, original =
      match stable_paths fs "plan-" with
      | p :: q :: r :: _ -> (p, q, r)
      | _ -> Alcotest.fail "fewer than three persisted plan files"
    in
    store_through_segment fs renamed (Fs.read_file fs original);
    let claimed = 1 lsl 24 in
    let body =
      let w = Codec.Writer.create () in
      Codec.Writer.str w "k";
      Codec.Writer.u32 w 0;
      Codec.Writer.u32 w claimed;
      Codec.Writer.contents w
    in
    (* magic, format version, md5 seal over the body, body *)
    store_through_segment fs path
      (Bytes.concat Bytes.empty
         [ Bytes.of_string "HSPL\001"; Bytes.of_string (Digest.bytes body); body ]);
    let major () = (Gc.quick_stat ()).Gc.major_words in
    let before = major () in
    Kernel.reboot k;
    let words = major () -. before in
    check_bool "forged plan file reaped" false (Fs.exists fs path);
    check_bool "plan under another key's name reaped" false (Fs.exists fs renamed);
    check_bool "the plan under its own name kept" true (Fs.exists fs original);
    check_bool
      (Printf.sprintf "reboot allocated %.0f major words, claim was %d addresses" words claimed)
      true
      (words < float_of_int claimed /. 16.);
    let out, _ = exec_measured k "/home/d/prog" in
    check_string "exec correct after the forged plan" want out
  end

(* ----- injected failures during a persist ---------------------------------- *)

let crash_during_persist_recovers () =
  let ((k, ldl) as m) = boot () in
  let fs = Kernel.fs k in
  let want = build_deep_chain m ~modules:4 in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  if !Link_plan.enabled then begin
    Fault.configure "fs.stable@1=crash";
    (match Ldl.stable_sync ldl with
    | (_ : Ldl.sync_report) -> Alcotest.fail "expected a crash mid-persist"
    | exception Fault.Crash _ -> ());
    Fault.clear ();
    Fs.rescan_shared fs;
    let report = Fs.fsck fs in
    check_bool "recovery fsck clean after crash mid-persist" true report.Fs.fsck_clean;
    let out, _ = exec_measured k "/home/d/prog" in
    check_string "exec correct after the crash" want out;
    (* A recoverable error degrades to not-persisted, never fails
       the sync. *)
    Fault.configure "fs.stable@1=eio";
    let r2 = Fun.protect ~finally:Fault.clear (fun () -> Ldl.stable_sync ldl) in
    check_bool "injected error skips one file, sync completes" true
      (r2.Ldl.sync_plans + r2.Ldl.sync_objs + r2.Ldl.sync_skipped > 0)
  end

(* An unlink the sync could not make leaves a file outside the copy —
   in general a plan recorded in an older namespace — so the next boot
   must read no plan back. *)
let failed_unlink_boots_cold () =
  let ((k, ldl) as m) = boot () in
  let fs = Kernel.fs k in
  let want = build_deep_chain m ~modules:3 in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  ignore (Ldl.stable_sync ldl);
  if !Link_plan.enabled then begin
    let junk = Stable_link.dir ^ "/junk" in
    Fs.write_file fs junk (Bytes.of_string "not a plan");
    (* the write emptied the store; refill it *)
    let out, _ = exec_measured k "/home/d/prog" in
    check_string "exec after the write" want out;
    Fault.configure "fs.unlink@1=eio";
    let r = Fun.protect ~finally:Fault.clear (fun () -> Ldl.stable_sync ldl) in
    check_int "the failed unlink counts as skipped" 1 r.Ldl.sync_skipped;
    check_bool "the file outside the copy is still there" true (Fs.exists fs junk);
    Kernel.reboot k;
    let out, d = exec_measured k "/home/d/prog" in
    check_string "exec correct after the failed unlink" want out;
    check_int "no plan read back" 0 d.Stats.plan_hits
  end

(* ----- janitor policy over /shared/.stable --------------------------------- *)

let janitor_reaps_stale_stable_files () =
  let ((k, ldl) as m) = boot () in
  let fs = Kernel.fs k in
  let want = build_deep_chain m ~modules:3 in
  let out0, _ = exec_measured k "/home/d/prog" in
  check_string "seed exec" want out0;
  ignore (Ldl.stable_sync ldl);
  Stable_link.ensure_dir fs;
  (* A truncated file (crash artifact the journal could not see) and
     a plain impostor: both fail to decode, both must go. *)
  Fs.write_file fs (Stable_link.dir ^ "/plan-deadbeef") (Bytes.of_string "HSPL");
  Fs.write_file fs (Stable_link.dir ^ "/junk") (Bytes.of_string "not a plan");
  let survivors_before = match Fs.readdir fs Stable_link.dir with names -> names in
  let victims = Janitor.reap k ~policy:(Janitor.orphan_policy k ~flagged:[]) in
  let reaped p = List.exists (fun e -> e.Janitor.j_path = p) victims in
  check_bool "truncated stable file reaped" true (reaped (Stable_link.dir ^ "/plan-deadbeef"));
  check_bool "impostor reaped" true (reaped (Stable_link.dir ^ "/junk"));
  if !Link_plan.enabled then begin
    let survivors = match Fs.readdir fs Stable_link.dir with names -> names in
    check_int "every well-formed stable file kept"
      (List.length survivors_before - 2)
      (List.length survivors)
  end

let suite =
  [
    prop_boot_equivalence;
    test "stable plans: module rewrite between boots falls back cold"
      rewrite_between_boots_walks_cold;
    test "stable plans: a shadowing module wins in every order" shadow_wins_over_synced_plans;
    test "stable plans: mapped rewrite rejects and reaps on replay"
      mapped_rewrite_rejects_and_reaps;
    test "link plans: a replay that fails verification drops the plan"
      failed_replay_drops_the_plan;
    test "stable sync: the store holds only live plans and templates" (fun () ->
        store_tracks_live_plans ~deep:true;
        store_tracks_live_plans ~deep:false);
    test "stable plans: corrupt file reaped on its failed load" corrupt_plan_is_reaped;
    test "stable plans: forged files are reaped and size nothing" forged_files_are_reaped;
    test "stable sync: crash mid-persist recovers, errors degrade"
      crash_during_persist_recovers;
    test "stable sync: a failed unlink leaves the next boot cold" failed_unlink_boots_cold;
    test "janitor: stale stable files reaped, valid ones kept"
      janitor_reaps_stale_stable_files;
  ]
