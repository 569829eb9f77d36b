open Harness
module Layout = Hemlock_vm.Layout
module Segment = Hemlock_vm.Segment

let fresh () = Fs.create ()

let path_parsing () =
  let p s = Path.to_string (Path.of_string ~cwd:Path.root s) in
  check_string "absolute" "/a/b" (p "/a/b");
  check_string "normalizes dots" "/a/c" (p "/a/./b/../c");
  check_string "root dotdot clamps" "/" (p "/..");
  check_string "trailing slash" "/a" (p "/a/");
  let cwd = Path.of_string ~cwd:Path.root "/home/me" in
  check_string "relative" "/home/me/x" (Path.to_string (Path.of_string ~cwd "x"));
  check_string "relative dotdot" "/home/y" (Path.to_string (Path.of_string ~cwd "../y"));
  check_string "basename" "b" (Path.basename (Path.of_string ~cwd:Path.root "/a/b"));
  check_string "parent" "/a" (Path.to_string (Path.parent (Path.of_string ~cwd:Path.root "/a/b")));
  check_bool "prefix" true
    (Path.is_prefix ~prefix:[ "shared" ] (Path.of_string ~cwd:Path.root "/shared/x/y"));
  check_bool "not prefix" false
    (Path.is_prefix ~prefix:[ "shared" ] (Path.of_string ~cwd:Path.root "/sharedx"))

let mkdir_create_stat () =
  let fs = fresh () in
  Fs.mkdir fs "/home/alice";
  Fs.create_file fs "/home/alice/notes";
  check_bool "exists" true (Fs.exists fs "/home/alice/notes");
  check_bool "is_dir dir" true (Fs.is_dir fs "/home/alice");
  check_bool "is_dir file" false (Fs.is_dir fs "/home/alice/notes");
  let st = Fs.stat fs "/home/alice/notes" in
  check_bool "regular" true (st.Fs.st_kind = Fs.Regular);
  check_int "empty" 0 st.Fs.st_size;
  check_bool "normal partition has no address" true (st.Fs.st_addr = None)

let read_write_append () =
  let fs = fresh () in
  Fs.write_file fs "/tmp/f" (Bytes.of_string "hello");
  check_string "read back" "hello" (Bytes.to_string (Fs.read_file fs "/tmp/f"));
  Fs.append_file fs "/tmp/f" (Bytes.of_string " world");
  check_string "append" "hello world" (Bytes.to_string (Fs.read_file fs "/tmp/f"));
  Fs.write_file fs "/tmp/f" (Bytes.of_string "x");
  check_string "write truncates" "x" (Bytes.to_string (Fs.read_file fs "/tmp/f"));
  (* write_file creates missing files and intermediate reads work via cwd *)
  let cwd = Path.of_string ~cwd:Path.root "/tmp" in
  Fs.write_file fs ~cwd "rel" (Bytes.of_string "r");
  check_bool "relative create" true (Fs.exists fs "/tmp/rel")

(* [read_segment] bills exactly what [read_file] bills and hands back
   the file's own segment, holding the bytes [read_file] copies; a path
   [read_file] refuses it refuses with the same error. *)
let read_segment_bills_as_read_file () =
  let module Stats = Hemlock_util.Stats in
  let fs = fresh () in
  Fs.write_file fs "/tmp/f" (Bytes.of_string "template bytes");
  Fs.symlink fs ~target:"/tmp/f" "/tmp/l";
  let cwd = Path.of_string ~cwd:Path.root "/tmp" in
  let bytes, d_file = Stats.measure (fun () -> Fs.read_file fs ~cwd "l") in
  let seg, d_seg = Stats.measure (fun () -> Fs.read_segment fs ~cwd "l") in
  check_int "bytes_copied" d_file.Stats.bytes_copied d_seg.Stats.bytes_copied;
  check_int "files_opened" d_file.Stats.files_opened d_seg.Stats.files_opened;
  check_int "cycles" (Stats.cycles d_file) (Stats.cycles d_seg);
  check_int "the whole file is billed" 14 d_seg.Stats.bytes_copied;
  check_int "as one file opened" 1 d_seg.Stats.files_opened;
  check_bool "the file's own segment" true (seg == Fs.segment_of fs "/tmp/f");
  check_string "its contents are read_file's bytes" (Bytes.to_string bytes)
    (Bytes.to_string (Segment.blit_out seg ~src_off:0 ~len:(Segment.size seg)));
  let error f =
    match f () with _ -> None | exception Fs.Error e -> Some (e.op, e.path, e.kind)
  in
  List.iter
    (fun path ->
      check_bool ("same error for " ^ path) true
        (error (fun () -> Fs.read_file fs path) = error (fun () -> Fs.read_segment fs path)
        && error (fun () -> Fs.read_file fs path) <> None))
    [ "/nope"; "/tmp" ]

let errors () =
  let fs = fresh () in
  let expect_kind kind f =
    match f () with
    | _ -> Alcotest.fail "expected Fs.Error"
    | exception Fs.Error e -> check_bool "error kind" true (e.kind = kind)
  in
  expect_kind Fs.Not_found (fun () -> Fs.read_file fs "/nope");
  expect_kind Fs.Not_found (fun () -> Fs.stat fs "/tmp/missing");
  expect_kind Fs.Is_a_directory (fun () -> Fs.read_file fs "/tmp");
  expect_kind Fs.Not_a_directory (fun () ->
      Fs.write_file fs "/tmp/f" Bytes.empty;
      Fs.create_file fs "/tmp/f/x");
  expect_kind Fs.Already_exists (fun () -> Fs.mkdir fs "/tmp");
  expect_kind Fs.Not_found (fun () -> Fs.unlink fs "/tmp/zzz");
  expect_kind Fs.Is_a_directory (fun () -> Fs.unlink fs "/tmp");
  Fs.mkdir fs "/tmp/d";
  Fs.create_file fs "/tmp/d/f";
  expect_kind Fs.Not_empty (fun () -> Fs.rmdir fs "/tmp/d");
  Fs.unlink fs "/tmp/d/f";
  Fs.rmdir fs "/tmp/d";
  check_bool "rmdir worked" false (Fs.exists fs "/tmp/d")

let readdir_sorted () =
  let fs = fresh () in
  List.iter (fun n -> Fs.create_file fs ("/tmp/" ^ n)) [ "zeta"; "alpha"; "mid" ];
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] (Fs.readdir fs "/tmp")

let symlinks () =
  let fs = fresh () in
  Fs.write_file fs "/tmp/target" (Bytes.of_string "data");
  Fs.symlink fs ~target:"/tmp/target" "/tmp/link";
  check_string "read through link" "data" (Bytes.to_string (Fs.read_file fs "/tmp/link"));
  check_bool "lstat sees symlink" true ((Fs.lstat fs "/tmp/link").Fs.st_kind = Fs.Symlink);
  check_bool "stat follows" true ((Fs.stat fs "/tmp/link").Fs.st_kind = Fs.Regular);
  (* relative symlink target resolves against the link's directory *)
  Fs.mkdir fs "/tmp/sub";
  Fs.write_file fs "/tmp/sub/t2" (Bytes.of_string "two");
  Fs.symlink fs ~target:"t2" "/tmp/sub/l2";
  check_string "relative target" "two" (Bytes.to_string (Fs.read_file fs "/tmp/sub/l2"));
  (* [lookup] spells the directories resolved and the last component as
     found, and answers for what a final link names *)
  Fs.symlink fs ~target:"/tmp/sub" "/tmp/alias";
  Alcotest.(check (option (pair string bool))) "lookup through a symlinked directory"
    (Some ("/tmp/sub/l2", true))
    (Option.map (fun (p, st) -> (p, st.Fs.st_kind = Fs.Regular)) (Fs.lookup fs "/tmp/alias/l2"));
  (* loops detected *)
  Fs.symlink fs ~target:"/tmp/loop" "/tmp/loop";
  match Fs.read_file fs "/tmp/loop" with
  | _ -> Alcotest.fail "expected symlink loop error"
  | exception Fs.Error { kind = Fs.Symlink_loop; _ } -> ()
  | exception Fs.Error _ -> Alcotest.fail "wrong error for loop"

let shared_addresses () =
  let fs = fresh () in
  Fs.create_file fs "/shared/a";
  Fs.create_file fs "/shared/b";
  let a = Fs.addr_of_path fs "/shared/a" in
  let b = Fs.addr_of_path fs "/shared/b" in
  check_int "slot 0" Layout.shared_base a;
  check_int "slot 1" (Layout.shared_base + Layout.shared_slot_size) b;
  check_string "path_of_addr" "/shared/a" (Fs.path_of_addr fs a);
  check_string "path_of_addr mid-file" "/shared/b" (Fs.path_of_addr fs (b + 5000));
  check_bool "stat exposes address" true ((Fs.stat fs "/shared/a").Fs.st_addr = Some a);
  check_int "inode = slot" 0 (Fs.stat fs "/shared/a").Fs.st_ino;
  (* Slot is reused after unlink; the address table updates. *)
  Fs.unlink fs "/shared/a";
  (match Fs.path_of_addr fs a with
  | _ -> Alcotest.fail "stale address entry"
  | exception Fs.Error { kind = Fs.Not_found; _ } -> ());
  Fs.create_file fs "/shared/c";
  check_int "slot reused" a (Fs.addr_of_path fs "/shared/c");
  check_int "free slots" (1024 - 2) (Fs.shared_free_slots fs)

let shared_not_shared_errors () =
  let fs = fresh () in
  Fs.create_file fs "/tmp/plain";
  (match Fs.addr_of_path fs "/tmp/plain" with
  | _ -> Alcotest.fail "normal files have no address"
  | exception Fs.Error { kind = Fs.Not_shared; _ } -> ());
  match Fs.path_of_addr fs 0x1000 with
  | _ -> Alcotest.fail "private addresses are not translatable"
  | exception Fs.Error { kind = Fs.Not_shared; _ } -> ()

let shared_file_size_limit () =
  let fs = fresh () in
  Fs.create_file fs "/shared/big";
  let seg = Fs.segment_of fs "/shared/big" in
  check_int "max 1MB" Layout.shared_slot_size (Segment.max_size seg);
  Segment.set_u8 seg (Layout.shared_slot_size - 1) 1;
  check_bool "last byte writable" true (Segment.get_u8 seg (Layout.shared_slot_size - 1) = 1);
  Alcotest.check_raises "over 1MB rejected"
    (Invalid_argument
       (Printf.sprintf "Segment /shared/big: offset %d+1 out of bounds (max %d)"
          Layout.shared_slot_size Layout.shared_slot_size))
    (fun () -> Segment.set_u8 seg Layout.shared_slot_size 1)

let shared_inode_exhaustion () =
  let fs = fresh () in
  for i = 0 to 1023 do
    Fs.create_file fs (Printf.sprintf "/shared/f%04d" i)
  done;
  check_int "full" 0 (Fs.shared_free_slots fs);
  (match Fs.create_file fs "/shared/overflow" with
  | _ -> Alcotest.fail "expected No_space"
  | exception Fs.Error { kind = Fs.No_space; _ } -> ());
  Fs.unlink fs "/shared/f0500";
  Fs.create_file fs "/shared/replacement";
  check_int "slot freed and reused" 500 (Fs.stat fs "/shared/replacement").Fs.st_ino

let hard_links () =
  let fs = fresh () in
  Fs.write_file fs "/tmp/orig" (Bytes.of_string "x");
  Fs.hard_link fs ~existing:"/tmp/orig" "/tmp/alias";
  check_string "alias reads" "x" (Bytes.to_string (Fs.read_file fs "/tmp/alias"));
  Fs.write_file fs "/tmp/alias" (Bytes.of_string "y");
  check_string "same file" "y" (Bytes.to_string (Fs.read_file fs "/tmp/orig"));
  Fs.unlink fs "/tmp/orig";
  check_string "survives one unlink" "y" (Bytes.to_string (Fs.read_file fs "/tmp/alias"));
  (* Prohibited on the shared partition, preserving inode<->path 1:1. *)
  Fs.create_file fs "/shared/s";
  (match Fs.hard_link fs ~existing:"/shared/s" "/shared/s2" with
  | _ -> Alcotest.fail "expected prohibition"
  | exception Fs.Error { kind = Fs.Hard_links_prohibited; _ } -> ());
  match Fs.hard_link fs ~existing:"/tmp/alias" "/shared/s3" with
  | _ -> Alcotest.fail "expected prohibition into shared"
  | exception Fs.Error { kind = Fs.Hard_links_prohibited; _ } -> ()

let mapping_is_the_file () =
  let fs = fresh () in
  Fs.create_file fs "/shared/seg";
  let seg = Fs.segment_of fs "/shared/seg" in
  Segment.blit_in seg ~dst_off:0 (Bytes.of_string "via-memory");
  check_string "file sees memory writes" "via-memory"
    (Bytes.to_string (Fs.read_file fs "/shared/seg"));
  Fs.write_file fs "/shared/seg" (Bytes.of_string "via-file");
  check_string "memory sees file writes" "via-file"
    (Bytes.to_string (Segment.blit_out seg ~src_off:0 ~len:8))

let rescan_survives_crash () =
  let fs = fresh () in
  Fs.mkdir fs "/shared/deep";
  Fs.create_file fs "/shared/deep/x";
  Fs.create_file fs "/shared/y";
  let ax = Fs.addr_of_path fs "/shared/deep/x" in
  let table_before = Fs.shared_table fs in
  (* "Crash": the in-kernel table is rebuilt by scanning the partition. *)
  Fs.rescan_shared fs;
  Alcotest.(check (list (pair int string))) "table rebuilt identically" table_before
    (Fs.shared_table fs);
  check_string "address still translates" "/shared/deep/x" (Fs.path_of_addr fs ax)

let create_through_symlink () =
  let fs = fresh () in
  Fs.create_file fs "/shared/template";
  Fs.mkdir fs "/tmp/app";
  Fs.symlink fs ~target:"/shared/template" "/tmp/app/t";
  (* creating "through" an existing symlink truncates the target *)
  Fs.write_file fs "/shared/template" (Bytes.of_string "zz");
  Fs.create_file fs "/tmp/app/t";
  check_int "target truncated" 0 (Fs.stat fs "/shared/template").Fs.st_size

(* Five paths that do not resolve: through a regular file, a final
   self-loop, a two-link loop, a path through that loop, and a dangling
   link.  The lookups answer no, and every other call returns or raises
   [Fs.Error]: a call that follows the path raises [Not_a_directory],
   [Symlink_loop] or [Not_found], while one that acts on a final link's
   own name sees that name exist. *)
let unresolvable_names () =
  let fs_with_names () =
    let fs = fresh () in
    Fs.write_file fs "/shared/f" (Bytes.of_string "file");
    Fs.symlink fs ~target:"/shared/self" "/shared/self";
    Fs.symlink fs ~target:"/shared/l2" "/shared/l1";
    Fs.symlink fs ~target:"/shared/l1" "/shared/l2";
    Fs.symlink fs ~target:"/shared/nowhere" "/shared/dangling";
    fs
  in
  let calls =
    [
      ("stat", fun fs p -> ignore (Fs.stat fs p));
      ("segment_of", fun fs p -> ignore (Fs.segment_of fs p));
      ("read_file", fun fs p -> ignore (Fs.read_file fs p));
      ("create_file", fun fs p -> Fs.create_file fs p);
      ("write_file", fun fs p -> Fs.write_file fs p (Bytes.of_string "w"));
      ("append_file", fun fs p -> Fs.append_file fs p (Bytes.of_string "a"));
      ("mkdir", fun fs p -> Fs.mkdir fs p);
      ("symlink", fun fs p -> Fs.symlink fs ~target:"/tmp" p);
      ("unlink", fun fs p -> Fs.unlink fs p);
      ("rmdir", fun fs p -> Fs.rmdir fs p);
      ("rename", fun fs p -> Fs.rename fs ~src:p "/shared/moved");
      ("readdir", fun fs p -> ignore (Fs.readdir fs p));
    ]
  in
  (* [None]: the call returns. *)
  let final_link = function
    | "mkdir" | "symlink" -> Some Fs.Already_exists
    | "unlink" | "rename" -> None
    | "rmdir" -> Some Fs.Not_a_directory
    | _ -> Some Fs.Symlink_loop
  in
  let dangling = function
    | "create_file" | "write_file" | "append_file" -> None (* they create the target *)
    | "stat" | "segment_of" | "read_file" | "readdir" -> Some Fs.Not_found
    | call -> final_link call
  in
  let show = Option.fold ~none:"returns" ~some:Fs.err_kind_to_string in
  List.iter
    (fun (path, expect) ->
      let fs = fs_with_names () in
      check_bool (path ^ ": exists") false (Fs.exists fs path);
      check_bool (path ^ ": is_dir") false (Fs.is_dir fs path);
      check_bool (path ^ ": lookup") true (Fs.lookup fs path = None);
      List.iter
        (fun (name, call) ->
          let got =
            match call (fs_with_names ()) path with
            | () -> None
            | exception Fs.Error { kind; _ } -> Some kind
          in
          check_string (path ^ ": " ^ name) (show (expect name)) (show got))
        calls)
    [
      ("/shared/f/x", fun _ -> Some Fs.Not_a_directory);
      ("/shared/self", final_link);
      ("/shared/l1", final_link);
      ("/shared/l1/x", fun _ -> Some Fs.Symlink_loop);
      ("/shared/dangling", dangling);
    ];
  let k, _ = boot () in
  Fs.symlink (Kernel.fs k) ~target:"/shared/self" "/shared/self";
  check_bool "open with create through a loop: ELOOP" true
    (run_native k (fun k proc -> Kernel.sys_open_r k proc ~create:true "/shared/self")
    = Error Hemlock_os.Errno.ELOOP)

let rename_ops () =
  let fs = fresh () in
  (* plain file *)
  Fs.write_file fs "/tmp/a" (Bytes.of_string "data");
  Fs.rename fs ~src:"/tmp/a" "/tmp/b";
  check_bool "gone" false (Fs.exists fs "/tmp/a");
  check_string "moved" "data" (Bytes.to_string (Fs.read_file fs "/tmp/b"));
  (* directory move *)
  Fs.mkdir fs "/tmp/d1";
  Fs.write_file fs "/tmp/d1/x" (Bytes.of_string "x");
  Fs.rename fs ~src:"/tmp/d1" "/home/d2";
  check_string "dir contents moved" "x" (Bytes.to_string (Fs.read_file fs "/home/d2/x"));
  (* errors *)
  (match Fs.rename fs ~src:"/tmp/none" "/tmp/z" with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Fs.Error { kind = Fs.Not_found; _ } -> ());
  Fs.write_file fs "/tmp/c" Bytes.empty;
  (match Fs.rename fs ~src:"/tmp/b" "/tmp/c" with
  | _ -> Alcotest.fail "expected Already_exists"
  | exception Fs.Error { kind = Fs.Already_exists; _ } -> ());
  match Fs.rename fs ~src:"/home/d2" "/home/d2/inside" with
  | _ -> Alcotest.fail "expected self-nesting rejection"
  | exception Fs.Error { kind = Fs.Already_exists; _ } -> ()

let rename_shared_keeps_address () =
  let fs = fresh () in
  Fs.mkdir fs "/shared/old";
  Fs.create_file fs "/shared/old/seg";
  let addr = Fs.addr_of_path fs "/shared/old/seg" in
  (* rename the file: address survives, table updated *)
  Fs.rename fs ~src:"/shared/old/seg" "/shared/old/seg2";
  check_int "address stable" addr (Fs.addr_of_path fs "/shared/old/seg2");
  check_string "table updated" "/shared/old/seg2" (Fs.path_of_addr fs addr);
  (* rename the whole directory: contained files keep addresses *)
  Fs.rename fs ~src:"/shared/old" "/shared/new";
  check_string "dir rename tracked" "/shared/new/seg2" (Fs.path_of_addr fs addr);
  (* table rebuilt from disk agrees *)
  Fs.rescan_shared fs;
  check_string "rescan agrees" "/shared/new/seg2" (Fs.path_of_addr fs addr);
  (* cross-partition renames rejected both ways *)
  (match Fs.rename fs ~src:"/shared/new/seg2" "/tmp/escapee" with
  | _ -> Alcotest.fail "expected Cross_partition"
  | exception Fs.Error { kind = Fs.Cross_partition; _ } -> ());
  Fs.write_file fs "/tmp/plain" Bytes.empty;
  match Fs.rename fs ~src:"/tmp/plain" "/shared/new/intruder" with
  | _ -> Alcotest.fail "expected Cross_partition"
  | exception Fs.Error { kind = Fs.Cross_partition; _ } -> ()

let prop_slot_roundtrip =
  prop "fs: addr_of_path/path_of_addr roundtrip over many files"
    QCheck2.Gen.(int_range 1 40)
    (fun n ->
      let fs = fresh () in
      let names = List.init n (Printf.sprintf "/shared/p%d") in
      List.iter (Fs.create_file fs) names;
      List.for_all (fun name -> Fs.path_of_addr fs (Fs.addr_of_path fs name) = name) names)

let suite =
  [
    test "path: parsing and normalisation" path_parsing;
    test "fs: mkdir/create/stat" mkdir_create_stat;
    test "fs: read/write/append" read_write_append;
    test "fs: error cases" errors;
    test "fs: read_segment bills as read_file" read_segment_bills_as_read_file;
    test "fs: readdir sorted" readdir_sorted;
    test "fs: symlinks and loops" symlinks;
    test "sfs: global addresses" shared_addresses;
    test "sfs: non-shared address errors" shared_not_shared_errors;
    test "sfs: 1MB file limit" shared_file_size_limit;
    test "sfs: 1024-inode limit and reuse" shared_inode_exhaustion;
    test "fs: hard links allowed / prohibited on shared" hard_links;
    test "sfs: mapped memory is the file" mapping_is_the_file;
    test "sfs: boot rescan rebuilds the table" rescan_survives_crash;
    test "fs: create through symlink" create_through_symlink;
    test "fs: names that do not resolve" unresolvable_names;
    test "fs: rename files and directories" rename_ops;
    test "sfs: rename preserves global addresses" rename_shared_keeps_address;
    prop_slot_roundtrip;
  ]
