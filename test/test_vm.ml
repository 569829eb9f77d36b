open Harness
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module As = Hemlock_vm.Address_space

(* ----- layout ----- *)

let layout_regions () =
  check_bool "shared region is 1GB of 1MB slots" true (Layout.shared_slots = 1024);
  check_int "slot 0" 0x3000_0000 (Layout.addr_of_slot 0);
  check_int "slot 1023" (0x7000_0000 - 0x10_0000) (Layout.addr_of_slot 1023);
  check_int "roundtrip" 77 (Layout.slot_of_addr (Layout.addr_of_slot 77));
  check_int "mid-slot" 77 (Layout.slot_of_addr (Layout.addr_of_slot 77 + 1234));
  check_bool "public" true (Layout.is_public 0x3000_0000);
  check_bool "heap not public" false (Layout.is_public 0x2FFF_FFFF);
  check_bool "stack not public" false (Layout.is_public 0x7000_0000);
  check_string "region names" "text" (Layout.region_name 0x100);
  check_string "heap name" "heap" (Layout.region_name 0x1000_0000);
  check_string "shared name" "shared" (Layout.region_name 0x4000_0000);
  check_string "stack name" "stack" (Layout.region_name 0x7000_1000);
  check_string "kernel name" "kernel" (Layout.region_name 0x8000_0000)

let layout_pages () =
  check_bool "aligned" true (Layout.is_page_aligned 0x2000);
  check_bool "unaligned" false (Layout.is_page_aligned 0x2001);
  check_int "page_down" 0x2000 (Layout.page_down 0x2FFF);
  check_int "page_up exact" 0x2000 (Layout.page_up 0x2000);
  check_int "page_up" 0x3000 (Layout.page_up 0x2001)

(* ----- prot ----- *)

let prot_matrix () =
  check_bool "no_access read" false (Prot.allows Prot.No_access Prot.Read);
  check_bool "ro read" true (Prot.allows Prot.Read_only Prot.Read);
  check_bool "ro write" false (Prot.allows Prot.Read_only Prot.Write);
  check_bool "rw exec" false (Prot.allows Prot.Read_write Prot.Exec);
  check_bool "rx exec" true (Prot.allows Prot.Read_exec Prot.Exec);
  check_bool "rx write" false (Prot.allows Prot.Read_exec Prot.Write);
  check_bool "rwx all" true
    (List.for_all (Prot.allows Prot.Read_write_exec) [ Prot.Read; Prot.Write; Prot.Exec ])

(* ----- segment ----- *)

let segment_grow_zero () =
  let s = Segment.create ~name:"t" ~max_size:4096 () in
  check_int "fresh size" 0 (Segment.size s);
  check_int "read beyond size is zero" 0 (Segment.get_u32 s 100);
  Segment.set_u32 s 256 0xCAFEBABE;
  check_int "sparse write read back" 0xCAFEBABE (Segment.get_u32 s 256);
  check_int "size tracks high water" 260 (Segment.size s);
  check_int "hole reads zero" 0 (Segment.get_u8 s 10)

let segment_truncate_clears () =
  let s = Segment.create ~name:"t" ~max_size:4096 () in
  Segment.set_u32 s 0 0x12345678;
  Segment.resize s 0;
  Segment.resize s 4;
  check_int "truncated data cleared" 0 (Segment.get_u32 s 0)

let segment_bounds () =
  let s = Segment.create ~name:"t" ~max_size:64 () in
  Alcotest.check_raises "oob write"
    (Invalid_argument "Segment t: offset 64+1 out of bounds (max 64)") (fun () ->
      Segment.set_u8 s 64 1);
  Alcotest.check_raises "oob resize" (Invalid_argument "Segment.resize: bad size")
    (fun () -> Segment.resize s 65)

let segment_copy_independent () =
  let s = Segment.create ~name:"t" ~max_size:4096 () in
  Segment.set_u32 s 0 111;
  let c = Segment.copy s in
  Segment.set_u32 s 0 222;
  check_int "copy unchanged" 111 (Segment.get_u32 c 0);
  check_bool "fresh identity" true (Segment.id c <> Segment.id s)

let segment_blit () =
  let s = Segment.create ~name:"t" ~max_size:4096 () in
  Segment.blit_in s ~dst_off:8 (Bytes.of_string "hello");
  check_string "blit roundtrip" "hello"
    (Bytes.to_string (Segment.blit_out s ~src_off:8 ~len:5));
  check_string "blit_out pads zeroes" "hello\000\000"
    (Bytes.to_string (Segment.blit_out s ~src_off:8 ~len:7))

(* ----- address space ----- *)

let seg n = Segment.create ~name:n ~max_size:0x10000 ()

let map_space () =
  let sp = As.create () in
  As.map sp ~base:0x1000 ~len:0x2000 ~seg:(seg "a") ~prot:Prot.Read_write
    ~share:As.Private ~label:"a" ();
  As.store_u32 sp 0x1000 42;
  check_int "load back" 42 (As.load_u32 sp 0x1000);
  As.store_u8 sp 0x2FFF 7;
  check_int "last byte" 7 (As.load_u8 sp 0x2FFF)

let map_faults () =
  let sp = As.create () in
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:(seg "a") ~prot:Prot.Read_only
    ~share:As.Private ~label:"a" ();
  (match As.load_u32 sp 0x5000 with
  | exception As.Fault { addr = 0x5000; access = Prot.Read; reason = As.Unmapped } -> ()
  | _ -> Alcotest.fail "expected unmapped fault");
  (match As.store_u32 sp 0x1000 1 with
  | exception As.Fault { access = Prot.Write; reason = As.Protection; _ } -> ()
  | _ -> Alcotest.fail "expected protection fault");
  (match As.fetch sp 0x1000 with
  | exception As.Fault { access = Prot.Exec; reason = As.Protection; _ } -> ()
  | _ -> Alcotest.fail "expected exec fault");
  (* A 4-byte access straddling the end of a mapping faults. *)
  match As.load_u32 sp 0x1FFE with
  | exception As.Fault { reason = As.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "expected straddle fault"

let map_rejects () =
  let sp = As.create () in
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:(seg "a") ~prot:Prot.Read_write
    ~share:As.Private ~label:"a" ();
  check_bool "overlap rejected" true
    (try
       As.map sp ~base:0x1000 ~len:0x1000 ~seg:(seg "b") ~prot:Prot.Read_write
         ~share:As.Private ~label:"b" ();
       false
     with Invalid_argument _ -> true);
  check_bool "unaligned rejected" true
    (try
       As.map sp ~base:0x1001 ~len:0x1000 ~seg:(seg "b") ~prot:Prot.Read_write
         ~share:As.Private ~label:"b" ();
       false
     with Invalid_argument _ -> true);
  check_bool "kernel range rejected" true
    (try
       As.map sp ~base:0x8000_0000 ~len:0x1000 ~seg:(seg "b") ~prot:Prot.Read_write
         ~share:As.Private ~label:"b" ();
       false
     with Invalid_argument _ -> true)

let protect_unmap () =
  let sp = As.create () in
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:(seg "a") ~prot:Prot.No_access
    ~share:As.Private ~label:"a" ();
  (match As.load_u8 sp 0x1000 with
  | exception As.Fault { reason = As.Protection; _ } -> ()
  | _ -> Alcotest.fail "no_access should fault");
  As.protect sp 0x1000 Prot.Read_write;
  As.store_u8 sp 0x1000 9;
  check_int "after protect" 9 (As.load_u8 sp 0x1000);
  As.unmap sp 0x1000;
  match As.load_u8 sp 0x1000 with
  | exception As.Fault { reason = As.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "unmapped after unmap"

let store_cow sp addr v = resolving sp (fun () -> As.store_u32 sp addr v)

let clone_fork_semantics () =
  let sp = As.create () in
  let priv = seg "priv" and pub = seg "pub" in
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:priv ~prot:Prot.Read_write ~share:As.Private
    ~label:"priv" ();
  As.map sp ~base:0x3000_0000 ~len:0x1000 ~seg:pub ~prot:Prot.Read_write ~share:As.Public
    ~label:"pub" ();
  As.store_u32 sp 0x1000 1;
  As.store_u32 sp 0x3000_0000 1;
  let child = As.clone sp in
  (* Private divergence. *)
  store_cow sp 0x1000 2;
  check_int "parent private" 2 (As.load_u32 sp 0x1000);
  check_int "child private copy unchanged" 1 (As.load_u32 child 0x1000);
  (* Public sharing (never COW-flagged, no fault to resolve). *)
  As.store_u32 child 0x3000_0000 99;
  check_int "public shared both ways" 99 (As.load_u32 sp 0x3000_0000)

let gap_and_strings () =
  let sp = As.create () in
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:(seg "a") ~prot:Prot.Read_write
    ~share:As.Private ~label:"a" ();
  check_bool "find_gap skips mapping" true
    (As.find_gap sp ~lo:0x1000 ~hi:0x10000 ~size:0x1000 = Some 0x2000);
  String.iteri (fun i c -> As.store_u8 sp (0x1100 + i) (Char.code c)) "abc\000";
  check_string "cstring" "abc" (As.read_cstring sp 0x1100)

(* ----- software TLB ----- *)

(* The paper's lazy-linking trick depends on no-access mappings and
   protection flips faulting even after the address was translated (and
   so cached).  These pin the epoch-invalidation behaviour directly. *)
let tlb_invalidation () =
  let sp = Config.with_ { Config.current with tlb = true } As.create in
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:(seg "a") ~prot:Prot.Read_write
    ~share:As.Private ~label:"a" ();
  As.store_u32 sp 0x1000 7;
  check_int "cached read" 7 (As.load_u32 sp 0x1000);
  As.protect sp 0x1000 Prot.No_access;
  (match As.load_u32 sp 0x1000 with
  | exception As.Fault { reason = As.Protection; _ } -> ()
  | _ -> Alcotest.fail "no-access after cached translation must fault");
  As.protect sp 0x1000 Prot.Read_write;
  check_int "readable again" 7 (As.load_u32 sp 0x1000);
  As.unmap sp 0x1000;
  match As.load_u8 sp 0x1000 with
  | exception As.Fault { reason = As.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "unmap after cached translation must fault"

let tlb_clone_isolation () =
  let sp = Config.with_ { Config.current with tlb = true } As.create in
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:(seg "a") ~prot:Prot.Read_write
    ~share:As.Private ~label:"a" ();
  As.store_u32 sp 0x1000 5;
  check_int "warm parent TLB" 5 (As.load_u32 sp 0x1000);
  let child = As.clone sp in
  (* The child's fresh TLB must re-resolve to its own copied segment,
     not serve the parent's cached translation. *)
  store_cow sp 0x1000 6;
  check_int "child sees its copy" 5 (As.load_u32 child 0x1000);
  As.unmap child 0x1000;
  check_int "parent unaffected by child unmap" 6 (As.load_u32 sp 0x1000)

(* Drive a TLB'd and a TLB-less space through the same random sequence
   of map / unmap / protect / access / clone operations: every
   observable — values, fault payloads, argument errors — must agree. *)
let prop_tlb_coherence =
  prop "address_space: TLB'd and TLB-less spaces observe identically" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 80) (triple (int_bound 6) (int_bound 7) (int_bound 5)))
    (fun ops ->
      let prots =
        [| Prot.No_access; Prot.Read_only; Prot.Read_write; Prot.Read_exec; Prot.Read_write_exec |]
      in
      let mk tlb =
        ( ref (Config.with_ { Config.current with tlb } As.create),
          Array.init 8 (fun i ->
              Segment.create ~name:(Printf.sprintf "s%d" i) ~max_size:0x2000 ()) )
      in
      let obs (spr, segs) (tag, a, b) =
        let sp = !spr in
        let base = 0x1000 + (a land 7) * 0x1000 in
        try
          match tag with
          | 0 ->
            As.map sp ~base ~len:0x1000 ~seg:segs.(a land 7) ~prot:prots.(b mod 5)
              ~share:As.Private ~label:"t" ();
            "mapped"
          | 1 ->
            As.unmap sp base;
            "unmapped"
          | 2 ->
            As.protect sp base prots.(b mod 5);
            "protected"
          | 3 -> string_of_int (As.load_u32 sp (base + (b * 4)))
          | 4 ->
            As.store_u32 sp (base + (b * 4)) ((a * 1000) + b);
            "stored"
          | 5 -> string_of_int (As.fetch sp (base + (b * 4)))
          | _ ->
            spr := As.clone sp;
            "cloned"
        with
        | As.Fault { addr; access; reason } ->
          Printf.sprintf "fault %x %s %s" addr
            (match access with Prot.Read -> "r" | Prot.Write -> "w" | Prot.Exec -> "x")
            (match reason with
            | As.Unmapped -> "unmapped"
            | As.Protection -> "protection"
            | As.Not_resident -> "not-resident")
        | Invalid_argument _ -> "invalid"
        | Not_found -> "notfound"
      in
      let w_on = mk true and w_off = mk false in
      List.for_all (fun op -> obs w_on op = obs w_off op) ops)

let prop_segment_io =
  prop "segment: random u8 writes read back"
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 0 1023) (int_bound 255)))
    (fun writes ->
      let s = Segment.create ~name:"p" ~max_size:1024 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (off, v) ->
          Segment.set_u8 s off v;
          Hashtbl.replace model off v)
        writes;
      Hashtbl.fold (fun off v ok -> ok && Segment.get_u8 s off = v) model true)

let suite =
  [
    test "layout: regions and slots" layout_regions;
    test "layout: page arithmetic" layout_pages;
    test "prot: access matrix" prot_matrix;
    test "segment: grows and zero-fills" segment_grow_zero;
    test "segment: truncation clears" segment_truncate_clears;
    test "segment: bounds enforced" segment_bounds;
    test "segment: copy is independent" segment_copy_independent;
    test "segment: blit in/out" segment_blit;
    test "address_space: map and access" map_space;
    test "address_space: faults carry cause" map_faults;
    test "address_space: bad mappings rejected" map_rejects;
    test "address_space: protect and unmap" protect_unmap;
    test "address_space: clone = fork memory semantics" clone_fork_semantics;
    test "address_space: TLB invalidated by protect/unmap" tlb_invalidation;
    test "address_space: clone gets a cold TLB" tlb_clone_isolation;
    test "address_space: gaps and strings" gap_and_strings;
    prop_segment_io;
    prop_tlb_coherence;
  ]
