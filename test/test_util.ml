open Harness
module Interval_map = Hemlock_util.Interval_map
module Codec = Hemlock_util.Codec
module Prng = Hemlock_util.Prng
module Stats = Hemlock_util.Stats

(* ----- interval map ----- *)

let im_basic () =
  let m = Interval_map.empty in
  check_bool "empty" true (Interval_map.is_empty m);
  let m = Interval_map.add ~lo:10 ~hi:20 "a" m in
  let m = Interval_map.add ~lo:30 ~hi:40 "b" m in
  check_int "cardinal" 2 (Interval_map.cardinal m);
  (match Interval_map.find 15 m with
  | Some (10, 20, "a") -> ()
  | _ -> Alcotest.fail "find 15");
  check_bool "miss below" true (Interval_map.find 9 m = None);
  check_bool "miss between" true (Interval_map.find 25 m = None);
  check_bool "hi exclusive" true (Interval_map.find 20 m = None);
  check_bool "lo inclusive" true (Interval_map.find 30 m <> None)

let im_overlap () =
  let m = Interval_map.add ~lo:10 ~hi:20 () Interval_map.empty in
  check_bool "overlaps inside" true (Interval_map.overlaps ~lo:15 ~hi:16 m);
  check_bool "overlaps spanning" true (Interval_map.overlaps ~lo:0 ~hi:100 m);
  check_bool "overlaps left edge" true (Interval_map.overlaps ~lo:5 ~hi:11 m);
  check_bool "abuts left" false (Interval_map.overlaps ~lo:0 ~hi:10 m);
  check_bool "abuts right" false (Interval_map.overlaps ~lo:20 ~hi:30 m);
  Alcotest.check_raises "add overlap rejected"
    (Invalid_argument "Interval_map.add: overlap") (fun () ->
      ignore (Interval_map.add ~lo:19 ~hi:25 () m));
  Alcotest.check_raises "empty interval rejected"
    (Invalid_argument "Interval_map.add: empty interval") (fun () ->
      ignore (Interval_map.add ~lo:5 ~hi:5 () m))

let im_remove_update () =
  let m = Interval_map.add ~lo:0 ~hi:8 1 Interval_map.empty in
  let m = Interval_map.add ~lo:8 ~hi:16 2 m in
  let m = Interval_map.remove 3 m in
  check_bool "removed" true (Interval_map.find 3 m = None);
  check_bool "other kept" true (Interval_map.find 8 m <> None);
  let m = Interval_map.update 9 (fun v -> v * 10) m in
  (match Interval_map.find 9 m with
  | Some (_, _, 20) -> ()
  | _ -> Alcotest.fail "update");
  check_bool "remove miss is noop" true
    (Interval_map.cardinal (Interval_map.remove 100 m) = 1)

let im_first_gap () =
  let m = Interval_map.add ~lo:10 ~hi:20 () Interval_map.empty in
  let m = Interval_map.add ~lo:30 ~hi:40 () m in
  check_bool "gap before" true (Interval_map.first_gap ~lo:0 ~hi:100 ~size:10 m = Some 0);
  check_bool "gap between" true (Interval_map.first_gap ~lo:10 ~hi:100 ~size:10 m = Some 20);
  check_bool "gap after" true (Interval_map.first_gap ~lo:10 ~hi:100 ~size:15 m = Some 40);
  check_bool "no gap" true (Interval_map.first_gap ~lo:10 ~hi:41 ~size:15 m = None);
  check_bool "exact fit" true (Interval_map.first_gap ~lo:20 ~hi:30 ~size:10 m = Some 20)

let im_to_list_sorted () =
  let m =
    List.fold_left
      (fun m (lo, hi) -> Interval_map.add ~lo ~hi () m)
      Interval_map.empty
      [ (50, 60); (10, 20); (30, 40) ]
  in
  let los = List.map (fun (lo, _, _) -> lo) (Interval_map.to_list m) in
  Alcotest.(check (list int)) "sorted" [ 10; 30; 50 ] los

(* Property: after adding disjoint intervals, every point inside an
   interval finds it, points outside find nothing. *)
let im_prop_stabbing =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 20) (pair (int_range 0 100) (int_range 1 10)))
  in
  prop "interval_map: stabbing queries agree with a naive model" gen (fun raw ->
      (* Build disjoint intervals by skipping overlaps, as a model. *)
      let add (m, model) (lo, len) =
        let hi = lo + len in
        if Interval_map.overlaps ~lo ~hi m then (m, model)
        else (Interval_map.add ~lo ~hi (lo, hi) m, (lo, hi) :: model)
      in
      let m, model = List.fold_left add (Interval_map.empty, []) raw in
      List.for_all
        (fun p ->
          let expect = List.find_opt (fun (lo, hi) -> p >= lo && p < hi) model in
          match (Interval_map.find p m, expect) with
          | Some (lo, hi, _), Some (lo', hi') -> lo = lo' && hi = hi'
          | None, None -> true
          | Some _, None | None, Some _ -> false)
        (List.init 120 Fun.id))

(* ----- codec ----- *)

let codec_scalars () =
  let b = Bytes.make 8 '\000' in
  Codec.set_u32 b 0 0xDEADBEEF;
  check_int "u32 roundtrip" 0xDEADBEEF (Codec.get_u32 b 0);
  Codec.set_u16 b 4 0xBEEF;
  check_int "u16 roundtrip" 0xBEEF (Codec.get_u16 b 4);
  check_int "little endian" 0xEF (Codec.get_u8 b 0);
  check_int "sext16 positive" 5 (Codec.sext16 5);
  check_int "sext16 negative" (-1) (Codec.sext16 0xFFFF);
  check_int "sext32 negative" (-1) (Codec.sext32 0xFFFF_FFFF);
  check_int "sext32 min" (-0x8000_0000) (Codec.sext32 0x8000_0000);
  check_int "mask32" 0 (Codec.mask32 0x1_0000_0000)

let codec_writer_reader () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 42;
  Codec.Writer.u16 w 1000;
  Codec.Writer.u32 w 123456789;
  Codec.Writer.str w "hello";
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  check_int "u8" 42 (Codec.Reader.u8 r);
  check_int "u16" 1000 (Codec.Reader.u16 r);
  check_int "u32" 123456789 (Codec.Reader.u32 r);
  check_string "str" "hello" (Codec.Reader.str r);
  check_bool "eof" true (Codec.Reader.eof r)

let codec_truncation () =
  let r = Codec.Reader.create (Bytes.make 2 'x') in
  ignore (Codec.Reader.u16 r);
  Alcotest.check_raises "truncated" (Failure "Codec.Reader: truncated input") (fun () ->
      ignore (Codec.Reader.u8 r))

let codec_prop_roundtrip =
  prop "codec: u32 write/read roundtrip at any offset"
    QCheck2.Gen.(pair (int_range 0 12) (int_bound 0xFFFFFFFF))
    (fun (off, v) ->
      let b = Bytes.make 16 '\000' in
      Codec.set_u32 b off v;
      Codec.get_u32 b off = v)

let codec_prop_sext =
  prop "codec: sext16 agrees with arithmetic" QCheck2.Gen.(int_range (-0x8000) 0x7FFF)
    (fun v -> Codec.sext16 (v land 0xFFFF) = v)

(* ----- prng ----- *)

let prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 50 do
    check_int "same stream" (Prng.next a) (Prng.next b)
  done

let prng_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 100 do
    let v = Prng.range rng 5 9 in
    check_bool "range bounds" true (v >= 5 && v < 9)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let prng_shuffle_permutes () =
  let rng = Prng.create ~seed:99 in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* ----- stats ----- *)

let stats_measure () =
  Stats.reset ();
  let (), delta =
    Stats.measure (fun () ->
        Stats.global.syscalls <- Stats.global.syscalls + 3;
        Stats.global.bytes_copied <- Stats.global.bytes_copied + 100)
  in
  check_int "syscalls delta" 3 delta.Stats.syscalls;
  check_int "bytes delta" 100 delta.Stats.bytes_copied;
  check_int "untouched" 0 delta.Stats.faults

let stats_cycles_model () =
  Stats.reset ();
  let s = Stats.snapshot () in
  check_int "zero cost" 0 (Stats.cycles s);
  Stats.global.faults <- 2;
  let s = Stats.snapshot () in
  check_bool "faults cost more than instructions" true (Stats.cycles s > 2)

(* Every counter set to a distinct value (the literal names them all,
   so a new counter must be added here): [to_json] shows each under its
   own name exactly once, with that value. *)
let stats_to_json_names_each_counter () =
  let s =
    {
      Stats.instructions = 1; syscalls = 2; bytes_copied = 3; faults = 4; pages_mapped = 5;
      modules_linked = 6; relocs_applied = 7; symbols_resolved = 8; files_opened = 9;
      messages_sent = 10; context_switches = 11; tlb_hits = 12; tlb_misses = 13;
      decode_hits = 14; sym_hash_hits = 15; sym_hash_misses = 16; plan_hits = 17;
      plan_misses = 18; search_cache_hits = 19; stable_persists = 20; stable_loads = 21;
      stable_rejects = 22; faults_injected = 23; journal_replays = 24;
      journal_rollbacks = 25; link_rollbacks = 26; plan_fallbacks = 27; ipc_retries = 28;
      net_delivered = 29; net_dropped = 30; net_duplicated = 31; net_retransmits = 32;
      cow_faults = 33; pages_copied = 34; bytes_saved = 35; jit_compiles = 36;
      jit_hits = 37; jit_exits = 38; jit_invalidations = 39; major_faults = 40;
      minor_faults = 41; pages_evicted = 42; pages_written_back = 43; resident_pages = 44;
    }
  in
  let j = Stats.to_json s in
  let pairs =
    String.sub j 2 (String.length j - 4)
    |> String.split_on_char ','
    |> List.map (fun kv ->
           match String.split_on_char ':' kv with
           | [ k; v ] -> (String.trim k, int_of_string (String.trim v))
           | _ -> Alcotest.failf "not a key/value pair: %s" kv)
  in
  let keys = List.map fst pairs in
  check_int "no name twice" (List.length keys) (List.length (List.sort_uniq compare keys));
  check_bool "every counter once" true
    (List.sort compare (List.map snd pairs) = List.init 44 succ);
  List.iter
    (fun (k, v) -> check_int k v (List.assoc (Printf.sprintf "%S" k) pairs))
    [
      ("instructions", 1); ("faults", 4); ("plan_hits", 17); ("stable_persists", 20);
      ("stable_loads", 21); ("stable_rejects", 22); ("resident_pages", 44);
    ]

let suite =
  [
    test "interval_map: basic add/find" im_basic;
    test "interval_map: overlap detection" im_overlap;
    test "interval_map: remove and update" im_remove_update;
    test "interval_map: first_gap" im_first_gap;
    test "interval_map: to_list sorted" im_to_list_sorted;
    im_prop_stabbing;
    test "codec: scalar accessors" codec_scalars;
    test "codec: writer/reader" codec_writer_reader;
    test "codec: truncation detected" codec_truncation;
    codec_prop_roundtrip;
    codec_prop_sext;
    test "prng: deterministic" prng_deterministic;
    test "prng: bounds respected" prng_bounds;
    test "prng: shuffle permutes" prng_shuffle_permutes;
    test "stats: measure deltas" stats_measure;
    test "stats: cycle model" stats_cycles_model;
    test "stats: to_json names each counter" stats_to_json_names_each_counter;
  ]
