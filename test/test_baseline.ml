open Harness
module Serializer = Hemlock_baseline.Serializer
module Channels = Hemlock_baseline.Channels
module Plt = Hemlock_baseline.Plt
module Stats = Hemlock_util.Stats

(* ----- serializer ----- *)

let ser_ascii_roundtrip () =
  let v =
    Serializer.List
      [
        Serializer.Int 42;
        Serializer.Str "he \"quoted\"\\ and\nnewline";
        Serializer.List [ Serializer.Int (-7); Serializer.List [] ];
      ]
  in
  check_bool "roundtrip" true (Serializer.equal v (Serializer.of_ascii (Serializer.to_ascii v)))

let ser_ascii_format () =
  check_string "shape" "(1 \"x\" (2 3))"
    (Serializer.to_ascii
       (Serializer.List
          [
            Serializer.Int 1;
            Serializer.Str "x";
            Serializer.List [ Serializer.Int 2; Serializer.Int 3 ];
          ]))

let ser_parse_errors () =
  let expect s =
    match Serializer.of_ascii s with
    | _ -> Alcotest.fail ("expected parse error: " ^ s)
    | exception Serializer.Parse_error _ -> ()
  in
  expect "(1 2";
  expect "\"unterminated";
  expect "1 trailing";
  expect "";
  expect ")"

let ser_binary_roundtrip () =
  let v = Serializer.List [ Serializer.Int (-1); Serializer.Str ""; Serializer.List [ Serializer.Int 0 ] ] in
  check_bool "binary roundtrip" true
    (Serializer.equal v (Serializer.of_binary (Serializer.to_binary v)))

let gen_value =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Serializer.Int i) (int_range (-1000000) 1000000);
              map (fun s -> Serializer.Str s) (string_size ~gen:printable (int_bound 12)) ]
        else
          frequency
            [
              (2, map (fun i -> Serializer.Int i) (int_range (-1000) 1000));
              (2, map (fun s -> Serializer.Str s) (string_size ~gen:printable (int_bound 12)));
              (1, map (fun l -> Serializer.List l) (list_size (int_bound 4) (self (n / 2))));
            ]))

let prop_ser_ascii =
  prop "serializer: ascii roundtrip" ~count:150 gen_value (fun v ->
      Serializer.equal v (Serializer.of_ascii (Serializer.to_ascii v)))

let prop_ser_binary =
  prop "serializer: binary roundtrip" ~count:150 gen_value (fun v ->
      Serializer.equal v (Serializer.of_binary (Serializer.to_binary v)))

(* ----- channels (E10 mechanics) ----- *)

let channels_all_complete () =
  List.iter
    (fun kind ->
      let d = Channels.run_exchange ~kind ~payload:256 ~rounds:3 in
      check_bool
        (Channels.kind_to_string kind ^ " did work")
        true (Hemlock_util.Stats.cycles d > 0))
    Channels.all_kinds

let channels_copy_ordering () =
  let shm = Channels.run_exchange ~kind:Channels.Shared_memory ~payload:4096 ~rounds:4 in
  let msg = Channels.run_exchange ~kind:Channels.Message_passing ~payload:4096 ~rounds:4 in
  let file = Channels.run_exchange ~kind:Channels.File_based ~payload:4096 ~rounds:4 in
  (* The headline claim: shared memory avoids copying; messages copy
     twice; files copy twice plus open overheads. *)
  check_int "shm copies nothing" 0 shm.Stats.bytes_copied;
  check_bool "messages copy the payload" true (msg.Stats.bytes_copied >= 2 * 4 * 4096);
  check_bool "files copy the payload" true (file.Stats.bytes_copied >= 2 * 4 * 4096);
  check_bool "files open files" true (file.Stats.files_opened > 0);
  check_bool "shm cheapest in cycles" true
    (Stats.cycles shm < Stats.cycles msg && Stats.cycles shm < Stats.cycles file);
  let pd = Channels.run_exchange ~kind:Channels.Domain_call ~payload:4096 ~rounds:4 in
  check_int "pd-call copies nothing" 0 pd.Stats.bytes_copied;
  check_int "pd-call sends no messages" 0 pd.Stats.messages_sent;
  check_bool "pd-call cheaper than messages" true (Stats.cycles pd < Stats.cycles msg)

(* ----- PLT loader ----- *)

let plt_setup () =
  let k, _ = boot () in
  let plt = Plt.install k in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/libs";
  (k, plt)

let plt_load_and_call () =
  let k, plt = plt_setup () in
  install_c k "/home/libs/a.o" "extern int g(); int f() { return g() + 1; }";
  install_c k "/home/libs/b.o" "int gd = 40; int g() { return gd; }";
  install_s k "/home/libs/boot.o"
    ("        .text\n        .globl _pltstart\n_pltstart:\n        jal f\n        move $a0, $v0\n"
    ^ "        li $v0, 7\n        syscall\n        li $a0, 0\n        li $v0, 1\n        syscall\n")
  ;
  let proc = Kernel.spawn_blank k () in
  Plt.load plt proc ~located:[ "/home/libs/boot.o"; "/home/libs/a.o"; "/home/libs/b.o" ];
  check_int "no stubs bound yet" 0 (Plt.bound plt proc);
  check_bool "stubs created for f and g" true (Plt.stubs plt proc >= 2);
  Kernel.console_clear k;
  Kernel.set_isa_entry k proc ~entry:(Option.get (Plt.dlsym plt proc "_pltstart"));
  Kernel.run k;
  check_string "call chain worked" "41" (Kernel.console k);
  check_int "two stubs bound on first calls" 2 (Plt.bound plt proc)

(* A program that calls one library function ten times, run to exit. *)
let plt_run_caller () =
  let k, plt = plt_setup () in
  install_c k "/home/libs/lib.o" "int v = 5; int get() { return v; }";
  install_c k "/home/libs/drv.o"
    {|
extern int get();
int main() {
  int i;
  int acc;
  acc = 0;
  i = 0;
  while (i < 10) { acc = acc + get(); i = i + 1; }
  return acc;
}|};
  install_s k "/home/libs/boot.o"
    ("        .text\n        .globl _pltstart\n_pltstart:\n        jal main\n        move $a0, $v0\n"
    ^ "        li $v0, 1\n        syscall\n");
  let proc = Kernel.spawn_blank k () in
  Plt.load plt proc ~located:[ "/home/libs/boot.o"; "/home/libs/drv.o"; "/home/libs/lib.o" ];
  Kernel.set_isa_entry k proc ~entry:(Option.get (Plt.dlsym plt proc "_pltstart"));
  Kernel.run k;
  (k, plt, proc)

let plt_bind_once () =
  let _, plt, proc = plt_run_caller () in
  check_int "50 returned" 50 (exit_code proc);
  (* ten calls, one binding *)
  check_int "bound exactly once per function" 2 (Plt.bound plt proc)

let plt_state_dies_at_reap () =
  let k, plt, proc = plt_run_caller () in
  check_int "a zombie's state stays inspectable" 2 (Plt.bound plt proc);
  reap_all k;
  match Plt.bound plt proc with
  | _ -> Alcotest.fail "expected the reaped process's state to be gone"
  | exception Plt.Link_error _ -> ()

let plt_missing_library () =
  let k, plt = plt_setup () in
  let proc = Kernel.spawn_blank k () in
  match Plt.load plt proc ~located:[ "/home/libs/ghost.o" ] with
  | _ -> Alcotest.fail "expected load failure"
  | exception Plt.Link_error msg -> check_bool "explains" true (contains msg "missing at load time")

let plt_data_must_resolve () =
  let k, plt = plt_setup () in
  install_c k "/home/libs/needy.o" "extern int missing_datum; int f() { return missing_datum; }";
  let proc = Kernel.spawn_blank k () in
  match Plt.load plt proc ~located:[ "/home/libs/needy.o" ] with
  | _ -> Alcotest.fail "expected data resolution failure"
  | exception Plt.Link_error msg ->
    check_bool "names the symbol" true (contains msg "missing_datum")

let plt_rejects_gp () =
  let k, plt = plt_setup () in
  write_obj k "/home/libs/gp.o" (Cc.to_object ~use_gp:true ~name:"gp.o" "int g; int f() { return g; }");
  let proc = Kernel.spawn_blank k () in
  match Plt.load plt proc ~located:[ "/home/libs/gp.o" ] with
  | _ -> Alcotest.fail "expected gp rejection"
  | exception Plt.Link_error msg -> check_bool "gp" true (contains msg "$gp")

let suite =
  [
    test "serializer: ascii roundtrip" ser_ascii_roundtrip;
    test "serializer: ascii shape" ser_ascii_format;
    test "serializer: parse errors" ser_parse_errors;
    test "serializer: binary roundtrip" ser_binary_roundtrip;
    prop_ser_ascii;
    prop_ser_binary;
    test "channels: all styles complete" channels_all_complete;
    test "channels: copy/cycle ordering (claims 3-4)" channels_copy_ordering;
    test "plt: load, stub, bind, call" plt_load_and_call;
    test "plt: binds each function once" plt_bind_once;
    test "plt: a reaped process's loader state dies with it" plt_state_dies_at_reap;
    test "plt: libraries must exist at load time" plt_missing_library;
    test "plt: data references resolved eagerly" plt_data_must_resolve;
    test "plt: rejects gp modules" plt_rejects_gp;
  ]
