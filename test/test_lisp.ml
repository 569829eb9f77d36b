(* Hem-Lisp: the second front end, and the cross-language sharing it
   exists to demonstrate (§3 "the lowest common denominator ... the
   object file"; §6 "Language Heterogeneity"). *)

open Harness
module Lisp = Hemlock_lisp.Lisp

let install_lisp k path src = write_obj k path (Lisp.to_object ~name:(Filename.basename path) src)

let run_lisp_program src =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_lisp k "/home/t/main.o" src;
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "prog");
  run_program k "/home/t/prog"

let lisp_arithmetic () =
  let _, out =
    run_lisp_program
      {|
(defun (main)
  (print-int (+ 1 2 3 (* 4 5)))
  (print-str " ")
  (print-int (- 10 1 2))
  (print-str " ")
  (print-int (/ -9 2))
  0)
|}
  in
  check_string "n-ary ops" "26 7 -4" out

let lisp_control_flow () =
  let _, out =
    run_lisp_program
      {|
(defvar total 0)
(defun (main)
  (let1 i 0)
  (while (< i 6)
    (if (= (% i 2) 0)
        (set! total (+ total i)))
    (set! i (+ i 1)))
  (print-int total)
  0)
|}
  in
  check_string "while/if/set!" "6" out

let lisp_functions_and_recursion () =
  let _, out =
    run_lisp_program
      {|
(defun (fib n)
  (if (< n 2)
      n
      (+ (fib (- n 1)) (fib (- n 2)))))
(defun (main)
  (print-int (fib 10))
  0)
|}
  in
  check_string "recursive fib via return-position if" "55" out

let lisp_errors () =
  let expect src =
    match Lisp.to_object ~name:"t.o" src with
    | _ -> Alcotest.fail ("expected error: " ^ src)
    | exception Lisp.Error _ -> ()
  in
  expect "(defun (f) (g (if 1 2 3)))" (* expression-position if *);
  expect "(defun (f))" (* empty body *);
  expect "(defvar x y)" (* non-constant initialiser *);
  expect "(defun (f) (unclosed";
  expect "(1 2 3)" (* unknown top-level form *)

(* The point of the exercise: a Lisp module and a C module, one shared
   counter, one process each — the linkers cannot tell them apart. *)
let cross_language_sharing () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  (* the shared abstraction is written in C... *)
  install_c k "/shared/lib/counter.o"
    "int counter; int bump() { counter = counter + 1; return counter; }";
  (* ...one client is written in C, the other in Lisp *)
  Fs.mkdir fs "/home/cprog";
  install_c k "/home/cprog/main.o"
    {|extern int bump(); int main() { print_str("C sees "); print_int(bump()); print_str("\n"); return 0; }|};
  Fs.mkdir fs "/home/lprog";
  install_lisp k "/home/lprog/main.o"
    {|
(extern-fun bump)
(extern-var counter)
(defun (main)
  (print-str "Lisp sees ")
  (print-int (bump))
  (print-str " and reads counter=")
  (print-int counter)
  (print-str "\n")
  0)
|};
  List.iter
    (fun dir ->
      ignore
        (link k ~dir
           ~specs:
             [ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Dynamic_public) ]
           "prog"))
    [ "/home/cprog"; "/home/lprog" ];
  Kernel.console_clear k;
  ignore (Kernel.spawn_exec k "/home/cprog/prog");
  Kernel.run k;
  ignore (Kernel.spawn_exec k "/home/lprog/prog");
  Kernel.run k;
  ignore (Kernel.spawn_exec k "/home/cprog/prog");
  Kernel.run k;
  check_string "one counter, two languages"
    "C sees 1\nLisp sees 2 and reads counter=2\nC sees 3\n" (Kernel.console k)

(* And the other direction: the shared module itself is written in Lisp,
   consumed from C. *)
let lisp_module_consumed_from_c () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_lisp k "/shared/lib/acc.o"
    {|
(defvar acc 100)
(defun (accumulate n)
  (set! acc (+ acc n))
  acc)
|};
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o"
    "extern int accumulate(int n); extern int acc;\n\
     int main() { accumulate(7); print_int(acc); return 0; }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/acc.o", Sharing.Dynamic_public) ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "C reads Lisp-defined shared state" "107" out

let dash_mangling () =
  (* lisp names with dashes meet their underscore spellings: the
     builtins print-int/print-str are really print_int/print_str, and a
     dashed user function is callable from C under the mangled name *)
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/t";
  install_lisp k "/home/t/lib.o" "(defun (answer-value) 42)";
  install_c k "/home/t/main.o"
    "extern int answer_value(); int main() { print_int(answer_value()); return 0; }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); ("lib.o", Sharing.Dynamic_private) ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "dashed Lisp name, underscore C name" "42" out

let suite =
  [
    test "lisp: arithmetic and n-ary operators" lisp_arithmetic;
    test "lisp: control flow" lisp_control_flow;
    test "lisp: recursion with value-position if" lisp_functions_and_recursion;
    test "lisp: front-end errors" lisp_errors;
    test "lisp: C and Lisp share one public counter" cross_language_sharing;
    test "lisp: C consumes a Lisp-defined module" lisp_module_consumed_from_c;
    test "lisp: dashed names link against C spellings" dash_mangling;
  ]
