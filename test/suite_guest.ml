(** Tests for the guest language and its CEK machine: evaluation
    semantics, syscall suspension, fork-style state copying,
    serialization, and signal-style interruption. *)

open Graphene_guest
open Builder

let case = Util.case
let check_int = Util.check_int

(* Evaluate a closed expression with no syscalls; returns the value. *)
let eval ?(funcs = []) ?(argv = []) ?(fuel = 1_000_000) e =
  let st = Interp.start (prog ~name:"/t" ~funcs e) ~argv in
  match Interp.run st ~fuel with
  | Interp.Finished v -> v
  | Interp.Fault m -> Alcotest.failf "fault: %s" m
  | Interp.Syscall (n, _, _) -> Alcotest.failf "unexpected syscall %s" n
  | Interp.Running _ -> Alcotest.fail "out of fuel"
  | Interp.Compute _ -> Alcotest.fail "unexpected compute"

let eval_int ?funcs ?argv e = Ast.as_int (eval ?funcs ?argv e)
let eval_str ?funcs ?argv e = Ast.as_str (eval ?funcs ?argv e)

let eval_fault ?(funcs = []) e =
  let st = Interp.start (prog ~name:"/t" ~funcs e) ~argv:[] in
  match Interp.run st ~fuel:100_000 with
  | Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a guest fault"

let arith_tests =
  [ case "integer arithmetic" (fun () ->
        check_int "add" 7 (eval_int (int 3 +% int 4));
        check_int "sub" (-1) (eval_int (int 3 -% int 4));
        check_int "mul" 12 (eval_int (int 3 *% int 4));
        check_int "div" 3 (eval_int (int 13 /% int 4));
        check_int "mod" 1 (eval_int (int 13 %% int 4)));
    case "division by zero faults" (fun () ->
        eval_fault (int 1 /% int 0);
        eval_fault (int 1 %% int 0));
    case "comparisons" (fun () ->
        Util.check_bool "lt" true (Ast.as_bool (eval (int 1 <% int 2)));
        Util.check_bool "ge" false (Ast.as_bool (eval (int 1 >=% int 2)));
        Util.check_bool "eq strings" true (Ast.as_bool (eval (str "a" =% str "a")));
        Util.check_bool "ne" true (Ast.as_bool (eval (int 1 <>% int 2))));
    case "string operations" (fun () ->
        Util.check_str "concat" "ab" (eval_str (str "a" ^% str "b"));
        check_int "len" 5 (eval_int (len (str "hello")));
        Util.check_str "repeat" "xxx" (eval_str (repeat (str "x") (int 3)));
        Util.check_bool "starts_with" true
          (Ast.as_bool (eval (starts_with (str "/bin/ls") (str "/bin"))));
        Util.check_str "str_of_int" "42" (eval_str (str_of_int (int 42)));
        check_int "int_of_str" (-7) (eval_int (int_of_str (str " -7 "))));
    case "malformed number faults" (fun () -> eval_fault (int_of_str (str "zap")));
    case "split" (fun () ->
        match eval (split (str "a b  c") (str " ")) with
        | Ast.Vlist [ Ast.Vstr "a"; Ast.Vstr "b"; Ast.Vstr ""; Ast.Vstr "c" ] -> ()
        | v -> Alcotest.failf "got %s" (Ast.value_to_string v));
    case "nth bounds fault" (fun () -> eval_fault (nth (list_ [ int 1 ]) (int 3))) ]

let control_tests =
  [ case "let binds lexically" (fun () ->
        check_int "shadowing" 3
          (eval_int (let_ "x" (int 1) (let_ "x" (int 2) (v "x" +% int 1)))));
    case "set mutates the nearest binding" (fun () ->
        check_int "seq" 10
          (eval_int (let_ "x" (int 1) (seq [ set "x" (int 10); v "x" ]))));
    case "unbound variable faults" (fun () -> eval_fault (v "ghost"));
    case "if takes the right branch" (fun () ->
        check_int "then" 1 (eval_int (if_ (bool true) (int 1) (int 2)));
        check_int "else" 2 (eval_int (if_ (bool false) (int 1) (int 2))));
    case "while accumulates" (fun () ->
        check_int "sum 1..10" 55
          (eval_int
             (let_ "s" (int 0)
                (let_ "i" (int 1)
                   (seq
                      [ while_
                          (v "i" <=% int 10)
                          (seq [ set "s" (v "s" +% v "i"); set "i" (v "i" +% int 1) ]);
                        v "s" ])))));
    case "for_ is inclusive" (fun () ->
        check_int "3+4+5" 12
          (eval_int
             (let_ "s" (int 0)
                (seq [ for_ "i" (int 3) (int 5) (set "s" (v "s" +% v "i")); v "s" ]))));
    case "short-circuit and" (fun () ->
        (* the right side would fault if evaluated *)
        Util.check_bool "false" false
          (Ast.as_bool (eval (bool false &&% (int 1 /% int 0 =% int 0)))));
    case "short-circuit or" (fun () ->
        Util.check_bool "true" true
          (Ast.as_bool (eval (bool true ||% (int 1 /% int 0 =% int 0)))));
    case "foreach visits every element" (fun () ->
        check_int "sum" 6
          (eval_int
             (let_ "s" (int 0)
                (seq
                   [ foreach "x" (list_ [ int 1; int 2; int 3 ]) (set "s" (v "s" +% v "x"));
                     v "s" ]))));
    case "match_list destructures" (fun () ->
        check_int "cons" 1
          (eval_int
             (match_list (list_ [ int 1; int 2 ]) ~nil:(int 0) ~cons:("h", "t", v "h")));
        check_int "nil" 0 (eval_int (match_list (list_ []) ~nil:(int 0) ~cons:("h", "t", v "h")))) ]

let func_tests =
  [ case "function call with arguments" (fun () ->
        check_int "add3" 6
          (eval_int
             ~funcs:[ func "add3" [ "a"; "b"; "c" ] (v "a" +% v "b" +% v "c") ]
             (call "add3" [ int 1; int 2; int 3 ])));
    case "recursion" (fun () ->
        let fact =
          func "fact" [ "n" ]
            (if_ (v "n" <=% int 1) (int 1) (v "n" *% call "fact" [ v "n" -% int 1 ]))
        in
        check_int "5!" 120 (eval_int ~funcs:[ fact ] (call "fact" [ int 5 ])));
    case "functions do not see caller locals" (fun () ->
        eval_fault
          ~funcs:[ func "peek" [] (v "secret") ]
          (let_ "secret" (int 42) (call "peek" [])));
    case "wrong arity faults" (fun () ->
        eval_fault ~funcs:[ func "f" [ "a" ] (v "a") ] (call "f" [ int 1; int 2 ]));
    case "undefined function faults" (fun () -> eval_fault (call "nope" []));
    case "argv is bound" (fun () ->
        Util.check_str "argv0" "alpha"
          (eval_str ~argv:[ "alpha"; "beta" ] (Ast.as_str (Ast.Vstr "") |> fun _ -> head (v "argv")))) ]

let syscall_tests =
  [ case "syscall suspends with evaluated args" (fun () ->
        let st = Interp.start (prog ~name:"/t" (sys "write" [ int 1 +% int 1; str "hi" ])) ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("write", [ Ast.Vint 2; Ast.Vstr "hi" ], _) -> ()
        | _ -> Alcotest.fail "expected suspension");
    case "resume provides the result" (fun () ->
        let st = Interp.start (prog ~name:"/t" (sys "getpid" [] +% int 1)) ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') -> (
          match Interp.run (Interp.resume st' (Ast.Vint 41)) ~fuel:1000 with
          | Interp.Finished (Ast.Vint 42) -> ()
          | _ -> Alcotest.fail "wrong result")
        | _ -> Alcotest.fail "expected suspension"));
    case "resume on a running machine is rejected" (fun () ->
        let st = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        Alcotest.check_raises "invalid"
          (Invalid_argument "Interp.resume: machine is not awaiting a syscall result")
          (fun () -> ignore (Interp.resume st (Ast.Vint 0))));
    case "spin reports compute units" (fun () ->
        let st = Interp.start (prog ~name:"/t" (spin (int 5000))) ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Compute (5000, _) -> ()
        | _ -> Alcotest.fail "expected compute");
    case "negative spin faults" (fun () -> eval_fault (spin (int (-1)))) ]

(* The property that makes fork work: a suspended machine resumed twice
   with different values yields two independent executions. *)
let fork_semantics_tests =
  [ case "one machine, two futures" (fun () ->
        let program =
          prog ~name:"/t" (let_ "r" (sys "fork" []) (v "r" *% int 100))
        in
        let st = Interp.start program ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("fork", [], st') ->
          let parent = Interp.resume st' (Ast.Vint 7) in
          let child = Interp.resume st' (Ast.Vint 0) in
          (match (Interp.run parent ~fuel:1000, Interp.run child ~fuel:1000) with
          | Interp.Finished (Ast.Vint 700), Interp.Finished (Ast.Vint 0) -> ()
          | _ -> Alcotest.fail "executions not independent")
        | _ -> Alcotest.fail "expected fork suspension");
    case "mutations do not leak between copies" (fun () ->
        let program =
          prog ~name:"/t"
            (let_ "x" (int 1)
               (let_ "r" (sys "fork" []) (seq [ set "x" (v "x" +% v "r"); v "x" ])))
        in
        let st = Interp.start program ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("fork", [], st') ->
          let a = Interp.resume st' (Ast.Vint 10) in
          let b = Interp.resume st' (Ast.Vint 20) in
          (match (Interp.run a ~fuel:1000, Interp.run b ~fuel:1000) with
          | Interp.Finished (Ast.Vint 11), Interp.Finished (Ast.Vint 21) -> ()
          | _ -> Alcotest.fail "store leaked")
        | _ -> Alcotest.fail "expected fork suspension") ]

(* [of_bytes] hands back the state behind the last image [to_bytes]
   produced; encoding another machine first makes it really unmarshal. *)
let decode_uncached image =
  ignore (Interp.to_bytes (Interp.start (prog ~name:"/other" (int 0)) ~argv:[]));
  Interp.of_bytes image

(* Run a machine to its first syscall and return the suspended state. *)
let to_syscall program =
  match Interp.run (Interp.start program ~argv:[]) ~fuel:100_000 with
  | Interp.Syscall (_, _, st) -> st
  | _ -> Alcotest.fail "expected suspension"

let finish st =
  match Interp.run (Interp.resume st Ast.Vunit) ~fuel:100_000 with
  | Interp.Finished v -> v
  | _ -> Alcotest.fail "machine did not finish"

let index_of s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in the image" sub
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let serialize_tests =
  [ case "to_bytes/of_bytes round trip mid-execution" (fun () ->
        let program =
          prog ~name:"/t" (let_ "a" (int 5) (let_ "b" (sys "getpid" []) (v "a" +% v "b")))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          let st'' = decode_uncached (Interp.to_bytes st') in
          (match Interp.run (Interp.resume st'' (Ast.Vint 37)) ~fuel:1000 with
          | Interp.Finished (Ast.Vint 42) -> ()
          | _ -> Alcotest.fail "round trip lost state")
        | _ -> Alcotest.fail "expected suspension"));
    case "of_bytes rejects garbage" (fun () ->
        Alcotest.check_raises "corrupt" (Failure "Interp.of_bytes: corrupt machine image")
          (fun () -> ignore (Interp.of_bytes "not a machine")));
    case "state_size is positive and grows with the store" (fun () ->
        let small = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        let big =
          Interp.start (prog ~name:"/t" (let_ "x" (str (String.make 10_000 'x')) (int 1))) ~argv:[]
        in
        (* run big until the string is in the store *)
        let big =
          match Interp.run big ~fuel:10 with Interp.Running st -> st | _ -> big
        in
        Util.check_bool "grows" true (Interp.state_size big > Interp.state_size small));
    case "of_bytes returns the just-encoded state" (fun () ->
        let st = to_syscall (prog ~name:"/t" (let_ "a" (int 5) (sys "probe" []))) in
        let image = Interp.to_bytes st in
        ignore (Interp.state_size (Interp.start (prog ~name:"/t" (int 1)) ~argv:[]));
        Util.check_bool "same state" true (Interp.of_bytes image == st);
        (* the child sees a copy that crossed a stream, not the same string *)
        let shipped = Bytes.to_string (Bytes.of_string image) in
        Util.check_bool "equal copy hits" true (Interp.of_bytes shipped == st));
    case "an older image is really unmarshalled" (fun () ->
        let a = to_syscall (prog ~name:"/a" (let_ "a" (int 5) (seq [ sys "probe" []; v "a" ]))) in
        let b = to_syscall (prog ~name:"/b" (seq [ sys "probe" []; int 9 ])) in
        let image_a = Interp.to_bytes a in
        ignore (Interp.to_bytes b);
        let a' = Interp.of_bytes image_a in
        Util.check_bool "fresh state" false (a' == a);
        Util.check_str "same program" "/a" (Interp.program_name a');
        Util.check_bool "same answer" true (Ast.equal_value (finish a) (finish a')));
    case "a tampered image misses the cache" (fun () ->
        let st =
          to_syscall (prog ~name:"/t" (let_ "s" (str "MARKER-a") (seq [ sys "probe" []; v "s" ])))
        in
        let image = Interp.to_bytes st in
        let tampered = Bytes.of_string image in
        Bytes.set tampered (index_of image "MARKER-a" + 7) 'b';
        let st' = Interp.of_bytes (Bytes.to_string tampered) in
        Util.check_bool "not the cached state" false (st' == st);
        Util.check_str "decoded the tampered bytes" "MARKER-b" (Ast.as_str (finish st')));
    (* Deviation pin: the store never frees a binding, so every [let]
       a loop runs stays in the image (a long-running shell's fork image
       grows with every line). Fixing this is a model change. *)
    case "dead bindings stay in the machine image" (fun () ->
        let image n =
          Interp.state_size
            (to_syscall
               (prog ~name:"/t"
                  (seq [ for_ "i" (int 1) (int n) (let_ "x" (v "i") unit); sys "probe" [] ])))
        in
        let entry = image 2 - image 1 in
        Util.check_bool "an entry costs bytes" true (entry > 0);
        Util.check_bool "100 dead bindings retained" true (image 100 - image 0 >= 100 * entry)) ]

let interrupt_tests =
  [ case "interrupt runs the handler then continues" (fun () ->
        let program =
          prog ~name:"/t"
            ~funcs:[ func "h" [ "sig" ] unit ]
            (let_ "x" (sys "getpid" []) (v "x" +% int 1))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          let resumed = Interp.resume st' (Ast.Vint 10) in
          let interrupted = Interp.interrupt resumed ~func:"h" ~args:[ Ast.Vint 10 ] in
          (match Interp.run interrupted ~fuel:1000 with
          | Interp.Finished (Ast.Vint 11) -> ()
          | _ -> Alcotest.fail "handler broke the continuation")
        | _ -> Alcotest.fail "expected suspension"));
    case "interrupt with unknown handler faults" (fun () ->
        let st = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        Alcotest.check_raises "no handler" (Ast.Guest_fault "interrupt: no such handler nope")
          (fun () -> ignore (Interp.interrupt st ~func:"nope" ~args:[])));
    case "exec replaces the image" (fun () ->
        let st = Interp.start (prog ~name:"/old" (int 1)) ~argv:[] in
        let st' = Interp.exec st (prog ~name:"/new" (int 9)) ~argv:[ "z" ] in
        Util.check_str "name" "/new" (Interp.program_name st');
        match Interp.run st' ~fuel:100 with
        | Interp.Finished (Ast.Vint 9) -> ()
        | _ -> Alcotest.fail "new image did not run") ]

let stacks = Alcotest.(check (list string))

let call_stack_tests =
  [ case "a fresh machine's stack is main" (fun () ->
        let st = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        stacks "initial" [ "main" ] (Interp.call_stack st));
    case "calls push and returns pop" (fun () ->
        (* suspend inside g (called from f, called from main), then
           resume and check the frames unwound *)
        let program =
          prog ~name:"/t"
            ~funcs:
              [ func "f" [ "x" ] (call "g" [ v "x" ]);
                func "g" [ "x" ] (sys "getpid" [] +% v "x") ]
            (call "f" [ int 1 ])
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          stacks "at syscall" [ "main"; "f"; "g" ] (Interp.call_stack st');
          (match Interp.run (Interp.resume st' (Ast.Vint 41)) ~fuel:1000 with
          | Interp.Finished (Ast.Vint 42) -> ()
          | _ -> Alcotest.fail "bad result")
        | _ -> Alcotest.fail "expected suspension"));
    case "interrupt handlers appear on the stack and unwind" (fun () ->
        (* the handler frame is pushed when the injected Call
           dispatches, so observe the stack from inside the handler (at
           its syscall), then check the continuation still unwinds *)
        let program =
          prog ~name:"/t"
            ~funcs:[ func "h" [ "sig" ] (sys "print" [ str "x" ]) ]
            (let_ "x" (sys "getpid" []) (v "x" +% int 1))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          let interrupted =
            Interp.interrupt (Interp.resume st' (Ast.Vint 10)) ~func:"h" ~args:[ Ast.Vint 10 ]
          in
          (match Interp.run interrupted ~fuel:1000 with
          | Interp.Syscall ("print", _, st'') ->
            stacks "inside handler" [ "main"; "h" ] (Interp.call_stack st'');
            (match Interp.run (Interp.resume st'' Ast.Vunit) ~fuel:1000 with
            | Interp.Finished (Ast.Vint 11) -> ()
            | _ -> Alcotest.fail "handler broke the continuation")
          | _ -> Alcotest.fail "expected handler syscall")
        | _ -> Alcotest.fail "expected suspension"));
    case "let and match scopes do not disturb the stack" (fun () ->
        let program =
          prog ~name:"/t"
            ~funcs:
              [ func "f" [ "l" ]
                  (match_list (v "l") ~nil:(sys "getpid" [])
                     ~cons:("h", "t", let_ "y" (v "h") (call "f" [ v "t" ]))) ]
            (call "f" [ list_ [ int 1; int 2 ] ])
        in
        let st = Interp.start program ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          (* two recursive calls deep, nested in match/let scopes *)
          stacks "recursion only" [ "main"; "f"; "f"; "f" ] (Interp.call_stack st')
        | _ -> Alcotest.fail "expected suspension") ]

(* Random arithmetic expressions evaluate like OCaml. *)
let arith_prop =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 6) (fun n ->
          fix
            (fun self n ->
              if n = 0 then map (fun i -> `Lit i) (int_range (-100) 100)
              else
                frequency
                  [ (1, map (fun i -> `Lit i) (int_range (-100) 100));
                    (2, map2 (fun a b -> `Add (a, b)) (self (n / 2)) (self (n / 2)));
                    (2, map2 (fun a b -> `Sub (a, b)) (self (n / 2)) (self (n / 2)));
                    (2, map2 (fun a b -> `Mul (a, b)) (self (n / 2)) (self (n / 2))) ])
            n))
  in
  let rec to_expr = function
    | `Lit i -> int i
    | `Add (a, b) -> to_expr a +% to_expr b
    | `Sub (a, b) -> to_expr a -% to_expr b
    | `Mul (a, b) -> to_expr a *% to_expr b
  in
  let rec to_ocaml = function
    | `Lit i -> i
    | `Add (a, b) -> to_ocaml a + to_ocaml b
    | `Sub (a, b) -> to_ocaml a - to_ocaml b
    | `Mul (a, b) -> to_ocaml a * to_ocaml b
  in
  QCheck.Test.make ~name:"guest arithmetic agrees with OCaml" ~count:200
    (QCheck.make gen) (fun t -> eval_int (to_expr t) = to_ocaml t)

(* Serialization round trip at arbitrary points of execution. *)
let roundtrip_prop =
  QCheck.Test.make ~name:"serialize/deserialize preserves the next steps" ~count:50
    QCheck.(int_range 0 60)
    (fun steps ->
      let program =
        prog ~name:"/t"
          (let_ "s" (int 0)
             (seq [ for_ "i" (int 1) (int 10) (set "s" (v "s" +% v "i")); v "s" ]))
      in
      let st = ref (Interp.start program ~argv:[]) in
      let rec advance n =
        if n > 0 then
          match Interp.step !st with
          | Interp.Running st' ->
            st := st';
            advance (n - 1)
          | _ -> ()
      in
      advance steps;
      let copy = decode_uncached (Interp.to_bytes !st) in
      let finish st =
        match Interp.run st ~fuel:100_000 with
        | Interp.Finished v -> Some v
        | _ -> None
      in
      finish !st = finish copy)

let edge_tests =
  [ case "nested interrupts unwind in order" (fun () ->
        (* inject h1, then h2 on top: h2 runs, then h1, then the
           original continuation *)
        let program =
          prog ~name:"/t"
            ~funcs:
              [ func "h1" [ "x" ] unit; func "h2" [ "x" ] unit ]
            (let_ "a" (sys "probe" []) (v "a" +% int 1))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:100 with
        | Interp.Syscall ("probe", [], st') ->
          let st1 = Interp.resume st' (Ast.Vint 10) in
          let st2 = Interp.interrupt st1 ~func:"h1" ~args:[ Ast.Vint 1 ] in
          let st3 = Interp.interrupt st2 ~func:"h2" ~args:[ Ast.Vint 2 ] in
          (match Interp.run st3 ~fuel:1000 with
          | Interp.Finished (Ast.Vint 11) -> ()
          | _ -> Alcotest.fail "nested handlers broke the continuation")
        | _ -> Alcotest.fail "expected suspension"));
    case "deep recursion stays within the store" (fun () ->
        let sum =
          func "sum" [ "n" ]
            (if_ (v "n" =% int 0) (int 0) (v "n" +% call "sum" [ v "n" -% int 1 ]))
        in
        check_int "sum 500" 125250 (eval_int ~funcs:[ sum ] (call "sum" [ int 500 ])));
    case "argv is empty-safe" (fun () ->
        Util.check_bool "empty" true (Ast.as_bool (eval ~argv:[] (is_empty (v "argv")))));
    case "exec resets step counters" (fun () ->
        let st = Interp.start (prog ~name:"/a" (spin (int 5))) ~argv:[] in
        let st = match Interp.run st ~fuel:3 with Interp.Running s -> s | _ -> st in
        let st' = Interp.exec st (prog ~name:"/b" (int 1)) ~argv:[] in
        check_int "reset" 0 (Interp.steps_executed st'));
    case "foreach over an empty list does nothing" (fun () ->
        check_int "untouched" 7
          (eval_int (let_ "x" (int 7) (seq [ foreach "e" (list_ []) (set "x" (int 0)); v "x" ]))));
    case "while guards re-evaluate each iteration" (fun () ->
        check_int "bounded" 3
          (eval_int
             (let_ "n" (int 0)
                (seq [ while_ (v "n" <% int 3) (set "n" (v "n" +% int 1)); v "n" ]))));
    case "repeat matches n-fold concatenation" (fun () ->
        List.iter
          (fun (s, n) ->
            Util.check_str
              (Printf.sprintf "repeat %S %d" s n)
              (String.concat "" (List.init n (fun _ -> s)))
              (eval_str (repeat (str s) (int n))))
          [ ("x", 3); ("ab", 0); ("", 5); ("abc", 1); ("abc", 7); ("w", 65536) ]);
    case "oversized repeat faults the guest" (fun () ->
        let st = Interp.start (prog ~name:"/t" (repeat (str "ab") (int max_int))) ~argv:[] in
        (match Interp.run st ~fuel:100 with
        | Interp.Fault _ -> ()
        | _ -> Alcotest.fail "expected a guest fault");
        Util.check_str "empty string, any count" "" (eval_str (repeat (str "") (int max_int))));
    case "split with multi-char separator" (fun () ->
        match eval (split (str "a--b--c") (str "--")) with
        | Ast.Vlist [ Ast.Vstr "a"; Ast.Vstr "b"; Ast.Vstr "c" ] -> ()
        | v -> Alcotest.failf "got %s" (Ast.value_to_string v)) ]

let suite =
  arith_tests @ control_tests @ func_tests @ syscall_tests @ fork_semantics_tests
  @ serialize_tests @ interrupt_tests @ call_stack_tests @ edge_tests
  @ List.map QCheck_alcotest.to_alcotest [ arith_prop; roundtrip_prop ]
