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
    case "negative spin faults" (fun () -> eval_fault (spin (int (-1))));
    case "fuel counts every step, the last one included" (fun () ->
        (* [int 1] is two steps: evaluate the constant, return it *)
        let st = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        (match Interp.run st ~fuel:0 with
        | Interp.Running st' -> check_int "no step" 0 (Interp.steps_executed st')
        | _ -> Alcotest.fail "fuel 0 must not step");
        (match Interp.run st ~fuel:1 with
        | Interp.Running st' -> (
          check_int "one step" 1 (Interp.steps_executed st');
          match Interp.step st' with
          | Interp.Finished (Ast.Vint 1) -> ()
          | _ -> Alcotest.fail "second step must finish")
        | _ -> Alcotest.fail "one step cannot finish");
        match Interp.run (Interp.start (prog ~name:"/t" (v "ghost")) ~argv:[]) ~fuel:1 with
        | Interp.Fault _ -> ()
        | _ -> Alcotest.fail "the faulting step must fault");
    case "an awaiting machine refuses to run, even after a handler" (fun () ->
        let program = prog ~name:"/t" ~funcs:[ func "h" [ "s" ] unit ] (sys "read" []) in
        let awaiting =
          match Interp.run (Interp.start program ~argv:[]) ~fuel:100 with
          | Interp.Syscall (_, _, st) -> st
          | _ -> Alcotest.fail "expected suspension"
        in
        let refuses st =
          Alcotest.check_raises "awaiting"
            (Invalid_argument "Interp.step: machine is awaiting a syscall result")
            (fun () -> ignore (Interp.run st ~fuel:1000))
        in
        refuses awaiting;
        refuses (Interp.interrupt awaiting ~func:"h" ~args:[ Ast.Vint 10 ])) ]

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
        Util.check_bool "100 dead bindings retained" true (image 100 - image 0 >= 100 * entry));
    (* Deviation pin: Marshal writes a shared block once, so an image's
       length, which fork is charged from, counts physical sharing in
       the program. Cross-module inlining shares more constants in the
       release profile than in dev, which moves virtual results
       (EXPERIMENTS.md). A size that ignores sharing is a model change. *)
    case "image size counts physical sharing" (fun () ->
        let text () = String.concat " " [ "one"; "constant"; "string" ] in
        let image a b = Interp.state_size (Interp.start (prog ~name:"/t" (seq [ a; b ])) ~argv:[]) in
        let node = Ast.Const (Ast.Vstr (text ())) in
        let copy () = Ast.Const (Ast.Vstr (text ())) in
        Util.check_bool "equal programs" true (seq [ node; node ] = seq [ copy (); copy () ]);
        Util.check_bool "one shared node encodes shorter" true
          (image node node < image (copy ()) (copy ()))) ]

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

(* {1 The store against [Map.Make (Int)]} *)

module Int_map = Map.Make (Int)

(* A store history as the interpreter makes one: fresh locations in
   increasing order, replacements of live ones, re-adds of the
   physically same value (which must return the map itself), and
   aliases that make two locations share one value. *)
type store_op = Fresh of int | Replace of int * int | Same of int | Alias of int * int

let store_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun n -> Fresh n) small_nat);
        (2, map2 (fun k n -> Replace (k, n)) small_nat small_nat);
        (1, map (fun k -> Same k) small_nat);
        (1, map2 (fun k j -> Alias (k, j)) small_nat small_nat) ])

let store_prop =
  QCheck.Test.make ~name:"store marshals and finds like Map.Make (Int)" ~count:300
    QCheck.(make Gen.(list_size (0 -- 400) store_op_gen))
    (fun ops ->
      let v0 = Ast.Vstr "argv" in
      let apply (m, s, next) op =
        let live k = k mod next in
        match op with
        | Fresh n ->
          let d = Ast.Vint n in
          (Int_map.add next d m, Store.add next d s, next + 1)
        | Replace (k, n) ->
          let d = Ast.Vstr (string_of_int n) in
          (Int_map.add (live k) d m, Store.add (live k) d s, next)
        | Same k ->
          let k = live k in
          let s' = Store.add k (Store.find k s) s in
          if s' != s then QCheck.Test.fail_report "re-adding the same value copied the store";
          (Int_map.add k (Int_map.find k m) m, s', next)
        | Alias (k, j) ->
          let d = Int_map.find (live j) m in
          (Int_map.add (live k) d m, Store.add (live k) d s, next)
      in
      let m, s, next =
        List.fold_left apply (Int_map.singleton 0 v0, Store.singleton 0 v0, 1) ops
      in
      Marshal.to_string m [] = Marshal.to_string s []
      && List.for_all (fun k -> Int_map.find k m == Store.find k s) (List.init next Fun.id)
      && match Store.find next s with _ -> false | exception Not_found -> true)

let store_tests =
  [ case "a 20 000-location store marshals like Map.Make (Int)" (fun () ->
        (* a long-running worker's store: a deep tree that every fresh
           location rebalances, with replacements deep inside it *)
        let m = ref (Int_map.singleton 0 Ast.Vunit) and s = ref (Store.singleton 0 Ast.Vunit) in
        for k = 1 to 20_000 do
          let d = Ast.Vint k in
          m := Int_map.add k d !m;
          s := Store.add k d !s;
          if k mod 7 = 0 then begin
            let d = Ast.Vint (-k) in
            m := Int_map.add (k / 2) d !m;
            s := Store.add (k / 2) d !s
          end
        done;
        Util.check_bool "same bytes" true (Marshal.to_string !m [] = Marshal.to_string !s []);
        Util.check_bool "same answers" true (Int_map.find 777 !m == Store.find 777 !s)) ]

(* {1 Golden machine images}

   Five programs are driven with a fixed reply script per syscall name
   (the last reply repeats; a call with no script gets [Vint 0]), and
   optionally a signal handler injected after each reply to one
   syscall. Each stop gives a row: its status (a syscall's arguments
   as a short digest), [steps_executed], [state_size] and the MD5 of
   [to_bytes]. The rows were recorded from the step-at-a-time
   interpreter over [Map.Make (Int)], built in the default (dev)
   profile: an image counts physical sharing, which the build profile
   moves (EXPERIMENTS.md). Every fuel must reproduce them exactly. *)

let hex8 s = String.sub (Digest.to_hex (Digest.string s)) 0 8

let golden_row st status =
  Printf.sprintf "%s %d %d %s" status (Interp.steps_executed st) (Interp.state_size st)
    (Digest.to_hex (Digest.string (Interp.to_bytes st)))

let drive ~stops ?deliver ~fuel ~replies program argv =
  let replies = Hashtbl.of_seq (List.to_seq replies) in
  let reply name =
    match Hashtbl.find_opt replies name with
    | Some [ r ] -> r
    | Some (r :: rest) ->
      Hashtbl.replace replies name rest;
      r
    | Some [] | None -> Ast.Vint 0
  in
  let rec go st n acc =
    if n = 0 then List.rev acc
    else
      match Interp.run st ~fuel with
      | Interp.Running st -> go st n acc
      | Interp.Compute (k, st) ->
        go st (n - 1) (golden_row st (Printf.sprintf "compute:%d" k) :: acc)
      | Interp.Syscall (name, args, st) ->
        let row = golden_row st (name ^ ":" ^ hex8 (Ast.value_to_string (Ast.Vlist args))) in
        let st = Interp.resume st (reply name) in
        let st =
          match deliver with
          | Some (after, handler) when after = name ->
            Interp.interrupt st ~func:handler ~args:[ Ast.Vint 10 ]
          | _ -> st
        in
        go st (n - 1) (row :: acc)
      | Interp.Finished v -> List.rev (("finished " ^ Ast.value_to_string v) :: acc)
      | Interp.Fault m -> List.rev (("fault " ^ m) :: acc)
  in
  go (Interp.start program ~argv) stops []

type golden = {
  g_prog : Ast.program;
  g_argv : string list;
  g_replies : (string * Ast.value list) list;
  g_deliver : (string * string) option;
  g_rows : string list;
}

let sh_script =
  "# build\n\
   cd /src\n\
   cc -o /tmp/a.o a.c > /tmp/cc.log\n\
   cat < /etc/motd | grep -v x >> /tmp/out\n\
   ls /tmp &\n\
   wait\n\
   echo done\n"

(* Every integer fast path and both short-circuit constants, with the
   results kept live in the store so their sharing shows in the image. *)
let binops =
  prog ~name:"/t/binops"
    (let_ "acc" (list_ [])
       (for_ "i" (int 0) (int 1000)
          (seq
             [ set "acc"
                 (cons
                    (list_
                       [ v "i" +% int 1; v "i" -% int 1; v "i" <% int 5; v "i" <=% int 5;
                         v "i" >% int 5; v "i" >=% int 5; v "i" =% int 5; v "i" <>% int 5;
                         (v "i" >% int 5) &&% (v "i" <% int 3);
                         (v "i" <% int 5) ||% (v "i" >% int 3) ])
                    (v "acc"));
               sys "tick" [ v "i" ] ])))

let goldens =
  Ast.
    [ { g_prog = Graphene_apps.Web.eweb;
        g_argv = [ "8080"; "2" ];
        g_replies =
          [ ("listen_tcp", [ Vint 3 ]); ("semget", [ Vint 1 ]); ("mmap", [ Vint 65536 ]);
            ("fork", [ Vint 0 ]); ("epoll_create", [ Vint 4 ]);
            ("epoll_wait", [ Vlist [ Vint 3; Vint 9 ] ]); ("accept_try", [ Vint 9 ]);
            ("read", [ Vstr "GET /index.html HTTP/1.0\r\n\r\n" ]); ("open", [ Vint 5 ]);
            ("write", [ Vint 100 ]) ];
        g_deliver = None;
        g_rows =
          [ "listen_tcp:afdfdeff 22 1172 336bdd211a8c381036f52bb4786e8a63";
            "semget:f44c54a3 33 1207 6a96e8ae9548a1d7adfd7660ab22b353";
            "mmap:7f1aa6db 41 1251 26c19217bb4cb8810e89033170598153";
            "poke:0006f601 66 1327 d6226fcef3d7d745cd8da498d77f8179";
            "poke:eec28982 95 1330 6fe07263796d0ac698192854378ff8c8";
            "poke:b20939bf 124 1330 8f59196d2e6db72245e473e533fb4b2f";
            "poke:5ce6a14a 153 1331 310b1156456edd40106bbb635a9471db";
            "poke:252960f5 182 1331 257227f51b4c6a47166311e0d5eb5ece";
            "poke:64d10d24 211 1331 f925415e3b7c15982792adf9b119ba72";
            "poke:c2fff4e3 240 1331 af195f2d61fe6744dc647ad8a8d776a8";
            "poke:6c976716 269 1331 b5c16ff0734740b88615cd230e66182f";
            "poke:f3dadb4a 298 1331 359a10cfa309e50d8e08f87650f826cd";
            "poke:1a7f4d63 327 1331 325273e411da38e7cccb13bebba7b5bf";
            "poke:862e1c62 356 1331 1c27c06958017e19bd06048e9aef8b46";
            "poke:360c90fa 385 1331 f132eeb4ecfdd7e6601ea44a2b54c54e";
            "print:54cd162a 406 1269 59c2c98168333ed59bcdf07a951c1ec4";
            "fork:d7517139 420 1316 185ac15319aa230c854b87c6309ec2fe";
            "mmap:3443bec0 434 1352 5dc949bc91779c559258f236fec931b3";
            "poke:0006f601 459 1420 d59bfb751602ca1ca9c3866b60835b62";
            "poke:eec28982 488 1424 200de98e297dc5c803621c0fda888c6a";
            "poke:b20939bf 517 1424 88a83aad0688d7b528ae68a174b5aa7b";
            "poke:5ce6a14a 546 1424 eed271ab6da4667a18edcd6bcf729313";
            "poke:252960f5 575 1424 5604e67ce3f51dcc1fd3444ce36735a6";
            "poke:64d10d24 604 1424 8adab270d42dcf6b9deef9667411fee6";
            "poke:c2fff4e3 633 1424 262af2031f16bdf5a577c19b238da2c7";
            "poke:6c976716 662 1424 9e0d93cd5403c21c6b6ffd75e48b9fba";
            "poke:f3dadb4a 691 1424 10760a05c37d84b9fc9886dfe3ff44b6";
            "poke:1a7f4d63 720 1424 29fccab61969d61b172301bf49740a14";
            "poke:862e1c62 749 1424 94d7e9db68342329c379d29486d7bb89";
            "poke:360c90fa 778 1424 4ba7c082338eab749c89eac85aa84401";
            "poke:a3220c4d 807 1424 006ea3d65e8368031d9e40c11aae9641";
            "poke:dc372dd6 836 1424 9539ba2bf4cce94fb6fd3dd8a8dc56ce";
            "poke:8ec18493 865 1424 5caacc4a05ad4d62c5af20e6b385f746";
            "poke:7af75c0c 894 1424 7d286d256cf8ec2dc6e13f3973637f5c";
            "poke:8fa9cda3 923 1424 b43e79e6f594467c631ecece9c6c9754";
            "poke:c4a263d8 952 1424 e687001df3dc76183009f7b787b03f92";
            "epoll_create:d7517139 972 1359 4ce1ba19a944662eb14722461703bd19";
            "epoll_ctl:d607251e 981 1399 22a2fed504c8e55f59c88533589362ea";
            "epoll_wait:e962e23c 989 1409 e0d7f2b7323157dadb182b9ad5c1d011";
            "semop_try:34a003e5 1020 1550 1cfd32028ef0e1b517f6df801af912f9";
            "accept_try:f2577a6f 1028 1543 9ec121c7006b7a7ea24f2125a5f76d4a";
            "semop:e3a7ef38 1035 1590 a98c4a918625233d27ded5f8dbd02a5a";
            "epoll_ctl:8469cb9e 1050 1585 78b00426f60025350ab8f1e62c110765";
            "epoll_ctl:c7f48f38 1086 1556 6b05285b833a5b8a3f2f4f394f335cab";
            "read:67fe5830 1096 1561 0314e7cfc058ab19eb97115e1d2adda6";
            "access:fd9e79cc 1132 1702 b04dcb9725ff679a292b386d7251c657";
            "access:fd9e79cc 1151 1702 dbb6cb53e73bd90bff2bcc07e3c009a0";
            "access:fd9e79cc 1170 1702 56134dd9062dac417abfa5f787661bce";
            "access:fd9e79cc 1189 1702 c8d43fb414a05d446a6656f40546ef0e";
            "access:fd9e79cc 1208 1702 2ca47b54597a65608a1b3a8a565cb4d9";
            "access:fd9e79cc 1227 1702 6cf5c4471c496cd4272c020ef9304115";
            "access:fd9e79cc 1246 1702 fc809efbd82aca9c1a244ffec98f9025";
            "access:fd9e79cc 1265 1702 f7356243552e55f6fe9b380bc367b2df";
            "open:4355ba31 1292 1667 9844c3c1214cd113670c643724aa427e";
            "read:41a56098 1306 1706 12175b405bb4cf6ff0711f0c6962c407";
            "close:7b98d256 1313 1751 b2d9a7b5da9c98f49f763ddeae6a150d";
            "compute:52000 1317 1748 0d11e4b49ecccae5ae8e1ab21951c771";
            "write:5cd0a123 1327 1743 ebd6e546f0f629afa5e65e0eba8e891f";
            "close:afbef60b 1331 1736 b7e3ae5a11957b279ca6321e27cc6f8e";
            "epoll_wait:e962e23c 1359 1522 0d0f89bef0dc81b02e243b48b32a8ed7";
            "semop_try:34a003e5 1390 1661 78910e592264c59df82908b5acac0cd4";
            "accept_try:f2577a6f 1398 1656 f80e1ad0f339700041ea988039bdf672";
            "semop:e3a7ef38 1405 1702 19fb97fbad48c1701938672a0353348e";
            "epoll_ctl:8469cb9e 1420 1698 96462a0c36abc9d7af734af956961704";
            "epoll_ctl:c7f48f38 1456 1667 c20726aa10bbf985f287321c3d6b82c7";
            "read:67fe5830 1466 1666 6fb966f51c9ebeb2c45335889470d503";
            "access:fd9e79cc 1502 1779 293cd6be1cf0de1040a17d007a67d408";
            "access:fd9e79cc 1521 1779 92b60c5af067756556648af37d92d869";
            "access:fd9e79cc 1540 1779 5e169f30bb5424ba7f5538493381b16d";
            "access:fd9e79cc 1559 1779 c1cfe864205a5dda3036daa3d40b45c3";
            "access:fd9e79cc 1578 1779 aaf3938cc726dcfd0d0ef8a65da5cdf6";
            "access:fd9e79cc 1597 1779 0b36906dad12074bda22d5e7e9c12fa7";
            "access:fd9e79cc 1616 1779 6d2c27b12939ff352e24ed0e8d3ebebe";
            "access:fd9e79cc 1635 1779 20b295a08585ab69df5f3e141a4c61ec";
            "open:4355ba31 1662 1744 f592b822661aaf277903751b22ad3e6e";
            "read:41a56098 1676 1783 ba528235986cf21c00a2698e5c079537";
            "close:7b98d256 1683 1828 0aa14fa2d1b697dbbb6459367288b10e";
            "compute:52000 1687 1825 363c219501657f4d1143c477bed5be6b";
            "write:5cd0a123 1697 1820 838e4a447ec844f7194dcc3b0080e4fe";
            "close:afbef60b 1701 1813 42e1d9854629b89c0eaaa15a514ad775" ] };
      { g_prog = Graphene_apps.Shell.sh;
        g_argv = [ "/tmp/build.sh" ];
        g_replies =
          [ ("open", [ Vint 3 ]); ("read", [ Vstr sh_script; Vstr "" ]);
            ("pipe", [ Vpair (Vint 6, Vint 7) ]) ];
        g_deliver = None;
        g_rows =
          [ "open:f7695ea4 25 1757 dcae94478e6849119a1a28b9b3d2d08d";
            "read:8d00fc28 37 1818 9d096de4d86c8a669021a37e99d881e1";
            "read:8d00fc28 62 2078 f6641da45dd1addfe51707db46abc18b";
            "close:f2577a6f 81 1928 f0766e626ae81720f026802472c4929d";
            "chdir:acafe845 319 2375 98c835218356b1bcb4fab29b02f86b0d";
            "fork:d7517139 734 2987 0cec303baa6d047bcadfe53d4a8ec5b5";
            "open:066c292a 842 3215 865e2823c768d0de64398e1327b79da5";
            "dup2:494c29f9 849 3251 7c0d0ab4e04049e0dff26d6812fae153";
            "close:f2577a6f 853 3250 a2cafca25aa490576514f383679ce979";
            "execve:fcd85deb 1212 3648 60655015f418be6dd0a19c6eb76a25bb";
            "exit:244a0d03 1216 3643 3527750eafcc314ce0e4e3925b107307";
            "pipe:d7517139 1674 4242 2efd23e31b844ccb2ce9883b3276b7bf";
            "fork:d7517139 1677 4292 c4facc7da214eb19ede2a36d6f18a991";
            "dup2:09ea9ab1 1696 4340 dab7e3f26a7e1f281447001a9626cbaf";
            "close:9b264f7a 1702 4336 bb0630ad69950eaf0c03981b0e904ef6";
            "close:907e5414 1708 4325 fc0689ee371a284c5f0244bc3158efd3";
            "execve:de73823e 1733 4326 d389d8cfc8e068e1a0cc103ba4b7e0a7";
            "exit:244a0d03 1737 4322 c36243b79fee959d8d883b05e42b562d";
            "fork:d7517139 2042 4763 1f9cb732d64c67d97bf5b2001c5869e7";
            "execve:5859e46e 2226 5017 466244490af059d0c267e5cdc9aa8e99";
            "exit:244a0d03 2230 5013 6ffe5a1e790d85891b9b970858c87f0a";
            "fork:d7517139 2507 5282 874d85c0ae62994ae5758352aa011216";
            "execve:e544664b 2691 5536 dd6d05634a889d1f55f494cfe8f70a7b";
            "exit:244a0d03 2695 5532 19a5d973c3336aeb6f35fd24f30a22c3";
            "exit:8d5162ca 2816 5332 c4ff989fc3e7893aa6a8cd3c58189fea";
            "finished 0" ] };
      { g_prog = Graphene_apps.Binaries.sigstorm;
        g_argv = [];
        g_replies = [ ("fork", [ Vint 0 ]) ];
        g_deliver = Some ("kill", "handler");
        g_rows =
          [ "fork:d7517139 2 410 ef6c632e59b1cde069502e6b23e1175a";
            "sigaction:3649ce8d 19 441 79e63f9cc796c6491b83928dce9ad5d4";
            "nanosleep:85fb6ab5 35 473 3fbed046c33f5fc10342e89dc9cc59a5";
            "kill:17a8603b 41 469 a53945f174fc3456aad1f68ed28dbe33";
            "print:d140abfc 47 502 ecabd4d7e5e297d40289019cc3d1237d";
            "nanosleep:85fb6ab5 69 480 8154439de67a18ccac24c255ef964bec";
            "kill:17a8603b 75 476 dbd7e45cc41b48a29e329addec2f2ef5";
            "print:d140abfc 81 509 2b93635cbb2e7f96ccd1ebc45f3fb2a3";
            "nanosleep:85fb6ab5 103 486 b6735d231e9b49915ac6294384e31b28";
            "kill:17a8603b 109 482 d01b8366b9d2370fc5955fa81d2670a5";
            "print:d140abfc 115 515 d7a63307d308886b2f23879f00462ea7";
            "nanosleep:85fb6ab5 137 493 667fa4fc1d776d61caa269d84fc9f447";
            "kill:17a8603b 143 489 de69102eeb5b0a7d88fb6681e7eeb181";
            "print:d140abfc 149 522 2057e4ebfb336d9771a0e954a558877f";
            "nanosleep:85fb6ab5 171 499 fb52b838e052bbfdfd5ce8339b85c310";
            "kill:17a8603b 177 495 91233a0b4f04ab4d0d11487ee46a57e9";
            "print:d140abfc 183 528 721eaf11ce6f1a183eefda16dad69943";
            "nanosleep:85fb6ab5 205 505 ab033118c91376730f445f04d610fbc0";
            "kill:17a8603b 211 501 51d2cbee7a03e0e1946f69d8b7ed3636";
            "print:d140abfc 217 534 4a8ade2877198cc6bcdebe57ef229cbe";
            "nanosleep:85fb6ab5 239 511 b82652e3f1cd487155645c85659cf51f";
            "kill:17a8603b 245 507 581df12520740bb1cca15b9a7e22b58d";
            "print:d140abfc 251 540 e1682289e58edb616ce59b14ac548446";
            "nanosleep:85fb6ab5 273 517 71033fe99499117d73ea686d8b6381c3";
            "kill:17a8603b 279 513 d1e1eaf2d417437dcb8f6810bb83b994";
            "print:d140abfc 285 546 b17f1982f55d65d15b5f8d4098de5ae4";
            "nanosleep:00e88ec6 307 489 957ccdf358fa23862ea1cfb1032cfaa3";
            "print:5ad98fca 311 485 48f77057e9cd9c113aa6973045e28916";
            "exit:8d5162ca 315 481 b0f16e57ff64bdc1c7c312ce4f1f1f1f";
            "finished 0" ] };
      { g_prog = Graphene_apps.Lmbench.lat_fork_exit;
        g_argv = [ "100" ];
        g_replies = [ ("fork", [ Vint 2 ]); ("gettimeofday", [ Vint 1000 ]) ];
        g_deliver = None;
        g_rows =
          [ "gettimeofday:d7517139 20 423 eb893d175f1927566961fb766d8681a3";
            "print:66ed80ae 26 400 5d21610a0825be78780c368895236f26";
            "gettimeofday:d7517139 1746 424 664a9a3b37d4c1bbd95823b613464434";
            "print:1c95e5f9 1752 401 52ad23d2b4b93793e151313098303f75";
            "gettimeofday:d7517139 1760 420 3917bfee0116a5e5dbdc411a56090912";
            "print:c09e00f2 1766 397 4c1deec2312ad0df03e1fc6122c87c9a";
            "fork:d7517139 1780 436 1e076ee284c86c48c143030ced453a64";
            "waitpid:beb4dbf9 1791 458 1844227bf0692169fc9527f8e0df694c";
            "fork:d7517139 1810 442 654efd2c23f055e16f9886aae473ad7e";
            "waitpid:beb4dbf9 1821 464 1d9c9a9b2c20b90a6607ab4412961a90";
            "fork:d7517139 1840 448 55e0fc1d519162163b6fa8af75447fb7";
            "waitpid:beb4dbf9 1851 470 3d2e5faa3668a1b5170b5c1b0c48c741";
            "fork:d7517139 1870 454 62fcb50e469a0b22ba1b4d6328f2a726";
            "waitpid:beb4dbf9 1881 476 a634de16ed90f19f59202f7f0fc06144";
            "fork:d7517139 1900 460 c2c7ac2c69a37eb45882845824217d64";
            "waitpid:beb4dbf9 1911 482 0f8ea6b2bc2f4cb88192a87780a03a42";
            "fork:d7517139 1930 466 82142b89c2a4d1cf0b27ace7c3c6c2d7";
            "waitpid:beb4dbf9 1941 488 490d369210dff0d0dc44a49c74d4877e";
            "fork:d7517139 1960 472 dc216fa7bc12614ed5d4fed81c92143a";
            "waitpid:beb4dbf9 1971 494 d02fc46725ed43f1f45aa1d27acbf166";
            "fork:d7517139 1990 478 1acd0b260d24cd785c8c5c8ffb6fe243";
            "waitpid:beb4dbf9 2001 500 7a34f085c8f4eb9a347a23f15a961150";
            "fork:d7517139 2020 484 e63ddb3e109caa075caf3a1e72b76a0e";
            "waitpid:beb4dbf9 2031 506 de83177b5a07938360b149e306207dc2";
            "fork:d7517139 2050 490 2018d12691478c88e4bea4c2ba7e5fb4";
            "waitpid:beb4dbf9 2061 512 11a58bd0ef4a2cd4e971736d851d10e2";
            "fork:d7517139 2080 496 a2ecb04ed6ccd8a13752e2bd85517627";
            "waitpid:beb4dbf9 2091 518 9ebdc337f16d709dba59f675c2649346";
            "fork:d7517139 2110 502 e8d6fd786d534666c92240f80909bf0a";
            "waitpid:beb4dbf9 2121 524 3a0d6ea556955caceeb17d5c945d4ccd";
            "fork:d7517139 2140 508 aadb3053325f05541c4693929601b77a";
            "waitpid:beb4dbf9 2151 530 157f55e4fef38b8fcf53d1f4b2ec7377";
            "fork:d7517139 2170 514 cdffc3644911ed21de44ef55c3ade220";
            "waitpid:beb4dbf9 2181 536 c9fcd9ebeb61600b6a2121cc645d7d37";
            "fork:d7517139 2200 520 fdd7bbed03707f125f319e9687110be3";
            "waitpid:beb4dbf9 2211 542 a4f842155edbb1061a3ae07df99503b1";
            "fork:d7517139 2230 526 ca59836bed3398cedf9425fc314b03e3";
            "waitpid:beb4dbf9 2241 548 2260b8ea9b458c2ffd8dd7ba19d5dff9";
            "fork:d7517139 2260 532 55ba76dfffa26989d00ab45a326eb951";
            "waitpid:beb4dbf9 2271 554 6d978d54a9aee7c0f42561caed5fdb75";
            "fork:d7517139 2290 538 403545d11654e2867bee999ab6ea5c31";
            "waitpid:beb4dbf9 2301 560 bd376f77f7d1d95f3bf19bbc144830db";
            "fork:d7517139 2320 544 eb40e906c0a7147408e3b5aa0d33cf53";
            "waitpid:beb4dbf9 2331 566 77a58229f04e1f3047688393804a08db";
            "fork:d7517139 2350 550 537e6a7fedec06c0872a005a147f3e01";
            "waitpid:beb4dbf9 2361 572 24e0859d848a26013c6c2b1b6d5895ef";
            "fork:d7517139 2380 556 37d12a94b4ec4fa9acd052187d9ead40";
            "waitpid:beb4dbf9 2391 578 59c52a0b9d6856d9c9086bee0de47c07";
            "fork:d7517139 2410 562 ac269d098db1a817450ab4329e307d33";
            "waitpid:beb4dbf9 2421 584 32b74591f31f5acbee311324aa833b4b" ] };
      { g_prog = binops;
        g_argv = [];
        g_replies = [];
        g_deliver = None;
        g_rows =
          [ "tick:8d5162ca 113 360 908da029715a69644a7a9f9cff4e37b3";
            "tick:35dba5d7 225 394 cc59fa10c7b7875036fab44d54487bc7";
            "tick:beb4dbf9 337 427 4ffa8cca38f481f63a48439a23195253";
            "tick:f2577a6f 449 460 6f8882c62ef51a78b8a239eb31eafe1f";
            "tick:e962e23c 561 493 e11e81def2d3c2df54e4fb3972c6178e";
            "tick:7b98d256 678 526 cc8ac8619d416b74412f4de0239f3879";
            "tick:907e5414 800 560 bc5dd95cfeb2e50da3cdee8642e22ff5";
            "tick:9b264f7a 922 602 9023c5516912a0da9a6e630e29d68b7b";
            "tick:3835304d 1044 639 09085b93e448eae521fe583d2852d795";
            "tick:afbef60b 1166 676 6222062f2ebf425bf096a5ce30dd9de4";
            "tick:2a30f5f3 1288 715 2bb8ccc32ec860b14d86518254fbd2d9";
            "tick:08125771 1410 751 03792b4c35a3929a594c8979fd22b6b2";
            "tick:d0d0c96e 1532 784 06569f66a3d98f70f476190092fc6943";
            "tick:15f019b4 1654 817 504c47ca1b3f9b71d1cf439ec0ef9a38";
            "tick:3e81ce73 1776 850 b5ab991cfe576d2a0df7ae7bf8dbaae6";
            "tick:be425099 1898 883 5718bbe781f8b5a76a6a8d1b687657b3";
            "tick:862b1a80 2020 916 e7a09c7c947175ee4cd8f86b9624f7dd";
            "tick:50925650 2142 949 d73bc411e14440d742f4de55f29e8402";
            "tick:2b31d81b 2264 982 79823cef17d3d0005a44fd1f2e61b003";
            "tick:1a8444f4 2386 1015 7f1156c692e45f2f39039d2707e314fe";
            "tick:baa9a061 2508 1048 387ab0805ea42a7c52af9f322c7dfcc7";
            "tick:46c79c0c 2630 1081 f1ece0107d57241aa76dabe2c9a4f487";
            "tick:60ac310c 2752 1114 5b44510b9c662152c790dcac7ce17902";
            "tick:b37e1275 2874 1147 d5c64bf086ece7e0fc5e4c5e27e8a433";
            "tick:99aa1d83 2996 1180 6f92a4e0925c7ca197080cff2f5dc2b9";
            "tick:1858f681 3118 1213 1c7e26de4741d55235c56c8bd3c285c9";
            "tick:bd3b31fe 3240 1246 25907a2c48543c77ed464b71e3a4b7a4";
            "tick:58fada4e 3362 1279 419fba09d053b3bf4cdae38556b6b540";
            "tick:f39cd082 3484 1312 35ca77cf5579120cdde9f722057899ab";
            "tick:2d7a5fe4 3606 1345 c74d397693f6d066116a1f9507f6ea2f";
            "tick:0b4e4af1 3728 1378 da95b900ed61e1a627a6170162816223";
            "tick:c379e350 3850 1411 58da8d6a4a8bcf22544a27e7d7c86e83";
            "tick:191034da 3972 1444 cbf86a9965f43332c281220a1744750e";
            "tick:1dc72169 4094 1477 0cd1463134b702b14574001f58845d97";
            "tick:1306383f 4216 1510 4ec4f42223538cb2fa2dce24155b43f1";
            "tick:a976ef90 4338 1543 dfb8d206678ad15ec0d2773f76cd9d46";
            "tick:befed3ac 4460 1576 02702eb684f6b85b5d7e782882a2d490";
            "tick:a21c9f7c 4582 1609 8b8a1101e9526736d80786066c643546";
            "tick:c8c763dd 4704 1642 efae9632a4421c87f92ebf5d68b3215c";
            "tick:4dcc2596 4826 1675 0a74b12ce9ea321ab63353320fe65eb6";
            "tick:d0cc5b1a 4948 1708 12f06fcc8f4465c2fdcc8dda1eccd408";
            "tick:45abaffa 5070 1741 db14de501c6c8e84ba34084525def1fb";
            "tick:b358e7d6 5192 1774 ee46564629e15d2820c47000a3b8aef9";
            "tick:d85b47f8 5314 1807 6ea199c4bb72bec18abe91c59c13a019";
            "tick:56c0aa04 5436 1840 ed1532943f3b905ee097fbd5b8fe815d";
            "tick:8e29f2a9 5558 1873 7abc7fc057fe22b98d02c52cbb25f297";
            "tick:4b02d420 5680 1906 3d317be1435746f131f3019c353568e0";
            "tick:d7fa8e2d 5802 1939 4d24dba38d26511d34dfd7596c4bb51d";
            "tick:04c55adb 5924 1972 ab985413126b063e1a419d2f49eeda4c";
            "tick:e052b7f5 6046 2005 7bb37611efab209dc615b5a41bec3696" ] } ]

let golden_tests =
  List.map
    (fun g ->
      case ("golden images: " ^ g.g_prog.Ast.name) (fun () ->
          List.iter
            (fun fuel ->
              Alcotest.(check (list string))
                (Printf.sprintf "fuel %d" fuel)
                g.g_rows
                (drive ~stops:(List.length g.g_rows) ?deliver:g.g_deliver ~fuel
                   ~replies:g.g_replies g.g_prog g.g_argv))
            [ 1; 3; 4000 ]))
    goldens

let suite =
  arith_tests @ control_tests @ func_tests @ syscall_tests @ fork_semantics_tests
  @ serialize_tests @ interrupt_tests @ call_stack_tests @ edge_tests @ store_tests
  @ golden_tests
  @ List.map QCheck_alcotest.to_alcotest [ arith_prop; roundtrip_prop; store_prop ]
