(** Differential testing: the same randomly generated workloads must
    behave identically (modulo timing digits) on the native-Linux
    personality and on Graphene — the cross-stack equivalence that
    makes the performance comparison meaningful. *)

open Util
module B = Graphene_guest.Builder
module Rng = Graphene_sim.Rng

(* {1 Random shell scripts}

   Commands draw from the installed utility set; every generated
   script is deterministic given its seed. *)

let gen_script rng =
  let lines = Buffer.create 256 in
  let n = Rng.int_in rng 3 10 in
  let jobs = ref 0 in
  for _ = 1 to n do
    (match Rng.int rng 11 with
    | 0 -> Buffer.add_string lines "echo one two three\n"
    | 1 -> Buffer.add_string lines "cp /tmp/f.txt /tmp/g.txt\n"
    | 2 -> Buffer.add_string lines "cat /tmp/f.txt\n"
    | 3 -> Buffer.add_string lines "ls /tmp\n"
    | 4 -> Buffer.add_string lines "cat /tmp/f.txt | wc\n"
    | 5 -> Buffer.add_string lines "echo alpha beta | wc\n"
    | 6 ->
      incr jobs;
      Buffer.add_string lines "busywork &\n"
    | 7 -> Buffer.add_string lines "echo red shift > /tmp/r.txt\n"
    | 8 -> Buffer.add_string lines "echo more >> /tmp/r.txt\n"
    | 9 -> Buffer.add_string lines "wc < /tmp/f.txt\n"
    | _ -> Buffer.add_string lines "rm /tmp/g.txt\n");
    (* occasionally reap outstanding jobs *)
    if !jobs > 0 && Rng.int rng 3 = 0 then begin
      Buffer.add_string lines "wait\n";
      jobs := 0
    end
  done;
  if !jobs > 0 then Buffer.add_string lines "wait\n";
  Buffer.add_string lines "echo end-of-script\n";
  Buffer.contents lines

(* Strip digits: `ls` output and timing-dependent values may differ,
   the shape of the output must not. *)
let normalize out =
  String.to_seq out
  |> Seq.filter (fun c -> not (c >= '0' && c <= '9'))
  |> String.of_seq

let run_script stack script =
  let r =
    run_on ~stack
      ~setup:(fun w ->
        Graphene_apps.Install.script (W.kernel w).K.fs ~path:"/tmp/fuzz.sh" ~contents:script)
      ~exe:"/bin/sh" ~argv:[ "/tmp/fuzz.sh" ] ()
  in
  (W.exited r.p, W.exit_code r.p, normalize (r.out ()))

let shell_prop =
  QCheck.Test.make ~name:"random shell scripts agree across stacks" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let script = gen_script (Rng.create ~seed) in
      let e1, c1, o1 = run_script W.Linux script in
      let e2, c2, o2 = run_script W.Graphene script in
      if not (e1 && e2 && c1 = c2 && o1 = o2) then
        QCheck.Test.fail_reportf
          "script diverged (seed %d):\n%s\nlinux: exit=%b/%d out=%S\ngraphene: exit=%b/%d out=%S"
          seed script e1 c1 o1 e2 c2 o2
      else true)

(* {1 Random file-system operation sequences} *)

type fs_op =
  | Write of string * string
  | Append of string * string
  | Remove of string
  | Move of string * string
  | Vwrite of string * string list  (** writev *)
  | Sendfile of string * string * int
  | Fstat of string
  | Mkrm of string  (** mkdir then rmdir round-trip *)

let gen_fs_ops rng =
  let paths = [| "/tmp/a"; "/tmp/b"; "/tmp/c" |] in
  List.init (Rng.int_in rng 2 10) (fun i ->
      let p = Rng.pick rng paths in
      match Rng.int rng 8 with
      | 0 -> Write (p, Printf.sprintf "w%d" i)
      | 1 -> Append (p, Printf.sprintf "a%d" i)
      | 2 -> Remove p
      | 3 -> Vwrite (p, [ Printf.sprintf "v%d" i; "+"; Printf.sprintf "%d" (Rng.int rng 100) ])
      | 4 -> Sendfile (p, Rng.pick rng paths, Rng.int_in rng 1 8)
      | 5 -> Fstat p
      | 6 -> Mkrm (Printf.sprintf "/tmp/dir%d" (Rng.int rng 3))
      | _ -> Move (p, Rng.pick rng paths))

let fs_prog ops =
  let open B in
  let step = function
    | Write (p, data) ->
      let_ "fd" (sys "open" [ str p; str "w" ])
        (seq [ sys "write" [ v "fd"; str data ]; sys "close" [ v "fd" ] ])
    | Append (p, data) ->
      let_ "fd" (sys "open" [ str p; str "a" ])
        (when_ (v "fd" >=% int 0)
           (seq [ sys "write" [ v "fd"; str data ]; sys "close" [ v "fd" ] ]))
    | Remove p -> seq [ sys "print" [ str_of_int (sys "unlink" [ str p ]) ]; unit ]
    | Move (a, b) -> seq [ sys "print" [ str_of_int (sys "rename" [ str a; str b ]) ]; unit ]
    | Vwrite (p, parts) ->
      let_ "fd" (sys "open" [ str p; str "a" ])
        (when_ (v "fd" >=% int 0)
           (seq
              [ sys "print" [ str_of_int (sys "writev" [ v "fd"; list_ (List.map str parts) ]) ];
                sys "close" [ v "fd" ] ]))
    | Sendfile (src, dst, n) ->
      let_ "in" (sys "open" [ str src; str "r" ])
        (when_ (v "in" >=% int 0)
           (let_ "out"
              (sys "open" [ str dst; str "a" ])
              (seq
                 [ sys "print" [ str_of_int (sys "sendfile" [ v "in"; v "out"; int n ]) ];
                   sys "close" [ v "out" ]; sys "close" [ v "in" ] ])))
    | Fstat p ->
      let_ "fd" (sys "open" [ str p; str "r" ])
        (if_ (v "fd" >=% int 0)
           (seq [ sys "print" [ str_of_int (fst_ (sys "fstat" [ v "fd" ])) ]; sys "close" [ v "fd" ] ])
           (sys "print" [ str "nofstat" ]))
    | Mkrm d ->
      seq
        [ sys "print" [ str_of_int (sys "mkdir" [ str d ]) ];
          sys "print" [ str_of_int (sys "rmdir" [ str d ]) ] ]
  in
  let dump p =
    let_ "fd" (sys "open" [ str p; str "r" ])
      (if_ (v "fd" >=% int 0)
         (seq [ sys "print" [ str (p ^ "="); sys "read" [ v "fd"; int 4096 ]; str ";" ] ])
         (sys "print" [ str (p ^ "=<none>;") ]))
  in
  prog ~name:"/bin/fuzzfs"
    (seq (List.map step ops @ [ dump "/tmp/a"; dump "/tmp/b"; dump "/tmp/c"; sys "exit" [ int 0 ] ]))

let fs_prop =
  QCheck.Test.make ~name:"random fs op sequences agree across stacks" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let ops = gen_fs_ops (Rng.create ~seed) in
      let run stack =
        let r = run_prog ~stack (fs_prog ops) in
        (W.exited r.p, r.out ())
      in
      let e1, o1 = run W.Linux in
      let e2, o2 = run W.Graphene in
      if not (e1 && e2 && o1 = o2) then
        QCheck.Test.fail_reportf "fs ops diverged (seed %d):\nlinux: %S\ngraphene: %S" seed o1 o2
      else true)

(* {1 Random System V programs}

   Three phases of non-blocking SysV operations over two keys: the
   leader runs phase A, a forked child phase B, and the leader phase C
   while the child still lives; two pipes order the phases. The stacks
   number queues and semaphores differently, so ids are compared by
   order of first appearance. Releases ([semop +1]) stay out: an
   asynchronous release can be overtaken (EXPERIMENTS.md, deviation
   (e)). *)

type sysv_op =
  | Msgget of int * bool  (** key, create *)
  | Msgsnd of int
  | Rmid of int
  | Semget of int
  | Semtry of int  (** [semop_try s -1] *)

let gen_sysv_phase rng =
  List.init (Rng.int_in rng 0 6) (fun _ ->
      let k = Rng.int rng 2 in
      match Rng.int rng 6 with
      | 0 -> Msgget (k, false)
      | 1 -> Msgget (k, true)
      | 2 -> Msgsnd k
      | 3 -> Rmid k
      | 4 -> Semget k
      | _ -> Semtry k)

let show_sysv_op = function
  | Msgget (k, c) -> Printf.sprintf "msgget k%d %d" k (Bool.to_int c)
  | Msgsnd k -> Printf.sprintf "msgsnd q%d" k
  | Rmid k -> Printf.sprintf "msgctl_rmid q%d" k
  | Semget k -> Printf.sprintf "semget k%d" k
  | Semtry k -> Printf.sprintf "semop_try s%d -1" k

let sysv_prog (a, b, c) =
  let open B in
  let q k = Printf.sprintf "q%d" k and s k = Printf.sprintf "s%d" k in
  let key k = int (600 + k) in
  let out tag e = sys "print" [ str (tag ^ "=") ^% str_of_int e ^% str ";" ] in
  let step = function
    | Msgget (k, create) ->
      seq
        [ set (q k) (sys "msgget" [ key k; int (Bool.to_int create) ]);
          out "id" (v (q k)) ]
    | Msgsnd k -> out "snd" (sys "msgsnd" [ v (q k); str "m" ])
    | Rmid k -> out "rm" (sys "msgctl_rmid" [ v (q k) ])
    | Semget k -> seq [ set (s k) (sys "semget" [ key k; int 1 ]); out "id" (v (s k)) ]
    | Semtry k -> out "try" (sys "semop_try" [ v (s k); int (-1) ])
  in
  let phase name ops = seq (sys "print" [ str ("|" ^ name ^ "|") ] :: List.map step ops) in
  prog ~name:"/bin/fuzzsysv"
    (List.fold_right
       (fun var body -> let_ var (int (-1)) body)
       [ "q0"; "q1"; "s0"; "s1" ]
       (let_ "p1" (sys "pipe" [])
          (let_ "p2" (sys "pipe" [])
             (seq
                [ phase "A" a;
                  let_ "pid" (sys "fork" [])
                    (if_ (v "pid" =% int 0)
                       (seq
                          [ phase "B" b;
                            sys "write" [ snd_ (v "p1"); str "b" ];
                            sys "read" [ fst_ (v "p2"); int 1 ];
                            sys "exit" [ int 0 ] ])
                       (seq
                          [ sys "read" [ fst_ (v "p1"); int 1 ];
                            phase "C" c;
                            sys "write" [ snd_ (v "p2"); str "c" ];
                            sys "wait" [];
                            sys "exit" [ int 0 ] ])) ]))))

(* Replace each id ([id=N;], N >= 0) by its order of first appearance. *)
let normalize_ids out =
  let seen = Hashtbl.create 4 in
  String.split_on_char ';' out
  |> List.map (fun tok ->
         match String.index_opt tok '=' with
         | Some i when String.sub tok 0 i |> String.ends_with ~suffix:"id" -> (
           match int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1)) with
           | Some n when n >= 0 ->
             let canon =
               match Hashtbl.find_opt seen n with
               | Some c -> c
               | None ->
                 let c = Hashtbl.length seen in
                 Hashtbl.replace seen n c;
                 c
             in
             Printf.sprintf "%s#%d" (String.sub tok 0 (i + 1)) canon
           | _ -> tok)
         | _ -> tok)
  |> String.concat ";"

let sysv_prop =
  QCheck.Test.make ~name:"random SysV programs agree across stacks" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let a = gen_sysv_phase rng in
      let b = gen_sysv_phase rng in
      let c = gen_sysv_phase rng in
      let run stack =
        let r = run_prog ~stack (sysv_prog (a, b, c)) in
        (W.exited r.p, normalize_ids (r.out ()))
      in
      let e1, o1 = run W.Linux in
      let e2, o2 = run W.Graphene in
      if not (e1 && e2 && o1 = o2) then
        let show ops = String.concat "; " (List.map show_sysv_op ops) in
        QCheck.Test.fail_reportf "SysV program diverged (seed %d):\nA: %s\nB: %s\nC: %s\nlinux: %S\ngraphene: %S"
          seed (show a) (show b) (show c) o1 o2
      else true)

(* {1 Time-syscall parity}

   Clocks tick at different rates across stacks, so absolute readings
   cannot be compared — but the *shape* must agree: non-negative
   readings, monotone across a sleep, [time]/[gettimeofday]/
   [clock_gettime] mutually consistent, and a negative [nanosleep]
   answering -EINVAL everywhere. On Graphene the calls are answered
   from the vDSO page — a stale time base left behind by fork or
   checkpoint-restore would break monotonicity and fail this test. *)

let time_prog =
  let open B in
  let mark name cond = sys "print" [ if_ cond (str (name ^ "=ok;")) (str (name ^ "=BAD;")) ] in
  prog ~name:"/bin/timeshape"
    (let_ "t0"
       (sys "gettimeofday" [])
       (let_ "w0"
          (sys "time" [])
          (let_ "c0"
             (sys "clock_gettime" [ int 0 ])
             (seq
                [ mark "nonneg" (v "t0" >=% int 0);
                  mark "agree" ((v "w0" >=% v "t0") &&% (v "c0" >=% v "w0"));
                  mark "einval" (sys "nanosleep" [ int (-5) ] =% int (-22));
                  sys "nanosleep" [ int 1_000_000 ];
                  mark "mono" (sys "gettimeofday" [] >=% v "t0");
                  let_ "c" (sys "fork" [])
                    (if_ (v "c" =% int 0)
                       (seq [ mark "child-mono" (sys "clock_gettime" [ int 0 ] >=% v "c0");
                              sys "exit" [ int 0 ] ])
                       (seq [ sys "wait" []; sys "exit" [ int 0 ] ])) ]))))

let time_expected = "nonneg=ok;agree=ok;einval=ok;mono=ok;child-mono=ok;"

let time_shape_case =
  case "time syscalls: same shape on every stack, through the vDSO page" (fun () ->
      let run stack =
        let r = run_prog ~stack ~seed:7 time_prog in
        check_bool "exited" true (W.exited r.p);
        r.out ()
      in
      check_str "native linux" time_expected (run W.Linux);
      check_str "kvm" time_expected (run W.Kvm);
      check_str "graphene" time_expected (run W.Graphene);
      check_str "graphene-rm" time_expected (run W.Graphene_rm))

let suite =
  List.map QCheck_alcotest.to_alcotest [ shell_prop; fs_prop ] @ [ time_shape_case ]
  @ [ QCheck_alcotest.to_alcotest sysv_prop ]
