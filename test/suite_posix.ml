(** The POSIX rules both personalities share (Graphene_liblinux.Posix):
    no guest system call can abort the simulated machine, and the
    argument, signal, seek and dup rules give Linux's answer on every
    stack. The answers are checked against Linux itself, not just
    against the other stack, since both stacks now share the decision. *)

open Util
module B = Graphene_guest.Builder
open B

let p name body = prog ~name body
let sayn e = sys "print" [ e ^% str "\n" ]
let say_int e = sayn (str_of_int e)
let die = sys "exit" [ int 0 ]

(* Each program must give the same console output and exit status on
   Linux, Graphene and Graphene with the reference monitor. *)
let on_every_stack ?(code = 0) expected prog_ =
  List.iter
    (fun stack ->
      let r = run_prog ~stack prog_ in
      let where = W.stack_name stack in
      check_str (where ^ " console") expected (r.out ());
      check_bool (where ^ " exited") true (W.exited r.p);
      check_int (where ^ " exit code") code (W.exit_code r.p))
    [ W.Linux; W.Graphene; W.Graphene_rm ]

(* {1 No guest call aborts the simulation} *)

(* Every name either personality dispatches. *)
let calls =
  [| "getpid"; "getppid"; "getpgid"; "setpgid"; "gettid"; "getuid"; "geteuid"; "uname";
     "sysinfo"; "getrss"; "print"; "open"; "close"; "read"; "write"; "lseek"; "stat";
     "access"; "unlink"; "rename"; "mkdir"; "readdir"; "chdir"; "getcwd"; "dup2"; "dup";
     "truncate"; "fstat"; "rmdir"; "umask"; "sync"; "getrusage"; "writev"; "sendfile";
     "alarm"; "fsync"; "pipe"; "listen_tcp"; "accept"; "accept_try"; "connect_tcp";
     "shutdown"; "select"; "epoll_create"; "epoll_ctl"; "epoll_wait"; "sigaction";
     "sigprocmask"; "kill"; "pause"; "fork"; "execve"; "exit"; "wait"; "waitpid"; "msgget";
     "msgsnd"; "msgrcv"; "msgctl_rmid"; "semget"; "semop"; "semop_try"; "mmap"; "munmap";
     "brk"; "poke"; "peek"; "clone"; "join"; "sched_yield"; "nanosleep"; "gettimeofday";
     "time"; "clock_gettime"; "rand"; "ring"; "sandbox_create" |]

let arg_values =
  [| int (-1); int 0; int 3; int 100_000_000; str ""; str "/tmp/x"; str "set";
     list_ [ int 3 ]; list_ [] |]

let one_call_gen =
  QCheck.Gen.(
    pair (int_bound (Array.length calls - 1))
      (list_size (int_bound 3) (int_bound (Array.length arg_values - 1))))

let show_call (c, args) =
  Printf.sprintf "%s [%s]" calls.(c)
    (String.concat "; "
       (List.map
          (fun i -> [| "-1"; "0"; "3"; "10^8"; "\"\""; "\"/tmp/x\""; "\"set\""; "[3]"; "[]" |].(i))
          args))

let no_abort_prop =
  QCheck.Test.make ~name:"no one-call guest program aborts the simulation" ~count:500
    (QCheck.make ~print:show_call one_call_gen)
    (fun (c, args) ->
      let prog_ = p "/bin/onecall" (sys calls.(c) (List.map (fun i -> arg_values.(i)) args)) in
      List.for_all
        (fun stack ->
          match run_prog ~stack prog_ with
          | _ -> true
          | exception e ->
            QCheck.Test.fail_reportf "%s on %s raised %s" (show_call (c, args))
              (W.stack_name stack) (Printexc.to_string e))
        [ W.Linux; W.Graphene; W.Graphene_rm ])

(* {1 Linux's answer to each bad argument} *)

let with_file name contents body =
  let_ name
    (seq
       [ let_ "w" (sys "open" [ str "/tmp/p.txt"; str "w" ])
           (seq [ sys "write" [ v "w"; str contents ]; sys "close" [ v "w" ] ]);
         sys "open" [ str "/tmp/p.txt"; str "r" ] ])
    body

let bad_argument_tests =
  [ case "a missing argument is -EINVAL" (fun () ->
        on_every_stack "-22\n-22\n-22\n"
          (p "/bin/t"
             (seq [ say_int (sys "close" []); say_int (sys "read" [ int 0 ]);
                    say_int (sys "clone" [ str "f" ]); die ])));
    case "an argument of the wrong type is -EINVAL, whatever the host does first" (fun () ->
        on_every_stack "-22\n-22\n"
          (p "/bin/t"
             (seq
                [ say_int (sys "truncate" [ str "/tmp/f.txt"; str "x" ]);
                  say_int (sys "lseek" [ int 0; int 0; int 1 ]);
                  die ])));
    case "negative lengths on a file are -EINVAL" (fun () ->
        on_every_stack "-22\n-22\nab\n0\n"
          (p "/bin/t"
             (with_file "fd" "abcdef"
                (let_ "pfd"
                   (sys "open" [ str "/proc/" ^% str_of_int (sys "getpid" []) ^% str "/status"; str "r" ])
                   (seq
                      [ say_int (sys "truncate" [ str "/tmp/p.txt"; int (-1) ]);
                        say_int (sys "read" [ v "fd"; int (-1) ]);
                        sayn (sys "read" [ v "fd"; int 2 ]);
                        (* /proc is rendered text: a negative length reads nothing *)
                        say_int (len (sys "read" [ v "pfd"; int (-1) ]));
                        die ])))));
    case "peek and poke at an unmapped address exit like SIGSEGV" (fun () ->
        on_every_stack ~code:139 "" (p "/bin/t" (seq [ sys "peek" [ int 12345; int 4 ]; die ]));
        on_every_stack ~code:139 "" (p "/bin/t" (seq [ sys "poke" [ int 12345; str "abcd" ]; die ]))) ]

(* {1 Signal numbers} *)

let signal_tests =
  [ case "kill with signal 0 probes and delivers nothing" (fun () ->
        on_every_stack "0\n0\n-3\nchild 7\n"
          (p "/bin/t"
             (let_ "c" (sys "fork" [])
                (if_ (v "c" =% int 0)
                   (seq [ sys "nanosleep" [ int 3_000_000 ]; sys "exit" [ int 7 ] ])
                   (seq
                      [ (* let the child finish booting *)
                        sys "nanosleep" [ int 500_000 ];
                        say_int (sys "kill" [ sys "getpid" []; int 0 ]);
                        say_int (sys "kill" [ v "c"; int 0 ]);
                        say_int (sys "kill" [ int 4242; int 0 ]);
                        sayn (str "child " ^% str_of_int (snd_ (sys "wait" [])));
                        die ])))));
    case "kill with a signal outside 0..64 is -EINVAL" (fun () ->
        on_every_stack "-22\n-22\n-22\nalive\n"
          (p "/bin/t"
             (seq
                [ say_int (sys "kill" [ sys "getpid" []; int 65 ]);
                  say_int (sys "kill" [ sys "getpid" []; int 999 ]);
                  say_int (sys "kill" [ sys "getpid" []; int (-1) ]);
                  sayn (str "alive");
                  die ])));
    case "sigaction refuses 0, 65, SIGKILL and SIGSTOP" (fun () ->
        on_every_stack "-22\n-22\n-22\n-22\n0\n"
          (p "/bin/t"
             (seq
                [ say_int (sys "sigaction" [ int 0; str "h" ]);
                  say_int (sys "sigaction" [ int 65; str "h" ]);
                  say_int (sys "sigaction" [ int 9; str "h" ]);
                  say_int (sys "sigaction" [ int 19; str "h" ]);
                  say_int (sys "sigaction" [ int 10; str "h" ]);
                  die ]))) ]

(* {1 Seek cursors} *)

let seek_tests =
  [ case "lseek to a negative position is -EINVAL and keeps the cursor" (fun () ->
        on_every_stack "1\n-22\n-22\nbc\n"
          (p "/bin/t"
             (with_file "fd" "abc"
                (seq
                   [ say_int (sys "lseek" [ v "fd"; int 1; str "set" ]);
                     say_int (sys "lseek" [ v "fd"; int (-5); str "cur" ]);
                     say_int (sys "lseek" [ v "fd"; int (-10); str "set" ]);
                     sayn (sys "read" [ v "fd"; int 2 ]);
                     die ]))));
    case "dup shares the seek cursor" (fun () ->
        on_every_stack "ab\ncd\n"
          (p "/bin/t"
             (with_file "fd" "abcdef"
                (let_ "fd2" (sys "dup" [ v "fd" ])
                   (seq
                      [ sayn (sys "read" [ v "fd"; int 2 ]);
                        sayn (sys "read" [ v "fd2"; int 2 ]);
                        die ]))))) ]

let suite =
  bad_argument_tests @ signal_tests @ seek_tests @ [ QCheck_alcotest.to_alcotest no_abort_prop ]
