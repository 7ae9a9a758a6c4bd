(** Behavioral tests of the Linux personality: the guest system-call
    table end to end on the Graphene stack (and spot checks that the
    native baseline agrees on semantics). *)

open Util
module B = Graphene_guest.Builder
open B

let p name body = prog ~name body
let pf name funcs body = prog ~name ~funcs body

(* Run the same program on both Graphene and Linux; both must exit 0
   with identical console output — the cross-stack semantic check. *)
let both_stacks prog_ =
  let g = run_prog ~stack:W.Graphene prog_ in
  let n = run_prog ~stack:W.Linux prog_ in
  expect_exit g;
  expect_exit n;
  check_str "stacks agree" (g.out ()) (n.out ())

let say e = sys "print" [ e ]
let sayn e = sys "print" [ e ^% str "\n" ]
let die = sys "exit" [ int 0 ]

let file_tests =
  [ case "write then read a file" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ let_ "fd"
                    (sys "open" [ str "/tmp/x"; str "w" ])
                    (seq [ sys "write" [ v "fd"; str "data!" ]; sys "close" [ v "fd" ] ]);
                  let_ "fd"
                    (sys "open" [ str "/tmp/x"; str "r" ])
                    (seq [ say (sys "read" [ v "fd"; int 100 ]); sys "close" [ v "fd" ] ]);
                  die ])));
    case "seek pointer advances and lseek moves it" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "fd"
                (sys "open" [ str "/tmp/x"; str "w" ])
                (seq
                   [ sys "write" [ v "fd"; str "abcdef" ];
                     sys "lseek" [ v "fd"; int 1; str "set" ];
                     say (sys "read" [ v "fd"; int 2 ]);
                     say (sys "read" [ v "fd"; int 2 ]);
                     sys "lseek" [ v "fd"; int (-1); str "end" ];
                     say (sys "read" [ v "fd"; int 5 ]);
                     die ]))));
    case "append mode positions at the end" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ let_ "fd"
                    (sys "open" [ str "/tmp/x"; str "w" ])
                    (seq [ sys "write" [ v "fd"; str "one" ]; sys "close" [ v "fd" ] ]);
                  let_ "fd"
                    (sys "open" [ str "/tmp/x"; str "a" ])
                    (seq [ sys "write" [ v "fd"; str "two" ]; sys "close" [ v "fd" ] ]);
                  let_ "fd" (sys "open" [ str "/tmp/x"; str "r" ]) (say (sys "read" [ v "fd"; int 100 ]));
                  die ])));
    case "open missing file returns -ENOENT" (fun () ->
        both_stacks
          (p "/bin/t" (seq [ sayn (str_of_int (sys "open" [ str "/missing"; str "r" ])); die ])));
    case "operations on a bad fd return -EBADF" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ sayn (str_of_int (sys "read" [ int 99; int 1 ]));
                  sayn (str_of_int (sys "close" [ int 99 ]));
                  die ])));
    case "unlink, access and stat" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ sayn (str_of_int (sys "access" [ str "/tmp/f.txt" ]));
                  sayn (str_of_int (fst_ (sys "stat" [ str "/tmp/f.txt" ])));
                  sys "unlink" [ str "/tmp/f.txt" ];
                  sayn (str_of_int (sys "access" [ str "/tmp/f.txt" ]));
                  die ])));
    case "mkdir and readdir" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ sys "mkdir" [ str "/tmp/dir" ];
                  let_ "fd"
                    (sys "open" [ str "/tmp/dir/a"; str "w" ])
                    (sys "close" [ v "fd" ]);
                  foreach "n" (sys "readdir" [ str "/tmp/dir" ]) (sayn (v "n"));
                  die ])));
    case "rename changes the name" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ sys "rename" [ str "/tmp/f.txt"; str "/tmp/g.txt" ];
                  sayn (str_of_int (sys "access" [ str "/tmp/f.txt" ]));
                  sayn (str_of_int (sys "access" [ str "/tmp/g.txt" ]));
                  die ])));
    case "chdir affects relative paths" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ sys "chdir" [ str "/tmp" ];
                  sayn (sys "getcwd" []);
                  let_ "fd" (sys "open" [ str "f.txt"; str "r" ]) (say (sys "read" [ v "fd"; int 4 ]));
                  die ])));
    case "dup copies the descriptor" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "fd"
                (sys "open" [ str "/tmp/f.txt"; str "r" ])
                (let_ "fd2" (sys "dup" [ v "fd" ])
                   (seq [ say (sys "read" [ v "fd2"; int 2 ]); die ])))));
    case "/dev/zero reads zeros, /dev/null eats writes" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ let_ "z" (sys "open" [ str "/dev/zero"; str "r" ])
                    (sayn (str_of_int (len (sys "read" [ v "z"; int 8 ]))));
                  let_ "n" (sys "open" [ str "/dev/null"; str "w" ])
                    (sayn (str_of_int (sys "write" [ v "n"; str "gone" ])));
                  die ]))) ]

let pipe_tests =
  [ case "pipe carries bytes in order" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "pp" (sys "pipe" [])
                (seq
                   [ sys "write" [ snd_ (v "pp"); str "through the pipe" ];
                     say (sys "read" [ fst_ (v "pp"); int 100 ]);
                     die ]))));
    case "pipe between parent and child" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "pp" (sys "pipe" [])
                (let_ "pid" (sys "fork" [])
                   (if_ (v "pid" =% int 0)
                      (seq [ sys "write" [ snd_ (v "pp"); str "from child" ]; die ])
                      (seq [ say (sys "read" [ fst_ (v "pp"); int 100 ]); sys "wait" []; die ])))))) ]

let process_tests =
  [ case "fork returns 0 in the child, pid in the parent" (fun () ->
        let g =
          run_prog
            (p "/bin/t"
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq [ sayn (str "child sees 0") ; die ])
                     (seq
                        [ when_ (v "pid" >% int 1) (sayn (str "parent sees pid"));
                          sys "wait" [];
                          die ]))))
        in
        expect_exit g;
        expect_console_contains "parent sees pid" g);
    case "wait returns the child's pid and status" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "pid" (sys "fork" [])
                (if_ (v "pid" =% int 0) (sys "exit" [ int 42 ])
                   (let_ "w" (sys "wait" [])
                      (seq
                         [ sayn
                             (if_ (fst_ (v "w") =% v "pid") (str "pid matches") (str "pid WRONG"));
                           sayn (str_of_int (snd_ (v "w")));
                           die ]))))));
    case "wait with no children is -ECHILD" (fun () ->
        both_stacks (p "/bin/t" (seq [ sayn (str_of_int (sys "wait" [])); die ])));
    case "waitpid waits for the specific child" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "a" (sys "fork" [])
                (if_ (v "a" =% int 0) (sys "exit" [ int 1 ])
                   (let_ "b" (sys "fork" [])
                      (if_ (v "b" =% int 0)
                         (seq [ sys "nanosleep" [ int 100000 ]; sys "exit" [ int 2 ] ])
                         (seq
                            [ let_ "w" (sys "waitpid" [ v "b" ]) (sayn (str_of_int (snd_ (v "w"))));
                              let_ "w" (sys "waitpid" [ v "a" ]) (sayn (str_of_int (snd_ (v "w"))));
                              die ])))))));
    case "getppid sees the parent" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "me" (sys "getpid" [])
                (let_ "pid" (sys "fork" [])
                   (if_ (v "pid" =% int 0)
                      (seq
                         [ sayn
                             (if_ (sys "getppid" [] =% v "me") (str "ppid ok") (str "ppid WRONG"));
                           die ])
                      (seq [ sys "wait" []; die ]))))));
    case "fork inherits the heap copy-on-write" (fun () ->
        (* the child sees the parent's data but writes do not leak back *)
        let g =
          run_prog
            (p "/bin/t"
               (let_ "base"
                  (sys "mmap" [ int 8192 ])
                  (seq
                     [ sys "poke" [ v "base"; str "shared" ];
                       let_ "pid" (sys "fork" [])
                         (if_ (v "pid" =% int 0)
                            (seq
                               [ say (sys "peek" [ v "base"; int 6 ]);
                                 sys "poke" [ v "base"; str "child " ];
                                 die ])
                            (seq
                               [ sys "wait" [];
                                 say (sys "peek" [ v "base"; int 6 ]);
                                 die ])) ])))
        in
        expect_exit g;
        (* child printed the inherited bytes; parent still sees its own *)
        check_str "console" "sharedshared" (g.out ()));
    case "execve replaces the image" (fun () ->
        let g =
          run_prog
            (p "/bin/t"
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq
                        [ sys "execve" [ str "/bin/echo"; list_ [ str "exec"; str "works" ] ];
                          sys "exit" [ int 127 ] ])
                     (seq [ sys "wait" []; die ]))))
        in
        expect_exit g);
    case "execve of a missing binary fails with -ENOENT" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq [ sayn (str_of_int (sys "execve" [ str "/bin/ghost"; list_ [] ])); die ])));
    case "exit code is masked to 8 bits on main return" (fun () ->
        let g = run_prog (p "/bin/t" (sys "exit" [ int 300 ])) in
        check_int "code" 300 (W.exit_code g.p)) ]

let signal_tests =
  [ case "self-signal runs the handler" (fun () ->
        both_stacks
          (pf "/bin/t"
             [ func "h" [ "sig" ] (sayn (str "sig=" ^% str_of_int (v "sig"))) ]
             (seq
                [ sys "sigaction" [ int 10; str "h" ];
                  sys "kill" [ sys "getpid" []; int 10 ];
                  die ])));
    case "cross-process signal is delivered" (fun () ->
        let g =
          run_prog
            (pf "/bin/t"
               [ func "h" [ "sig" ] (sayn (str "child got signal")) ]
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq
                        [ sys "sigaction" [ int 10; str "h" ];
                          sys "nanosleep" [ int 3_000_000 ];
                          die ])
                     (seq
                        [ sys "nanosleep" [ int 500_000 ];
                          sayn (str "kill -> " ^% str_of_int (sys "kill" [ v "pid"; int 10 ]));
                          sys "wait" [];
                          die ]))))
        in
        expect_exit g;
        expect_console_contains "child got signal" g;
        expect_console_contains "kill -> 0" g);
    case "signal to a nonexistent pid is -ESRCH" (fun () ->
        both_stacks (p "/bin/t" (seq [ sayn (str_of_int (sys "kill" [ int 4242; int 10 ])); die ])));
    case "blocked signals stay pending until unblocked" (fun () ->
        both_stacks
          (pf "/bin/t"
             [ func "h" [ "sig" ] (sayn (str "delivered")) ]
             (seq
                [ sys "sigaction" [ int 10; str "h" ];
                  sys "sigprocmask" [ str "block"; int 10 ];
                  sys "kill" [ sys "getpid" []; int 10 ];
                  sayn (str "still here");
                  sys "sigprocmask" [ str "unblock"; int 10 ];
                  sys "getpid" [];
                  die ])));
    case "default action of SIGTERM terminates" (fun () ->
        let g =
          run_prog
            (p "/bin/t" (seq [ sys "kill" [ sys "getpid" []; int 15 ]; sayn (str "unreachable"); die ]))
        in
        check_int "128+15" 143 (W.exit_code g.p);
        check_str "no output" "" (g.out ()));
    case "SIGCHLD is ignored by default" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "pid" (sys "fork" [])
                (if_ (v "pid" =% int 0) die (seq [ sys "wait" []; sayn (str "survived"); die ])))));
    case "pause returns -EINTR when a signal arrives" (fun () ->
        let g =
          run_prog
            (pf "/bin/t"
               [ func "h" [ "sig" ] (sayn (str "handled")) ]
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq
                        [ sys "sigaction" [ int 10; str "h" ];
                          sayn (str "pause=" ^% str_of_int (sys "pause" []));
                          die ])
                     (seq
                        [ sys "nanosleep" [ int 3_000_000 ];
                          sys "kill" [ v "pid"; int 10 ];
                          sys "wait" [];
                          die ]))))
        in
        expect_exit g;
        expect_console_contains "handled" g;
        expect_console_contains "pause=-4" g) ]

let proc_fs_tests =
  [ case "/proc/self-pid status reads locally" (fun () ->
        let g =
          run_prog
            (p "/bin/t"
               (let_ "path"
                  (str "/proc/" ^% str_of_int (sys "getpid" []) ^% str "/status")
                  (let_ "fd" (sys "open" [ v "path"; str "r" ])
                     (seq [ say (sys "read" [ v "fd"; int 4096 ]); die ]))))
        in
        expect_exit g;
        expect_console_contains "Pid:\t1" g);
    case "/proc of another process reads over RPC" (fun () ->
        let g =
          run_prog
            (p "/bin/t"
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq [ sys "nanosleep" [ int 5_000_000 ]; die ])
                     (let_ "path"
                        (str "/proc/" ^% str_of_int (v "pid") ^% str "/status")
                        (let_ "fd" (sys "open" [ v "path"; str "r" ])
                           (seq
                              [ say (sys "read" [ v "fd"; int 4096 ]);
                                sys "wait" [];
                                die ]))))))
        in
        expect_exit g;
        expect_console_contains "Pid:\t2" g);
    case "/proc of a nonexistent pid is -ESRCH" (fun () ->
        let g =
          run_prog
            (p "/bin/t" (seq [ sayn (str_of_int (sys "open" [ str "/proc/999/status"; str "r" ])); die ]))
        in
        expect_exit g;
        expect_console_contains "-3" g) ]

let memory_tests =
  [ case "brk grows the heap" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "a" (sys "brk" [ int 4096 ])
                (let_ "b" (sys "brk" [ int 65536 ])
                   (seq
                      [ sayn (if_ (v "b" >% v "a") (str "grew") (str "WRONG")); die ])))));
    case "poke/peek round trip through guest memory" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "base"
                (sys "mmap" [ int 16384 ])
                (seq
                   [ sys "poke" [ v "base" +% int 5000; str "deep data" ];
                     say (sys "peek" [ v "base" +% int 5000; int 9 ]);
                     sys "munmap" [ v "base" ];
                     die ]))));
    case "getrss reports resident bytes" (fun () ->
        let g =
          run_prog
            (p "/bin/t"
               (let_ "r0" (sys "getrss" [])
                  (let_ "base" (sys "mmap" [ int (64 * 4096) ])
                     (seq
                        [ let_ "off" (int 0)
                            (while_ (v "off" <% int (64 * 4096))
                               (seq
                                  [ sys "poke" [ v "base" +% v "off"; str "x" ];
                                    set "off" (v "off" +% int 4096) ]));
                          let_ "r1" (sys "getrss" [])
                            (sayn
                               (if_ (v "r1" >=% (v "r0" +% int (64 * 4096))) (str "rss grew")
                                  (str "rss WRONG")));
                          die ]))))
        in
        expect_exit g;
        expect_console_contains "rss grew" g) ]

let thread_tests =
  [ case "clone runs a sibling thread sharing the fd table" (fun () ->
        both_stacks
          (pf "/bin/t"
             [ func "worker" [ "arg" ]
                 (let_ "fd"
                    (sys "open" [ str "/tmp/t.out"; str "w" ])
                    (seq [ sys "write" [ v "fd"; v "arg" ]; sys "close" [ v "fd" ] ])) ]
             (let_ "tid"
                (sys "clone" [ str "worker"; str "thread-data" ])
                (seq
                   [ sys "join" [ v "tid" ];
                     let_ "fd" (sys "open" [ str "/tmp/t.out"; str "r" ])
                       (say (sys "read" [ v "fd"; int 100 ]));
                     die ]))));
    case "join on a finished thread returns immediately" (fun () ->
        both_stacks
          (pf "/bin/t"
             [ func "worker" [ "arg" ] unit ]
             (let_ "tid"
                (sys "clone" [ str "worker"; int 0 ])
                (seq
                   [ sys "nanosleep" [ int 2_000_000 ];
                     sayn (str_of_int (sys "join" [ v "tid" ]));
                     die ]))));
    case "clone of an undefined function fails" (fun () ->
        both_stacks
          (p "/bin/t" (seq [ sayn (str_of_int (sys "clone" [ str "ghost"; int 0 ])); die ]))) ]

let misc_tests =
  [ case "gettimeofday is monotonic across nanosleep" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "t1" (sys "gettimeofday" [])
                (seq
                   [ sys "nanosleep" [ int 1_000_000 ];
                     let_ "t2" (sys "gettimeofday" [])
                       (sayn
                          (if_ (v "t2" >=% (v "t1" +% int 1_000_000)) (str "slept") (str "WRONG")));
                     die ]))));
    case "uname names the personality" (fun () ->
        let g = run_prog (p "/bin/t" (seq [ sayn (sys "uname" []); die ])) in
        expect_console_contains "graphene" g);
    case "unknown syscalls return -ENOSYS" (fun () ->
        both_stacks (p "/bin/t" (seq [ sayn (str_of_int (sys "frobnicate" [])); die ])));
    case "guest faults kill the process like SIGSEGV" (fun () ->
        let g = run_prog (p "/bin/t" (seq [ let_ "x" (int 1 /% int 0) unit; die ])) in
        check_int "139" 139 (W.exit_code g.p)) ]

let interrupt_tests =
  [ case "a CPU-spinning process is interrupted by a signal (DkThreadInterrupt)" (fun () ->
        (* the child never makes a syscall after arming the handler;
           only the PAL upcall can reach it (paper s4.2: "libLinux can
           use a PAL function to interrupt the thread") *)
        let g =
          run_prog
            (pf "/bin/t"
               [ func "h" [ "sig" ] (seq [ sayn (str "interrupted"); sys "exit" [ int 5 ] ]) ]
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq
                        [ sys "sigaction" [ int 10; str "h" ];
                          (* spin forever in small chunks *)
                          while_ (bool true) (spin (int 1000)) ])
                     (seq
                        [ sys "nanosleep" [ int 2_000_000 ];
                          sys "kill" [ v "pid"; int 10 ];
                          let_ "w" (sys "wait" [])
                            (sayn (str "status=" ^% str_of_int (snd_ (v "w"))));
                          die ]))))
        in
        expect_exit g;
        expect_console_contains "interrupted" g;
        expect_console_contains "status=5" g);
    case "SIGKILL terminates a CPU-spinning process" (fun () ->
        let g =
          run_prog
            (p "/bin/t"
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (while_ (bool true) (spin (int 1000)))
                     (seq
                        [ sys "nanosleep" [ int 1_000_000 ];
                          sys "kill" [ v "pid"; int 9 ];
                          let_ "w" (sys "wait" [])
                            (sayn (str "status=" ^% str_of_int (snd_ (v "w"))));
                          die ]))))
        in
        expect_exit g;
        expect_console_contains "status=137" g) ]

let group_tests =
  [ case "exec passes argv to the new image" (fun () ->
        let g =
          run_prog
            (p "/bin/t"
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq
                        [ sys "execve" [ str "/bin/echo"; list_ [ str "alpha"; str "beta" ] ];
                          sys "exit" [ int 127 ] ])
                     (seq [ sys "wait" []; die ]))))
        in
        expect_exit g;
        expect_console_contains "alpha beta" g);
    case "kill(-pgid) reaches every child in the group" (fun () ->
        let g =
          run_prog
            (pf "/bin/t"
               [ func "h" [ "s" ] (sayn (str "member hit")) ]
               (let_ "a" (sys "fork" [])
                  (if_ (v "a" =% int 0)
                     (seq
                        [ sys "sigaction" [ int 10; str "h" ];
                          sys "nanosleep" [ int 6_000_000 ];
                          die ])
                     (let_ "b" (sys "fork" [])
                        (if_ (v "b" =% int 0)
                           (seq
                              [ sys "sigaction" [ int 10; str "h" ];
                                sys "nanosleep" [ int 6_000_000 ];
                                die ])
                           (seq
                              [ (* the group signal reaches the sender too *)
                                sys "sigaction" [ int 10; str "h" ];
                                sys "nanosleep" [ int 1_000_000 ];
                                sys "kill" [ int 0 -% sys "getpgid" []; int 10 ];
                                sys "wait" [];
                                sys "wait" [];
                                die ]))))))
        in
        expect_exit g;
        (* both children and the sender print *)
        let hits =
          List.length
            (List.filter (fun l -> l = "member hit") (String.split_on_char '\n' (g.out ())))
        in
        check_int "three members" 3 hits);
    case "variadic print concatenates" (fun () ->
        both_stacks
          (p "/bin/t" (seq [ sys "print" [ str "a"; str "b"; str_of_int (int 3) ]; die ])));
    case "fsync and truncate via paths" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ let_ "fd"
                    (sys "open" [ str "/tmp/x"; str "w" ])
                    (seq
                       [ sys "write" [ v "fd"; str "abcdef" ];
                         sys "fsync" [ v "fd" ];
                         sys "close" [ v "fd" ] ]);
                  sys "truncate" [ str "/tmp/x"; int 2 ];
                  let_ "fd" (sys "open" [ str "/tmp/x"; str "r" ]) (say (sys "read" [ v "fd"; int 10 ]));
                  die ]))) ]

module Errno = Graphene_liblinux.Errno
module Signal = Graphene_liblinux.Signal
module Loader = Graphene_liblinux.Loader
module Ckpt = Graphene_liblinux.Ckpt

let unit_tests =
  [ case "errno maps tags with attached detail" (fun () ->
        let module CE = Graphene_core.Errno in
        check_int "plain" 2 (Errno.code CE.ENOENT);
        check_int "space detail" 13 (Errno.code (CE.of_string "EACCES /etc/shadow"));
        check_int "colon detail" 22 (Errno.code (CE.of_string "EINVAL:bad uri"));
        check_int "unknown is ENOSYS" 38 (Errno.code (CE.of_string "EWHATEVER")));
    case "errno round trips names" (fun () ->
        check_bool "EIDRM" true (Errno.name 43 = Some "EIDRM");
        check_bool "is_error" true (Errno.is_error (Errno.to_value Graphene_core.Errno.EPIPE)));
    case "signal defaults" (fun () ->
        check_bool "chld ignored" true (Signal.default_action Signal.sigchld = Signal.Ignore);
        check_bool "term terminates" true (Signal.default_action Signal.sigterm = Signal.Terminate);
        check_bool "kill uncatchable" false (Signal.catchable Signal.sigkill);
        check_str "name" "SIGUSR1" (Signal.name Signal.sigusr1));
    case "loader rejects corrupt binaries" (fun () ->
        check_bool "no magic" true (Loader.decode "ELF whatever" = Error Graphene_core.Errno.ENOEXEC);
        check_bool "bad payload" true
          (match Loader.decode (Loader.encode B.(prog ~name:"/x" (int 1)) ^ "") with
          | Ok _ -> true
          | Error _ -> false));
    case "ckpt counts stream slots" (fun () ->
        let fds =
          [ Ckpt.Sconsole 1; Ckpt.Sstream { fd = 3; slot = 0; cloexec = false };
            Ckpt.Slisten { fd = 4; slot = 1; port = 80; cloexec = false };
            Ckpt.Sfile { fd = 5; path = "/x"; pos = 0; cloexec = false } ]
        in
        check_int "two slots" 2 (Ckpt.stream_slots fds)) ]

(* {1 The extended syscall batch: fstat, rmdir, umask, sync, getrusage,
      writev, sendfile, alarm} *)

let extended_tests =
  [ case "fstat reports size and regular-file kind" (fun () ->
        both_stacks
          (p "/bin/t"
             (let_ "fd"
                (sys "open" [ str "/tmp/x"; str "w" ])
                (seq
                   [ sys "write" [ v "fd"; str "12345" ];
                     let_ "st" (sys "fstat" [ v "fd" ])
                       (seq [ say (str_of_int (fst_ (v "st"))); say (str_of_int (snd_ (v "st"))) ]);
                     die ]))));
    case "fstat on a bad fd fails" (fun () ->
        both_stacks
          (p "/bin/t" (seq [ say (str_of_int (sys "fstat" [ int 42 ])); die ])));
    case "rmdir removes an empty directory" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ sys "mkdir" [ str "/tmp/d" ];
                  say (str_of_int (sys "rmdir" [ str "/tmp/d" ]));
                  (* gone: open of a file inside must fail *)
                  say (str_of_int (sys "open" [ str "/tmp/d/x"; str "r" ]));
                  die ])));
    case "umask returns the previous mask" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ say (str_of_int (sys "umask" [ int 0o077 ]));
                  say (str_of_int (sys "umask" [ int 0o022 ]));
                  die ])));
    case "sync and getrusage succeed" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ say (str_of_int (sys "sync" []));
                  let_ "ru" (sys "getrusage" [])
                    (say (if_ (fst_ (v "ru") >% int 0) (str "rss+") (str "rss0")));
                  die ])));
    case "writev concatenates the vector in order" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ let_ "fd"
                    (sys "open" [ str "/tmp/x"; str "w" ])
                    (seq
                       [ say (str_of_int (sys "writev" [ v "fd"; list_ [ str "a"; str "bb"; str "ccc" ] ]));
                         sys "close" [ v "fd" ] ]);
                  let_ "fd" (sys "open" [ str "/tmp/x"; str "r" ]) (say (sys "read" [ v "fd"; int 100 ]));
                  die ])));
    case "sendfile copies file to file and advances the source cursor" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ let_ "fd"
                    (sys "open" [ str "/tmp/src"; str "w" ])
                    (seq [ sys "write" [ v "fd"; str "hello world" ]; sys "close" [ v "fd" ] ]);
                  let_ "in"
                    (sys "open" [ str "/tmp/src"; str "r" ])
                    (let_ "out"
                       (sys "open" [ str "/tmp/dst"; str "w" ])
                       (seq
                          [ say (str_of_int (sys "sendfile" [ v "in"; v "out"; int 5 ]));
                            (* cursor moved past the copied prefix *)
                            say (sys "read" [ v "in"; int 100 ]) ]));
                  let_ "fd" (sys "open" [ str "/tmp/dst"; str "r" ]) (say (sys "read" [ v "fd"; int 100 ]));
                  die ])));
    case "sendfile to stdout reaches the console" (fun () ->
        both_stacks
          (p "/bin/t"
             (seq
                [ let_ "fd"
                    (sys "open" [ str "/tmp/src"; str "w" ])
                    (seq [ sys "write" [ v "fd"; str "console-bound" ]; sys "close" [ v "fd" ] ]);
                  let_ "in"
                    (sys "open" [ str "/tmp/src"; str "r" ])
                    (say (str_of_int (sys "sendfile" [ v "in"; int 1; int 100 ])));
                  die ])));
    case "alarm delivers SIGALRM to the handler" (fun () ->
        let handler = func "on_alrm" [ "n" ] (say (str "ALRM:" ^% str_of_int (v "n"))) in
        both_stacks
          (pf "/bin/t" [ handler ]
             (seq
                [ sys "sigaction" [ int 14; str "on_alrm" ];
                  say (str_of_int (sys "alarm" [ int 1 ]));
                  sys "pause" [];
                  say (str "awake");
                  die ])));
    case "alarm 0 cancels a pending alarm" (fun () ->
        let handler = func "on_alrm" [ "n" ] (say (str "ALRM")) in
        let r =
          run_prog ~stack:W.Graphene
            (pf "/bin/t" [ handler ]
               (seq
                  [ sys "sigaction" [ int 14; str "on_alrm" ];
                    sys "alarm" [ int 1 ];
                    sys "alarm" [ int 0 ];
                    sys "nanosleep" [ int 2_000_000_000 ];
                    say (str "quiet");
                    die ]))
        in
        expect_exit r;
        expect_console "quiet" r);
    case "a later alarm supersedes an earlier one" (fun () ->
        let handler = func "on_alrm" [ "n" ] (say (str "A")) in
        let r =
          run_prog ~stack:W.Graphene
            (pf "/bin/t" [ handler ]
               (seq
                  [ sys "sigaction" [ int 14; str "on_alrm" ];
                    sys "alarm" [ int 1 ];
                    sys "alarm" [ int 3 ];
                    sys "nanosleep" [ int 5_000_000_000 ];
                    die ]))
        in
        expect_exit r;
        (* only the superseding alarm fired *)
        expect_console "A" r);
    case "rename refuses what Linux refuses and moves nothing" (fun () ->
        (* a directory into its own subtree, a directory over a file, a
           file over an empty directory; a directory onto itself is a
           no-op. The file under the directory survives them all. *)
        let prog_ =
          p "/bin/t"
            (seq
               [ sys "mkdir" [ str "/tmp/a/c" ];
                 sys "mkdir" [ str "/tmp/empty" ];
                 let_ "fd"
                   (sys "open" [ str "/tmp/a/c/f"; str "w" ])
                   (seq [ sys "write" [ v "fd"; str "hello" ]; sys "close" [ v "fd" ] ]);
                 sayn (str_of_int (sys "rename" [ str "/tmp/a"; str "/tmp/a/b" ]));
                 sayn (str_of_int (sys "rename" [ str "/tmp/a"; str "/tmp/f.txt" ]));
                 sayn (str_of_int (sys "rename" [ str "/tmp/f.txt"; str "/tmp/empty" ]));
                 sayn (str_of_int (sys "rename" [ str "/tmp/a"; str "/tmp/a" ]));
                 let_ "fd"
                   (sys "open" [ str "/tmp/a/c/f"; str "r" ])
                   (say (sys "read" [ v "fd"; int 100 ]));
                 die ])
        in
        List.iter
          (fun stack ->
            let r = run_prog ~stack prog_ in
            expect_exit r;
            expect_console "-22\n-20\n-21\n0\nhello" r)
          [ W.Graphene; W.Linux ]) ]

let suite =
  file_tests @ pipe_tests @ process_tests @ signal_tests @ proc_fs_tests @ memory_tests
  @ thread_tests @ misc_tests @ interrupt_tests @ group_tests @ extended_tests @ unit_tests
