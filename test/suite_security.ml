(** The isolation experiments of §6.6: a malicious picoprocess cannot
    (i) fork a non-Graphene process, (ii) kill across sandboxes,
    (iii) access files outside its manifest, (iv) learn secrets through
    /proc; plus the Apache per-user sandbox scenario and the
    system-call-surface statistics. *)

open Util
module B = Graphene_guest.Builder
module K = Graphene_host.Kernel
module Pal = Graphene_pal.Pal
module Lx = Graphene_liblinux.Lx
module Monitor = Graphene_refmon.Monitor
module Manifest = Graphene_refmon.Manifest
module Seccomp = Graphene_bpf.Seccomp
module Sysno = Graphene_bpf.Sysno
open B

let sayn e = sys "print" [ e ^% str "\n" ]
let die = sys "exit" [ int 0 ]

(* Two mutually-distrusting applications, each launched by the
   reference monitor in its own sandbox. *)
let two_sandboxes ?(manifest_a = W.default_manifest) ?(manifest_b = W.default_manifest)
    ~prog_a ~prog_b () =
  let w = W.create W.Graphene_rm in
  Loader.install (W.kernel w).K.fs ~path:"/bin/a" prog_a;
  Loader.install (W.kernel w).K.fs ~path:"/bin/b" prog_b;
  let out_a = Buffer.create 64 and out_b = Buffer.create 64 in
  let pa =
    W.start w ~manifest:manifest_a ~console_hook:(Buffer.add_string out_a) ~exe:"/bin/a"
      ~argv:[] ()
  in
  let pb =
    W.start w ~manifest:manifest_b ~console_hook:(Buffer.add_string out_b) ~exe:"/bin/b"
      ~argv:[] ()
  in
  W.run w;
  (w, (pa, out_a), (pb, out_b))

let idle = prog ~name:"/bin/b" (seq [ sys "nanosleep" [ int 10_000_000 ]; die ])

let raw_syscall_tests =
  [ case "(i) a raw execve cannot fork a non-Graphene process" (fun () ->
        (* inline assembly from the application region: the filter
           redirects it into libLinux instead of reaching the host *)
        let w = W.create W.Graphene_rm in
        let p = W.start w ~exe:"/bin/hello" ~argv:[] () in
        let pal = match p with W.Pl lx -> Lx.pal lx | W.Pn _ -> Alcotest.fail "stack" in
        check_bool "redirected" true
          (Pal.raw_syscall pal ~pc:0x4000_0000 ~name:"execve" ~args:[||] = Pal.Raw_redirected);
        check_bool "vfork redirected" true
          (Pal.raw_syscall pal ~pc:0x4000_0000 ~name:"vfork" ~args:[||] = Pal.Raw_redirected));
    case "(ii) a raw kill cannot signal at host level" (fun () ->
        let w = W.create W.Graphene_rm in
        let p = W.start w ~exe:"/bin/hello" ~argv:[] () in
        let pal = match p with W.Pl lx -> Lx.pal lx | W.Pn _ -> Alcotest.fail "stack" in
        check_bool "redirected" true
          (Pal.raw_syscall pal ~pc:0x4000_0000 ~name:"kill" ~args:[| 1; 9 |] = Pal.Raw_redirected));
    case "a forbidden syscall from the PAL region kills the picoprocess" (fun () ->
        let w = W.create W.Graphene_rm in
        let p = W.start w ~exe:"/bin/hello" ~argv:[] () in
        W.run w;
        (* process finished normally; now simulate a compromised PAL
           issuing ptrace *)
        let w2 = W.create W.Graphene_rm in
        let p2 = W.start w2 ~exe:"/bin/memhog" ~argv:[ "64" ] () in
        W.run w2;
        let lx = match p2 with W.Pl lx -> lx | W.Pn _ -> Alcotest.fail "stack" in
        check_bool "paused" false (Lx.exited lx);
        check_bool "killed" true
          (Pal.raw_syscall (Lx.pal lx) ~pc:(K.pal_base + 8) ~name:"ptrace" ~args:[||]
          = Pal.Raw_killed);
        check_bool "picoprocess dead" false (K.alive (Lx.pico lx));
        ignore p) ]

let signal_isolation_tests =
  [ case "(ii) signals cannot cross sandboxes" (fun () ->
        (* app A tries to signal pid 1 — its OWN pid-1 is itself; pid 2
           does not exist in its sandbox even though app B's sandbox
           has processes. Every guess fails with ESRCH. *)
        let prog_a =
          prog ~name:"/bin/a"
            (seq
               [ sys "nanosleep" [ int 2_000_000 ];
                 sayn (str "k2=" ^% str_of_int (sys "kill" [ int 2; int 9 ]));
                 sayn (str "k3=" ^% str_of_int (sys "kill" [ int 3; int 9 ]));
                 die ])
        in
        (* B forks so its sandbox really has pids 1 and 2 *)
        let prog_b =
          prog ~name:"/bin/b"
            (let_ "pid" (sys "fork" [])
               (if_ (v "pid" =% int 0)
                  (seq [ sys "nanosleep" [ int 8_000_000 ]; die ])
                  (seq [ sys "wait" []; sayn (str "b unharmed"); die ])))
        in
        let _, (pa, out_a), (pb, out_b) = two_sandboxes ~prog_a ~prog_b () in
        check_bool "a exited" true (W.exited pa);
        check_bool "b exited cleanly" true (W.exited pb && W.exit_code pb = 0);
        check_bool "b unharmed" true (Util.contains (Buffer.contents out_b) "b unharmed");
        check_bool "kill 2 failed" true (Util.contains (Buffer.contents out_a) "k2=-3");
        check_bool "kill 3 failed" true (Util.contains (Buffer.contents out_a) "k3=-3"));
    case "PIDs overlap across sandboxes without interference" (fun () ->
        let mk name =
          prog ~name
            (seq [ sayn (str "pid=" ^% str_of_int (sys "getpid" [])); die ])
        in
        let _, (_, out_a), (_, out_b) =
          two_sandboxes ~prog_a:(mk "/bin/a") ~prog_b:(mk "/bin/b") ()
        in
        check_bool "both are pid 1" true
          (Util.contains (Buffer.contents out_a) "pid=1"
          && Util.contains (Buffer.contents out_b) "pid=1")) ]

let fs_isolation_tests =
  [ case "(iii) files outside the manifest are denied and audited" (fun () ->
        let manifest_a =
          { Manifest.fs_rules =
              [ { Manifest.prefix = "/bin"; access = Manifest.Read_only };
                { Manifest.prefix = "/tmp/a"; access = Manifest.Read_write } ];
            exec_prefixes = [ "/bin" ];
            net_rules = [] }
        in
        let prog_a =
          prog ~name:"/bin/a"
            (seq
               [ sayn (str "own=" ^% str_of_int (sys "open" [ str "/tmp/a/mine"; str "w" ]));
                 sayn (str "etc=" ^% str_of_int (sys "open" [ str "/etc/secret"; str "r" ]));
                 sayn (str "b's=" ^% str_of_int (sys "open" [ str "/tmp/b/theirs"; str "r" ]));
                 die ])
        in
        let w, (pa, out_a), _ =
          two_sandboxes ~manifest_a ~prog_a ~prog_b:idle ()
        in
        ignore pa;
        let out = Buffer.contents out_a in
        check_bool "own file ok" true (Util.contains out "own=3");
        check_bool "/etc denied" true (Util.contains out "etc=-13");
        check_bool "other sandbox denied" true (Util.contains out "b's=-13");
        match W.monitor w with
        | Some mon ->
          check_bool "violations audited" true (List.length (Monitor.violations mon) >= 2)
        | None -> Alcotest.fail "no monitor");
    case "a child may narrow but never widen its view" (fun () ->
        match
          (Manifest.parse "fs.allow r /data/public\n", Manifest.parse "fs.allow rw /\n")
        with
        | Ok child, Ok parent ->
          check_bool "narrower ok" true (Manifest.subset ~child ~parent);
          check_bool "wider rejected" false (Manifest.subset ~child:parent ~parent:child)
        | _ -> Alcotest.fail "parse") ]

let proc_side_channel_tests =
  [ case "(iv) /proc does not leak other sandboxes (Memento)" (fun () ->
        (* B runs several processes; A probes /proc for every small pid
           and sees only its own *)
        let prog_a =
          prog ~name:"/bin/a"
            (seq
               [ sys "nanosleep" [ int 3_000_000 ];
                 for_ "i" (int 1) (int 6)
                   (let_ "fd"
                      (sys "open"
                         [ str "/proc/" ^% str_of_int (v "i") ^% str "/status"; str "r" ])
                      (if_ (v "fd" >=% int 0)
                         (sayn (str "visible:" ^% str_of_int (v "i")))
                         unit));
                 die ])
        in
        let prog_b =
          prog ~name:"/bin/b"
            (let_ "p1" (sys "fork" [])
               (if_ (v "p1" =% int 0)
                  (seq [ sys "nanosleep" [ int 10_000_000 ]; die ])
                  (let_ "p2" (sys "fork" [])
                     (if_ (v "p2" =% int 0)
                        (seq [ sys "nanosleep" [ int 10_000_000 ]; die ])
                        (seq [ sys "wait" []; sys "wait" []; die ])))))
        in
        let _, (_, out_a), _ = two_sandboxes ~prog_a ~prog_b () in
        let out = Buffer.contents out_a in
        check_bool "sees itself" true (Util.contains out "visible:1");
        (* B's pids 2 and 3 exist in B's sandbox, invisible to A *)
        check_bool "no leak of pid 2" false (Util.contains out "visible:2");
        check_bool "no leak of pid 3" false (Util.contains out "visible:3")) ]

let surface_tests =
  [ case "Graphene uses ~15% of the Linux system call table" (fun () ->
        (* 50 of the ~314 x86-64 calls of the 3.x era: the paper's
           "less than 15%" claim within rounding of the table size *)
        let pct = 100. *. float_of_int (List.length Seccomp.allowed) /. float_of_int Sysno.count in
        check_bool "about 15%" true (pct <= 16.5));
    case "running real applications exercises only PAL syscalls" (fun () ->
        let w = W.create W.Graphene_rm in
        Graphene_apps.Install.script (W.kernel w).K.fs ~path:"/tmp/s.sh"
          ~contents:(Graphene_apps.Shell.utils_script ~iterations:2);
        ignore (W.start w ~exe:"/bin/sh" ~argv:[ "/tmp/s.sh" ] ());
        W.run w;
        List.iter
          (fun (name, _count) ->
            check_bool (name ^ " is a PAL syscall") true (List.mem name Sysno.pal_syscalls))
          (K.syscall_counts (W.kernel w))) ]

let apache_sandbox_tests =
  [ case "Apache workers confine themselves to the user's subtree" (fun () ->
        let w = W.create W.Graphene_rm in
        let out = Buffer.create 256 in
        let started = ref false in
        let results = ref [] in
        let kernel = W.kernel w in
        let client = W.client_pico w in
        let hook s =
          Buffer.add_string out s;
          if (not !started) && Util.contains s "apache ready" then begin
            started := true;
            (* alice's worker sandboxes itself after auth, then a
               request for bob's data through the same worker fails *)
            ignore
              (Graphene_apps.Loadgen.run kernel ~client ~port:8080 ~path:"/users/alice/index.html"
                 ~requests:4 ~concurrency:1 (fun s1 ->
                   results := ("alice", s1) :: !results;
                   ignore
                     (Graphene_apps.Loadgen.run kernel ~client ~port:8080
                        ~path:"/users/bob/index.html" ~requests:2 ~concurrency:1 (fun s2 ->
                          results := ("bob", s2) :: !results))))
          end
        in
        ignore
          (W.start w ~console_hook:hook ~exe:"/bin/apache" ~argv:[ "8080"; "2"; "sandbox" ] ());
        W.run w;
        let alice = List.assoc "alice" !results and bob = List.assoc "bob" !results in
        check_bool "alice served" true (alice.Graphene_apps.Loadgen.bytes > 0);
        check_int "alice completed" 4 alice.Graphene_apps.Loadgen.completed;
        check_int "bob requests completed (with 404s)" 2 bob.Graphene_apps.Loadgen.completed;
        (* the sandboxed worker cannot read bob's tree: all its bob
           responses are 404 *)
        (match W.monitor w with
        | Some mon ->
          check_bool "denials audited" true
            (List.exists
               (fun v -> Util.contains v.Monitor.v_what "/www/users/bob")
               (Monitor.violations mon))
        | None -> Alcotest.fail "no monitor")) ]

let suite =
  raw_syscall_tests @ signal_isolation_tests @ fs_isolation_tests @ proc_side_channel_tests
  @ surface_tests @ apache_sandbox_tests
