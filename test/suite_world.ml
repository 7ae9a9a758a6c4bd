(** Integration tests at the {!Graphene.World} level: cross-stack
    runs, determinism, telemetry, scheduling/dilation, and the
    watchdog. *)

open Util
module B = Graphene_guest.Builder
module K = Graphene_host.Kernel
module Engine = Graphene_sim.Engine
module T = Graphene_sim.Time
open B

let p name body = prog ~name body
let die = sys "exit" [ int 0 ]

let determinism_tests =
  [ case "same seed, identical virtual end time" (fun () ->
        let run () =
          let w = W.create ~seed:11 W.Graphene in
          Graphene_apps.Install.script (W.kernel w).K.fs ~path:"/tmp/s.sh"
            ~contents:(Graphene_apps.Shell.utils_script ~iterations:2);
          ignore (W.start w ~exe:"/bin/sh" ~argv:[ "/tmp/s.sh" ] ());
          W.run w;
          W.now w
        in
        check_int "reproducible" (run ()) (run ()));
    case "noise changes timing but not behavior" (fun () ->
        let spinner =
          p "/bin/spinner" (seq [ spin (int 1_000_000); sys "print" [ str "done" ]; die ])
        in
        let run noise =
          let w = W.create ~seed:11 ~noise W.Graphene in
          Loader.install (W.kernel w).K.fs ~path:"/bin/spinner" spinner;
          let agg = Buffer.create 64 in
          let _ =
            W.start w ~console_hook:(Buffer.add_string agg) ~exe:"/bin/spinner" ~argv:[] ()
          in
          W.run w;
          (W.now w, Buffer.contents agg)
        in
        let t0, out0 = run 0.0 in
        let t1, out1 = run 0.02 in
        check_str "same output" out0 out1;
        check_bool "different time" true (t0 <> t1)) ]

let scheduling_tests =
  [ case "compute dilates when threads exceed cores" (fun () ->
        (* two spinners on 1 core take ~2x the time of one *)
        let spinner = p "/bin/spin" (seq [ spin (int 2_000_000); die ]) in
        let time n =
          let w = W.create ~cores:1 W.Graphene in
          Loader.install (W.kernel w).K.fs ~path:"/bin/spin" spinner;
          let ps = List.init n (fun _ -> W.start w ~exe:"/bin/spin" ~argv:[] ()) in
          W.run w;
          List.iter (fun p -> check_bool "done" true (W.exited p)) ps;
          T.to_ms (W.now w)
        in
        let one = time 1 and two = time 2 in
        check_bool
          (Printf.sprintf "roughly doubles (%.2f -> %.2f ms)" one two)
          true
          (two > one *. 1.7 && two < one *. 2.5));
    case "compute scales out up to the core count" (fun () ->
        let spinner = p "/bin/spin" (seq [ spin (int 2_000_000); die ]) in
        let time ~cores n =
          let w = W.create ~cores W.Graphene in
          Loader.install (W.kernel w).K.fs ~path:"/bin/spin" spinner;
          ignore (List.init n (fun _ -> W.start w ~exe:"/bin/spin" ~argv:[] ()));
          W.run w;
          T.to_ms (W.now w)
        in
        let serial = time ~cores:1 4 and parallel = time ~cores:4 4 in
        check_bool
          (Printf.sprintf "4 cores ~4x faster (%.2f vs %.2f ms)" serial parallel)
          true
          (serial > parallel *. 3.0)) ]

(* A Graphene+RM world with /bin/hello started (not run), and its PAL. *)
let rm_hello () =
  let w = W.create W.Graphene_rm in
  match W.start w ~exe:"/bin/hello" ~argv:[] () with
  | W.Pl lx -> (w, Lx.pal lx)
  | W.Pn _ -> Alcotest.fail "stack"

let telemetry_tests =
  [ case "every Graphene host syscall is in the PAL's 50" (fun () ->
        let w = W.create W.Graphene in
        let _ = W.start w ~exe:"/bin/lat_fork_exec" ~argv:[ "5" ] () in
        W.run w;
        List.iter
          (fun (name, _) ->
            check_bool (name ^ " allowed") true
              (List.mem name Graphene_bpf.Sysno.pal_syscalls))
          (K.syscall_counts (W.kernel w)));
    case "host syscall report of a fixed run is pinned" (fun () ->
        (* (name, calls, kernel-mode ns): each PAL call charges entry +
           filter + its own cost to its name *)
        let w = W.create W.Graphene_rm in
        let p = W.start w ~console_hook:ignore ~exe:"/bin/lat_openclose" ~argv:[ "20" ] () in
        W.run w;
        check_int "exit" 0 (W.exit_code p);
        Alcotest.(check (list (triple string int int)))
          "report"
          [ ("close", 21, 3822);
            ("open", 21, 19240);
            ("accept", 1, 1344);
            ("bind", 1, 1146);
            ("read", 1, 122);
            ("stat", 1, 866) ]
          (K.syscall_report (W.kernel w)));
    case "a raw syscall from the application is counted and charged nothing" (fun () ->
        let w, pal = rm_hello () in
        ignore (Graphene_pal.Pal.raw_syscall pal ~pc:0x4000_0000 ~name:"getpid" ~args:[||]);
        check_bool "getpid" true
          (List.mem ("getpid", 1, 0) (K.syscall_report (W.kernel w))));
    case "a name without a syscall number is filtered as nr -1" (fun () ->
        let w, pal = rm_hello () in
        let verdict pc =
          let action, cost =
            K.syscall_check (W.kernel w) (Graphene_pal.Pal.pico pal) ~name:"no_such_call" ~pc
              ~args:[||]
          in
          (Format.asprintf "%a" Graphene_bpf.Prog.pp_action action, cost)
        in
        let check_verdict = Alcotest.(check (pair string int)) in
        check_verdict "from the PAL" ("KILL", 114) (verdict (K.pal_base + 0x100));
        check_verdict "from the application" ("TRAP", 12) (verdict 0x4000_0000);
        check_bool "counted" true
          (List.mem ("no_such_call", 2, 0) (K.syscall_report (W.kernel w))));
    case "PAL call count grows with work" (fun () ->
        let w = W.create W.Graphene in
        let p1 = W.start w ~exe:"/bin/hello" ~argv:[] () in
        W.run w;
        match p1 with
        | W.Pl lx -> check_bool "calls made" true (Graphene_pal.Pal.call_count (Lx.pal lx) > 0)
        | W.Pn _ -> Alcotest.fail "wrong stack");
    case "rpc telemetry counts coordination traffic" (fun () ->
        (* a cross-process signal must travel as an RPC *)
        let r =
          run_prog
            (prog ~name:"/bin/t"
               ~funcs:[ func "h" [ "s" ] unit ]
               (let_ "pid" (sys "fork" [])
                  (if_ (v "pid" =% int 0)
                     (seq
                        [ sys "sigaction" [ int 10; str "h" ];
                          sys "nanosleep" [ int 5_000_000 ];
                          die ])
                     (seq
                        [ sys "nanosleep" [ int 1_000_000 ];
                          sys "kill" [ v "pid"; int 10 ];
                          sys "wait" [];
                          die ]))))
        in
        expect_exit r;
        match r.p with
        | W.Pl lx ->
          check_bool "rpc happened" true (Graphene_ipc.Instance.rpc_sent (Lx.ipc lx) > 0)
        | W.Pn _ -> Alcotest.fail "wrong stack") ]

let watchdog_tests =
  [ case "the watchdog stops livelocked worlds" (fun () ->
        let w = W.create W.Graphene in
        Loader.install (W.kernel w).K.fs ~path:"/bin/loop"
          (p "/bin/loop" (while_ (bool true) (spin (int 100))));
        ignore (W.start w ~exe:"/bin/loop" ~argv:[] ());
        Alcotest.check_raises "watchdog"
          (Failure "Kernel.run_watchdog: event budget exhausted (livelock?)") (fun () ->
            K.run_watchdog (W.kernel w) ~max_events:5_000));
    case "run_until bounds a busy world in time" (fun () ->
        let w = W.create W.Graphene in
        Loader.install (W.kernel w).K.fs ~path:"/bin/loop"
          (p "/bin/loop" (while_ (bool true) (spin (int 100))));
        ignore (W.start w ~exe:"/bin/loop" ~argv:[] ());
        Engine.run_until (W.kernel w).K.engine (T.ms 5.0);
        check_bool "time bounded" true (W.now w >= T.ms 5.0)) ]

let cross_stack_tests =
  [ case "all four stacks run the full shell workload" (fun () ->
        List.iter
          (fun stack ->
            let w = W.create stack in
            Graphene_apps.Install.script (W.kernel w).K.fs ~path:"/tmp/s.sh"
              ~contents:(Graphene_apps.Shell.utils_script ~iterations:2);
            let p = W.start w ~exe:"/bin/sh" ~argv:[ "/tmp/s.sh" ] () in
            W.run w;
            check_bool (W.stack_name stack ^ " exits 0") true
              (W.exited p && W.exit_code p = 0))
          [ W.Linux; W.Kvm; W.Graphene; W.Graphene_rm ]);
    case "stack ordering: Linux <= KVM <= Graphene+RM on the shell workload" (fun () ->
        let time stack =
          let w = W.create stack in
          Graphene_apps.Install.script (W.kernel w).K.fs ~path:"/tmp/s.sh"
            ~contents:(Graphene_apps.Shell.utils_script ~iterations:5);
          let p = W.start w ~exe:"/bin/sh" ~argv:[ "/tmp/s.sh" ] () in
          W.run w;
          match W.started_at p with
          | Some t -> T.diff (W.now w) t
          | None -> Alcotest.fail "never started"
        in
        let l = time W.Linux and k = time W.Kvm and g = time W.Graphene_rm in
        check_bool "Linux <= KVM" true (l <= k);
        check_bool "KVM < Graphene+RM" true (k < g)) ]

let suite =
  determinism_tests @ scheduling_tests @ telemetry_tests @ watchdog_tests @ cross_stack_tests
