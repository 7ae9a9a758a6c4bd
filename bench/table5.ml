(** Table 5 — application benchmarks: gcc/make execution time,
    Apache/lighttpd throughput under ApacheBench, and the two Bash
    workloads, on Linux, KVM and Graphene(+RM). *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Apps = Graphene_apps

let stacks = [ W.Linux; W.Kvm; W.Graphene_rm ]

(* KVM start-up (3.3 s boot) must not count against workload time: the
   boot happens before the measured run because boot cost elapses
   before the app starts, and run_app measures from the start call...
   so subtract the stack's fixed start-up instead. *)
let compile_time workload jobs w =
  let manifest = Apps.Compile.install_tree (W.kernel w).K.fs workload in
  let p, _, dt = Harness.run_app w ~exe:"/bin/make" ~argv:[ manifest; string_of_int jobs ] in
  let t0 =
    match W.started_at p with Some t -> t | None -> failwith "make never started"
  in
  ignore dt;
  Graphene_sim.Time.to_s (Graphene_sim.Time.diff (W.now w) t0)

let script_time script w =
  Apps.Install.script (W.kernel w).K.fs ~path:"/tmp/bench.sh" ~contents:script;
  let p, _, _ = Harness.run_app w ~exe:"/bin/sh" ~argv:[ "/tmp/bench.sh" ] in
  let t0 = match W.started_at p with Some t -> t | None -> failwith "never started" in
  Graphene_sim.Time.to_s (Graphene_sim.Time.diff (W.now w) t0)

(* A deterministic warmup pass (5% of the measured load, at least 100
   requests) precedes measurement, so the first trials don't pay the
   server's cold caches — this is what tightened the quick-mode apache
   confidence intervals. *)
let throughput ~exe ~argv ~ready ~concurrency ~requests w =
  let warmup = max 100 (requests / 20) in
  Harness.web_throughput ~warmup ~exe ~argv ~ready ~requests ~concurrency w

let time_rows ~trials rows table =
  List.iter
    (fun (name, f) ->
      let cols =
        List.map
          (fun stack ->
            Harness.trials ~n:trials ~name:("table5/" ^ name) ~unit:"s" ~stack f)
          stacks
      in
      Harness.row_time table name cols)
    rows

let run ?(full = true) () =
  let headers =
    [ "Benchmark"; "Linux"; "+/-"; "KVM"; "+/-"; "ovh"; "Graphene+RM"; "+/-"; "ovh" ]
  in
  (* gcc/make *)
  let t = Table.create ~title:"Table 5a: gcc/make execution time (s)" ~headers in
  let compile_rows =
    if full then
      [ ("bzip2", compile_time Apps.Compile.bzip2 1);
        ("bzip2 -j4", compile_time Apps.Compile.bzip2 4);
        ("libLinux", compile_time Apps.Compile.liblinux 1);
        ("libLinux -j4", compile_time Apps.Compile.liblinux 4);
        ("gcc", compile_time Apps.Compile.gcc_single 1) ]
    else [ ("bzip2 -j4", compile_time Apps.Compile.bzip2 4) ]
  in
  time_rows ~trials:(if full then 6 else 2) compile_rows t;
  Table.print t;
  Harness.paper_note "bzip2 2.57/2.70(5%%)/2.70(5%%); bzip2 -j4 1.00/1.09/1.08(8%%)";
  Harness.paper_note "libLinux 7.23/7.55(4%%)/8.64(20%%); -j4 1.95/2.03/2.54(30%%); gcc 24.74/26.80(8%%)/31.84(29%%)";
  print_newline ();
  (* web servers *)
  let t2 =
    Table.create ~title:"Table 5b: web server throughput (MB/s)"
      ~headers:[ "Server/conc"; "Linux"; "KVM"; "ovh"; "Graphene+RM"; "ovh" ]
  in
  let requests = if full then 20_000 else 2_000 in
  let concs = if full then [ 25; 50; 100 ] else [ 25 ] in
  let apache25_linux = ref None in
  List.iter
    (fun (label, exe, argv, ready) ->
      List.iter
        (fun conc ->
          (* web rows keep 4 trials even in quick mode: at 2 the apache
             ci95 was ~65% of the mean, drowning the signal *)
          let m stack =
            Harness.trials ~n:4
              ~name:(Printf.sprintf "table5/%s_%dconc" label conc)
              ~unit:"MB/s" ~stack
              (throughput ~exe ~argv ~ready ~concurrency:conc ~requests)
          in
          let linux = m W.Linux and kvm = m W.Kvm and g = m W.Graphene_rm in
          if String.equal label "apache" && conc = 25 then apache25_linux := Some linux;
          let pct s =
            Table.cell_pct ((Stats.mean s -. Stats.mean linux) /. Stats.mean linux *. 100.)
          in
          Table.add_row t2
            [ Printf.sprintf "%s %d conc" label conc;
              Printf.sprintf "%.2f" (Stats.mean linux);
              Printf.sprintf "%.2f" (Stats.mean kvm);
              pct kvm;
              Printf.sprintf "%.2f" (Stats.mean g);
              pct g ])
        concs)
    [ ("apache", "/bin/apache", [ "8080"; "4"; "plain" ], "apache ready");
      ("lighttpd", "/bin/lighttpd", [ "8080"; "4" ], "lighttpd ready") ];
  Table.print t2;
  Harness.paper_note "apache 25c: 5.73/4.84(-16%%)/4.02(-30%%); lighttpd 25c: 6.66/6.46(-3%%)/5.65(-15%%)";
  print_newline ();
  (* Accept-semaphore fast-path ablation (docs/WEB.md): the apache row
     again with {!Graphene_ipc.Config.t.sem_fastpath} off — every
     accept-serializing semop pays the coordination RPC, the pre-
     fast-path behavior. Two trials at fixed seeds: the rows are
     calibration anchors, and the virtual clock makes each one
     reproduce byte-for-byte at the same seed. *)
  let t2a =
    Table.create ~title:"Table 5b': apache 25 conc, accept-sem fast path ablation (MB/s)"
      ~headers:[ "Config"; "Graphene+RM"; "vs Linux" ]
  in
  let linux_mean =
    match !apache25_linux with
    | Some s -> Stats.mean s
    | None -> failwith "table5: apache 25 conc Linux row missing"
  in
  List.iter
    (fun (label, cfg) ->
      let g =
        Harness.trials ~n:2
          ~name:(Printf.sprintf "table5/apache_25conc_%s" label)
          ~unit:"MB/s" ~cfg ~stack:W.Graphene_rm
          (throughput ~exe:"/bin/apache" ~argv:[ "8080"; "4"; "plain" ]
             ~ready:"apache ready" ~concurrency:25 ~requests)
      in
      Table.add_row t2a
        [ "sem_fastpath " ^ label;
          Printf.sprintf "%.2f" (Stats.mean g);
          Table.cell_pct ((Stats.mean g -. linux_mean) /. linux_mean *. 100.) ])
    [ ("on", Graphene_ipc.Config.default ());
      ("off",
       (* only the fast path off — the other caches stay, so the delta
          is the fast path's alone *)
       { (Graphene_ipc.Config.default ()) with Graphene_ipc.Config.sem_fastpath = false }) ];
  Table.print t2a;
  Harness.paper_note "paper apache gap: -30%% — fast path on should land near it, off reverts to the RPC-bound number";
  print_newline ();
  (* bash *)
  let t3 = Table.create ~title:"Table 5c: bash workloads (s)" ~headers in
  let iterations = if full then 300 else 30 in
  let tasks = if full then 280 else 30 in
  time_rows ~trials:(if full then 6 else 2)
    [ ("Unix utils", script_time (Apps.Shell.utils_script ~iterations));
      ("Unixbench", script_time (Apps.Shell.unixbench_script ~tasks)) ]
    t3;
  Table.print t3;
  Harness.paper_note "Unix utils 0.87/1.10(26%%)/2.01(134%%); Unixbench 0.55/0.55/1.49(192%%)";
  print_newline ()
