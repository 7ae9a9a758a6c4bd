(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (§6).

    Usage:
      main.exe [all|quick|table1|table4|table5|table6|table7|table8|
                figure4|figure5|ablation|critpath|chaos|cache|contend|web|ring|
                bechamel]
               [--baseline FILE]
      main.exe regress BASELINE FRESH

    [all] (the default) runs everything at full scale; [quick] runs
    reduced sizes. [bechamel] wall-clock-benchmarks one representative
    probe per table through Bechamel, as a harness self-measurement.

    A run exits nonzero if any of its self-checks ({!Harness.gate})
    failed, or if [--baseline FILE] is given and the metrics the run
    just wrote differ from that committed BENCH_*.json in any way
    (see {!Regress}) — the CI gate. [regress] runs only that
    comparison, between two already-written files. *)

let header title =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let experiments ~full =
  [ ("table1", "Table 1: host ABI inventory", fun () -> Table1.run ());
    ("table4", "Table 4: startup / checkpoint / resume", fun () -> Table4.run ());
    ("figure4", "Figure 4: memory footprints", fun () -> Figure4.run ~full ());
    ("table5", "Table 5: application benchmarks", fun () -> Table5.run ~full ());
    ("table6", "Table 6: LMbench microbenchmarks", fun () -> Table6.run ~full ());
    ("table7", "Table 7: System V message queues", fun () -> Table7.run ~full ());
    ("figure5", "Figure 5: RPC scalability", fun () -> Figure5.run ~full ());
    ("table8", "Table 8: vulnerability analysis", fun () -> Table8.run ());
    ("ablation", "Ablation: s4.3 coordination optimizations", fun () -> Ablation.run ());
    ("critpath", "Critical path: cross-picoprocess signal delivery", fun () ->
        Critpath_report.run ());
    ("chaos", "Chaos sweep: fault injection and leader recovery", fun () -> Chaos.run ~full ());
    ("cache", "Cache ablation: fast-path caches on/off, hit rates", fun () -> Cache.run ~full ());
    ("contend", "Contention sweep: wait attribution, leader share, convoys", fun () ->
        Contend.run ~full ());
    ("web", "Web farm: event-driven servers at production concurrency", fun () -> Web.run ~full ());
    ("ring", "vDSO page + submission ring: fast-path gates", fun () -> Ring.run ~full ()) ]

(* {1 Bechamel probes}

   One Test.make per table/figure: a silent, miniature version of the
   experiment, wall-clock-measured — how expensive regenerating each
   result is on the host machine. *)

module Bech = struct
  open Bechamel

  let probe_table1 () = ignore (Graphene_pal.Abi.class_counts Graphene_pal.Abi.Drawbridge)

  let probe_table4 () =
    let w = Graphene.World.create Graphene.World.Graphene in
    ignore (Table4.startup_time Graphene.World.Graphene w)

  let probe_figure4 () =
    let w = Graphene.World.create Graphene.World.Graphene in
    let p = Graphene.World.start w ~exe:"/bin/hello" ~argv:[] () in
    Graphene.World.run w;
    ignore p;
    ignore (Graphene.World.memory_footprint w)

  let probe_table5 () =
    let w = Graphene.World.create Graphene.World.Graphene in
    Graphene_apps.Install.script (Graphene.World.kernel w).Graphene_host.Kernel.fs
      ~path:"/tmp/p.sh"
      ~contents:(Graphene_apps.Shell.utils_script ~iterations:2);
    ignore (Harness.time_app ~exe:"/bin/sh" ~argv:[ "/tmp/p.sh" ] w)

  let probe_table6 () =
    let w = Graphene.World.create Graphene.World.Graphene in
    ignore (Harness.lmbench_us ~exe:"/bin/lat_syscall" ~iters:200 w)

  let probe_table7 () =
    let w = Graphene.World.create Graphene.World.Graphene in
    ignore (Harness.phase_us ~exe:"/bin/sysv_inproc" ~iters:10 ~phase:"snd" w)

  let probe_figure5 () = ignore (Figure5.measured_pipe_rt ~iters:200)

  let probe_table8 () = ignore (Graphene_vuln.Cve.analyze Graphene_vuln.Dataset.all)

  let probe_ablation () =
    ignore (Ablation.signal_latencies (Graphene_ipc.Config.default ()))

  let tests =
    [ Test.make ~name:"table1" (Staged.stage probe_table1);
      Test.make ~name:"table4" (Staged.stage probe_table4);
      Test.make ~name:"figure4" (Staged.stage probe_figure4);
      Test.make ~name:"table5" (Staged.stage probe_table5);
      Test.make ~name:"table6" (Staged.stage probe_table6);
      Test.make ~name:"table7" (Staged.stage probe_table7);
      Test.make ~name:"figure5" (Staged.stage probe_figure5);
      Test.make ~name:"table8" (Staged.stage probe_table8);
      Test.make ~name:"ablation" (Staged.stage probe_ablation) ]

  let run () =
    header "Bechamel: wall-clock cost of regenerating each result (miniature probes)";
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.25) ~kde:None () in
    List.iter
      (fun test ->
        let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        let results =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            instance results
        in
        Hashtbl.iter
          (fun name ols ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.printf "  %-18s %12.0f ns/run\n%!" name est
            | _ -> Printf.printf "  %-18s (no estimate)\n%!" name)
          results)
      tests
end

(* After metrics land in BENCH_<mode>.json, compare them with the
   requested baseline; a failed self-check or any difference fails
   the run. *)
let finish ~mode ~baseline =
  Harness.write_metrics ~mode;
  let equal =
    match baseline with
    | None -> true
    | Some file -> Regress.check ~baseline:file ~fresh:("BENCH_" ^ mode ^ ".json")
  in
  (match List.rev !Harness.failed_gates with
  | [] -> ()
  | names ->
    Printf.printf "== %d gates FAILED: %s\n" (List.length names) (String.concat ", " names));
  if not (equal && !Harness.failed_gates = []) then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "regress"; baseline; fresh ] -> exit (if Regress.check ~baseline ~fresh then 0 else 1)
  | _ ->
    let rec split mode baseline = function
      | [] -> (mode, baseline)
      | "--baseline" :: file :: rest -> split mode (Some file) rest
      | "--baseline" :: [] ->
        prerr_endline "--baseline needs a file argument";
        exit 2
      | m :: rest -> split m baseline rest
    in
    let mode, baseline = split "all" None args in
    Printf.printf "graphene-bench %s — mode: %s\n\n%!" Graphene.Graphene_version.version mode;
    (match mode with
    | "all" | "quick" ->
      let full = mode = "all" in
      List.iter
        (fun (_, title, f) ->
          header title;
          f ())
        (experiments ~full);
      finish ~mode ~baseline
    | "bechamel" -> Bech.run ()
    | name -> (
      match List.find_opt (fun (n, _, _) -> n = name) (experiments ~full:true) with
      | Some (_, title, f) ->
        header title;
        f ();
        finish ~mode ~baseline
      | None ->
        prerr_endline
          ("unknown experiment " ^ name
         ^ " (try: all quick table1 table4 table5 table6 table7 table8 figure4 figure5 ablation critpath chaos cache contend web ring bechamel)");
        exit 2))
