(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (§6).

    Usage:
      main.exe [all|quick|table1|table4|table5|table6|table7|table8|
                figure4|figure5|ablation|critpath|chaos|cache|contend|web]
               [--baseline FILE]
      main.exe regress BASELINE FRESH

    [all] (the default) runs everything at full scale; [quick] runs
    reduced sizes.

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
    ("cache", "Fast paths: caches cold vs warm, hit rates, vDSO page, submission ring", fun () ->
        Cache.run ~full ());
    ("contend", "Contention sweep: wait attribution, leader share, convoys", fun () ->
        Contend.run ~full ());
    ("web", "Web farm: event-driven servers at production concurrency", fun () -> Web.run ~full ()) ]

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
    | name -> (
      match List.find_opt (fun (n, _, _) -> n = name) (experiments ~full:true) with
      | Some (_, title, f) ->
        header title;
        f ();
        finish ~mode ~baseline
      | None ->
        prerr_endline
          ("unknown experiment " ^ name
         ^ " (try: all quick table1 table4 table5 table6 table7 table8 figure4 figure5 ablation critpath chaos cache contend web)");
        exit 2))
