(* The repository benchmark (README.md in this directory).

   Usage:
     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
     main.exe probe
     main.exe collect --out FILE [--runs N] [--seed N] [--seconds S]
     main.exe compare A.json B.json [--spec BENCHMARK.json]

   [run] prints human-readable lines and, last, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The metrics are the
   end-to-end ones, or with [--trace 1] the per-layer ones. *)

open Graphene_perf

let usage () =
  prerr_endline
    "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n\
    \       main.exe probe\n\
    \       main.exe collect --out FILE [--runs N] [--seed N] [--seconds S]\n\
    \       main.exe compare A.json B.json [--spec BENCHMARK.json]";
  exit 2

let default_seconds = 10.

(* Split "--key value" options from positional arguments. *)
let parse args =
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: opts) pos rest
    | k :: _ when String.length k > 2 && String.sub k 0 2 = "--" -> usage ()
    | p :: rest -> go opts (p :: pos) rest
  in
  go [] [] args

let opt opts k conv default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> usage ())

let run opts pos =
  let name =
    match (pos, List.assoc_opt "workload" opts) with [], Some w -> w | _ -> usage ()
  in
  let wl =
    match Workload.find name with
    | Some wl -> wl
    | None ->
      prerr_endline
        ("unknown workload " ^ name ^ " (try: "
        ^ String.concat " " (List.map (fun (w : Workload.t) -> w.name) Workload.all)
        ^ ")");
      exit 2
  in
  let seed = opt opts "seed" int_of_string_opt 1 in
  let seconds = opt opts "seconds" float_of_string_opt default_seconds in
  let traced =
    match opt opts "trace" Option.some "0" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let trace_out = List.assoc_opt "trace-out" opts in
  Printf.printf "perf run %s: seed %d, %gs, %s\n%!" name seed seconds
    (if traced then "traced" else "untraced");
  let r = Bench.run ?trace_out wl ~seed ~seconds ~traced Workload.Full in
  List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %14.6g %s\n" n v u) r.metrics;
  print_endline (Json.to_string (Bench.result_json r));
  if not r.correct then exit 1

let probe () =
  let results = Probe.all () in
  Printf.printf "%-32s %12s %12s %12s\n" "probe" "median" "q1" "q3";
  List.iter
    (fun (p : Probe.result) ->
      Printf.printf "%-32s %12.2f %12.2f %12.2f %s\n" p.name p.median p.q1 p.q3 p.unit_)
    results

let collect opts =
  let out = match List.assoc_opt "out" opts with Some f -> f | None -> usage () in
  let j =
    Compare.collect ~exe:Sys.executable_name
      ~runs:(opt opts "runs" int_of_string_opt 10)
      ~seed:(opt opts "seed" int_of_string_opt 1)
      ~seconds:(opt opts "seconds" float_of_string_opt default_seconds)
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string j ^ "\n"))

let compare opts pos =
  match pos with
  | [ a; b ] ->
    let spec = Json.of_file (opt opts "spec" Option.some "BENCHMARK.json") in
    if Compare.compare ~spec ~a:(Json.of_file a) ~b:(Json.of_file b) then exit 1
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | cmd :: args -> (
    let opts, pos = parse args in
    match cmd with
    | "run" -> run opts pos
    | "probe" -> probe ()
    | "collect" -> collect opts
    | "compare" -> compare opts pos
    | _ -> usage ())
  | [] -> usage ()
