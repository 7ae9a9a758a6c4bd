(** Shared benchmark machinery.

    The paper reports each number as a mean with a 95% confidence
    interval over at least six runs; [trials] reproduces that: each
    trial runs in a fresh world with a different seed and a little
    timing noise. All measured quantities are virtual time. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module T = Graphene_sim.Time
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Loader = Graphene_liblinux.Loader
module Apps = Graphene_apps
module Marks = Graphene_apps.Lmbench.Marks

let default_trials = 6
let noise = 0.006

(* {1 Machine-readable metrics}

   Every named measurement lands in a registry; [write_metrics] dumps
   it as BENCH_<mode>.json so runs can be diffed and plotted without
   scraping the printed tables. The file is JSON laid out one element
   per line: a header line, one line per metric, and a closing line;
   [read_metrics] reads that layout back and nothing else. *)

type metric = {
  m_name : string;
  m_unit : string;
  m_mean : float;
  m_ci95 : float;
  m_trials : int;
}

let metrics : metric list ref = ref []

let record ?(unit = "") name s =
  metrics :=
    { m_name = name;
      m_unit = unit;
      m_mean = Stats.mean s;
      m_ci95 = Stats.ci95 s;
      m_trials = Stats.count s }
    :: !metrics

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* %.17g round-trips doubles exactly and stays valid JSON. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let header_line ~mode ~version =
  Printf.sprintf "{\"mode\":\"%s\",\"version\":\"%s\",\"metrics\":[" (json_escape mode)
    (json_escape version)

let metric_line m =
  Printf.sprintf "{\"name\":\"%s\",\"unit\":\"%s\",\"mean\":%s,\"ci95\":%s,\"trials\":%d}"
    (json_escape m.m_name) (json_escape m.m_unit) (json_float m.m_mean) (json_float m.m_ci95)
    m.m_trials

let write_metrics ~mode =
  let path = Printf.sprintf "BENCH_%s.json" mode in
  let oc = open_out_bin path in
  output_string oc (header_line ~mode ~version:Graphene.Graphene_version.version ^ "\n");
  output_string oc (String.concat ",\n" (List.rev_map metric_line !metrics));
  output_string oc "\n]}\n";
  close_out oc;
  Printf.printf "\n-- %d metrics -> %s\n" (List.length !metrics) path

(* The metrics of a file [write_metrics] wrote, in file order. A line
   must scan and print back to itself exactly, so the reader accepts
   only the writer's own rendering: no nan, no extra field, no other
   number syntax. Errors name the file and line. *)
let read_metrics path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    let fail n what = Error (Printf.sprintf "%s:%d: %s" path n what) in
    let seen = Hashtbl.create 256 in
    let rec body n acc = function
      | [ "]}"; "" ] -> Ok (List.rev acc)
      | [ ""; "]}"; "" ] when acc = [] -> Ok []
      | [] | [ _ ] -> fail n "truncated: no closing ]}"
      | line :: rest -> (
        let sep = if rest = [ "]}"; "" ] then "" else "," in
        match
          Scanf.sscanf line "{\"name\":%S,\"unit\":%S,\"mean\":%f,\"ci95\":%f,\"trials\":%d}%s%!"
            (fun m_name m_unit m_mean m_ci95 m_trials _ ->
              { m_name; m_unit; m_mean; m_ci95; m_trials })
        with
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          fail n "malformed metric line"
        | m when line <> metric_line m ^ sep -> fail n "malformed metric line"
        | m when Hashtbl.mem seen m.m_name -> fail n ("duplicate metric " ^ m.m_name)
        | m ->
          Hashtbl.add seen m.m_name ();
          body (n + 1) (m :: acc) rest)
    in
    (* split_on_char never returns [] *)
    let header, rest =
      match String.split_on_char '\n' text with h :: r -> (h, r) | [] -> assert false
    in
    match
      Scanf.sscanf header "{\"mode\":%S,\"version\":%S,\"metrics\":[%!" (fun mode version ->
          header_line ~mode ~version)
    with
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> fail 1 "malformed header line"
    | canonical when canonical <> header -> fail 1 "malformed header line"
    | _ -> body 2 [] rest)

(* {1 Self-checks}

   Every pass/fail check an experiment makes on its own results goes
   through [gate]: one printed line, and a failure turns the run's
   exit code nonzero once the metrics are written, so a failing run
   stays inspectable. *)

let failed_gates : string list ref = ref []

let gate name passed detail =
  Printf.printf "  gate %-36s %s  %s\n%!" name (if passed then "ok  " else "FAIL") detail;
  if not passed then failed_gates := name :: !failed_gates

(* Run [f] against [n] fresh worlds of [stack]; collect its float
   result into stats. [name] also records the result in the metrics
   registry, suffixed by the stack. [cfg] overrides the coordination
   config (Table 5b′ runs the same trials without the semaphore fast
   path). *)
let trials ?(n = default_trials) ?name ?unit ?cfg ~stack f =
  let s = Stats.create () in
  for seed = 1 to n do
    let w = W.create ~seed:(seed * 7919) ~noise ?cfg stack in
    Stats.add s (f w)
  done;
  (match name with
  | Some name -> record ?unit (name ^ "/" ^ W.stack_name stack) s
  | None -> ());
  s

(* The run of one guest program to completion; returns (world, proc,
   aggregated console, elapsed virtual seconds). *)
let run_app w ~exe ~argv =
  let agg = Buffer.create 256 in
  let t0 = W.now w in
  let p = W.start w ~console_hook:(Buffer.add_string agg) ~exe ~argv () in
  W.run w;
  let dt = T.to_s (T.diff (W.now w) t0) in
  (p, Buffer.contents agg, dt)

(* Per-operation latency (us) of an lmbench-style program. *)
let lmbench_us ~exe ~iters w =
  let _, console, _ = run_app w ~exe ~argv:[ string_of_int iters ] in
  match Marks.per_op console ~iters with
  | Some ns -> ns /. 1000.
  | None -> failwith (exe ^ ": no marks in console output")

(* A MARK-phase latency (us). *)
let phase_us ~exe ~iters ~phase w =
  let _, console, _ = run_app w ~exe ~argv:[ string_of_int iters ] in
  match Marks.interval console ~start:(phase ^ "0") ~stop:(phase ^ "1") ~iters with
  | Some ns -> ns /. 1000.
  | None -> failwith (exe ^ ": missing phase " ^ phase)

(* Throughput (MB/s) of a web server under ApacheBench-style load.
   [warmup] unmeasured requests run first at the same concurrency, so
   server-side caches (worker pools, the VFS dcache, refmon decisions)
   reach steady state before the measured span starts — ApacheBench's
   own methodology, and what keeps the per-trial numbers tight. *)
let web_throughput ?(warmup = 0) ~exe ~argv ~ready ~requests ~concurrency w =
  let client = W.client_pico w in
  let result = ref None in
  let started = ref false in
  let measured () =
    ignore
      (Apps.Loadgen.run (W.kernel w) ~client ~port:8080 ~path:"/index.html" ~requests
         ~concurrency (fun st -> result := Some st))
  in
  let hook s =
    if (not !started) && Util_contains.contains s ready then begin
      started := true;
      if warmup > 0 then
        ignore
          (Apps.Loadgen.run (W.kernel w) ~client ~port:8080 ~path:"/index.html"
             ~requests:warmup ~concurrency (fun _ -> measured ()))
      else measured ()
    end
  in
  ignore (W.start w ~console_hook:hook ~exe ~argv ());
  W.run w;
  match !result with
  | Some st -> Apps.Loadgen.throughput_mb_s st
  | None -> failwith (exe ^ ": server never became ready")

(* Peak system memory during a run, sampled every [period] of virtual
   time (Figure 4's maximum-resident-set methodology). *)
let peak_memory_during w ~period ~exe ~argv =
  let peak = ref 0 in
  let finished = ref false in
  let kernel = W.kernel w in
  let rec sample () =
    peak := max !peak (W.memory_footprint w);
    if not !finished then K.after kernel period sample
  in
  sample ();
  let agg = Buffer.create 64 in
  let p = W.start w ~console_hook:(Buffer.add_string agg) ~exe ~argv () in
  (* stop sampling when the initial process exits *)
  K.on_pico_exit kernel (W.pico p) (fun _ -> finished := true);
  W.run w;
  peak := max !peak (W.memory_footprint w);
  float_of_int !peak

(* Mean/CI cells. *)
let cell_s s = Printf.sprintf "%.2f" (Stats.mean s)
let cell_ci s = Printf.sprintf ".%02.0f" (Stats.ci95 s *. 100.)

let cell_overhead ~base s =
  let b = Stats.mean base and x = Stats.mean s in
  if b <= 0. then "n/a" else Table.cell_pct ((x -. b) /. b *. 100.)

let row_time table name cols =
  let base = List.hd cols in
  Table.add_row table
    (name
    :: List.concat_map
         (fun s ->
           if s == base then [ cell_s s; cell_ci s ]
           else [ cell_s s; cell_ci s; cell_overhead ~base s ])
         cols)

let paper_note fmt = Printf.printf ("    paper: " ^^ fmt ^^ "\n")
