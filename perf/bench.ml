(* One benchmark run of one workload.

   A run repeats a round — set up the workload's worlds, then drive the
   measured phase — until its time budget is spent. Every round builds
   the same worlds from the same seed, so every round must produce
   identical virtual results. Host times are medians over the rounds
   after the first; the virtual metrics and the heap high-water mark
   come from the first round.

   Untraced, the run reports the end-to-end metrics. Traced, it spends
   half its budget on untraced rounds, then repeats the measured phase
   once with every world's tracer on, checks that the virtual results
   did not change, and reports the per-layer metrics and the probes. *)

module W = Graphene.World
module Obs = Graphene_obs.Obs

type round = {
  setup_s : float;  (** host seconds, as measured *)
  wall_s : float;
  slowdown : float;  (** the host's speed during the round: sampled loop time over nominal *)
  top_heap_mb : float;  (** the process's OCaml heap high-water mark after the round *)
  out : Workload.outcome;
  counts : Layers.counts;
  gc : float * float * int;  (** minor words, promoted words, major collections *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  notes : string list;  (** human-readable context printed before the result *)
}

let now = Unix.gettimeofday

(* {1 Host speed}

   On a shared machine the host's speed changes by a factor of two from
   one second to the next (another tenant's load on the same core), and
   no number of rounds averages that away. So while rounds run, a timer
   interrupts them every 20 ms to time a fixed integer loop that calls
   no library code, and host times are reported at the loop's nominal
   speed: measured seconds x nominal / mean loop time over the round.
   A change to the libraries cannot move the loop. Sampling inside the
   round, not around it, is what makes this work: loop times taken
   before and after each round left 10 runs of one workload spread by
   up to 16%, samples taken during it by about 2%. *)

let tick_nominal_s = 40e-6
let tick_total = ref 0.
let ticks = ref 0

let tick _ =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 50_000 do
    x := !x lxor (i * 31)
  done;
  ignore (Sys.opaque_identity !x);
  tick_total := !tick_total +. (now () -. t0);
  incr ticks

let with_speed_samples f =
  let every s = { Unix.it_interval = s; it_value = s } in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
  ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.02));
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.));
      Sys.set_signal Sys.sigalrm Sys.Signal_default)

(* The host's slowdown since the last call: mean loop time over
   nominal, or 1 outside [with_speed_samples]. *)
let take_slowdown () =
  let s = if !ticks = 0 then 1. else !tick_total /. float_of_int !ticks /. tick_nominal_s in
  tick_total := 0.;
  ticks := 0;
  s

(* Build the workload's worlds, with their tracers on when [trace] is
   given. The returned function runs the measured phase, folding a
   world's trace into [trace] each time the phase runs it to idle. *)
let prepare ?trace (wl : Workload.t) ~seed size =
  let p = wl.prepare ~seed size in
  Option.iter (fun _ -> List.iter (fun w -> Obs.enable (W.tracer w)) p.worlds) trace;
  (p.worlds, fun () -> p.measure (fun w -> Option.iter (fun tr -> Layers.harvest tr w) trace))

let round ?trace wl ~seed size =
  (* every round starts on a collected heap *)
  Gc.full_major ();
  ignore (take_slowdown ());
  let t0 = now () in
  let worlds, measure = prepare ?trace wl ~seed size in
  let setup_s = now () -. t0 in
  let c0 = Layers.counts worlds in
  let g0 = Gc.quick_stat () in
  let t1 = now () in
  let out = measure () in
  let wall_s = now () -. t1 in
  let g1 = Gc.quick_stat () in
  let counts = Layers.counts_diff c0 (Layers.counts worlds) in
  let top_heap_mb = float_of_int g1.Gc.top_heap_words *. 8. /. 1e6 in
  { setup_s;
    wall_s;
    slowdown = take_slowdown ();
    top_heap_mb;
    out;
    counts;
    gc =
      ( g1.Gc.minor_words -. g0.Gc.minor_words,
        g1.Gc.promoted_words -. g0.Gc.promoted_words,
        g1.Gc.major_collections - g0.Gc.major_collections ) }

(* The first round, the timed rounds, and whether every round repeated
   the first one's virtual results. The first round warms the process
   up and is not timed: it runs 1-4% slower than the rest, which show
   no trend. A timed round keeps only its host times: holding every
   round's latency samples would grow the heap, and with it the GC's
   work, from round to round. Once two rounds are timed, the run stops
   before a round as long as the last one would overrun the budget. *)
let rounds wl ~seed ~budget size =
  let start = now () in
  let first = round wl ~seed size in
  let rec go timed same =
    let t0 = now () in
    let r = round wl ~seed size in
    let same = same && r.out = first.out in
    let timed = { r with out = first.out } :: timed in
    let t1 = now () in
    if List.length timed >= 2 && t1 +. (t1 -. t0) -. start > budget then (first, List.rev timed, same)
    else go timed same
  in
  go [] true

let median_of f rs = Stat.median (List.map f rs)

(* Host seconds at the sampled loop's nominal speed. *)
let setup_norm r = r.setup_s /. r.slowdown
let wall_norm r = r.wall_s /. r.slowdown

let end_to_end first timed =
  let lat = first.out.Workload.lat_us in
  [ ("setup_s", "s", median_of setup_norm timed);
    ("wall_s", "s", median_of wall_norm timed);
    (* later rounds reuse a heap the first one grew, and its
       fragmentation creeps up with the round count *)
    ("peak_heap_mb", "MB", first.top_heap_mb);
    ("virt_s", "s", float_of_int first.out.virt_ns /. 1e9);
    ("virt_p50_us", "us", Stat.median lat);
    ("virt_p999_us", "us", fst (Stat.tail lat)) ]

let probe_metrics () =
  List.map (fun (p : Probe.result) -> (p.name, p.unit_, p.median)) (Probe.all ())

let run ?trace_out (wl : Workload.t) ~seed ~seconds ~traced size =
  let budget = if traced then seconds /. 2. else seconds in
  let tr = Layers.trace ~chrome_out:trace_out in
  let (first, timed, deterministic), traced_round =
    with_speed_samples (fun () ->
        let rs = rounds wl ~seed ~budget size in
        (rs, if traced then Some (round ~trace:tr wl ~seed size) else None))
  in
  let out = first.out in
  let _, pct = Stat.tail out.lat_us in
  let n = 1 + List.length timed + if traced then 1 else 0 in
  let slowdowns = List.map (fun r -> r.slowdown) timed in
  let notes =
    [ Printf.sprintf "rounds: %d (1 warm-up, %d timed%s), deterministic: %b" n (List.length timed)
        (if traced then ", 1 traced" else "") deterministic;
      Printf.sprintf "operations per round: %d attempted, %d failed; latency samples: %d (tail = P%.2f)"
        out.attempted out.failed (List.length out.lat_us) pct;
      Printf.sprintf "events per round: %d" first.counts.events;
      Printf.sprintf "raw host s (median): setup %.6f, measured %.4f; host slowdown %.3f (%.3f-%.3f)"
        (median_of (fun r -> r.setup_s) timed) (median_of (fun r -> r.wall_s) timed)
        (Stat.median slowdowns)
        (List.fold_left Float.min Float.infinity slowdowns)
        (List.fold_left Float.max 0. slowdowns) ]
    @ List.map (fun (n, u, v) -> Printf.sprintf "%s: %.6g %s" n v u) out.extras
  in
  let metrics, correct, notes =
    match traced_round with
    | None -> (end_to_end first timed, deterministic, notes)
    | Some traced_round ->
      let same = traced_round.out = out in
      ( Layers.metrics tr ~counts:first.counts ~gc:first.gc ~wall_s:(median_of wall_norm timed)
          ~traced_wall_s:(wall_norm traced_round)
        @ probe_metrics (),
        deterministic && same,
        notes @ [ Printf.sprintf "traced virtual results equal untraced: %b" same ] )
  in
  { correct = correct && out.failed = 0;
    attempted = n * out.attempted;
    failed = n * out.failed;
    metrics;
    notes }

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
             r.metrics) ) ]
