(** Chaos sweep: coordination-layer recovery under deterministic
    fault injection (docs/FAULTS.md).

    Every run launches [/bin/sigstorm] — two children exchanging
    SIGUSR1 through the leader — with a fault plan that SIGKILLs the
    leader mid-storm and, per sweep column, drops/duplicates/delays a
    fraction of the coordination messages. Because the plan is
    materialized from the run seed, each (seed, rate) cell replays the
    identical failure schedule.

    Reported per fault rate, over the seed sweep:
    - completed: both children finished their storm
    - recovered: a replacement leader served a post-election RPC
    - recovery time: virtual ns from the leader kill to that first
      served RPC (the [ipc.recovery_ns] observation)

    A run that neither completes nor recovers counts as [unrecovered].

    Every run also records with the audit plane enabled, so the online
    invariant monitors (docs/AUDIT.md) check each coordination event as
    it happens: faults may delay recovery, but they must never produce
    a double owner, a cross-sandbox delivery, a stale-lease use or an
    epoch rollback.

    Self-checks ({!Harness.gate}), over the whole sweep: zero
    unrecovered runs ([chaos.unrecovered]), zero invariant violations
    ([chaos.invariant_violations]) and zero stale lease entries left at
    live instances ([chaos.stale_leases]). *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Audit = Graphene_obs.Audit
module Invariant = Graphene_obs.Invariant
module T = Graphene_sim.Time
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Fault = Graphene_sim.Fault

let kill_at = T.ms 2.0

let spec_for rate =
  { Fault.none with
    Fault.drop = rate;
    dup = rate /. 2.;
    delay_p = rate;
    delay_max = T.us 150.;
    kill_leader_at = Some kill_at }

(* Count lease entries at live instances whose target address is no
   longer live — a stale entry a Coord sweep should have dropped. The
   introspection report is section-per-instance; only live sections
   count (a dead pico's table can say anything, nobody routes on it). *)
let stale_leases report ~live =
  let stale = ref 0 in
  let in_live = ref false in
  List.iter
    (fun line ->
      if String.length line > 9 && String.sub line 0 9 = "instance " then
        in_live := List.mem (List.nth (String.split_on_char ' ' line) 1) live
      else if !in_live then
        match String.index_opt line '>' with
        | Some i when i >= 1 && line.[i - 1] = '-' -> (
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match String.split_on_char ' ' (String.trim rest) with
          | target :: _ when target <> "" && not (List.mem target live) -> incr stale
          | _ -> ())
        | _ -> ())
    (String.split_on_char '\n' report);
  !stale

let count_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

type outcome = {
  completed : bool;  (** both children printed "storm done" *)
  recovery_ns : int option;  (** leader kill -> first post-election RPC *)
  drops : int;
  dups : int;
  delays : int;
  checked : int;  (** audit events the invariant monitors examined *)
  violations : int;  (** invariant violations — must stay zero *)
  stale : int;  (** stale coordination entries left at live instances — must stay zero *)
}

let storm_run ~seed spec =
  let w = W.create ~seed ~faults:spec W.Graphene in
  Audit.enable (W.audit w);
  let buf = Buffer.create 256 in
  ignore (W.start w ~console_hook:(Buffer.add_string buf) ~exe:"/bin/sigstorm" ~argv:[] ());
  W.run w;
  let completed = count_substring (Buffer.contents buf) "storm done" >= 2 in
  let recovery_ns =
    match K.fault_recovery (W.kernel w) with
    | Some (killed, recovered) -> Some (T.diff recovered killed)
    | None -> None
  in
  let drops, dups, delays =
    match K.fault_plan (W.kernel w) with Some p -> Fault.injected p | None -> (0, 0, 0)
  in
  let inv = W.invariants w in
  (if Invariant.total inv > 0 then
     (* keep the evidence: which property broke, at which event *)
     prerr_string (Invariant.summary inv));
  let k = W.kernel w in
  let live = List.map (fun p -> "g" ^ string_of_int p.K.pid) (K.live_picos k) in
  let stale = stale_leases (K.introspection_report k) ~live in
  { completed; recovery_ns; drops; dups; delays;
    checked = Invariant.checked inv; violations = Invariant.total inv; stale }

let rates = [ 0.0; 0.05; 0.15 ]
let seeds ~full = List.init (if full then 10 else 4) (fun i -> 7 + (13 * i))

let run ?(full = true) () =
  let seeds = seeds ~full in
  let tbl =
    Table.create ~title:"Chaos sweep: /bin/sigstorm, leader killed at 2 ms"
      ~headers:
        [ "fault rate"; "runs"; "completed"; "recovered"; "recovery (ms)"; "drops"; "dups";
          "delays"; "audited"; "violations"; "stale" ]
  in
  let unrecovered_total = ref 0 in
  let violations_total = ref 0 in
  let checked_total = ref 0 in
  let stale_total = ref 0 in
  List.iter
    (fun rate ->
      let spec = spec_for rate in
      let outs = List.map (fun seed -> storm_run ~seed spec) seeds in
      let completed = List.length (List.filter (fun o -> o.completed) outs) in
      let recovered = List.filter_map (fun o -> o.recovery_ns) outs in
      let unrecovered =
        List.length (List.filter (fun o -> (not o.completed) && o.recovery_ns = None) outs)
      in
      unrecovered_total := !unrecovered_total + unrecovered;
      let rec_stats = Stats.of_list (List.map float_of_int recovered) in
      let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
      Table.add_row tbl
        [ Printf.sprintf "%.2f" rate;
          string_of_int (List.length outs);
          string_of_int completed;
          string_of_int (List.length recovered);
          (if recovered = [] then "-"
           else
             Printf.sprintf "%.2f ± %.2f" (Stats.mean rec_stats /. 1e6)
               (Stats.ci95 rec_stats /. 1e6));
          string_of_int (sum (fun o -> o.drops));
          string_of_int (sum (fun o -> o.dups));
          string_of_int (sum (fun o -> o.delays));
          string_of_int (sum (fun o -> o.checked));
          string_of_int (sum (fun o -> o.violations));
          string_of_int (sum (fun o -> o.stale)) ];
      violations_total := !violations_total + sum (fun o -> o.violations);
      checked_total := !checked_total + sum (fun o -> o.checked);
      stale_total := !stale_total + sum (fun o -> o.stale);
      let tag = Printf.sprintf "%.2f" rate in
      if recovered <> [] then
        Harness.record ~unit:"ns" ("chaos.recovery_ns.rate" ^ tag) rec_stats;
      Harness.record ("chaos.completed.rate" ^ tag)
        (Stats.of_list (List.map (fun o -> if o.completed then 1.0 else 0.0) outs));
      Harness.record ("chaos.unrecovered.rate" ^ tag)
        (Stats.of_list [ float_of_int unrecovered ]);
      Harness.record ("chaos.invariant_violations.rate" ^ tag)
        (Stats.of_list (List.map (fun o -> float_of_int o.violations) outs));
      Harness.record ("chaos.stale_leases.rate" ^ tag)
        (Stats.of_list (List.map (fun o -> float_of_int o.stale) outs)))
    rates;
  Table.print tbl;
  Harness.gate "chaos.unrecovered" (!unrecovered_total = 0)
    (Printf.sprintf "%d unrecovered runs" !unrecovered_total);
  Harness.gate "chaos.invariant_violations" (!violations_total = 0)
    (Printf.sprintf "%d violations over %d audited events" !violations_total !checked_total);
  Harness.gate "chaos.stale_leases" (!stale_total = 0)
    (Printf.sprintf "%d stale leases at live instances" !stale_total)
