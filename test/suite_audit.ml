(** The security-audit plane (docs/AUDIT.md): event recording, JSONL
    export determinism, the online invariant monitors, refmon decision
    provenance, and the coordination introspection snapshot. *)

open Util
module Audit = Graphene_obs.Audit
module Invariant = Graphene_obs.Invariant
module Obs = Graphene_obs.Obs
module Fault = Graphene_sim.Fault
module Monitor = Graphene_refmon.Monitor
module Manifest = Graphene_refmon.Manifest

let jsonl_lines s =
  if String.trim s = "" then 0 else List.length (String.split_on_char '\n' (String.trim s))

(* {1 The log itself} *)

let test_order_and_filters () =
  let a = Audit.create () in
  Audit.enable a;
  (* out-of-pid-order emission; the merge must order by (time, seq) *)
  Audit.emit a Audit.Election ~action:"epoch" ~pid:2 ~args:[ ("epoch", Obs.Aint 1) ] (T.us 3.);
  Audit.emit a Audit.Sandbox ~action:"spawn" ~pid:1 (T.us 1.);
  Audit.emit a Audit.Sandbox ~action:"isolate" ~pid:1 (T.us 5.);
  let seqs = List.map (fun e -> e.Audit.e_seq) (Audit.recorded a) in
  check_bool "merged by time" true (seqs = [ 2; 1; 3 ]);
  check_int "all" 3 (jsonl_lines (Audit.to_jsonl a));
  check_int "pid filter" 2 (jsonl_lines (Audit.to_jsonl ~pid:1 a));
  check_int "cat filter" 1 (jsonl_lines (Audit.to_jsonl ~cat:Audit.Election a));
  (* the window is half-open [since, until): us 1 is in, us 3 is out *)
  check_int "time window" 1
    (jsonl_lines (Audit.to_jsonl ~since:(T.us 1.) ~until:(T.us 3.) a));
  check_int "conjunctive" 0 (jsonl_lines (Audit.to_jsonl ~pid:2 ~cat:Audit.Sandbox a))

(* The boundary semantics are part of the CLI contract (--since
   inclusive, --until exclusive): an event exactly at a bound must land
   in exactly one of two adjacent windows. *)
let test_window_boundaries () =
  let a = Audit.create () in
  Audit.enable a;
  Audit.emit a Audit.Fault ~action:"drop" ~pid:1 (T.us 2.);
  (* exactly at since: included *)
  check_int "at since" 1 (jsonl_lines (Audit.to_jsonl ~since:(T.us 2.) a));
  (* exactly at until: excluded *)
  check_int "at until" 0 (jsonl_lines (Audit.to_jsonl ~until:(T.us 2.) a));
  check_int "until just past" 1 (jsonl_lines (Audit.to_jsonl ~until:(T.us 2. + 1) a));
  (* adjacent windows tile: the event appears once across [0,2) + [2,4) *)
  let first = jsonl_lines (Audit.to_jsonl ~since:0 ~until:(T.us 2.) a) in
  let second = jsonl_lines (Audit.to_jsonl ~since:(T.us 2.) ~until:(T.us 4.) a) in
  check_int "tiled exactly once" 1 (first + second);
  (* degenerate window [t, t) is empty *)
  check_int "empty window" 0
    (jsonl_lines (Audit.to_jsonl ~since:(T.us 2.) ~until:(T.us 2.) a))

let test_ring_bound () =
  let a = Audit.create ~capacity:4 () in
  Audit.enable a;
  for i = 1 to 10 do
    Audit.emit a Audit.Fault ~action:"drop" ~pid:1 (T.us (float_of_int i))
  done;
  check_int "emitted" 10 (Audit.events a);
  check_int "dropped oldest" 6 (Audit.dropped a);
  let kept = Audit.recorded a in
  check_int "ring holds the bound" 4 (List.length kept);
  check_int "newest survive" 7 (List.hd kept).Audit.e_seq

let test_disabled_is_silent () =
  let a = Audit.create () in
  Audit.emit a Audit.Fault ~action:"drop" (T.us 1.);
  check_int "nothing recorded" 0 (Audit.events a);
  check_str "empty export" "" (Audit.to_jsonl a)

(* {1 Invariant monitors, fed directly}

   Each safety property gets a deliberately-seeded violation (the
   monitor must catch it) and a legitimate sequence (it must not). *)

let monitored () =
  let a = Audit.create () in
  Audit.enable a;
  let inv = Invariant.create () in
  Invariant.attach inv a;
  (a, inv)

let own a t addr =
  Audit.emit a Audit.Migration ~action:"own" ~pid:1
    ~args:[ ("res", Obs.Astr "msgq:7"); ("addr", Obs.Astr addr) ]
    t

let disown a t addr =
  Audit.emit a Audit.Migration ~action:"disown" ~pid:1
    ~args:[ ("res", Obs.Astr "msgq:7"); ("addr", Obs.Astr addr) ]
    t

let test_double_owner_caught () =
  let a, inv = monitored () in
  own a (T.us 1.) "pico.a";
  own a (T.us 2.) "pico.b";
  check_int "caught" 1 (Invariant.total inv);
  let v = List.hd (Invariant.violations inv) in
  check_str "named" "single-owner" v.Invariant.v_invariant

let test_migration_handoff_clean () =
  let a, inv = monitored () in
  own a (T.us 1.) "pico.a";
  disown a (T.us 2.) "pico.a";
  own a (T.us 3.) "pico.b";
  (* re-own by the same holder is idempotent, not a violation *)
  own a (T.us 4.) "pico.b";
  check_int "clean handoff" 0 (Invariant.total inv)

let lease a t action key =
  Audit.emit a Audit.Lease ~action ~pid:1
    ~args:[ ("cache", Obs.Astr "owner"); ("key", Obs.Aint key) ]
    t

let test_stale_lease_caught () =
  let a, inv = monitored () in
  lease a (T.us 1.) "acquire" 5;
  lease a (T.us 2.) "use" 5;
  check_int "live use is fine" 0 (Invariant.total inv);
  lease a (T.us 3.) "invalidate" 5;
  lease a (T.us 4.) "use" 5;
  check_int "stale use caught" 1 (Invariant.total inv);
  check_str "named" "lease-validity"
    (List.hd (Invariant.violations inv)).Invariant.v_invariant;
  (* re-acquiring revives the key *)
  lease a (T.us 5.) "acquire" 5;
  lease a (T.us 6.) "use" 5;
  check_int "revived" 1 (Invariant.total inv)

let test_flush_kills_all_leases () =
  let a, inv = monitored () in
  lease a (T.us 1.) "acquire" 1;
  lease a (T.us 2.) "acquire" 2;
  Audit.emit a Audit.Lease ~action:"flush" ~pid:1 ~args:[ ("cache", Obs.Astr "owner") ]
    (T.us 3.);
  lease a (T.us 4.) "use" 2;
  check_int "use after flush caught" 1 (Invariant.total inv)

let epoch a t pid n =
  Audit.emit a Audit.Election ~action:"epoch" ~pid ~args:[ ("epoch", Obs.Aint n) ] t

let test_epoch_rollback_caught () =
  let a, inv = monitored () in
  epoch a (T.us 1.) 1 1;
  epoch a (T.us 2.) 1 2;
  epoch a (T.us 3.) 2 1;
  (* same value again is monotone (non-strict) *)
  epoch a (T.us 4.) 1 2;
  check_int "monotone adoption is fine" 0 (Invariant.total inv);
  epoch a (T.us 5.) 1 1;
  check_int "rollback caught" 1 (Invariant.total inv);
  check_str "named" "epoch-monotonicity"
    (List.hd (Invariant.violations inv)).Invariant.v_invariant

let test_cross_sandbox_delivery_caught () =
  let a, inv = monitored () in
  let deliver src dst t =
    Audit.emit a Audit.Sandbox ~action:"deliver" ~pid:1
      ~args:[ ("src_sandbox", Obs.Aint src); ("dst_sandbox", Obs.Aint dst) ]
      t
  in
  deliver 1 1 (T.us 1.);
  check_int "intra-sandbox is fine" 0 (Invariant.total inv);
  deliver 1 2 (T.us 2.);
  check_int "cross-sandbox caught" 1 (Invariant.total inv);
  check_str "named" "sandbox-confinement"
    (List.hd (Invariant.violations inv)).Invariant.v_invariant

(* {1 Reference-monitor provenance} *)

let manifest_of s =
  match Manifest.parse s with Ok m -> m | Error e -> Alcotest.failf "manifest: %s" e

(* A monitored kernel with one sandboxed picoprocess and the decision
   cache on — the suite_cache setup, plus an enabled audit log. *)
let monitored_kernel () =
  let k = K.create () in
  Audit.enable k.K.audit;
  let mon = Monitor.install k in
  let sbx = K.fresh_sandbox k in
  let pico = K.spawn k ~sandbox:sbx ~exe:"/bin/x" () in
  Monitor.bind_sandbox mon ~sandbox:sbx ~manifest:(manifest_of "fs.allow r /lib\n");
  (k, mon, pico)

let refmon_events k =
  List.filter (fun e -> e.Audit.e_cat = Audit.Refmon) (Audit.recorded k.K.audit)

let arg e name = List.assoc_opt name e.Audit.e_args

let test_cached_allow_keeps_provenance () =
  let k, _mon, pico = monitored_kernel () in
  Obs.enable k.K.tracer;
  check_bool "allowed (fills)" true (k.K.lsm.K.check_path pico "/lib/libc.so" `Read);
  check_bool "allowed (cached)" true (k.K.lsm.K.check_path pico "/lib/libc.so" `Read);
  check_bool "second check hit the cache" true
    (Obs.counter_value k.K.tracer "refmon.cache.hit" > 0);
  match refmon_events k with
  | [ first; second ] ->
    check_str "first allows" "allow" first.Audit.e_action;
    check_str "second allows" "allow" second.Audit.e_action;
    check_bool "first was a miss" true (arg first "cached" = Some (Obs.Aint 0));
    check_bool "second was a hit" true (arg second "cached" = Some (Obs.Aint 1));
    (* the hit must carry the rule that originally granted access *)
    check_bool "same rule attributed" true
      (arg first "rule" = arg second "rule"
      && arg first "rule" = Some (Obs.Astr "fs.allow r /lib"))
  | evs -> Alcotest.failf "expected 2 refmon events, got %d" (List.length evs)

let test_denials_always_audited () =
  let k, _mon, pico = monitored_kernel () in
  check_bool "denied" false (k.K.lsm.K.check_path pico "/etc/shadow" `Read);
  check_bool "denied again" false (k.K.lsm.K.check_path pico "/etc/shadow" `Read);
  let denies = List.filter (fun e -> e.Audit.e_action = "deny") (refmon_events k) in
  (* denials are never cached: each attempt reaches the log *)
  check_int "every denial audited" 2 (List.length denies);
  check_bool "says what" true
    (match arg (List.hd denies) "what" with
    | Some (Obs.Astr s) -> contains s "/etc/shadow"
    | _ -> false)

(* {1 End-to-end: chaos runs} *)

let storm_spec =
  { Fault.none with
    Fault.drop = 0.05;
    dup = 0.02;
    delay_p = 0.05;
    delay_max = T.us 150.;
    kill_leader_at = Some (T.ms 2.0) }

let storm seed =
  run_on ~seed ~faults:storm_spec
    ~setup:(fun w -> Audit.enable (W.audit w))
    ~exe:"/bin/sigstorm" ~argv:[] ()

let test_deterministic_jsonl () =
  let r1 = storm 42 and r2 = storm 42 in
  let j1 = Audit.to_jsonl (W.audit r1.w) and j2 = Audit.to_jsonl (W.audit r2.w) in
  check_bool "events recorded" true (Audit.events (W.audit r1.w) > 0);
  check_str "byte-identical across runs" j1 j2;
  (* a different seed reschedules the faults: the log must differ *)
  let j3 = Audit.to_jsonl (W.audit (storm 43).w) in
  check_bool "seed-sensitive" true (j1 <> j3)

let test_chaos_run_holds_invariants () =
  let r = storm 42 in
  (* the leader dies by design; completion means both children spoke *)
  check_bool "both children completed" true (contains (r.out ()) "storm done\nstorm done");
  let inv = W.invariants r.w in
  check_bool "events were checked" true (Invariant.checked inv > 0);
  check_str "no violations" "" (Invariant.summary inv);
  check_int "zero" 0 (Invariant.total inv);
  (* the kill actually triggered an election, so the run exercised the
     epoch and ownership monitors, not just the spawn path *)
  let cats = Audit.category_counts (W.audit r.w) in
  check_bool "election audited" true (List.mem_assoc "election" cats);
  check_bool "faults audited" true (List.mem_assoc "fault" cats)

let test_introspection_snapshot () =
  let r =
    run_on
      ~setup:(fun w -> Audit.enable (W.audit w))
      ~exe:"/bin/sysv_interproc" ~argv:[ "3" ] ()
  in
  expect_exit r;
  let report = K.introspection_report (W.kernel r.w) in
  check_bool "instances registered" true (report <> "");
  check_bool "reports leadership" true (contains report "leader");
  check_bool "reports epoch" true (contains report "epoch");
  check_bool "reports lease tables" true (contains report "lease")

let suite =
  [ case "order, filters, export" test_order_and_filters;
    case "window boundaries: since in, until out" test_window_boundaries;
    case "ring bound drops oldest first" test_ring_bound;
    case "disabled log is free and silent" test_disabled_is_silent;
    case "double owner caught" test_double_owner_caught;
    case "ownership handoff is clean" test_migration_handoff_clean;
    case "stale lease use caught" test_stale_lease_caught;
    case "flush invalidates every lease" test_flush_kills_all_leases;
    case "epoch rollback caught" test_epoch_rollback_caught;
    case "cross-sandbox delivery caught" test_cross_sandbox_delivery_caught;
    case "cached allow keeps rule provenance" test_cached_allow_keeps_provenance;
    case "denials always audited" test_denials_always_audited;
    case "same seed, same faults: identical JSONL" test_deterministic_jsonl;
    case "chaos run holds every invariant" test_chaos_run_holds_invariants;
    case "introspection snapshot" test_introspection_snapshot ]
