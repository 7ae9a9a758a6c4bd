(** Bench regression gate: a fresh BENCH_<mode>.json must equal its
    committed baseline.

    Every simulated metric derives from the virtual clock and seeded
    RNG noise, so a committed baseline reproduces byte for byte on any
    host. A metric that moves has therefore been moved by a code
    change, and the change must refresh the baseline and say why
    (docs/AUDIT.md). A metric passes only when its unit, mean, ci95 and
    trials all equal the baseline's; a baseline metric missing from the
    fresh run fails, and so does a fresh metric the baseline lacks. *)

module H = Harness

(* Signed drift of [f] relative to [b], for the report. *)
let drift b f =
  if b = 0. then "from zero" else Printf.sprintf "%+.3g%%" ((f -. b) /. Float.abs b *. 100.)

(* Each field of [f] that differs from [b], as "field base -> fresh". *)
let differences (b : H.metric) (f : H.metric) =
  let num field x y =
    if x = y then []
    else [ Printf.sprintf "%s %s -> %s (%s)" field (H.json_float x) (H.json_float y) (drift x y) ]
  in
  (if b.m_unit = f.m_unit then [] else [ Printf.sprintf "unit %S -> %S" b.m_unit f.m_unit ])
  @ num "mean" b.m_mean f.m_mean
  @ num "ci95" b.m_ci95 f.m_ci95
  @
  if b.m_trials = f.m_trials then []
  else [ Printf.sprintf "trials %d -> %d" b.m_trials f.m_trials ]

(* Compare two BENCH files on disk; prints a one-line summary, then
   one line per failing metric, and returns [true] on pass. *)
let check ~baseline ~fresh =
  match (H.read_metrics baseline, H.read_metrics fresh) with
  | Error msg, _ | _, Error msg ->
    Printf.printf "== bench gate: FAIL: %s\n" msg;
    false
  | Ok base, Ok fresh ->
    let index ms =
      Hashtbl.of_seq (Seq.map (fun (m : H.metric) -> (m.m_name, m)) (List.to_seq ms))
    in
    let base_tbl = index base and fresh_tbl = index fresh in
    let differing =
      List.filter_map
        (fun (b : H.metric) ->
          match Option.map (differences b) (Hashtbl.find_opt fresh_tbl b.m_name) with
          | None | Some [] -> None
          | Some d -> Some (Printf.sprintf "%s: %s" b.m_name (String.concat ", " d)))
        base
    in
    let absent tbl ms = List.filter (fun (m : H.metric) -> not (Hashtbl.mem tbl m.m_name)) ms in
    let missing = absent fresh_tbl base and added = absent base_tbl fresh in
    let ok = differing = [] && missing = [] && added = [] in
    Printf.printf "== bench gate vs %s: %d metrics, %d differing, %d missing, %d new: %s\n"
      baseline (List.length base) (List.length differing) (List.length missing)
      (List.length added)
      (if ok then "PASS" else "FAIL");
    List.iter (Printf.printf "  %s\n") differing;
    let show what (m : H.metric) =
      Printf.printf "  %s: %s (mean %s)\n" m.m_name what (H.json_float m.m_mean)
    in
    List.iter (show "missing from the fresh run") missing;
    List.iter (show "new, not in the baseline") added;
    ok
