(* Collecting repeated runs into one file, and comparing two such files
   under BENCHMARK.json's directions and bounds. *)

(* {1 Collect} *)

(* Run [exe run <workload> ...] as a child process and return the JSON
   object on the last line of its output. *)
let run_child exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> Json.parse last
  | _ -> failwith (String.concat " " (exe :: args) ^ ": run failed")

let summary values =
  let q1, q3 = Stat.quartiles values in
  [ ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
    ("median", Json.Num (Stat.median values));
    ("q1", Json.Num q1);
    ("q3", Json.Num q3);
    ("spread", Json.Num (Stat.spread values)) ]

(* [runs] untraced runs of each workload, each in a fresh process so no
   run inherits another's heap. *)
let collect ~exe ~runs ~seed ~seconds =
  let per_workload w =
    let results =
      List.init runs (fun i ->
          Printf.eprintf "collect: %s run %d/%d\n%!" w (i + 1) runs;
          run_child exe
            [ "run"; "--workload"; w; "--seed"; string_of_int seed;
              "--seconds"; Printf.sprintf "%g" seconds ])
    in
    let metrics = Json.to_assoc (Json.get "metrics" (List.hd results)) in
    let correct = List.for_all (fun r -> Json.get "correct" r = Json.Bool true) results in
    ( w,
      Json.Obj
        [ ("correct", Json.Bool correct);
          ( "metrics",
            Json.Obj
              (List.map
                 (fun (name, m) ->
                   let values =
                     List.map (fun r -> Json.to_num (Json.get "value" (Json.get name (Json.get "metrics" r)))) results
                   in
                   (name, Json.Obj (("unit", Json.get "unit" m) :: summary values)))
                 metrics) ) ] )
  in
  Json.Obj
    [ ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("runs", Json.Num (float_of_int runs));
      ("workloads", Json.Obj (List.map (fun (w : Workload.t) -> per_workload w.name) Workload.all)) ]

(* {1 Compare} *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [a] is the reference side, [b] the candidate. When neither side
   varies from run to run (a virtual metric, every run on one seed), the
   metric is exact: any change at the printed 6 significant digits is
   better or worse, whatever the bound. Otherwise it is unresolved when
   either side's quartile spread exceeds the bound, unless every
   candidate run beats every reference run; worse when the candidate's
   median is worse by more than the bound; better when it is better by
   more than the reference's own spread. *)
let judge ~lower_better ~bound ~a ~b =
  let med x = Json.to_num (Json.get "median" x) and spr x = Json.to_num (Json.get "spread" x) in
  let vals x = List.map Json.to_num (Json.to_list (Json.get "values" x)) in
  let ma = med a and mb = med b in
  let worse_by =
    let d = if ma = 0. then (if mb = 0. then 0. else Float.infinity) else (mb -. ma) /. Float.abs ma in
    if lower_better then d else -.d
  in
  let beats y x = if lower_better then y < x else y > x in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> beats y x) (vals a)) (vals b)
  in
  let printed x = Printf.sprintf "%.6g" x in
  let v =
    if spr a = 0. && spr b = 0. then
      if printed ma = printed mb then Same else if worse_by > 0. then Worse else Better
    else if Float.max (spr a) (spr b) > bound then if all_better then Better else Unresolved
    else if worse_by > bound then Worse
    else if worse_by < 0. && -.worse_by > spr a then Better
    else Same
  in
  (v, worse_by)

(* Print one row per (workload, end-to-end metric) and return whether
   any is worse. *)
let compare ~spec ~a ~b =
  let metrics = Json.to_list (Json.get "end_to_end" spec) in
  let wa = Json.get "workloads" a and wb = Json.get "workloads" b in
  Printf.printf "%-8s %-14s %14s %14s %9s %9s %7s  %s\n" "workload" "metric" "A median" "B median"
    "change" "spread" "bound" "verdict";
  let worse = ref false in
  List.iter
    (fun (w, ra) ->
      match Json.member w wb with
      | None -> Printf.printf "%-8s (missing from B)\n" w
      | Some rb ->
        List.iter
          (fun m ->
            let name = Json.to_str (Json.get "name" m) in
            let bound = Json.to_num (Json.get "bound" m) in
            let lower_better = Json.to_str (Json.get "better" m) = "lower" in
            let get r = Json.member name (Json.get "metrics" r) in
            match (get ra, get rb) with
            | Some ma, Some mb ->
              let v, worse_by = judge ~lower_better ~bound ~a:ma ~b:mb in
              if v = Worse then worse := true;
              let num k x = Json.to_num (Json.get k x) in
              Printf.printf "%-8s %-14s %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n" w name
                (num "median" ma) (num "median" mb)
                (100. *. if lower_better then worse_by else -.worse_by)
                (100. *. Float.max (num "spread" ma) (num "spread" mb))
                (100. *. bound) (verdict_name v)
            | _ -> Printf.printf "%-8s %-14s (missing)\n" w name)
          metrics)
    (Json.to_assoc wa);
  !worse
