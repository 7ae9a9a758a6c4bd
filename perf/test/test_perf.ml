(* Every workload at tiny sizes: it runs without failures, its virtual
   results repeat for a seed and survive tracing, a new seed changes
   them where the workload has timing noise, and the metric names agree
   with BENCHMARK.json. Also the two pieces of arithmetic a verdict
   rests on: per-layer self time over overlapping threads, and
   [compare]'s verdicts. *)

open Graphene_perf

let spec = Json.of_file "../../BENCHMARK.json"

let spec_names key =
  List.map (fun m -> Json.to_str (Json.get "name" m)) (Json.to_list (Json.get key spec))

let names l = List.map (fun (n, _, _) -> n) l

(* One measured phase, untimed: its virtual outcome. *)
let outcome ?trace wl seed =
  let _, measure = Bench.prepare ?trace wl ~seed Workload.Tiny in
  measure ()

let workload_case (wl : Workload.t) =
  Alcotest.test_case wl.name `Quick (fun () ->
      let a = Bench.round wl ~seed:1 Workload.Tiny in
      let tr = Layers.trace ~chrome_out:None in
      let traced = outcome ~trace:tr wl 1 in
      Alcotest.(check bool) "operations attempted" true (a.out.attempted > 0);
      Alcotest.(check int) "no operation failed" 0 a.out.failed;
      Alcotest.(check bool) "same seed, same virtual results" true (outcome wl 1 = a.out);
      Alcotest.(check bool) "traced equals untraced" true (traced = a.out);
      if List.mem wl.name [ "syscall"; "web" ] then
        Alcotest.(check bool) "seed 2 changes the virtual results" false (outcome wl 2 = a.out);
      Alcotest.(check (list string)) "end-to-end names" (spec_names "end_to_end")
        (names (Bench.end_to_end a [ a ]));
      let per_layer =
        names (Layers.metrics tr ~counts:a.counts ~gc:a.gc ~wall_s:a.wall_s ~traced_wall_s:a.wall_s)
        @ names Probe.probes
      in
      Alcotest.(check (list string)) "per-layer names" (spec_names "per_layer") per_layer)

let span layer ~pid ~tid ~start ~stop : Graphene_obs.Obs.span_record =
  { r_layer = layer; r_name = layer; r_pid = pid; r_tid = tid; r_start = start; r_dur = stop - start }

let self_times () =
  let tr = Layers.trace ~chrome_out:None in
  Layers.add_self_times tr
    [ (* thread 1's syscall, with a PAL call inside it *)
      span "liblinux" ~pid:1 ~tid:1 ~start:0 ~stop:100;
      span "pal" ~pid:1 ~tid:0 ~start:10 ~stop:30;
      (* thread 2 computes meanwhile: not part of thread 1's syscall *)
      span "kernel" ~pid:1 ~tid:2 ~start:20 ~stop:60;
      (* a handler that outlives the syscall runs beside it, and holds
         the PAL call that falls inside it *)
      span "ipc" ~pid:1 ~tid:0 ~start:90 ~stop:150;
      span "pal" ~pid:1 ~tid:0 ~start:120 ~stop:130;
      (* another picoprocess's span never nests in this one's *)
      span "refmon" ~pid:2 ~tid:0 ~start:40 ~stop:50 ];
  let got l = Option.value ~default:0 (Hashtbl.find_opt tr.self_ns l) in
  Alcotest.(check (list (pair string int)))
    "self ns per layer"
    [ ("liblinux", 80); ("pal", 30); ("kernel", 40); ("ipc", 50); ("refmon", 10) ]
    (List.map (fun l -> (l, got l)) [ "liblinux"; "pal"; "kernel"; "ipc"; "refmon" ])

let verdict ~bound a b =
  let side vs = Json.Obj (Compare.summary vs) in
  Compare.verdict_name (fst (Compare.judge ~lower_better:true ~bound ~a:(side a) ~b:(side b)))

let verdicts () =
  let same x = List.init 10 (fun _ -> x) in
  let noisy x = List.init 10 (fun i -> x *. (1. +. (0.002 *. float_of_int (i - 5)))) in
  (* a virtual metric: every run of one seed reads the same *)
  Alcotest.(check string) "1% slower, exact" "worse" (verdict ~bound:0.24 (same 100.) (same 101.));
  Alcotest.(check string) "1% faster, exact" "better" (verdict ~bound:0.24 (same 100.) (same 99.));
  Alcotest.(check string) "beyond 6 digits" "same" (verdict ~bound:0.24 (same 100.) (same 100.00001));
  (* a host metric: within its bound is the same *)
  Alcotest.(check string) "1% slower, noisy" "same" (verdict ~bound:0.24 (noisy 100.) (noisy 101.));
  Alcotest.(check string) "30% slower, noisy" "worse" (verdict ~bound:0.24 (noisy 100.) (noisy 130.))

let () =
  Alcotest.run "perf"
    [ ( "spec",
        [ Alcotest.test_case "workloads match BENCHMARK.json" `Quick (fun () ->
              Alcotest.(check (list string)) "names" (spec_names "workloads")
                (List.map (fun (w : Workload.t) -> w.name) Workload.all));
          Alcotest.test_case "quartiles as Python computes them" `Quick (fun () ->
              (* statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25] *)
              let q1, q3 = Stat.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
              Alcotest.(check (pair (float 0.) (float 0.))) "q1, q3" (2.75, 8.25) (q1, q3));
          Alcotest.test_case "layer self time over overlapping threads" `Quick self_times;
          Alcotest.test_case "compare verdicts" `Quick verdicts ] );
      ("workloads", List.map workload_case Workload.all) ]
