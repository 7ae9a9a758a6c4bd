(** Tests for the tracing layer: the tracer itself, the Chrome trace
    exporter, cross-picoprocess flow events, the critical-path
    analyzer, the guest profiler, end-to-end traces from full-world
    runs, determinism, and the zero-overhead-when-disabled guarantee. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Obs = Graphene_obs.Obs
module Critpath = Graphene_obs.Critpath

let case = Util.case
let check_int = Util.check_int
let check_bool = Util.check_bool
let check_str = Util.check_str
let contains = Util.contains

(* {1 The tracer} *)

let tracer_tests =
  [ case "disabled tracer records nothing" (fun () ->
        let t = Obs.create () in
        Obs.span t Obs.Kernel ~name:"x" ~start:0 ~dur:10 ();
        Obs.instant t Obs.Pal ~name:"y" 5;
        Obs.counter_sample t ~name:"c" 5 1;
        Obs.count t "k";
        Obs.observe t "h" 42.0;
        check_int "events" 0 (Obs.events t);
        check_int "counter" 0 (Obs.counter_value t "k");
        check_bool "histogram" true (Obs.histogram t "h" = None));
    case "enabled tracer records spans, instants, counters" (fun () ->
        let t = Obs.create () in
        Obs.enable t;
        Obs.span t Obs.Kernel ~name:"slice" ~pid:1 ~start:100 ~dur:50 ();
        Obs.instant t Obs.Liblinux ~name:"tick" 120;
        Obs.counter_sample t ~name:"depth" 130 3;
        Obs.count t ~n:2 "k";
        Obs.observe t "h" 42.0;
        check_int "events" 3 (Obs.events t);
        check_int "counter" 2 (Obs.counter_value t "k");
        (match Obs.histogram t "h" with
        | Some h -> check_int "hist count" 1 (Graphene_sim.Stats.Histogram.count h)
        | None -> Alcotest.fail "histogram missing"));
    case "layer totals aggregate span time" (fun () ->
        let t = Obs.create () in
        Obs.enable t;
        Obs.span t Obs.Kernel ~name:"a" ~start:0 ~dur:10 ();
        Obs.span t Obs.Kernel ~name:"b" ~start:10 ~dur:30 ();
        Obs.span t Obs.Pal ~name:"c" ~start:0 ~dur:7 ();
        Alcotest.(check (list (triple string int int)))
          "totals"
          [ ("kernel", 2, 40); ("pal", 1, 7) ]
          (Obs.layer_totals t));
    case "reset drops events but keeps process names" (fun () ->
        let t = Obs.create () in
        Obs.enable t;
        Obs.set_process_name t ~pid:1 "pico 1";
        Obs.span t Obs.Kernel ~name:"a" ~start:0 ~dur:1 ();
        Obs.reset t;
        check_int "events" 0 (Obs.events t);
        check_bool "name survives" true (contains (Obs.to_chrome_json t) "pico 1")) ]

(* {1 The Chrome exporter} *)

let chrome_tests =
  [ case "export is valid trace-event JSON" (fun () ->
        let t = Obs.create () in
        Obs.enable t;
        Obs.set_process_name t ~pid:1 "pico 1 (/bin/hello)";
        Obs.span t Obs.Kernel ~name:"slice" ~pid:1 ~tid:2
          ~args:[ ("n", Obs.Aint 3); ("s", Obs.Astr "hi") ]
          ~start:1500 ~dur:2500 ();
        Obs.instant t Obs.Refmon ~name:"violation" 3000;
        Obs.counter_sample t ~name:"depth" 4000 7;
        let s = Obs.to_chrome_json t in
        check_bool "traceEvents" true (contains s "\"traceEvents\"");
        check_bool "complete event" true (contains s "\"ph\":\"X\"");
        check_bool "instant event" true (contains s "\"ph\":\"i\"");
        check_bool "counter event" true (contains s "\"ph\":\"C\"");
        check_bool "metadata event" true (contains s "\"ph\":\"M\"");
        check_bool "category" true (contains s "\"cat\":\"kernel\"");
        check_bool "args" true (contains s "\"s\":\"hi\""));
    case "timestamps are microseconds with ns precision" (fun () ->
        let t = Obs.create () in
        Obs.enable t;
        Obs.span t Obs.Kernel ~name:"a" ~start:1500 ~dur:2500 ();
        let s = Obs.to_chrome_json t in
        (* 1500 ns = 1.500 us; 2500 ns = 2.500 us *)
        check_bool "ts" true (contains s "\"ts\":1.500");
        check_bool "dur" true (contains s "\"dur\":2.500"));
    case "strings are escaped" (fun () ->
        let t = Obs.create () in
        Obs.enable t;
        Obs.instant t Obs.Kernel ~name:"quote\"backslash\\" 0;
        check_bool "escaped" true
          (contains (Obs.to_chrome_json t) "quote\\\"backslash\\\\")) ]

(* {1 End-to-end traces} *)

let run_traced ?(seed = 42) ?(exe = "/bin/hello") ?(argv = []) stack =
  let w = W.create ~seed stack in
  Obs.enable (W.tracer w);
  let p = W.start w ~console_hook:ignore ~exe ~argv () in
  W.run w;
  (w, p)

let count_occurrences hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let e2e_tests =
  [ case "a hello run traces at least four layers" (fun () ->
        let w, _ = run_traced W.Graphene in
        let json = Obs.to_chrome_json (W.tracer w) in
        List.iter
          (fun layer ->
            check_bool (layer ^ " present") true
              (contains json (Printf.sprintf "\"cat\":\"%s\"" layer)))
          [ "kernel"; "liblinux"; "pal"; "refmon" ]);
    case "multi-process run traces the ipc layer" (fun () ->
        let w, _ = run_traced ~exe:"/bin/lat_fork_exit" ~argv:[ "3" ] W.Graphene in
        let json = Obs.to_chrome_json (W.tracer w) in
        check_bool "ipc events" true (contains json "\"cat\":\"ipc\""));
    case "spans pair with libLinux syscalls" (fun () ->
        let w, _ = run_traced W.Graphene in
        let json = Obs.to_chrome_json (W.tracer w) in
        check_bool "liblinux span" true (contains json "\"name\":\"sys_");
        check_bool "pal open span" true (contains json "\"name\":\"open\""));
    case "picoprocesses are named in the trace" (fun () ->
        let w, _ = run_traced W.Graphene in
        let json = Obs.to_chrome_json (W.tracer w) in
        check_bool "process_name" true (contains json "\"process_name\"");
        check_bool "names the binary" true (contains json "/bin/hello"));
    case "summary reports every active subsystem" (fun () ->
        let w, _ = run_traced W.Graphene in
        let s = Obs.summary (W.tracer w) in
        List.iter
          (fun needle -> check_bool (needle ^ " in summary") true (contains s needle))
          [ "kernel"; "liblinux"; "pal"; "liblinux.syscalls"; "sim.events_fired" ]) ]

(* {1 Flow events (causal cross-picoprocess links)} *)

let flow_tests =
  [ case "signal delivery yields a flow crossing picoprocesses" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        let flows = Obs.flow_events (W.tracer w) in
        check_bool "some flow recorded" true (flows <> []);
        (* at least one flow id has its "s" and its "f"/"t" in
           different picoprocesses: the causal arrow crosses *)
        let crosses =
          List.exists
            (fun (ph, _, id, pid) ->
              ph = "s"
              && List.exists
                   (fun (ph', _, id', pid') -> ph' <> "s" && id' = id && pid' <> pid)
                   flows)
            flows
        in
        check_bool "a flow links different pids" true crosses);
    case "flow ids match across s and f" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        let flows = Obs.flow_events (W.tracer w) in
        let sig_s =
          List.filter_map
            (fun (ph, name, id, _) -> if ph = "s" && name = "rpc:signal" then Some id else None)
            flows
        in
        check_bool "signal rpc flow started" true (sig_s <> []);
        List.iter
          (fun id ->
            check_bool
              (Printf.sprintf "flow %d terminated by an f with the same name" id)
              true
              (List.exists (fun (ph, name, id', _) -> ph = "f" && name = "rpc:signal" && id' = id) flows))
          sig_s);
    case "flow and async events reach the JSON export" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        let json = Obs.to_chrome_json (W.tracer w) in
        List.iter
          (fun ph ->
            check_bool (Printf.sprintf "ph %s present" ph) true
              (contains json (Printf.sprintf "\"ph\":\"%s\"" ph)))
          [ "s"; "f"; "b"; "e" ];
        check_bool "f carries binding point" true (contains json "\"bp\":\"e\""));
    case "same seed, byte-identical trace with flows enabled" (fun () ->
        let w1, _ = run_traced ~seed:7 ~exe:"/bin/sigpong" W.Graphene in
        let w2, _ = run_traced ~seed:7 ~exe:"/bin/sigpong" W.Graphene in
        check_str "identical"
          (Obs.to_chrome_json (W.tracer w1))
          (Obs.to_chrome_json (W.tracer w2)));
    case "per-request-type rtt histograms are recorded" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        check_bool "ipc.rtt.signal" true (Obs.histogram (W.tracer w) "ipc.rtt.signal" <> None)) ]

(* {1 Critical path} *)

let critpath_tests =
  [ case "synthetic spans partition the interval" (fun () ->
        let t = Obs.create () in
        Obs.enable t;
        (* [0,40) guest-only; [40,60) a syscall enclosing a kernel
           slice; [60,100) uncovered -> idle *)
        Obs.span t Obs.Kernel ~name:"slice" ~start:0 ~dur:40 ();
        Obs.span t Obs.Liblinux ~name:"sys_read" ~start:40 ~dur:20 ();
        Obs.span t Obs.Kernel ~name:"slice" ~start:45 ~dur:5 ();
        let entries = Critpath.analyze t ~until:100 in
        check_int "full attribution" 100 (Critpath.total_ns entries);
        let find l n =
          List.find_map
            (fun e -> if e.Critpath.cp_layer = l && e.Critpath.cp_name = n then Some e.Critpath.cp_ns else None)
            entries
        in
        check_bool "kernel slice 40" true (find "kernel" "slice" = Some 40);
        (* the more specific liblinux span wins the overlap *)
        check_bool "sys_read 20" true (find "liblinux" "sys_read" = Some 20);
        check_bool "idle 40" true (find "sim" "idle" = Some 40));
    case "a real run attributes at least 95% of end-to-end time" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        let entries = Critpath.analyze (W.tracer w) ~until:(W.now w) in
        check_bool "entries" true (entries <> []);
        let named =
          List.fold_left
            (fun acc (e : Critpath.entry) ->
              if e.cp_layer = "sim" && e.cp_name = "idle" then acc else acc + e.cp_ns)
            0 entries
        in
        (* everything is attributed; even excluding idle the named
           segments must carry >= 95% of the run *)
        check_int "partition" (W.now w) (Critpath.total_ns entries);
        check_bool "named >= 95%" true
          (float_of_int named >= 0.95 *. float_of_int (W.now w)));
    case "critpath is deterministic" (fun () ->
        let render () =
          let w, _ = run_traced ~seed:7 ~exe:"/bin/sigpong" W.Graphene in
          Critpath.render ~until:(W.now w) (Critpath.analyze (W.tracer w) ~until:(W.now w))
        in
        check_str "identical" (render ()) (render ())) ]

(* {1 Guest profiler} *)

let profile_tests =
  [ case "folded output is collapsed-stack format" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        let folded = Obs.folded_profile (W.tracer w) in
        check_bool "non-empty" true (folded <> "");
        String.split_on_char '\n' folded
        |> List.filter (fun l -> l <> "")
        |> List.iter (fun line ->
               match String.rindex_opt line ' ' with
               | None -> Alcotest.fail ("no count in line: " ^ line)
               | Some i ->
                 let count = String.sub line (i + 1) (String.length line - i - 1) in
                 check_bool ("count is a number: " ^ line) true
                   (int_of_string_opt count <> None);
                 let stack = String.sub line 0 i in
                 check_bool ("stack starts at main: " ^ line) true
                   (stack = "main" || String.length stack > 5 && String.sub stack 0 5 = "main;"));
        (* the signal handler ran in the child: it must appear as a
           frame under main *)
        check_bool "handler frame" true (contains folded "main;handler "));
    case "folded output is byte-deterministic" (fun () ->
        let folded () =
          let w, _ = run_traced ~seed:7 ~exe:"/bin/sigpong" W.Graphene in
          Obs.folded_profile (W.tracer w)
        in
        check_str "identical" (folded ()) (folded ()));
    case "per-function attribution includes syscalls" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        let fns = Obs.profile_functions (W.tracer w) in
        let find n = List.find_opt (fun (f, _, _) -> f = n) fns in
        (match find "main" with
        | Some (_, ns, sys) ->
          check_bool "main has time" true (ns > 0);
          check_bool "main made syscalls" true (sys > 0)
        | None -> Alcotest.fail "main missing from profile");
        (match find "handler" with
        | Some (_, _, sys) -> check_bool "handler made a syscall" true (sys > 0)
        | None -> Alcotest.fail "handler missing from profile"));
    case "summary includes the guest profile and sorts histograms" (fun () ->
        let w, _ = run_traced ~exe:"/bin/sigpong" W.Graphene in
        let s = Obs.summary (W.tracer w) in
        check_bool "profile section" true (contains s "guest profile");
        check_bool "per-syscall histograms" true (contains s "liblinux.sys.")) ]

(* {1 Determinism and overhead} *)

let det_tests =
  [ case "same seed, byte-identical trace" (fun () ->
        let w1, _ = run_traced ~seed:7 W.Graphene in
        let w2, _ = run_traced ~seed:7 W.Graphene in
        check_str "identical"
          (Obs.to_chrome_json (W.tracer w1))
          (Obs.to_chrome_json (W.tracer w2)));
    case "different seeds, identical trace at zero noise" (fun () ->
        (* noise defaults to 0, so the seed only matters when noise > 0 *)
        let w1, _ = run_traced ~seed:1 W.Graphene in
        let w2, _ = run_traced ~seed:2 W.Graphene in
        check_str "identical"
          (Obs.to_chrome_json (W.tracer w1))
          (Obs.to_chrome_json (W.tracer w2)));
    case "tracing does not change the simulation" (fun () ->
        let run enable_trace =
          let w = W.create ~seed:5 W.Graphene in
          if enable_trace then Obs.enable (W.tracer w);
          let p = W.start w ~console_hook:ignore ~exe:"/bin/hello" ~argv:[] () in
          W.run w;
          let counts = K.syscall_counts (W.kernel w) in
          (W.now w, W.exit_code p, counts)
        in
        let t1, x1, c1 = run false and t2, x2, c2 = run true in
        check_int "virtual end time" t1 t2;
        check_int "exit code" x1 x2;
        Alcotest.(check (list (pair string int))) "syscall counts" c1 c2);
    case "flows and profiling do not change a multi-process run" (fun () ->
        (* sigpong exercises fork, cross-process RPC (kill), oneways
           (exit_notify) and the guest profiler; the tracer must still
           be purely observational *)
        let run enable_trace =
          let w = W.create ~seed:5 W.Graphene in
          if enable_trace then Obs.enable (W.tracer w);
          let p = W.start w ~console_hook:ignore ~exe:"/bin/sigpong" ~argv:[] () in
          W.run w;
          let counts = K.syscall_counts (W.kernel w) in
          (W.now w, W.exit_code p, counts)
        in
        let t1, x1, c1 = run false and t2, x2, c2 = run true in
        check_int "virtual end time" t1 t2;
        check_int "exit code" x1 x2;
        Alcotest.(check (list (pair string int))) "syscall counts" c1 c2);
    case "events count excludes metadata" (fun () ->
        let w, _ = run_traced W.Graphene in
        let tracer = W.tracer w in
        let json = Obs.to_chrome_json tracer in
        let phs = count_occurrences json "\"ph\":\"" in
        let ms = count_occurrences json "\"ph\":\"M\"" in
        check_int "events = traceEvents - metadata" (Obs.events tracer) (phs - ms)) ]

let suite =
  tracer_tests @ chrome_tests @ e2e_tests @ flow_tests @ critpath_tests @ profile_tests
  @ det_tests
