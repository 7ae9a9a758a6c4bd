(** Tests for the simulation substrate: virtual time, the event engine,
    the RNG, statistics and table rendering. *)

open Graphene_sim

let case = Util.case
let check_int = Util.check_int

(* {1 Time} *)

let time_tests =
  [ case "unit conversions" (fun () ->
        check_int "us" 1_500 (Time.us 1.5);
        check_int "ms" 2_000_000 (Time.ms 2.0);
        check_int "s" 1_000_000_000 (Time.s 1.0);
        Alcotest.(check (float 1e-9)) "to_us" 1.5 (Time.to_us 1_500);
        Alcotest.(check (float 1e-9)) "to_ms" 0.002 (Time.to_ms 2_000));
    case "add and diff" (fun () ->
        check_int "add" 30 (Time.add (Time.ns 10) (Time.ns 20));
        check_int "diff" 15 (Time.diff (Time.ns 20) (Time.ns 5)));
    case "scale rounds" (fun () ->
        check_int "x1.5" 15 (Time.scale (Time.ns 10) 1.5);
        check_int "x0" 0 (Time.scale (Time.ns 10) 0.0));
    case "pp picks unit" (fun () ->
        Util.check_str "ns" "42 ns" (Format.asprintf "%a" Time.pp (Time.ns 42));
        Util.check_str "us" "1.50 us" (Format.asprintf "%a" Time.pp (Time.us 1.5));
        Util.check_str "ms" "2.00 ms" (Format.asprintf "%a" Time.pp (Time.ms 2.));
        Util.check_str "s" "3.000 s" (Format.asprintf "%a" Time.pp (Time.s 3.))) ]

(* {1 Engine} *)

let engine_tests =
  [ case "events fire in time order" (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore (Engine.schedule_at e 30 (fun () -> log := 3 :: !log));
        ignore (Engine.schedule_at e 10 (fun () -> log := 1 :: !log));
        ignore (Engine.schedule_at e 20 (fun () -> log := 2 :: !log));
        Engine.run_until_idle e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
        check_int "clock at last event" 30 (Engine.now e));
    case "same-instant events fire FIFO" (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 5 do
          ignore (Engine.schedule_at e 7 (fun () -> log := i :: !log))
        done;
        Engine.run_until_idle e;
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    case "schedule_after is relative" (fun () ->
        let e = Engine.create () in
        let fired = ref (-1) in
        ignore (Engine.schedule_after e 5 (fun () -> fired := Engine.now e));
        Engine.run_until_idle e;
        check_int "fired at" 5 !fired);
    case "scheduling in the past is rejected" (fun () ->
        let e = Engine.create () in
        ignore (Engine.schedule_at e 10 (fun () -> ()));
        Engine.run_until_idle e;
        Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time 3 < now 10")
          (fun () -> ignore (Engine.schedule_at e 3 ignore)));
    case "events scheduled while running fire" (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore
          (Engine.schedule_at e 10 (fun () ->
               log := "a" :: !log;
               ignore (Engine.schedule_after e 5 (fun () -> log := "b" :: !log))));
        Engine.run_until_idle e;
        Alcotest.(check (list string)) "chain" [ "a"; "b" ] (List.rev !log);
        check_int "clock" 15 (Engine.now e));
    case "run_until stops at the deadline" (fun () ->
        let e = Engine.create () in
        let fired = ref 0 in
        ignore (Engine.schedule_at e 10 (fun () -> incr fired));
        ignore (Engine.schedule_at e 30 (fun () -> incr fired));
        Engine.run_until e 20;
        check_int "one fired" 1 !fired;
        check_int "clock advanced to deadline" 20 (Engine.now e);
        Engine.run_until_idle e;
        check_int "both fired" 2 !fired);
    case "run_bounded reports exhaustion" (fun () ->
        let e = Engine.create () in
        (* a self-perpetuating event chain *)
        let rec tick () = ignore (Engine.schedule_after e 1 tick) in
        tick ();
        Util.check_bool "budget exhausted" false (Engine.run_bounded e ~max_events:100));
    case "pending counts queued events" (fun () ->
        let e = Engine.create () in
        ignore (Engine.schedule_at e 1 ignore);
        ignore (Engine.schedule_at e 2 ignore);
        check_int "two pending" 2 (Engine.pending e);
        Engine.run_until_idle e;
        check_int "none pending" 0 (Engine.pending e)) ]

(* A property: any batch of events fires in nondecreasing time order. *)
let engine_order_prop =
  QCheck.Test.make ~name:"engine fires in nondecreasing time order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (int_range 0 10_000))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun t -> ignore (Engine.schedule_at e t (fun () -> fired := t :: !fired))) times;
      Engine.run_until_idle e;
      let order = List.rev !fired in
      List.length order = List.length times && List.sort compare order = order)

(* The event heap against a list model. A program schedules events
   (at an absolute time or after a delay, often at the same instant),
   some of whose callbacks schedule further events; it tries to schedule
   in the past, and it runs the engine with [run_until], [run_bounded]
   and [run_until_idle]. Every program opens with more events than the
   heap's initial 64 slots. After each step, the callbacks fired so far,
   [now], [pending], [events_fired] and any [run_bounded] result must
   equal the model's, which keeps its queue as a list sorted by
   (time, seq). *)
type engine_op =
  | At of int * int list  (** [schedule_at (now + d)]; the callback schedules these delays *)
  | After of int * int list  (** [schedule_after d] *)
  | Past of int  (** [schedule_at (now - d)], which must raise *)
  | Until of int  (** [run_until (now + d)] *)
  | Bounded of int
  | Idle

let show_engine_op = function
  | At (d, s) -> Printf.sprintf "At (%d, %d children)" d (List.length s)
  | After (d, s) -> Printf.sprintf "After (%d, %d children)" d (List.length s)
  | Past d -> Printf.sprintf "Past %d" d
  | Until d -> Printf.sprintf "Until %d" d
  | Bounded n -> Printf.sprintf "Bounded %d" n
  | Idle -> "Idle"

type model_event = { m_time : int; m_seq : int; m_spawn : int list }

type model = {
  mutable m_clock : int;
  mutable m_next_seq : int;
  mutable m_queue : model_event list;
  mutable m_fired : int;
  mutable m_log : int list;  (** seqs of the fired events, latest first *)
}

let model_schedule m time spawn =
  let ev = { m_time = time; m_seq = m.m_next_seq; m_spawn = spawn } in
  m.m_next_seq <- m.m_next_seq + 1;
  m.m_queue <-
    List.merge (fun a b -> compare (a.m_time, a.m_seq) (b.m_time, b.m_seq)) m.m_queue [ ev ]

let model_fire m =
  match m.m_queue with
  | [] -> ()
  | ev :: rest ->
    m.m_queue <- rest;
    m.m_clock <- max m.m_clock ev.m_time;
    m.m_fired <- m.m_fired + 1;
    m.m_log <- ev.m_seq :: m.m_log;
    List.iter (fun d -> model_schedule m (m.m_clock + d) []) ev.m_spawn

let rec model_run_until m t =
  match m.m_queue with
  | ev :: _ when ev.m_time <= t ->
    model_fire m;
    model_run_until m t
  | _ -> m.m_clock <- max m.m_clock t

let rec model_run_bounded m budget =
  if budget = 0 || m.m_queue = [] then m.m_queue = []
  else begin
    model_fire m;
    model_run_bounded m (budget - 1)
  end

let rec model_run_idle m =
  if m.m_queue <> [] then begin
    model_fire m;
    model_run_idle m
  end

let engine_model_prop =
  let open QCheck.Gen in
  let delay = frequency [ (1, int_range 0 3); (1, int_range 0 5_000) ] in
  let spawn = list_size (int_range 0 3) delay in
  let schedule =
    map3 (fun at d s -> if at then At (d, s) else After (d, s)) bool delay spawn
  in
  let op =
    frequency
      [ (50, schedule);
        (2, map (fun d -> Past d) (int_range 1 5));
        (4, map (fun d -> Until d) (int_range 0 200));
        (4, map (fun n -> Bounded n) (int_range 0 10));
        (1, return Idle) ]
  in
  let program =
    map2 ( @ ) (list_size (int_range 65 100) schedule) (list_size (int_range 0 300) op)
  in
  QCheck.Test.make ~name:"engine matches a sorted-list model" ~count:200
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_engine_op ops)) program)
    (fun ops ->
      let e = Engine.create () in
      let m = { m_clock = 0; m_next_seq = 0; m_queue = []; m_fired = 0; m_log = [] } in
      let log = ref [] and next_id = ref 0 in
      (* an event's id counts the schedules before it, like its seq *)
      let rec callback spawn =
        let id = !next_id in
        incr next_id;
        fun () ->
          log := id :: !log;
          List.iter (fun d -> Engine.schedule_after e d (callback [])) spawn
      in
      List.iter
        (fun op ->
          let now = Engine.now e in
          let bounded =
            match op with
            | At (d, s) ->
              Engine.schedule_at e (now + d) (callback s);
              model_schedule m (now + d) s;
              None
            | After (d, s) ->
              Engine.schedule_after e d (callback s);
              model_schedule m (now + d) s;
              None
            | Past d ->
              let msg = Printf.sprintf "Engine.schedule_at: time %d < now %d" (now - d) now in
              (match Engine.schedule_at e (now - d) ignore with
              | () -> QCheck.Test.fail_reportf "%s did not raise" msg
              | exception Invalid_argument got when got = msg -> ());
              None
            | Until d ->
              Engine.run_until e (now + d);
              model_run_until m (now + d);
              None
            | Bounded n -> Some (Engine.run_bounded e ~max_events:n, model_run_bounded m n)
            | Idle ->
              Engine.run_until_idle e;
              model_run_idle m;
              None
          in
          let step = show_engine_op op in
          if !log <> m.m_log then QCheck.Test.fail_reportf "%s: fired out of model order" step;
          if Engine.now e <> m.m_clock then
            QCheck.Test.fail_reportf "%s: now %d, model %d" step (Engine.now e) m.m_clock;
          if Engine.pending e <> List.length m.m_queue then
            QCheck.Test.fail_reportf "%s: pending %d, model %d" step (Engine.pending e)
              (List.length m.m_queue);
          if Engine.events_fired e <> m.m_fired then
            QCheck.Test.fail_reportf "%s: fired %d, model %d" step (Engine.events_fired e)
              m.m_fired;
          match bounded with
          | Some (got, want) when got <> want ->
            QCheck.Test.fail_reportf "%s: run_bounded %b, model %b" step got want
          | _ -> ())
        ops;
      true)

(* {1 Rng} *)

let rng_tests =
  [ case "same seed, same sequence" (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
        for _ = 1 to 50 do
          check_int "lockstep" (Rng.int a 1000) (Rng.int b 1000)
        done);
    case "different seeds diverge" (fun () ->
        let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
        let same = ref 0 in
        for _ = 1 to 20 do
          if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
        done;
        Util.check_bool "mostly different" true (!same < 3));
    case "int_in respects bounds" (fun () ->
        let r = Rng.create ~seed:3 in
        for _ = 1 to 200 do
          let x = Rng.int_in r 5 9 in
          Util.check_bool "in range" true (x >= 5 && x <= 9)
        done);
    case "jitter stays within pct" (fun () ->
        let r = Rng.create ~seed:4 in
        for _ = 1 to 200 do
          let j = Rng.jitter r 0.1 in
          Util.check_bool "within" true (j >= 0.9 && j <= 1.1)
        done);
    case "shuffle preserves elements" (fun () ->
        let r = Rng.create ~seed:5 in
        let arr = Array.init 20 Fun.id in
        Rng.shuffle r arr;
        Alcotest.(check (list int)) "same multiset" (List.init 20 Fun.id)
          (List.sort compare (Array.to_list arr)));
    case "split produces independent stream" (fun () ->
        let a = Rng.create ~seed:9 in
        let b = Rng.split a in
        Util.check_bool "diverges" true (Rng.int a 1_000_000 <> Rng.int b 1_000_000)) ]

let rng_bound_prop =
  QCheck.Test.make ~name:"Rng.int is within [0, bound)" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (bound, seed) ->
      let r = Rng.create ~seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

(* {1 Stats} *)

let stats_tests =
  [ case "mean and stddev of a known sample" (fun () ->
        let s = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
        Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
        Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.stddev s));
    case "ci95 is zero for tiny samples" (fun () ->
        Alcotest.(check (float 0.)) "n=0" 0.0 (Stats.ci95 (Stats.create ()));
        Alcotest.(check (float 0.)) "n=1" 0.0 (Stats.ci95 (Stats.of_list [ 5.0 ])));
    case "ci95 uses the t table" (fun () ->
        (* n=6 -> df=5 -> t=2.571 *)
        let s = Stats.of_list [ 1.; 2.; 3.; 4.; 5.; 6. ] in
        let expected = 2.571 *. Stats.stddev s /. sqrt 6.0 in
        Alcotest.(check (float 1e-9)) "ci" expected (Stats.ci95 s));
    case "percentile interpolates" (fun () ->
        let s = Stats.of_list [ 10.; 20.; 30.; 40. ] in
        Alcotest.(check (float 1e-9)) "p0" 10. (Stats.percentile s 0.);
        Alcotest.(check (float 1e-9)) "p100" 40. (Stats.percentile s 100.);
        Alcotest.(check (float 1e-9)) "p50" 25. (Stats.percentile s 50.));
    case "min and max" (fun () ->
        let s = Stats.of_list [ 3.; 1.; 2. ] in
        Alcotest.(check (float 0.)) "min" 1. (Stats.min_value s);
        Alcotest.(check (float 0.)) "max" 3. (Stats.max_value s)) ]

let histogram_tests =
  [ case "buckets are log-scaled" (fun () ->
        let h = Stats.Histogram.create ~buckets:8 ~base:2.0 () in
        List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 3.0; 3.9 ];
        (* 0.5 -> [0,1); 1.5 -> [1,2); 3.0 and 3.9 -> [2,4) *)
        Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int)))
          "occupied buckets"
          [ (0.0, 1.0, 1); (1.0, 2.0, 1); (2.0, 4.0, 2) ]
          (Stats.Histogram.buckets h));
    case "count, total, mean, extremes are exact" (fun () ->
        let h = Stats.Histogram.create () in
        List.iter (Stats.Histogram.add h) [ 10.; 100.; 1000. ];
        check_int "count" 3 (Stats.Histogram.count h);
        Alcotest.(check (float 1e-9)) "total" 1110. (Stats.Histogram.total h);
        Alcotest.(check (float 1e-9)) "mean" 370. (Stats.Histogram.mean h);
        Alcotest.(check (float 1e-9)) "min" 10. (Stats.Histogram.min_value h);
        Alcotest.(check (float 1e-9)) "max" 1000. (Stats.Histogram.max_value h));
    case "overflow values land in the last bucket" (fun () ->
        let h = Stats.Histogram.create ~buckets:4 ~base:2.0 () in
        Stats.Histogram.add h 1e12;
        (* last bucket of 4 is [4, 8) even though the sample exceeds it *)
        Alcotest.(check int) "one bucket" 1 (List.length (Stats.Histogram.buckets h));
        Alcotest.(check (float 1e-9)) "max still exact" 1e12
          (Stats.Histogram.max_value h));
    case "quantiles clamp to observed extremes" (fun () ->
        let h = Stats.Histogram.create () in
        List.iter (Stats.Histogram.add h) [ 5.; 5.; 5.; 5. ];
        Alcotest.(check (float 1e-9)) "p0" 5. (Stats.Histogram.quantile h 0.);
        Alcotest.(check (float 1e-9)) "p50" 5. (Stats.Histogram.quantile h 0.5);
        Alcotest.(check (float 1e-9)) "p100" 5. (Stats.Histogram.quantile h 1.0));
    case "quantile walks the cumulative counts" (fun () ->
        let h = Stats.Histogram.create ~base:2.0 () in
        (* 100 samples in [1,2), 100 in [64,128): the median must sit in
           the low bucket and p90 in the high one. *)
        for _ = 1 to 100 do Stats.Histogram.add h 1.5 done;
        for _ = 1 to 100 do Stats.Histogram.add h 100. done;
        Util.check_bool "p25 low" true (Stats.Histogram.quantile h 0.25 < 2.0);
        Util.check_bool "p90 high" true (Stats.Histogram.quantile h 0.9 >= 64.0));
    case "empty histogram" (fun () ->
        let h = Stats.Histogram.create () in
        check_int "count" 0 (Stats.Histogram.count h);
        Alcotest.(check (float 0.)) "mean" 0.0 (Stats.Histogram.mean h);
        Alcotest.check_raises "quantile"
          (Invalid_argument "Histogram.quantile: no samples") (fun () ->
            ignore (Stats.Histogram.quantile h 0.5)));
    case "degenerate parameters are rejected" (fun () ->
        Alcotest.check_raises "buckets"
          (Invalid_argument "Histogram.create: need at least 2 buckets") (fun () ->
            ignore (Stats.Histogram.create ~buckets:1 ()));
        Alcotest.check_raises "base"
          (Invalid_argument "Histogram.create: base must exceed 1") (fun () ->
            ignore (Stats.Histogram.create ~base:1.0 ()))) ]

let histogram_quantile_prop =
  QCheck.Test.make ~name:"histogram quantiles are monotone and bounded" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (float_bound_exclusive 100_000.))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let q1 = Stats.Histogram.quantile h 0.25
      and q2 = Stats.Histogram.quantile h 0.75 in
      q1 <= q2 +. 1e-9
      && q1 >= Stats.Histogram.min_value h -. 1e-9
      && q2 <= Stats.Histogram.max_value h +. 1e-9)

let stats_mean_prop =
  QCheck.Test.make ~name:"mean is within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.of_list xs in
      Stats.mean s >= Stats.min_value s -. 1e-9 && Stats.mean s <= Stats.max_value s +. 1e-9)

(* {1 Table} *)

let table_tests =
  [ case "renders aligned rows" (fun () ->
        let t = Table.create ~title:"T" ~headers:[ "name"; "value" ] in
        Table.add_row t [ "a"; "1" ];
        Table.add_row t [ "bee"; "22" ];
        let s = Table.render t in
        Util.check_bool "has title" true (Util.contains s "== T ==");
        Util.check_bool "has row" true (Util.contains s "bee"));
    case "short rows are padded" (fun () ->
        let t = Table.create ~title:"T" ~headers:[ "a"; "b"; "c" ] in
        Table.add_row t [ "x" ];
        Util.check_bool "renders" true (String.length (Table.render t) > 0));
    case "over-long rows are rejected" (fun () ->
        let t = Table.create ~title:"T" ~headers:[ "a" ] in
        Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: too many cells")
          (fun () -> Table.add_row t [ "x"; "y" ]));
    case "byte cells" (fun () ->
        Util.check_str "KB" "376 KB" (Table.cell_bytes (376 * 1024));
        Util.check_str "MB" "105.0 MB" (Table.cell_bytes (105 * 1024 * 1024));
        Util.check_str "B" "512 B" (Table.cell_bytes 512));
    case "pct cells" (fun () ->
        Util.check_str "pos" "+47%" (Table.cell_pct 47.0);
        Util.check_str "neg" "-58%" (Table.cell_pct (-58.0))) ]

(* {1 Cost model invariants} *)

let cost_tests =
  [ case "graphene open/close composes to the paper's 3.53us" (fun () ->
        (* open (entry + walk) + close + libOS duplicate resolution *)
        let open_close =
          Time.add
            (Time.add Cost.host_open Cost.path_component)
            (Time.add (Time.scale Cost.host_syscall_entry 2.0) (Time.ns 120))
        in
        let t = Time.add open_close Cost.libos_path_resolution in
        Util.check_bool "3.3-3.8us" true (t >= Time.us 3.3 && t <= Time.us 3.8));
    case "+RM open/close composes to the paper's 5.09us" (fun () ->
        let open_close =
          Time.add
            (Time.add Cost.host_open Cost.path_component)
            (Time.add (Time.scale Cost.host_syscall_entry 2.0) (Time.ns 120))
        in
        let t = Time.add (Time.add open_close Cost.libos_path_resolution) Cost.lsm_path_check in
        Util.check_bool "4.8-5.4us" true (t >= Time.us 4.8 && t <= Time.us 5.4));
    case "native read/write include the trap" (fun () ->
        Util.check_bool "read 90ns" true
          (Time.add Cost.host_syscall_entry Cost.host_read_base = Time.ns 90);
        Util.check_bool "write 110ns" true
          (Time.add Cost.host_syscall_entry Cost.host_write_base = Time.ns 110));
    case "kvm checkpoint rate matches the paper" (fun () ->
        (* 105 MB at the calibrated rate should take ~0.99 s *)
        let t = Cost.kvm_checkpoint_per_byte *. float_of_int (105 * 1024 * 1024) /. 1e9 in
        Util.check_bool "0.9-1.1s" true (t > 0.9 && t < 1.1)) ]

let suite =
  time_tests @ engine_tests @ rng_tests @ stats_tests @ histogram_tests @ table_tests
  @ cost_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ engine_order_prop; engine_model_prop; rng_bound_prop; stats_mean_prop;
        histogram_quantile_prop ]
