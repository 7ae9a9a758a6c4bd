(** Web concurrency sweep (docs/WEB.md): an event-driven [eweb] farm
    under ApacheBench-style load, swept from 25 to 10,000 concurrent
    connections.

    The paper's Table 5 stops at 100 concurrent connections. This
    sweep extends the web story to production concurrency: each farm
    server is its own sandbox (one [W.start] boot each), its preforked
    workers serialize accepts with a SysV semaphore, and the
    shared-page fast path ({!Graphene_ipc.Config.t.sem_fastpath})
    keeps the uncontended semop off the RPC path. As concurrency
    climbs, waiters pile up on the accept semaphore, every fast-path
    attempt sees a nonzero waiter count and falls back, and throughput
    degrades — the curve's shape is emergent from the coordination
    protocol, not imposed.

    Self-checks ({!Harness.gate}):
    - shape ([web.degrading]): Graphene throughput at the top of the
      sweep sits below 0.85 of its peak
    - determinism ([web.deterministic]): a fixed-seed level's numbers
      are identical across two in-process runs *)

module W = Graphene.World
module K = Graphene_host.Kernel
module T = Graphene_sim.Time
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Obs = Graphene_obs.Obs
module Loadgen = Graphene_apps.Loadgen

type farm_out = {
  mb_s : float;
  completed : int;
  errors : int;
  fast_ops : int;  (** semops completed on the shared sem page *)
  slow_acquires : int;  (** acquires that took the coordination path *)
  syn_drops : int;  (** SYNs dropped on a full accept queue, waves of RTO *)
}

(* Boot [servers] eweb farm nodes on consecutive ports — on the
   Graphene stack each W.start is its own sandbox with its own leader,
   id namespace and accept semaphore; on the Linux stack they are
   plain processes on one kernel — wait for every node's ready line,
   then split requests and connections round-robin across the ports.
   Aggregate throughput uses the union span (first connect to last
   byte), the way a multi-target ApacheBench run would report it. *)
let farm_run ?(warmup = 0) ~stack ~seed ~servers ~workers ~requests ~concurrency () =
  let w = W.create ~seed stack in
  Obs.enable (W.tracer w);
  let kernel = W.kernel w in
  let client = W.client_pico w in
  let share total i = (total / servers) + if i < total mod servers then 1 else 0 in
  let ready = ref 0 in
  let done_ports = ref 0 in
  let bytes = ref 0 and completed = ref 0 and errors = ref 0 in
  let t_start = ref None and t_end = ref T.zero in
  let launch () =
    List.iteri
      (fun i port ->
        let reqs = share requests i and conc = max 1 (share concurrency i) in
        let measured () =
          ignore
            (Loadgen.run kernel ~client ~port ~path:"/index.html" ~requests:reqs
               ~concurrency:conc (fun s ->
                 bytes := !bytes + s.Loadgen.bytes;
                 completed := !completed + s.Loadgen.completed;
                 errors := !errors + s.Loadgen.errors;
                 (match !t_start with
                 | Some t when t <= s.Loadgen.started -> ()
                 | _ -> t_start := Some s.Loadgen.started);
                 if s.Loadgen.finished > !t_end then t_end := s.Loadgen.finished;
                 incr done_ports))
        in
        if reqs = 0 then incr done_ports
        else if warmup > 0 then
          ignore
            (Loadgen.run kernel ~client ~port ~path:"/index.html"
               ~requests:(max 1 (share warmup i)) ~concurrency:conc (fun _ -> measured ()))
        else measured ())
      (List.init servers (fun i -> 8080 + i))
  in
  for i = 0 to servers - 1 do
    let hook s =
      if Util_contains.contains s "eweb ready" then begin
        incr ready;
        if !ready = servers then launch ()
      end
    in
    ignore
      (W.start w ~console_hook:hook ~exe:"/bin/eweb"
         ~argv:[ string_of_int (8080 + i); string_of_int workers ] ())
  done;
  W.run w;
  if !done_ports <> servers then failwith "bench web: farm never finished the load";
  let dt =
    match !t_start with
    | Some t0 -> T.to_s (T.diff !t_end t0)
    | None -> 0.0
  in
  let c name = Obs.counter_value (W.tracer w) name in
  { mb_s = (if dt <= 0.0 then 0.0 else float_of_int !bytes /. 1e6 /. dt);
    completed = !completed;
    errors = !errors;
    fast_ops = c "ipc.sem.fast_acquire" + c "ipc.sem.fast_release";
    slow_acquires =
      c "ipc.sem.fallback.no_page" + c "ipc.sem.fallback.cross_sandbox"
      + c "ipc.sem.fallback.stale_lease" + c "ipc.sem.fallback.contended";
    syn_drops = c "kernel.net.syn_drop" }

let run ?(full = true) () =
  let levels =
    if full then [ 25; 50; 100; 250; 500; 1000; 2500; 5000; 10_000 ]
    else [ 25; 250; 2500; 10_000 ]
  in
  let servers = if full then 4 else 2 in
  let workers = if full then 8 else 4 in
  let requests conc = max (if full then 4000 else 800) (2 * conc) in
  let warmup conc = max 100 (requests conc / 20) in
  let seed = 7919 in
  let tbl =
    Table.create ~title:"Web farm: event-driven eweb throughput vs concurrency (MB/s)"
      ~headers:
        [ "conc"; "reqs"; "Linux"; "Graphene"; "ovh"; "fast ops"; "slow acq"; "fast share";
          "syn drop" ]
  in
  let gshape = ref [] in
  List.iter
    (fun conc ->
      let reqs = requests conc and wrm = warmup conc in
      Printf.printf "  sweeping %d concurrent (%d requests)...\n%!" conc reqs;
      let native =
        (farm_run ~warmup:wrm ~stack:W.Linux ~seed ~servers ~workers ~requests:reqs
           ~concurrency:conc ())
          .mb_s
      in
      let g =
        farm_run ~warmup:wrm ~stack:W.Graphene ~seed ~servers ~workers ~requests:reqs
          ~concurrency:conc ()
      in
      let fast_share =
        let total = g.fast_ops + g.slow_acquires in
        if total = 0 then 0.0 else float_of_int g.fast_ops /. float_of_int total
      in
      gshape := (conc, g.mb_s) :: !gshape;
      Table.add_row tbl
        [ string_of_int conc;
          string_of_int reqs;
          Printf.sprintf "%.2f" native;
          Printf.sprintf "%.2f" g.mb_s;
          Table.cell_pct ((g.mb_s -. native) /. native *. 100.);
          string_of_int g.fast_ops;
          string_of_int g.slow_acquires;
          Printf.sprintf "%.1f%%" (100. *. fast_share);
          string_of_int g.syn_drops ];
      Harness.record ~unit:"MB/s"
        (Printf.sprintf "web.tput_%dconc/linux" conc)
        (Stats.of_list [ native ]);
      Harness.record ~unit:"MB/s"
        (Printf.sprintf "web.tput_%dconc/graphene" conc)
        (Stats.of_list [ g.mb_s ]);
      Harness.record (Printf.sprintf "web.fast_share_%dconc" conc)
        (Stats.of_list [ fast_share ]);
      if g.errors > 0 then Printf.printf "  note: %d request errors at %d conc\n" g.errors conc)
    levels;
  Table.print tbl;
  (* gate 1: the degradation shape must be present — the top of the
     sweep sits measurably below the farm's peak *)
  let peak = List.fold_left (fun a (_, v) -> max a v) 0.0 !gshape in
  let top_conc = List.fold_left max 0 (List.map fst !gshape) in
  let top = List.assoc top_conc !gshape in
  Harness.gate "web.degrading" (peak > 0.0 && top < 0.85 *. peak)
    (Printf.sprintf "%.2f MB/s at %d conc vs peak %.2f" top top_conc peak);
  (* gate 2: same-seed determinism — everything is virtual-clock
     derived, so a fixed seed must reproduce to the bit *)
  let lvl = List.hd levels in
  let probe () =
    let g =
      farm_run ~warmup:(warmup lvl) ~stack:W.Graphene ~seed ~servers ~workers
        ~requests:(requests lvl) ~concurrency:lvl ()
    in
    Printf.sprintf "%.17g/%d/%d/%d/%d" g.mb_s g.completed g.fast_ops g.slow_acquires
      g.syn_drops
  in
  Harness.gate "web.deterministic" (String.equal (probe ()) (probe ()))
    (Printf.sprintf "same-seed farm at %d conc" lvl)
