(** Contention sweep: per-resource wait accounting over the
    coordination-heavy workloads (docs/CONTENTION.md).

    Every run launches a workload with the contention plane on and
    reports where blocked virtual time went: total blocked time, the
    fraction attributed to a named resource (the coverage gate), the
    leader's share of it (is the coordinator the bottleneck?), and any
    convoy / wait-chain advisories the online detector raised.

    Workloads:
    - sigstorm: two children exchanging SIGUSR1 through the leader
    - sysv_interproc: a producer/consumer pair on a remote message queue
    - web_farm: preforked apache workers under loadgen requests
    - fig5_rpc: the Figure 5 RPC ping-pong pair, re-run with the plane
      on so the sweep's leader share is first-class

    Self-checks ({!Harness.gate}):
    - attribution ([contend.attribution.*]): every run records at
      least one wait, and >= 95% of its blocked virtual time lands on
      a named resource — a run that never waits measures nothing
    - determinism ([contend.deterministic]): the full contention
      report of a fixed-seed run is byte-identical across two runs *)

module W = Graphene.World
module K = Graphene_host.Kernel
module T = Graphene_sim.Time
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Cd = Graphene_obs.Contend
module Lx = Graphene_liblinux.Lx
module Ipc = Graphene_ipc.Instance
module Apps = Graphene_apps

type out = {
  blocked_ns : float;
  coverage : float;
  leader_share : float;
  waits : int;
  convoys : int;
  advisories : int;
  unattributed_ns : float;
  sys_blocked_ns : float;
  report : string;  (** full report, for the byte-determinism gate *)
}

let collect w =
  let cd = W.contend w in
  { blocked_ns = float_of_int (Cd.blocked_total cd);
    coverage = Cd.coverage cd;
    leader_share = Cd.leader_share cd;
    waits = Cd.waits cd;
    convoys = Cd.convoys cd;
    advisories = Cd.advisories_total cd;
    unattributed_ns = float_of_int (Cd.blocked_total cd - Cd.attributed_total cd);
    sys_blocked_ns = float_of_int (Cd.sys_blocked cd);
    report = Cd.report cd }

(* A guest program run to completion with the plane on. *)
let app_run ~seed ~exe ~argv =
  let w = W.create ~seed W.Graphene in
  Cd.enable (W.contend w);
  ignore (W.start w ~console_hook:ignore ~exe ~argv ());
  W.run w;
  collect w

(* Preforked apache under load — the web-farm story: the worker
   processes serialize accepts on a SysV semaphore, so they contend on
   the coordination layer while serving requests. *)
let web_run ~seed ~requests ~concurrency =
  let w = W.create ~seed W.Graphene in
  Cd.enable (W.contend w);
  let client = W.client_pico w in
  let started = ref false in
  let hook s =
    if (not !started) && Util_contains.contains s "apache ready" then begin
      started := true;
      ignore
        (Apps.Loadgen.run (W.kernel w) ~client ~port:8080 ~path:"/index.html" ~requests
           ~concurrency (fun _ -> ()))
    end
  in
  ignore (W.start w ~console_hook:hook ~exe:"/bin/apache" ~argv:[ "8080"; "4"; "plain" ] ());
  W.run w;
  collect w

(* The Figure 5 RPC ping-pong pair with the plane on: instance A
   blocks on [ipc.wait.ping] held by B for every round trip, so the
   breakdown attributes the whole measured interval. *)
let rpc_run ~seed ~iters =
  let w = W.create ~seed ~cores:48 W.Graphene in
  Cd.enable (W.contend w);
  let a = W.start w ~exe:"/bin/memhog" ~argv:[ "0" ] () in
  let b = W.start w ~exe:"/bin/memhog" ~argv:[ "0" ] () in
  W.run w;
  let lx_a = match a with W.Pl lx -> lx | _ -> assert false in
  let lx_b = match b with W.Pl lx -> lx | _ -> assert false in
  let addr_b = Lx.my_addr lx_b in
  let rec loop n = if n > 0 then Ipc.ping (Lx.ipc lx_a) ~addr:addr_b (fun () -> loop (n - 1)) in
  loop iters;
  W.run w;
  collect w

let seeds ~full = List.init (if full then 6 else 3) (fun i -> 11 + (17 * i))

let workloads ~full =
  let iters = if full then 40 else 10 in
  [ ("sigstorm", fun seed -> app_run ~seed ~exe:"/bin/sigstorm" ~argv:[]);
    ("sysv_interproc",
     fun seed -> app_run ~seed ~exe:"/bin/sysv_interproc" ~argv:[ string_of_int iters ]);
    ("web_farm",
     fun seed -> web_run ~seed ~requests:(if full then 40 else 10) ~concurrency:4);
    ("fig5_rpc", fun seed -> rpc_run ~seed ~iters:(if full then 200 else 50)) ]

let coverage_floor = 0.95

let run ?(full = true) () =
  let seeds = seeds ~full in
  let tbl =
    Table.create ~title:"Contention sweep: blocked virtual time by workload"
      ~headers:
        [ "workload"; "runs"; "blocked (us)"; "waits"; "attributed"; "leader share";
          "convoys"; "advisories" ]
  in
  List.iter
    (fun (name, f) ->
      let outs = List.map f seeds in
      let stat g = Stats.of_list (List.map g outs) in
      let blocked = stat (fun o -> o.blocked_ns) in
      let coverage = stat (fun o -> o.coverage) in
      let leader = stat (fun o -> o.leader_share) in
      let worst_cov = List.fold_left (fun a o -> min a o.coverage) 1.0 outs in
      let idle = List.length (List.filter (fun o -> o.waits = 0) outs) in
      Harness.gate ("contend.attribution." ^ name)
        (idle = 0 && worst_cov >= coverage_floor)
        (Printf.sprintf "worst run %.1f%% attributed (floor %.0f%%), %d runs without a wait"
           (100. *. worst_cov) (100. *. coverage_floor) idle);
      let sum g = List.fold_left (fun a o -> a + g o) 0 outs in
      Table.add_row tbl
        [ name;
          string_of_int (List.length outs);
          Printf.sprintf "%.1f" (Stats.mean blocked /. 1e3);
          string_of_int (sum (fun o -> o.waits));
          Printf.sprintf "%.1f%%" (100. *. Stats.mean coverage);
          Printf.sprintf "%.1f%%" (100. *. Stats.mean leader);
          string_of_int (sum (fun o -> o.convoys));
          string_of_int (sum (fun o -> o.advisories)) ];
      Harness.record ~unit:"ns" ("contend.blocked_ns." ^ name) blocked;
      Harness.record ("contend.coverage." ^ name) coverage;
      Harness.record ("contend.leader_share." ^ name) leader;
      Harness.record ("contend.convoys." ^ name)
        (Stats.of_list (List.map (fun o -> float_of_int o.convoys) outs));
      Harness.record ~unit:"ns" ("contend.unattributed_ns." ^ name)
        (stat (fun o -> o.unattributed_ns)))
    (workloads ~full);
  Table.print tbl;
  (* byte determinism: the full report of a fixed (seed, workload) run
     must not vary run to run — everything is virtual-clock-derived *)
  let seed = List.hd seeds in
  let r1 = (app_run ~seed ~exe:"/bin/sigstorm" ~argv:[]).report in
  let r2 = (app_run ~seed ~exe:"/bin/sigstorm" ~argv:[]).report in
  Harness.gate "contend.deterministic" (String.equal r1 r2) "same-seed sigstorm report"
