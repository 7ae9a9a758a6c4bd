(** Cache ablation — the fast-path caching layer measured end to end.

    Three views, all from the same deterministic worlds:

    - every Table 6 row on Graphene and Graphene+RM with the caches on
      (default config) vs off ({!Graphene_ipc.Config.uncached}, the
      pre-caching behavior), with the off/on speedup;
    - cold vs warm open/close latency (iteration 1 vs steady state);
    - per-cache hit/miss/eviction/invalidation counts and hit rates
      from an instrumented run (graphene.obs counters), including the
      IPC owner-lease caches and send coalescing.

    Self-checks ({!Harness.gate}): the warm open/close hit rate of
    every fast-path cache is at least 90%, caches-on is no slower than
    caches-off on any Table 6 row, the warm Graphene+RM open/close
    speedup is at least 2x, and at least half the pid-lease lookups
    hit. Linux/KVM rows are omitted by construction: the native
    baseline charges fixed host costs and never consults the caches. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Obs = Graphene_obs.Obs
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Config = Graphene_ipc.Config
module B = Graphene_guest.Builder
module Loader = Graphene_liblinux.Loader

let record1 ~unit name v =
  let s = Stats.create () in
  Stats.add s v;
  Harness.record ~unit name s

(* {1 On/off sweep over the Table 6 rows} *)

let onoff ~full =
  let t =
    Table.create ~title:"Cache ablation: Table 6 rows, caches on vs off (us)"
      ~headers:[ "Test"; "Graphene on"; "off"; "x"; "G+RM on"; "off"; "x" ]
  in
  let n = if full then 4 else 2 in
  let slower = ref [] in
  List.iter
    (fun (name, exe, iters) ->
      let cells =
        List.concat_map
          (fun stack ->
            let sname = W.stack_name stack in
            let on =
              Harness.trials ~n
                ~name:(Printf.sprintf "cache/%s/%s/on" name sname)
                ~unit:"us" ~stack (Harness.lmbench_us ~exe ~iters)
            in
            let off =
              Harness.trials ~n
                ~name:(Printf.sprintf "cache/%s/%s/off" name sname)
                ~unit:"us" ~cfg:(Config.uncached ()) ~stack
                (Harness.lmbench_us ~exe ~iters)
            in
            let m_on = Stats.mean on and m_off = Stats.mean off in
            (* same seeds on both sides, so the comparison needs only a
               small tolerance for rows the caches cannot touch *)
            if m_on > (m_off *. 1.02) +. 0.005 then
              slower := Printf.sprintf "%s/%s %.3f vs %.3f us" name sname m_on m_off :: !slower;
            if name = "open/close" && stack = W.Graphene_rm then
              Harness.gate "cache.openclose_2x" (m_off >= 2.0 *. m_on)
                (Printf.sprintf "G+RM %.2fx (on %.3f us, off %.3f us)" (m_off /. m_on) m_on
                   m_off);
            [ Printf.sprintf "%.2f" m_on;
              Printf.sprintf "%.2f" m_off;
              Printf.sprintf "%.2fx" (if m_on > 0. then m_off /. m_on else 0.) ])
          [ W.Graphene; W.Graphene_rm ]
      in
      Table.add_row t (name :: cells))
    (Table6.rows ~full);
  Table.print t;
  Harness.gate "cache.on_not_slower" (!slower = [])
    (match !slower with
    | [] -> "every Table 6 row"
    | rows -> "slower: " ^ String.concat "; " (List.rev rows));
  print_newline ()

(* {1 Cold vs warm open/close}

   Iteration 1 pays the full walk + LSM check + libOS resolution and
   fills every cache; steady state rides the fast path. *)

let cold_warm ~full =
  let iters = if full then 2000 else 300 in
  let n = if full then 4 else 2 in
  let t =
    Table.create ~title:"Cache ablation: open/close cold vs warm (us/op)"
      ~headers:[ "Stack"; "cold (iter 1)"; "warm"; "x" ]
  in
  List.iter
    (fun stack ->
      let sname = W.stack_name stack in
      let cold =
        Harness.trials ~n
          ~name:("cache/openclose_cold/" ^ sname)
          ~unit:"us" ~stack
          (Harness.lmbench_us ~exe:"/bin/lat_openclose" ~iters:1)
      in
      let warm =
        Harness.trials ~n
          ~name:("cache/openclose_warm/" ^ sname)
          ~unit:"us" ~stack
          (Harness.lmbench_us ~exe:"/bin/lat_openclose" ~iters)
      in
      Table.add_row t
        [ sname;
          Printf.sprintf "%.2f" (Stats.mean cold);
          Printf.sprintf "%.2f" (Stats.mean warm);
          Printf.sprintf "%.2fx" (Stats.mean cold /. Stats.mean warm) ])
    [ W.Graphene; W.Graphene_rm ];
  Table.print t;
  print_newline ()

(* {1 Hit rates from an instrumented run} *)

(* hits / (hits + misses); negative dcache answers count as hits — they
   answer without walking, which is the point. *)
let rate hits misses =
  let tot = hits +. misses in
  if tot <= 0. then 1.0 else hits /. tot

let path_cache_rates ~full =
  let iters = if full then 2000 else 300 in
  let w = W.create ~seed:4242 W.Graphene_rm in
  Obs.enable (W.tracer w);
  ignore (Harness.lmbench_us ~exe:"/bin/lat_openclose" ~iters w);
  let c name = float_of_int (Obs.counter_value (W.tracer w) name) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Warm path caches, %d open/close iterations (Graphene+RM)" iters)
      ~headers:[ "Cache"; "hits"; "misses"; "evict"; "inval"; "hit rate" ]
  in
  List.iter
    (fun (label, hits, prefix) ->
      let miss = c (prefix ^ ".miss") in
      let r = rate hits miss in
      Table.add_row t
        [ label;
          Printf.sprintf "%.0f" hits;
          Printf.sprintf "%.0f" miss;
          Printf.sprintf "%.0f" (c (prefix ^ ".evict"));
          Printf.sprintf "%.0f" (c (prefix ^ ".invalidate"));
          Printf.sprintf "%.1f%%" (r *. 100.) ];
      record1 ~unit:"ratio" ("cache/hitrate/" ^ prefix) r;
      Harness.gate ("cache.hitrate." ^ prefix) (r >= 0.9)
        (Printf.sprintf "warm open/close %.1f%% (floor 90%%)" (r *. 100.)))
    [ ("VFS dcache", c "vfs.dcache.hit" +. c "vfs.dcache.neg_hit", "vfs.dcache");
      ("refmon decisions", c "refmon.cache.hit", "refmon.cache");
      ("libOS handles", c "liblinux.handle_cache.hit", "liblinux.handle_cache") ];
  Table.print t;
  print_newline ()

(* {1 IPC leases and coalescing}

   Sibling signaling, sigstorm-style (PIDs are deterministic: parent 1,
   children 2 and 3): child 2 kills child 3 repeatedly — the first kill
   resolves PID 3 through the leader and fills a lease, every later
   kill rides it — then releases a parent-owned semaphore back-to-back,
   which exercises the owner leases and the coalescing window. *)

let lease_prog =
  B.(
    prog ~name:"/bin/leasebench"
      ~funcs:[ func "h" [ "s" ] unit ]
      (let_ "sem" (sys "semget" [ int 77; int 0 ])
         (let_ "a" (sys "fork" [])
            (if_ (v "a" =% int 0)
               (seq
                  [ (* let the sibling come up before the first kill *)
                    sys "nanosleep" [ int 2_000_000 ];
                    for_ "i" (int 1) (int 40) (sys "kill" [ int 3; int 10 ]);
                    for_ "i" (int 1) (int 40) (sys "semop" [ v "sem"; int 1 ]);
                    sys "exit" [ int 0 ] ])
               (let_ "b" (sys "fork" [])
                  (if_ (v "b" =% int 0)
                     (seq
                        [ sys "sigaction" [ int 10; str "h" ];
                          for_ "i" (int 1) (int 60) (sys "nanosleep" [ int 1_000_000 ]);
                          sys "exit" [ int 0 ] ])
                     (seq
                        [ for_ "i" (int 1) (int 40)
                            (sys "semop" [ v "sem"; int 0 -% int 1 ]);
                          sys "wait" [];
                          sys "wait" [];
                          sys "exit" [ int 0 ] ])))))))

let lease_rates () =
  let w = W.create ~seed:4242 W.Graphene in
  Loader.install (W.kernel w).K.fs ~path:"/bin/leasebench" lease_prog;
  Obs.enable (W.tracer w);
  ignore (W.start w ~exe:"/bin/leasebench" ~argv:[] ());
  W.run w;
  let c name = float_of_int (Obs.counter_value (W.tracer w) name) in
  let pid_rate = rate (c "ipc.lease.pid.hit") (c "ipc.lease.pid.miss") in
  let owner_rate = rate (c "ipc.lease.owner.hit") (c "ipc.lease.owner.miss") in
  Printf.printf
    "  IPC leases (sibling signals + remote semaphore releases):\n\
    \    pid leases    %3.0f hits / %2.0f misses (%.1f%%)\n\
    \    owner leases  %3.0f hits / %2.0f misses (%.1f%%)\n\
    \    coalesced notifications: %.0f (batches: %.0f)\n\n"
    (c "ipc.lease.pid.hit") (c "ipc.lease.pid.miss") (pid_rate *. 100.)
    (c "ipc.lease.owner.hit") (c "ipc.lease.owner.miss") (owner_rate *. 100.)
    (c "ipc.coalesced") (c "ipc.batches");
  record1 ~unit:"ratio" "cache/hitrate/ipc.lease.pid" pid_rate;
  record1 ~unit:"ratio" "cache/hitrate/ipc.lease.owner" owner_rate;
  record1 ~unit:"msgs" "cache/ipc.coalesced" (c "ipc.coalesced");
  record1 ~unit:"msgs" "cache/ipc.batches" (c "ipc.batches");
  Harness.gate "cache.pid_lease_reuse" (pid_rate >= 0.5)
    (Printf.sprintf "%.1f%% hits (floor 50%%)" (pid_rate *. 100.))

let run ?(full = true) () =
  onoff ~full;
  cold_warm ~full;
  path_cache_rates ~full;
  lease_rates ()
