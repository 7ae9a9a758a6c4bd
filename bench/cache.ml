(** Fast paths — the always-on caches, the vDSO page and the
    submission ring, measured end to end (docs/PERF.md).

    Four views, all from deterministic worlds:

    - cold vs warm open/close latency (iteration 1, which fills every
      cache, vs steady state);
    - per-cache hit/miss/eviction/invalidation counts and hit rates
      from an instrumented run (graphene.obs counters), including the
      IPC owner-lease caches and send coalescing;
    - streaming file reads through the io_uring-style submission ring
      vs the equivalent per-call loop;
    - a [gettimeofday] answered from the per-picoprocess vDSO state
      page.

    Self-checks ({!Harness.gate}): the warm Graphene+RM open/close is
    at least 2x faster than the cold first iteration, the warm hit rate
    of every fast-path cache is at least 90%, at least half the
    pid-lease lookups hit, ring reads are at least 2x faster per
    operation than the loop ([ring.batched_2x]), a fast-path
    [gettimeofday] costs at most [Cost.vdso_call] plus the in-guest
    dispatch ([ring.vdso_bound]), and a fixed-seed ring run reproduces
    to the byte ([ring.deterministic]). Linux/KVM rows are omitted by
    construction: the native baseline charges fixed host costs and
    never consults the caches. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module T = Graphene_sim.Time
module Cost = Graphene_sim.Cost
module Obs = Graphene_obs.Obs
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module B = Graphene_guest.Builder
module Loader = Graphene_liblinux.Loader
module Marks = Graphene_apps.Lmbench.Marks

let record1 ~unit name v =
  let s = Stats.create () in
  Stats.add s v;
  Harness.record ~unit name s

(* {1 Cold vs warm open/close}

   Iteration 1 pays the full walk + LSM check + libOS resolution and
   fills every cache; steady state rides the fast path. The cold row is
   the number comparable to the paper's Table 6 open/close cell, whose
   libOS had none of these caches. *)

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
      let m_cold = Stats.mean cold and m_warm = Stats.mean warm in
      if stack = W.Graphene_rm then
        Harness.gate "cache.openclose_2x" (m_cold >= 2.0 *. m_warm)
          (Printf.sprintf "G+RM %.2fx (warm %.3f us, cold %.3f us)" (m_cold /. m_warm) m_warm
             m_cold);
      Table.add_row t
        [ sname;
          Printf.sprintf "%.2f" m_cold;
          Printf.sprintf "%.2f" m_warm;
          Printf.sprintf "%.2fx" (m_cold /. m_warm) ])
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

(* {1 vDSO page and submission ring}

   Both read the same 8 KiB file in 64-byte chunks — 128 reads of
   real data, no EOF tail. The loop issues one read syscall per
   chunk; the ring issues 4 batches of 32 submission entries. MARK
   cal/op pairs bracket matching empty loops so the interpreter's
   loop overhead subtracts out; both per-op figures divide by the
   128 effective reads. *)

let chunk = 64
let batch = 32
let batches = 4
let total_reads = batch * batches
let file_bytes = chunk * total_reads

let mark label =
  B.(sys "print" [ str ("MARK " ^ label ^ " ") ^% str_of_int (sys "gettimeofday" []) ^% str "\n" ])

let timed_loop ~iters ~body e =
  B.(
    seq
      [ mark "cal0";
        let_ "i" (int 0) (while_ (v "i" <% int iters) (seq [ set "i" (v "i" +% int 1) ]));
        mark "cal1";
        mark "op0";
        let_ "i" (int 0) (while_ (v "i" <% int iters) (seq [ body; set "i" (v "i" +% int 1) ]));
        mark "op1";
        e ])

let with_data_file e =
  B.(
    let_ "wf"
      (sys "open" [ str "/tmp/ring.dat"; str "w" ])
      (seq
         [ sys "write" [ v "wf"; str (String.make file_bytes 'x') ];
           sys "close" [ v "wf" ];
           let_ "fd" (sys "open" [ str "/tmp/ring.dat"; str "r" ]) e ]))

let stream_loop_prog =
  B.(
    prog ~name:"/bin/stream_loop"
      (with_data_file
         (timed_loop ~iters:total_reads
            ~body:(sys "read" [ v "fd"; int chunk ])
            (sys "exit" [ int 0 ]))))

let stream_ring_prog =
  B.(
    let sqe = pair (str "read") (pair (v "fd") (int chunk)) in
    prog ~name:"/bin/stream_ring"
      (with_data_file
         (timed_loop ~iters:batches
            ~body:(sys "ring" [ list_ (List.init batch (fun _ -> sqe)) ])
            (sys "exit" [ int 0 ]))))

let lat_gettimeofday =
  B.(
    prog ~name:"/bin/lat_gtod"
      (timed_loop ~iters:2000 ~body:(sys "gettimeofday" []) (sys "exit" [ int 0 ])))

(* Run an installed program in a fresh Graphene world; return the
   console and the final virtual clock. *)
let run_installed ~seed (path, program) =
  let w = W.create ~seed W.Graphene in
  Loader.install (W.kernel w).K.fs ~path program;
  let agg = Buffer.create 256 in
  let p = W.start w ~console_hook:(Buffer.add_string agg) ~exe:path ~argv:[] () in
  W.run w;
  if not (W.exited p) then failwith ("bench cache: " ^ path ^ " never exited");
  (Buffer.contents agg, W.now w)

(* Per-operation latency (ns) from the MARK pairs: the op loop minus
   the matching empty loop. *)
let per_op ~iters console =
  match
    ( Marks.interval console ~start:"op0" ~stop:"op1" ~iters,
      Marks.interval console ~start:"cal0" ~stop:"cal1" ~iters )
  with
  | Some op, Some cal -> op -. cal
  | _ -> failwith "bench cache: missing MARK pairs"

let ring_gates () =
  (* batched streaming beats the per-call loop >= 2x *)
  let loop_out, _ = run_installed ~seed:31 ("/bin/stream_loop", stream_loop_prog) in
  let ring_out, _ = run_installed ~seed:31 ("/bin/stream_ring", stream_ring_prog) in
  let loop_ns = per_op ~iters:total_reads loop_out
  and ring_ns = per_op ~iters:total_reads ring_out in
  let speedup = loop_ns /. ring_ns in
  record1 ~unit:"ns" "ring.stream_per_op_loop" loop_ns;
  record1 ~unit:"ns" "ring.stream_per_op_ring" ring_ns;
  record1 ~unit:"" "ring.stream_speedup" speedup;
  Printf.printf "\n  streaming 64B reads: %.1f ns/op per-call, %.1f ns/op ring (%.2fx)\n"
    loop_ns ring_ns speedup;
  Harness.gate "ring.batched_2x" (speedup >= 2.0) (Printf.sprintf "%.2fx" speedup);

  (* the vDSO bound: gettimeofday on the fast path costs at most the
     page read plus the in-guest syscall dispatch *)
  let gtod_out, _ = run_installed ~seed:31 ("/bin/lat_gtod", lat_gettimeofday) in
  let gtod_ns = per_op ~iters:2000 gtod_out in
  (* Time.t is integer nanoseconds *)
  let bound = float_of_int (T.add Cost.vdso_call Cost.libos_call) in
  record1 ~unit:"ns" "ring.gettimeofday_ns" gtod_ns;
  Printf.printf "  gettimeofday: %.1f ns/op (bound %.0f ns)\n" gtod_ns bound;
  Harness.gate "ring.vdso_bound" (gtod_ns <= bound) (Printf.sprintf "%.1f ns" gtod_ns);

  (* same-seed determinism of a ring run, to the byte *)
  let probe () =
    let out, now = run_installed ~seed:47 ("/bin/stream_ring", stream_ring_prog) in
    out ^ "/" ^ string_of_int now
  in
  Harness.gate "ring.deterministic" (String.equal (probe ()) (probe ())) "same-seed ring run"

let run ?(full = true) () =
  cold_warm ~full;
  path_cache_rates ~full;
  lease_rates ();
  ring_gates ()
