(** Ablation of the §4.3 "lessons learned" optimizations:

    - point-to-point stream caching (first signal ~2 ms, cached ~55 us)
    - asynchronous remote message sends
    - queue-ownership migration to the consumer (~10x)
    - batched PID allocation (leader off the fork critical path) *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Config = Graphene_ipc.Config
module B = Graphene_guest.Builder
module Loader = Graphene_liblinux.Loader

let sayn e = B.(sys "print" [ e ^% str "\n" ])

(* First vs cached signal latency: the child times two kills of the
   same (grand)child process. *)
let signal_prog =
  B.(
    prog ~name:"/bin/sigbench"
      ~funcs:[ func "h" [ "s" ] unit ]
      (let_ "pid" (sys "fork" [])
         (if_ (v "pid" =% int 0)
            (seq
               [ sys "sigaction" [ int 10; str "h" ];
                 for_ "i" (int 1) (int 40) (sys "nanosleep" [ int 1_000_000 ]);
                 sys "exit" [ int 0 ] ])
            (seq
               [ sys "nanosleep" [ int 1_000_000 ];
                 let_ "t0" (sys "gettimeofday" [])
                   (seq
                      [ sys "kill" [ v "pid"; int 10 ];
                        let_ "t1" (sys "gettimeofday" [])
                          (seq
                             [ sayn (str "FIRST " ^% str_of_int (v "t1" -% v "t0"));
                               let_ "t2" (sys "gettimeofday" [])
                                 (seq
                                    [ for_ "i" (int 1) (int 20) (sys "kill" [ v "pid"; int 10 ]);
                                      let_ "t3" (sys "gettimeofday" [])
                                        (sayn
                                           (str "CACHED "
                                           ^% str_of_int ((v "t3" -% v "t2") /% int 20))) ]) ]) ]);
                 sys "kill" [ v "pid"; int 9 ];
                 sys "wait" [];
                 sys "exit" [ int 0 ] ]))))

let parse_tag tag console =
  String.split_on_char '\n' console
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ t; n ] when t = tag -> int_of_string_opt n
         | _ -> None)

let signal_latencies cfg =
  let w = W.create ~cfg W.Graphene in
  Loader.install (W.kernel w).K.fs ~path:"/bin/sigbench" signal_prog;
  let agg = Buffer.create 64 in
  ignore (W.start w ~console_hook:(Buffer.add_string agg) ~exe:"/bin/sigbench" ~argv:[] ());
  W.run w;
  let out = Buffer.contents agg in
  match (parse_tag "FIRST" out, parse_tag "CACHED" out) with
  | Some f, Some c -> (float_of_int f /. 1000., float_of_int c /. 1000.)
  | _ -> failwith "sigbench produced no measurements"

(* Remote message-queue receive latency under a configuration. *)
let msgq_recv_prog iters =
  B.(
    prog ~name:"/bin/qbench"
      (let_ "id"
         (sys "msgget" [ int 31; int 1 ])
         (let_ "pid" (sys "fork" [])
            (if_ (v "pid" =% int 0)
               (seq
                  [ sys "nanosleep" [ int 10_000_000 ];
                    let_ "t0" (sys "gettimeofday" [])
                      (seq
                         [ for_ "i" (int 1) (int iters) (sys "msgrcv" [ v "id" ]);
                           let_ "t1" (sys "gettimeofday" [])
                             (sayn
                                (str "RECV " ^% str_of_int ((v "t1" -% v "t0") /% int iters))) ]);
                    sys "exit" [ int 0 ] ])
               (seq
                  [ for_ "i" (int 1) (int iters) (sys "msgsnd" [ v "id"; str "m" ]);
                    sys "wait" [];
                    sys "exit" [ int 0 ] ])))))

let msgq_recv_us cfg =
  let iters = 50 in
  let w = W.create ~cfg W.Graphene in
  Loader.install (W.kernel w).K.fs ~path:"/bin/qbench" (msgq_recv_prog iters);
  let agg = Buffer.create 64 in
  ignore (W.start w ~console_hook:(Buffer.add_string agg) ~exe:"/bin/qbench" ~argv:[] ());
  W.run w;
  match parse_tag "RECV" (Buffer.contents agg) with
  | Some ns -> float_of_int ns /. 1000.
  | None -> failwith "qbench produced no measurement"

(* fork latency under a PID-batch size, measured in a CHILD process:
   the leader always allocates locally, so batching only shows on the
   non-leader path (exactly why the paper batches: "keep the leader off
   of the critical path of operations like fork"). *)
let child_fork_prog iters =
  B.(
    prog ~name:"/bin/forkbench"
      (let_ "pid" (sys "fork" [])
         (if_ (v "pid" =% int 0)
            (seq
               [ let_ "t0" (sys "gettimeofday" [])
                   (seq
                      [ for_ "i" (int 1) (int iters)
                          (let_ "g" (sys "fork" [])
                             (if_ (v "g" =% int 0) (sys "exit" [ int 0 ])
                                (sys "waitpid" [ v "g" ])));
                        let_ "t1" (sys "gettimeofday" [])
                          (sayn (str "FORK " ^% str_of_int ((v "t1" -% v "t0") /% int iters))) ]);
                 sys "exit" [ int 0 ] ])
            (seq [ sys "wait" []; sys "exit" [ int 0 ] ]))))

let fork_us cfg =
  let iters = 12 in
  let w = W.create ~cfg W.Graphene in
  Loader.install (W.kernel w).K.fs ~path:"/bin/forkbench" (child_fork_prog iters);
  let agg = Buffer.create 64 in
  ignore (W.start w ~console_hook:(Buffer.add_string agg) ~exe:"/bin/forkbench" ~argv:[] ());
  W.run w;
  match parse_tag "FORK" (Buffer.contents agg) with
  | Some ns -> float_of_int ns /. 1000.
  | None -> failwith "fork bench produced no measurement"

let run () =
  let t =
    Table.create ~title:"Ablation: the s4.3 coordination optimizations"
      ~headers:[ "Configuration"; "Metric"; "Value (us)" ]
  in
  (* stream caching: first vs cached signal *)
  let first, cached = signal_latencies (Config.default ()) in
  Table.add_row t [ "default"; "first signal (owner lookup + stream setup)"; Printf.sprintf "%.0f" first ];
  Table.add_row t [ "default"; "cached signal"; Printf.sprintf "%.1f" cached ];
  let _, uncached =
    signal_latencies { (Config.default ()) with Config.cache_p2p = false; cache_owners = false }
  in
  Table.add_row t
    [ "no p2p/owner caching"; "every signal (re-resolve + reconnect)";
      Printf.sprintf "%.0f" uncached ];
  Table.add_separator t;
  (* message queue optimizations *)
  let dflt = msgq_recv_us (Config.default ()) in
  let remote = msgq_recv_us { (Config.default ()) with Config.migrate_ownership = false } in
  let naive = msgq_recv_us (Config.naive ()) in
  Table.add_row t [ "default (migrate+async)"; "remote msgrcv"; Printf.sprintf "%.1f" dflt ];
  Table.add_row t [ "no ownership migration"; "remote msgrcv"; Printf.sprintf "%.1f" remote ];
  Table.add_row t [ "naive (no optimizations)"; "remote msgrcv"; Printf.sprintf "%.1f" naive ];
  Table.add_separator t;
  (* PID batching *)
  let batch50 = fork_us (Config.default ()) in
  let batch1 = fork_us { (Config.default ()) with Config.pid_batch = 1 } in
  Table.add_row t
    [ "pid batch = 50"; "child fork+exit (pids from donated range)";
      Printf.sprintf "%.0f" batch50 ];
  Table.add_row t
    [ "pid batch = 1"; "child fork+exit (every pid via leader RPC)";
      Printf.sprintf "%.0f" batch1 ];
  Table.print t;
  Harness.paper_note "first signal ~2 ms vs ~55 us cached; migration bought ~10x on receives";
  Printf.printf "  migration speedup measured here: %.1fx (naive/default: %.1fx)\n\n"
    (remote /. dflt) (naive /. dflt)
