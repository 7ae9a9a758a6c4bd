(** vDSO page + submission ring: the fast-path gates (docs/PERF.md).

    Two in-guest fast paths ride the same PR: the per-picoprocess
    vDSO state page ({!Graphene_ipc.Config.t.vdso}) that answers
    identity and time syscalls without a PAL crossing, and the
    io_uring-style submission ring ({!Graphene_ipc.Config.t.ring})
    that drains a batch of independent reads/writes behind one
    boundary crossing.

    Self-checks ({!Harness.gate}):
    - neutrality ([ring.t6_no_regress]): no Table 6 row regresses with
      both knobs on vs both off — the fast paths only remove work,
      they never add it to an unrelated path
    - batching ([ring.batched_2x]): streaming file reads through the
      ring are at least 2x faster per operation than the equivalent
      per-call loop
    - the vDSO bound ([ring.vdso_bound]): a [gettimeofday] on the fast
      path costs at most [Cost.vdso_call] plus the in-guest dispatch —
      no hidden crossing
    - determinism ([ring.deterministic]): a fixed-seed ring run
      reproduces to the byte *)

module W = Graphene.World
module K = Graphene_host.Kernel
module T = Graphene_sim.Time
module Cost = Graphene_sim.Cost
module Stats = Graphene_sim.Stats
module Table = Graphene_sim.Table
module Config = Graphene_ipc.Config
module Loader = Graphene_liblinux.Loader
module Marks = Graphene_apps.Lmbench.Marks
open Graphene_guest.Builder

let knobs_off () =
  let cfg = Config.default () in
  cfg.Config.vdso <- false;
  cfg.Config.ring <- false;
  cfg

(* {1 The streaming programs}

   Both read the same 8 KiB file in 64-byte chunks — 128 reads of
   real data, no EOF tail. The loop issues one read syscall per
   chunk; the ring issues 8 batches of 16 submission entries. MARK
   cal/op pairs bracket matching empty loops so the interpreter's
   loop overhead subtracts out; both per-op figures divide by the
   128 effective reads. *)

let chunk = 64
let batch = 32
let batches = 4
let total_reads = batch * batches
let file_bytes = chunk * total_reads

let mark label =
  sys "print" [ str ("MARK " ^ label ^ " ") ^% str_of_int (sys "gettimeofday" []) ^% str "\n" ]

let timed_loop ~iters ~body e =
  seq
    [ mark "cal0";
      let_ "i" (int 0) (while_ (v "i" <% int iters) (seq [ set "i" (v "i" +% int 1) ]));
      mark "cal1";
      mark "op0";
      let_ "i" (int 0) (while_ (v "i" <% int iters) (seq [ body; set "i" (v "i" +% int 1) ]));
      mark "op1";
      e ]

let with_data_file e =
  let_ "wf"
    (sys "open" [ str "/tmp/ring.dat"; str "w" ])
    (seq
       [ sys "write" [ v "wf"; str (String.make file_bytes 'x') ];
         sys "close" [ v "wf" ];
         let_ "fd" (sys "open" [ str "/tmp/ring.dat"; str "r" ]) e ])

let stream_loop_prog =
  prog ~name:"/bin/stream_loop"
    (with_data_file
       (timed_loop ~iters:total_reads
          ~body:(sys "read" [ v "fd"; int chunk ])
          (sys "exit" [ int 0 ])))

let stream_ring_prog =
  let sqe = pair (str "read") (pair (v "fd") (int chunk)) in
  prog ~name:"/bin/stream_ring"
    (with_data_file
       (timed_loop ~iters:batches
          ~body:(sys "ring" [ list_ (List.init batch (fun _ -> sqe)) ])
          (sys "exit" [ int 0 ])))

let lat_gettimeofday =
  prog ~name:"/bin/lat_gtod"
    (timed_loop ~iters:2000 ~body:(sys "gettimeofday" []) (sys "exit" [ int 0 ]))

(* Run an installed program in a fresh Graphene world; return the
   console and the final virtual clock. *)
let run_installed ?cfg ~seed (path, program) =
  let w =
    match cfg with
    | Some cfg -> W.create ~seed ~cfg W.Graphene
    | None -> W.create ~seed W.Graphene
  in
  Loader.install (W.kernel w).K.fs ~path program;
  let agg = Buffer.create 256 in
  let p = W.start w ~console_hook:(Buffer.add_string agg) ~exe:path ~argv:[] () in
  W.run w;
  if not (W.exited p) then failwith ("bench ring: " ^ path ^ " never exited");
  (Buffer.contents agg, W.now w)

(* Per-effective-read latency (ns) from the MARK pairs. *)
let per_read console =
  match Marks.interval console ~start:"op0" ~stop:"op1" ~iters:total_reads with
  | Some op -> (
    match Marks.interval console ~start:"cal0" ~stop:"cal1" ~iters:total_reads with
    | Some cal -> op -. cal
    | None -> failwith "bench ring: missing calibration marks")
  | None -> failwith "bench ring: missing op marks"

let run ?(full = true) () =
  (* gate 1: Table 6 neutrality — both knobs on vs both off *)
  Printf.printf "  re-running Table 6 rows with the fast paths on and off...\n%!";
  let t =
    Table.create ~title:"vDSO+ring neutrality: Table 6 rows (us)"
      ~headers:[ "Test"; "knobs on"; "knobs off"; "delta" ]
  in
  let regressed = ref [] in
  List.iter
    (fun (name, exe, iters) ->
      let slug =
        String.map (function '/' -> '-' | '+' -> '-' | c -> c) name
      in
      let m cfg tag =
        Harness.trials ~n:(if full then 3 else 2)
          ~name:(Printf.sprintf "ring.t6_%s_%s" slug tag)
          ~unit:"us" ~cfg ~stack:W.Graphene
          (Harness.lmbench_us ~exe ~iters)
      in
      let on = m (Config.default ()) "on" and off = m (knobs_off ()) "off" in
      let mo = Stats.mean on and mf = Stats.mean off in
      (* the fast paths may only remove work: allow a hair of slack
         for the time-path rows whose cost model changed shape *)
      if mo > (mf *. 1.05) +. 0.001 then regressed := name :: !regressed;
      Table.add_row t
        [ name;
          Printf.sprintf "%.3f" mo;
          Printf.sprintf "%.3f" mf;
          Table.cell_pct ((mo -. mf) /. mf *. 100.) ])
    (Table6.rows ~full:false);
  Table.print t;
  Harness.gate "ring.t6_no_regress" (!regressed = [])
    (match !regressed with
    | [] -> "every Table 6 row"
    | rows -> "regressed: " ^ String.concat ", " rows);

  (* gate 2: batched streaming beats the per-call loop >= 2x *)
  let loop_out, _ = run_installed ~seed:31 ("/bin/stream_loop", stream_loop_prog) in
  let ring_out, _ = run_installed ~seed:31 ("/bin/stream_ring", stream_ring_prog) in
  let loop_ns = per_read loop_out and ring_ns = per_read ring_out in
  let speedup = loop_ns /. ring_ns in
  Harness.record ~unit:"ns" "ring.stream_per_op_loop" (Stats.of_list [ loop_ns ]);
  Harness.record ~unit:"ns" "ring.stream_per_op_ring" (Stats.of_list [ ring_ns ]);
  Harness.record "ring.stream_speedup" (Stats.of_list [ speedup ]);
  Printf.printf "\n  streaming 64B reads: %.1f ns/op per-call, %.1f ns/op ring (%.2fx)\n"
    loop_ns ring_ns speedup;
  Harness.gate "ring.batched_2x" (speedup >= 2.0) (Printf.sprintf "%.2fx" speedup);

  (* gate 3: the vDSO bound — gettimeofday on the fast path costs at
     most the page read plus the in-guest syscall dispatch *)
  let gtod_out, _ = run_installed ~seed:31 ("/bin/lat_gtod", lat_gettimeofday) in
  let gtod_ns =
    match
      ( Marks.interval gtod_out ~start:"op0" ~stop:"op1" ~iters:2000,
        Marks.interval gtod_out ~start:"cal0" ~stop:"cal1" ~iters:2000 )
    with
    | Some op, Some cal -> op -. cal
    | _ -> failwith "bench ring: lat_gtod missing marks"
  in
  (* Time.t is integer nanoseconds *)
  let bound = float_of_int (T.add Cost.vdso_call Cost.libos_call) in
  Harness.record ~unit:"ns" "ring.gettimeofday_ns" (Stats.of_list [ gtod_ns ]);
  Printf.printf "  gettimeofday: %.1f ns/op (bound %.0f ns)\n" gtod_ns bound;
  Harness.gate "ring.vdso_bound" (gtod_ns <= bound) (Printf.sprintf "%.1f ns" gtod_ns);

  (* gate 4: same-seed determinism of a ring run, to the byte *)
  let probe () =
    let out, now = run_installed ~seed:47 ("/bin/stream_ring", stream_ring_prog) in
    out ^ "/" ^ string_of_int now
  in
  Harness.gate "ring.deterministic" (String.equal (probe ()) (probe ())) "same-seed ring run"
