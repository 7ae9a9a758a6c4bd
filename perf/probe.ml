(* Host-side cost of each layer's hot call, timed from outside the
   layer through its public functions. Each probe runs 20 batches,
   sized so a batch takes about 2 ms, and reports the median and the
   quartiles of the per-operation cost. *)

module K = Graphene_host.Kernel
module T = Graphene_sim.Time
module Vfs = Graphene_host.Vfs
module Wire = Graphene_ipc.Wire
module Coord = Graphene_ipc.Coord
module Interp = Graphene_guest.Interp
module Engine = Graphene_sim.Engine
module Prog = Graphene_bpf.Prog
module B = Graphene_guest.Builder

type result = { name : string; unit_ : string; median : float; q1 : float; q3 : float }

let batches = 20

(* [op ()] performs one operation and returns the units of work it did
   (1 for a call, steps or kilobytes where the cost is per step or per
   kilobyte); the result is host ns per unit. *)
let probe name unit_ op =
  let batch n =
    let t0 = Unix.gettimeofday () in
    let units = ref 0. in
    for _ = 1 to n do
      units := !units +. op ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, 1e9 *. dt /. !units)
  in
  let rec calibrate n = if fst (batch n) >= 0.002 || n >= 1 lsl 24 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  let samples = List.init batches (fun _ -> snd (batch n)) in
  let q1, q3 = Stat.quartiles samples in
  { name; unit_; median = Stat.median samples; q1; q3 }

let bpf () =
  let filter = Graphene_bpf.Seccomp.graphene_filter ~pal_lo:K.pal_base ~pal_hi:K.pal_limit in
  let data =
    { Prog.nr = Graphene_bpf.Sysno.number "read";
      arch = Prog.audit_arch_x86_64;
      pc = K.pal_base + 64;
      args = Array.make 6 0 }
  in
  fun () ->
    ignore (Prog.eval filter data);
    1.

let vfs ~dcache () =
  let fs = Vfs.create () in
  let path = "/usr/include/sys/h1.h" in
  Vfs.write_string fs path "#pragma once\n";
  Vfs.configure_dcache fs ~enabled:dcache ~capacity:1024;
  fun () ->
    ignore (Vfs.stat fs path);
    1.

let wire () =
  let env =
    Wire.Req { seq = 7; origin = "pico.3"; req = Wire.Msgq_send { id = 42; data = "payload" } }
  in
  fun () ->
    ignore (Wire.decode (Wire.encode env));
    1.

let coord () =
  let table = Coord.create ~capacity:64 ~ttl:(T.ms 100.) in
  fun () ->
    ignore (Coord.acquire table ~now:0 ~ns:Coord.Sysv ~key:1 ~owner:"pico.1" ~kind:Coord.Held ());
    ignore (Coord.release table ~ns:Coord.Sysv ~key:1);
    1.

(* A guest loop that never ends, stepped 1000 small steps at a time. *)
let interp_step () =
  let open B in
  let loop = prog ~name:"/bin/spin" (let_ "i" (int 0) (while_ (bool true) (set "i" (v "i" +% int 1)))) in
  let st = ref (Interp.start loop ~argv:[]) in
  fun () ->
    (match Interp.run !st ~fuel:1000 with
    | Interp.Running s -> st := s
    | _ -> failwith "probe: the spin loop stopped");
    1000.

(* A checkpoint round trip of the shell's machine state. *)
let interp_ckpt () =
  let st = Interp.start Graphene_apps.Shell.sh ~argv:[ "/tmp/probe.sh" ] in
  let kb = float_of_int (Interp.state_size st) /. 1024. in
  fun () ->
    ignore (Interp.of_bytes (Interp.to_bytes st));
    kb

(* Schedule 100 events and fire them. *)
let engine () =
  let e = Engine.create () in
  fun () ->
    for i = 1 to 100 do
      ignore (Engine.schedule_after e (T.ns i) ignore)
    done;
    Engine.run_until_idle e;
    100.

(* Name, unit, and the set-up that returns the probed operation. *)
let probes =
  [ ("probe.bpf.eval_ns", "ns", bpf); ("probe.vfs.stat_hit_ns", "ns", vfs ~dcache:true);
    ("probe.vfs.stat_miss_ns", "ns", vfs ~dcache:false); ("probe.wire.codec_ns", "ns", wire);
    ("probe.coord.acquire_release_ns", "ns", coord); ("probe.interp.step_ns", "ns", interp_step);
    ("probe.interp.ckpt_ns_per_kb", "ns/KB", interp_ckpt); ("probe.engine.event_ns", "ns", engine) ]

let all () = List.map (fun (name, unit_, setup) -> probe name unit_ (setup ())) probes
