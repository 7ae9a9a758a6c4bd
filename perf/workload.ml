(* The four benchmark workloads.

   Each workload is split into a set-up step and a measured phase. Set-up
   builds every world the phase needs (and, for [web], boots the server
   farm and warms it); the measured phase drives the worlds to
   completion and reports what the guests saw on the virtual clock.
   Everything here goes through the libraries' public functions: the
   benchmark adds no instrumentation inside them.

   A workload is a pure function of its seed: the same seed builds the
   same worlds, and the simulation is deterministic, so every virtual
   number in an [outcome] repeats exactly. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module T = Graphene_sim.Time
module Rng = Graphene_sim.Rng
module Apps = Graphene_apps
module Marks = Graphene_apps.Lmbench.Marks
module B = Graphene_guest.Builder
module Loader = Graphene_liblinux.Loader
module Lx = Graphene_liblinux.Lx
module Ipc = Graphene_ipc.Instance
module Stream = Graphene_host.Stream

(* The compute-timing jitter the paper-table harness uses, so a new
   seed gives new inputs. *)
let noise = 0.006

type size = Full | Tiny

type outcome = {
  virt_ns : int;  (** virtual time of the measured phase, summed over worlds *)
  lat_us : float list;  (** one virtual latency per operation *)
  attempted : int;  (** checked operations *)
  failed : int;
  extras : (string * string * float) list;
      (** workload-specific read-outs: name, unit, value *)
}

type prepared = {
  worlds : W.t list;  (** every world the measured phase drives *)
  measure : (W.t -> unit) -> outcome;
      (** Run the measured phase. The argument is called on a world
          each time the phase has run it to idle; a traced run folds
          that world's trace so far into its totals there and drops the
          spans, so at most one stretch of one world's trace is held at
          a time. No span is open while a world is idle. *)
}

type t = { name : string; prepare : seed:int -> size -> prepared }

let world_seed seed i = (seed * 7919) + (i * 104_729)

(* {1 Helpers} *)

type tally = { mutable attempted : int; mutable failed : int; mutable virt : int }

let tally () = { attempted = 0; failed = 0; virt = 0 }

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let outcome t ?(extras = []) lat_us =
  { virt_ns = t.virt; lat_us; attempted = t.attempted; failed = t.failed; extras }

(* Run one guest program to completion in [w]; the elapsed virtual time
   is added to [t]. *)
let run_guest t w ~exe ~argv =
  let console = Buffer.create 256 in
  let t0 = W.now w in
  let p = W.start w ~console_hook:(Buffer.add_string console) ~exe ~argv () in
  W.run w;
  t.virt <- t.virt + T.diff (W.now w) t0;
  (W.exited p && W.exit_code p = 0, Buffer.contents console)

let lines s = String.split_on_char '\n' s

(* Mean relative error, in percent, of (measured, paper) pairs. *)
let paper_err pairs =
  let errs = List.map (fun (got, paper) -> Float.abs (got -. paper) /. paper) pairs in
  100. *. List.fold_left ( +. ) 0. errs /. float_of_int (max 1 (List.length errs))

(* {1 syscall: the Table 6 lmbench programs on Graphene+RM}

   One fresh world per (program, seed), as the paper-table harness
   does. The closed loop is one guest issuing the same call back to
   back, so the per-call crossing path (libLinux, PAL, seccomp, the
   reference monitor, VFS reads) and its caches carry the work. An
   operation is one call of a timed loop; lmbench reports only the
   loop's mean, so each call is given its loop's mean latency. *)

(* Row label, program, iteration class, paper's Graphene+RM latency (us). *)
let table6 =
  [ ("syscall", "/bin/lat_syscall", `Loop, 0.01); ("read", "/bin/lat_read", `Loop, 0.12);
    ("write", "/bin/lat_write", `Loop, 0.11); ("open/close", "/bin/lat_openclose", `Loop, 5.09);
    ("select tcp", "/bin/lat_select", `Loop, 17.44);
    ("sig install", "/bin/lat_sig_install", `Loop, 0.20);
    ("sigusr1", "/bin/lat_sig_self", `Loop, 0.33); ("AF_UNIX", "/bin/lat_af_unix", `Loop, 6.37);
    ("fork+exit", "/bin/lat_fork_exit", `Fork, 490.);
    ("fork+exec", "/bin/lat_fork_exec", `Fork, 800.);
    ("fork+sh", "/bin/lat_fork_sh", `Sh, 1775.) ]

let syscall_prepare ~seed size =
  let seeds, loop, forks, shs = match size with Full -> (2, 4000, 200, 100) | Tiny -> (1, 20, 2, 1) in
  let iters = function `Loop -> loop | `Fork -> forks | `Sh -> shs in
  let runs =
    List.concat
      (List.init seeds (fun s ->
           List.map
             (fun (label, exe, kind, paper) ->
               (label, exe, iters kind, paper, W.create ~seed:(world_seed seed s) ~noise W.Graphene_rm))
             table6))
  in
  let measure harvest =
    let t = tally () in
    let per_row = Hashtbl.create 16 in
    let lat =
      List.filter_map
        (fun (label, exe, iters, paper, w) ->
          let ok, console = run_guest t w ~exe ~argv:[ string_of_int iters ] in
          harvest w;
          match Marks.per_op console ~iters with
          | Some ns when ok ->
            check t true;
            Hashtbl.add per_row label (ns /. 1000., paper);
            Some (List.init iters (fun _ -> ns /. 1000.))
          | _ ->
            check t false;
            None)
        runs
      |> List.concat
    in
    let row_means =
      List.filter_map
        (fun (label, _, _, _) ->
          match Hashtbl.find_all per_row label with
          | [] -> None
          | (_, paper) :: _ as l ->
            let got = List.fold_left (fun a (x, _) -> a +. x) 0. l /. float_of_int (List.length l) in
            Some (got, paper))
        table6
    in
    outcome t ~extras:[ ("paper_err_pct", "%", paper_err row_means) ] lat
  in
  { worlds = List.map (fun (_, _, _, _, w) -> w) runs; measure }

(* {1 coord: multi-picoprocess coordination on plain Graphene}

   No reference monitor, so every cost left is the IPC layer's: Table 7
   message-queue programs, a signal storm, direct helper ping-pong, and
   [coordstorm], where forked children in pairs share a message queue
   and time each send + receive round. Pairs, not a ring, because a
   ring of children stalls on Graphene (README.md, Known gaps). *)

let coordstorm_key = 900

let coordstorm ~children ~rounds =
  let open B in
  let child =
    seq
      [ let_ "q"
          (nth (v "qs") (v "k" /% int 2))
          (for_ "r" (int 1) (int rounds)
             (let_ "t0" (sys "gettimeofday" [])
                (seq
                   [ sys "msgsnd" [ v "q"; str "m" ];
                     sys "msgrcv" [ v "q" ];
                     (* handling the message: guest compute, which
                        carries the world's timing noise into the
                        round *)
                     spin (int 1000);
                     let_ "dt"
                       (sys "gettimeofday" [] -% v "t0")
                       (sys "print" [ str "R " ^% str_of_int (v "dt") ^% str "\n" ]) ])));
        sys "exit" [ int 0 ] ]
  in
  prog ~name:"/bin/coordstorm"
    (let_ "qs"
       (list_ (List.init (children / 2) (fun p -> sys "msgget" [ int (coordstorm_key + p); int 1 ])))
       (let_ "k" (int 0)
          (seq
             [ while_ (v "k" <% int children)
                 (seq
                    [ let_ "pid" (sys "fork" []) (when_ (v "pid" =% int 0) child);
                      set "k" (v "k" +% int 1) ]);
               for_ "j" (int 1) (int children) (sys "wait" []);
               sys "print" [ str "storm done\n" ];
               sys "exit" [ int 0 ] ])))

(* Table 7, Graphene columns the paper reports for two picoprocesses:
   program, MARK phase, paper latency (us). *)
let table7 =
  [ ("/bin/sysv_interproc", "create", 28.79); ("/bin/sysv_interproc", "lookup", 83.62);
    ("/bin/sysv_interproc", "snd", 7.61); ("/bin/sysv_interproc", "rcv", 7.79);
    ("/bin/sysv_persistent", "pget", 93.86); ("/bin/sysv_persistent", "psnd", 4.71);
    ("/bin/sysv_persistent", "prcv", 9.79) ]

let storm_rounds console =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "R"; ns ] -> Option.map (fun ns -> float_of_int ns /. 1000.) (int_of_string_opt ns)
      | _ -> None)
    (lines console)

(* Boot two idle instances and return a function that runs [n] no-op
   helper round trips from the first to the second. *)
let ping_pair w =
  let a = W.start w ~exe:"/bin/memhog" ~argv:[ "0" ] () in
  let b = W.start w ~exe:"/bin/memhog" ~argv:[ "0" ] () in
  W.run w;
  match (a, b) with
  | W.Pl la, W.Pl lb ->
    fun t n ->
      let t0 = W.now w in
      let done_ = ref 0 in
      let rec loop i = if i < n then Ipc.ping (Lx.ipc la) ~addr:(Lx.my_addr lb) (fun () -> incr done_; loop (i + 1)) in
      loop 0;
      W.run w;
      t.virt <- t.virt + T.diff (W.now w) t0;
      check t (!done_ = n)
  | _ -> invalid_arg "ping_pair: not a Graphene world"

let coord_prepare ~seed size =
  let seeds, iters, pings, children, rounds =
    match size with Full -> (2, 50, 20_000, 8, 2000) | Tiny -> (1, 5, 200, 4, 20)
  in
  let per_seed s =
    let mk () = W.create ~seed:(world_seed seed s) ~noise W.Graphene in
    let sysv = List.map (fun exe -> (exe, mk ())) [ "/bin/sysv_interproc"; "/bin/sysv_persistent" ] in
    let sig_w = mk () in
    let ping_w = mk () in
    let ping = ping_pair ping_w in
    let storm_w = mk () in
    Loader.install (W.kernel storm_w).K.fs ~path:"/bin/coordstorm" (coordstorm ~children ~rounds);
    (sysv, sig_w, (ping_w, ping), storm_w)
  in
  let setups = List.init seeds per_seed in
  let worlds =
    List.concat_map
      (fun (sysv, sig_w, (ping_w, _), storm_w) -> List.map snd sysv @ [ sig_w; ping_w; storm_w ])
      setups
  in
  let measure harvest =
    let t = tally () in
    let table = Hashtbl.create 8 in
    let lat = ref [] in
    List.iter
      (fun (sysv, sig_w, (ping_w, ping), storm_w) ->
        List.iter
          (fun (exe, w) ->
            let ok, console = run_guest t w ~exe ~argv:[ string_of_int iters ] in
            check t ok;
            List.iter
              (fun (e, phase, paper) ->
                if e = exe then
                  match Marks.interval console ~start:(phase ^ "0") ~stop:(phase ^ "1") ~iters with
                  | Some ns -> Hashtbl.add table phase (ns /. 1000., paper)
                  | None -> check t false)
              table7;
            harvest w)
          sysv;
        let ok, console = run_guest t sig_w ~exe:"/bin/sigstorm" ~argv:[] in
        check t (ok && List.mem "parent done" (lines console));
        harvest sig_w;
        ping t pings;
        harvest ping_w;
        let ok, console = run_guest t storm_w ~exe:"/bin/coordstorm" ~argv:[] in
        let got = storm_rounds console in
        check t (ok && List.length got = children * rounds);
        lat := got :: !lat;
        harvest storm_w)
      setups;
    let rows =
      List.map
        (fun (_, phase, paper) ->
          let l = Hashtbl.find_all table phase in
          (List.fold_left (fun a (x, _) -> a +. x) 0. l /. float_of_int (max 1 (List.length l)), paper))
        table7
    in
    outcome t ~extras:[ ("paper_err_pct", "%", paper_err rows) ] (List.concat (List.rev !lat))
  in
  { worlds; measure }

(* {1 web: an eweb farm under open-loop Poisson load on Graphene+RM}

   Independent clients arrive on a seeded Poisson schedule whatever the
   servers' state, so queues can build; each request is timed from the
   instant it was due. The generator is itself a simulation event
   source, so it never runs late. *)

let slo_us = 10_000.
let expected_body = String.length Apps.Web.response_header + 100

type phase = { p_lat_us : float list; p_errors : int }

(* Offer [requests] at [rate] req/s, round-robin over the farm's ports,
   and run the world until every response is in. *)
let offer w ~servers ~client ~rng ~rate ~requests =
  let kernel = W.kernel w in
  let req = Apps.Loadgen.request_for "/index.html" in
  let lat = ref [] and errors = ref 0 in
  let mean = 1e9 /. rate in
  let rec arrive i due =
    if i < requests then begin
      let port = 8080 + (i mod servers) in
      K.net_connect kernel client ~port
        ~ok:(fun ep ->
          (try K.stream_send kernel ep req with K.Denied _ -> ());
          let got = ref 0 in
          let rec recv () =
            K.stream_recv kernel ep ~max:65536 (fun data ->
                if data = "" then begin
                  Stream.close ep;
                  if !got = expected_body then
                    lat := T.to_us (T.diff (K.now kernel) due) :: !lat
                  else incr errors
                end
                else begin
                  got := !got + String.length data;
                  recv ()
                end)
          in
          recv ())
        ~err:(fun _ -> incr errors);
      let next = due + max 1 (int_of_float (Rng.exponential rng ~mean)) in
      K.after kernel (T.diff next (K.now kernel)) (fun () -> arrive (i + 1) next)
    end
  in
  arrive 0 (K.now kernel);
  W.run w;
  let answered = List.length !lat + !errors in
  { p_lat_us = !lat; p_errors = !errors + (requests - answered) }

let web_prepare ~seed size =
  let servers, workers, warmup, requests, steps, step_requests =
    match size with Full -> (4, 8, 250, 4000, 6, 2000) | Tiny -> (2, 2, 20, 200, 2, 100)
  in
  let w = W.create ~seed:(world_seed seed 0) ~noise W.Graphene_rm in
  let rng = Rng.create ~seed:(world_seed seed 1) in
  let ready = ref 0 in
  for i = 0 to servers - 1 do
    ignore
      (W.start w
         ~console_hook:(fun s -> if List.mem "eweb ready" (lines s) then incr ready)
         ~exe:"/bin/eweb"
         ~argv:[ string_of_int (8080 + i); string_of_int workers ]
         ())
  done;
  W.run w;
  if !ready <> servers then failwith "web: the farm never became ready";
  let client = W.client_pico w in
  let offer = offer w ~servers ~client ~rng in
  let rate = 20_000. in
  let warm = offer ~rate ~requests:warmup in
  if warm.p_errors > 0 then failwith "web: warm-up requests failed";
  let measure harvest =
    let t = tally () in
    let t0 = W.now w in
    let main = offer ~rate ~requests in
    let sim_mem = W.memory_footprint w in
    (* after every offered phase: the world's trace grows with the
       requests served *)
    let count (p : phase) n =
      harvest w;
      t.attempted <- t.attempted + n;
      t.failed <- t.failed + p.p_errors
    in
    count main requests;
    (* Bisect the offered rate for the highest one whose tail latency
       meets the SLO with no errors. *)
    let rec bisect lo hi best k =
      if k = 0 then best
      else
        let mid = (lo +. hi) /. 2. in
        let p = offer ~rate:mid ~requests:step_requests in
        count p step_requests;
        if p.p_errors = 0 && fst (Stat.tail p.p_lat_us) <= slo_us then bisect mid hi mid (k - 1)
        else bisect lo mid best (k - 1)
    in
    let max_rps = bisect 10_000. 60_000. 0. steps in
    t.virt <- T.diff (W.now w) t0;
    outcome t
      ~extras:
        [ ("max_rps_slo", "1/s", max_rps);
          ("sim_mem_mb", "MB", float_of_int sim_mem /. 1e6) ]
      main.p_lat_us
  in
  { worlds = [ w ]; measure }

(* {1 build: make, shell scripts and spawn storms on Graphene+RM}

   Fork/exec/wait, checkpoint serialisation, guest CPU, and VFS writes:
   the utilities create and unlink files, which invalidates the dentry
   cache. An operation is one iteration of the utilities loop, timed
   between the [date] stamps it prints. *)

(* The [date] stamps in a console dump. [cat] prints the 1 KiB fixture
   without a newline, so a stamp can follow a run of 'f's. *)
let date_stamps console =
  List.filter_map
    (fun l ->
      let n = String.length l in
      let i = ref 0 in
      while !i < n && l.[!i] = 'f' do incr i done;
      if !i = n then None else int_of_string_opt (String.sub l !i (n - !i)))
    (lines console)

let build_prepare ~seed size =
  let workload, iterations, tasks =
    match size with Full -> (Apps.Compile.bzip2, 60, 40) | Tiny -> (Apps.Compile.tiny, 4, 3)
  in
  let mk () = W.create ~seed:(world_seed seed 0) ~noise W.Graphene_rm in
  let make_w = mk () in
  let manifest = Apps.Compile.install_tree (W.kernel make_w).K.fs workload in
  let script contents =
    let w = mk () in
    Apps.Install.script (W.kernel w).K.fs ~path:"/tmp/bench.sh" ~contents;
    w
  in
  let utils_w = script (Apps.Shell.utils_script ~iterations) in
  let spawn_w = script (Apps.Shell.unixbench_script ~tasks) in
  let measure harvest =
    let t = tally () in
    let ok, _ = run_guest t make_w ~exe:"/bin/make" ~argv:[ manifest; "4" ] in
    check t ok;
    harvest make_w;
    let ok, console = run_guest t utils_w ~exe:"/bin/sh" ~argv:[ "/tmp/bench.sh" ] in
    let stamps = date_stamps console in
    check t (ok && List.length stamps = iterations);
    harvest utils_w;
    let ok, _ = run_guest t spawn_w ~exe:"/bin/sh" ~argv:[ "/tmp/bench.sh" ] in
    check t ok;
    harvest spawn_w;
    let rec gaps = function
      | a :: (b :: _ as rest) -> (float_of_int (b - a) /. 1000.) :: gaps rest
      | _ -> []
    in
    outcome t (gaps stamps)
  in
  { worlds = [ make_w; utils_w; spawn_w ]; measure }

let all =
  [ { name = "syscall"; prepare = syscall_prepare };
    { name = "coord"; prepare = coord_prepare };
    { name = "web"; prepare = web_prepare };
    { name = "build"; prepare = build_prepare } ]

let find name = List.find_opt (fun w -> w.name = name) all
