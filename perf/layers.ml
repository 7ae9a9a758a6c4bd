(* Per-layer read-outs, each named after the lib/ module it describes.

   Some need no tracing: the engine's event count, the kernel's PAL and
   host-syscall counters, and the OCaml runtime's GC statistics. The
   rest come from each world's [Obs] tracer during a traced phase: its
   counters, and the recorded spans, from which each layer's self time
   (span time not covered by a nested span) is computed here. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Obs = Graphene_obs.Obs
module H = Graphene_sim.Stats.Histogram
module Engine = Graphene_sim.Engine

(* {1 Untraced counts} *)

type counts = { events : int; pal_calls : int; host_syscalls : int }

let counts worlds =
  List.fold_left
    (fun c w ->
      let k = W.kernel w in
      { events = c.events + Engine.events_fired k.K.engine;
        pal_calls = c.pal_calls + k.K.pal_calls;
        host_syscalls =
          c.host_syscalls + List.fold_left (fun a (_, n) -> a + n) 0 (K.syscall_counts k) })
    { events = 0; pal_calls = 0; host_syscalls = 0 }
    worlds

let counts_diff a b =
  { events = b.events - a.events;
    pal_calls = b.pal_calls - a.pal_calls;
    host_syscalls = b.host_syscalls - a.host_syscalls }

(* {1 Traced aggregates} *)

(* The tracer counters the read-outs use. *)
let counter_names =
  [ "kernel.stream_sends"; "kernel.net.syn_drop"; "vfs.dcache.hit"; "vfs.dcache.neg_hit";
    "vfs.dcache.miss"; "refmon.allow"; "refmon.cache.hit"; "refmon.cache.miss";
    "liblinux.syscalls"; "liblinux.vdso.hit"; "liblinux.handle_cache.hit";
    "liblinux.handle_cache.miss"; "ipc.rpcs"; "ipc.oneway"; "ipc.lease.owner.hit";
    "ipc.lease.owner.miss"; "ipc.coord.sweep"; "ipc.timeouts"; "ipc.retransmits";
    "ipc.sem.fast_acquire"; "ipc.sem.fast_release"; "ipc.sem.fallback.no_page";
    "ipc.sem.fallback.cross_sandbox"; "ipc.sem.fallback.stale_lease";
    "ipc.sem.fallback.contended" ]

type trace = {
  counters : (string, int) Hashtbl.t;
  self_ns : (string, int) Hashtbl.t;  (** layer -> self time *)
  spans : (string, int * int) Hashtbl.t;  (** "layer/name" -> (count, total ns) *)
  mutable queue_waits : int;
  mutable queue_ns : float;
  mutable chrome_out : string option;
      (** where the next harvest's Chrome trace goes: the first
          harvest's, when a path was given *)
}

let trace ~chrome_out =
  { counters = Hashtbl.create 32;
    self_ns = Hashtbl.create 8;
    spans = Hashtbl.create 64;
    queue_waits = 0;
    queue_ns = 0.;
    chrome_out }

let add tbl k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Outer layers first when two spans start together with the same
   length, so the enclosing one is taken as the parent. *)
let rank = function
  | "liblinux" -> 0
  | "ipc" -> 1
  | "pal" -> 2
  | "refmon" -> 3
  | "kernel" -> 4
  | _ -> 5

(* Whether a span of thread [tid] can run inside an open span of thread
   [ptid]. Thread 0 stands for spans the tracer does not tie to a thread
   (PAL calls, reference-monitor hooks, IPC RPCs and handlers): they nest
   inside any span, but a thread's span (a guest syscall, a kernel
   slice) nests only inside its own thread's. *)
let same_thread ~ptid tid = tid = 0 || ptid = tid

type open_span = {
  o_layer : string;
  o_tid : int;
  o_start : int;
  o_stop : int;
  mutable covered : int;  (** time covered by nested spans *)
  mutable frontier : int;  (** where the nested spans seen so far end *)
}

(* Self time per layer: within one picoprocess, walk spans in start
   order keeping the spans still open, innermost first. A span is nested
   in the innermost open span of a compatible thread that contains it,
   and that span's layer is charged its duration less the union of its
   nested spans. A span that outlives every compatible open span is not
   nested: it runs beside them. *)
let add_self_times tr (records : Obs.span_record list) =
  let by_pid = Hashtbl.create 16 in
  List.iter
    (fun (r : Obs.span_record) ->
      Hashtbl.replace by_pid r.r_pid (r :: Option.value ~default:[] (Hashtbl.find_opt by_pid r.r_pid)))
    records;
  let close o = add tr.self_ns o.o_layer (max 0 (o.o_stop - o.o_start - o.covered)) in
  Hashtbl.iter
    (fun _ spans ->
      let a = Array.of_list spans in
      Array.stable_sort
        (fun (x : Obs.span_record) (y : Obs.span_record) ->
          compare (x.r_start, -x.r_dur, rank x.r_layer) (y.r_start, -y.r_dur, rank y.r_layer))
        a;
      let opened = ref [] in
      Array.iter
        (fun (r : Obs.span_record) ->
          let still, ended = List.partition (fun o -> o.o_stop > r.r_start) !opened in
          List.iter close ended;
          let stop = r.r_start + r.r_dur in
          (* every open span started no later than [r] *)
          (match List.find_opt (fun o -> same_thread ~ptid:o.o_tid r.r_tid && stop <= o.o_stop) still with
          | Some p ->
            p.covered <- p.covered + max 0 (stop - max r.r_start p.frontier);
            p.frontier <- max p.frontier stop
          | None -> ());
          opened :=
            { o_layer = r.r_layer; o_tid = r.r_tid; o_start = r.r_start; o_stop = stop; covered = 0;
              frontier = r.r_start }
            :: still)
        a;
      List.iter close !opened)
    by_pid

(* Fold what one world's tracer recorded since the last harvest into
   [tr], then drop it; the tracer stays on. *)
let harvest tr w =
  let o = W.tracer w in
  List.iter (fun n -> add tr.counters n (Obs.counter_value o n)) counter_names;
  (match Obs.histogram o "kernel.stream_queue_ns" with
  | Some h ->
    tr.queue_waits <- tr.queue_waits + H.count h;
    tr.queue_ns <- tr.queue_ns +. H.total h
  | None -> ());
  let records = Obs.span_records o in
  List.iter
    (fun (r : Obs.span_record) ->
      let k = r.r_layer ^ "/" ^ r.r_name in
      let c, t = Option.value ~default:(0, 0) (Hashtbl.find_opt tr.spans k) in
      Hashtbl.replace tr.spans k (c + 1, t + r.r_dur))
    records;
  add_self_times tr records;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (Obs.to_chrome_json o));
      tr.chrome_out <- None)
    tr.chrome_out;
  Obs.reset o

(* {1 Read-outs} *)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* Mean duration of the spans whose "layer/name" key satisfies [p]. *)
let span_mean tr p =
  let c, t =
    Hashtbl.fold (fun k (c, t) (ac, at) -> if p k then (ac + c, at + t) else (ac, at)) tr.spans (0, 0)
  in
  if c = 0 then 0. else float_of_int t /. float_of_int c

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* The three guest syscalls with the most total time: their pooled
   mean latency. *)
let top3_mean tr =
  let sys =
    Hashtbl.fold (fun k ct acc -> if starts_with "liblinux/" k then ct :: acc else acc) tr.spans []
    |> List.sort (fun (_, t1) (_, t2) -> compare t2 t1)
  in
  let c, t =
    List.fold_left (fun (ac, at) (c, t) -> (ac + c, at + t)) (0, 0) (List.filteri (fun i _ -> i < 3) sys)
  in
  if c = 0 then 0. else float_of_int t /. float_of_int c

(* [counts] and [gc] come from the untraced measured phase (minor and
   promoted words, major collections), [wall_s] and [traced_wall_s]
   from the untraced and traced phases. *)
let metrics tr ~counts ~gc:(minor, promoted, majors) ~wall_s ~traced_wall_s =
  let c n = Option.value ~default:0 (Hashtbl.find_opt tr.counters n) in
  let cf n = float_of_int (c n) in
  let self_ms l = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tr.self_ns l)) /. 1e6 in
  let events = float_of_int (max 1 counts.events) in
  let fast = c "ipc.sem.fast_acquire" + c "ipc.sem.fast_release" in
  let slow =
    c "ipc.sem.fallback.no_page" + c "ipc.sem.fallback.cross_sandbox"
    + c "ipc.sem.fallback.stale_lease" + c "ipc.sem.fallback.contended"
  in
  [ ("sim.events", "count", float_of_int counts.events);
    ("sim.host_ns_per_event", "ns", wall_s *. 1e9 /. events);
    ("runtime.minor_words_per_event", "words", minor /. events);
    ("runtime.promoted_words_per_event", "words", promoted /. events);
    ("runtime.major_collections", "count", float_of_int majors);
    ("kernel.stream_sends", "count", cf "kernel.stream_sends");
    ("kernel.stream_queue_ns", "ns", if tr.queue_waits = 0 then 0. else tr.queue_ns /. float_of_int tr.queue_waits);
    ("kernel.net.syn_drop", "count", cf "kernel.net.syn_drop");
    ("kernel.host_syscalls", "count", float_of_int counts.host_syscalls);
    ("kernel.virt_ms", "ms", self_ms "kernel");
    ("vfs.dcache.hit_ratio", "ratio", ratio (c "vfs.dcache.hit" + c "vfs.dcache.neg_hit") (c "vfs.dcache.miss"));
    ("vfs.dcache.miss", "count", cf "vfs.dcache.miss");
    ("pal.calls", "count", float_of_int counts.pal_calls);
    ("pal.virt_ms", "ms", self_ms "pal");
    ("refmon.allow", "count", cf "refmon.allow");
    ("refmon.cache.hit_ratio", "ratio", ratio (c "refmon.cache.hit") (c "refmon.cache.miss"));
    ("refmon.virt_ms", "ms", self_ms "refmon");
    ("liblinux.syscalls", "count", cf "liblinux.syscalls");
    ("liblinux.virt_ms", "ms", self_ms "liblinux");
    ("liblinux.vdso.hit", "count", cf "liblinux.vdso.hit");
    ("liblinux.handle_cache.hit_ratio", "ratio",
     ratio (c "liblinux.handle_cache.hit") (c "liblinux.handle_cache.miss"));
    ("liblinux.sys.top3_mean_us", "us", top3_mean tr /. 1000.);
    ("ipc.rpcs", "count", cf "ipc.rpcs");
    ("ipc.oneway", "count", cf "ipc.oneway");
    ("ipc.virt_ms", "ms", self_ms "ipc");
    ("ipc.rtt.mean_us", "us", span_mean tr (starts_with "ipc/rpc:") /. 1000.);
    ("ipc.lease.owner.hit_ratio", "ratio", ratio (c "ipc.lease.owner.hit") (c "ipc.lease.owner.miss"));
    ("ipc.coord.sweep", "count", cf "ipc.coord.sweep");
    ("ipc.timeouts", "count", cf "ipc.timeouts");
    ("ipc.retransmits", "count", cf "ipc.retransmits");
    ("ipc.sem.fast_share", "ratio", ratio fast slow);
    ("checkpoint.fork_ns", "ns", span_mean tr (String.equal "liblinux/sys_fork"));
    ("obs.trace_overhead_pct", "%", 100. *. ((traced_wall_s /. wall_s) -. 1.)) ]
