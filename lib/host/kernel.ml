(** The simulated host kernel.

    Owns the virtual clock (an event engine), the host file system, all
    picoprocesses and their address spaces, byte/message streams, the
    loopback network, the bulk-IPC (gipc) module, the per-picoprocess
    seccomp filters, and the LSM hook points the reference monitor
    installs into.

    Threads of a picoprocess run guest-interpreter machines in sliced
    events under a processor-sharing multicore model: when more threads
    are runnable than there are cores, compute time dilates by the
    ratio. Blocking host calls are in continuation-passing style; the
    continuation fires from a later event, after the operation's
    latency. *)

open Graphene_sim
module Obs = Graphene_obs.Obs
module Audit = Graphene_obs.Audit
module Invariant = Graphene_obs.Invariant
module Contend = Graphene_obs.Contend

module Bpf = struct
  module Prog = Graphene_bpf.Prog
  module Seccomp = Graphene_bpf.Seccomp
  module Sysno = Graphene_bpf.Sysno
end

module Guest = struct
  module Interp = Graphene_guest.Interp
  module Ast = Graphene_guest.Ast
end

let pal_base = 0x1000_0000
let pal_image_bytes = 340 * 1024
let pal_limit = pal_base + pal_image_bytes

(* Fixed layout for images loaded by the personalities. *)
let libos_base = 0x2000_0000
let app_base = 0x4000_0000
let heap_base = 0x5000_0000
let stack_base = 0x7000_0000

type handle = { hid : int; obj : handle_obj }

and handle_obj =
  | Hfile of { file : Vfs.file; path : string }
      (** no seek pointer: PAL file handles are pread/pwrite-style *)
  | Hdir of string
  | Hstream of handle Stream.endpoint
  | Hserver of server
  | Hevent of Sync.event
  | Hmutex of Sync.mutex
  | Hsema of Sync.semaphore
  | Hprocess of pico
  | Hnull

and server = {
  srv_name : string;
  srv_owner : int;  (** pid *)
  mutable backlog : handle Stream.endpoint list;
  mutable accept_waiters : (handle Stream.endpoint -> unit) list;
  mutable srv_closed : bool;
}

and pico_status = Alive | Exited of int

and pico = {
  pid : int;
  mutable sandbox : int;
  aspace : Memory.t;
  mutable status : pico_status;
  mutable threads : thread list;
  mutable exit_watchers : (int -> unit) list;
  mutable endpoints : handle Stream.endpoint list;
  mutable filter : Bpf.Prog.t option;
  mutable exe : string;
  mutable spawned_at : Time.t;
  mutable peak_rss : int;
  mutable cpu_tax : float;
      (** multiplicative compute overhead (e.g. nested-paging cost for
          processes inside a VM); 1.0 = none *)
}

and thread = {
  tid : int;
  t_pico : pico;
  mutable machine : Guest.Interp.state option;
  mutable tstate : [ `Runnable | `Parked | `Done ];
  mutable service : thread_service;
}

and thread_service = {
  on_syscall : thread -> string -> Guest.Ast.value list -> unit;
      (** must eventually resume, block, or exit the thread *)
  on_finish : thread -> Guest.Ast.value -> unit;  (** [main] returned *)
  on_fault : thread -> string -> unit;  (** guest crash *)
}

and lsm = {
  check_path : pico -> string -> [ `Read | `Write | `Exec ] -> bool;
  probe_path : pico -> string -> [ `Read | `Write | `Exec ] -> bool;
      (** pure probe: is the verdict for this triple already memoized?
          Used for cost composition only — never decides access. *)
  check_net : pico -> addr:string -> port:int -> [ `Bind | `Connect ] -> bool;
  check_stream_connect : pico -> server -> bool;
  check_gipc : src:pico -> dst:pico -> bool;
  on_sandbox_split : pico -> old_sandbox:int -> paths:string list -> unit;
      (** called after a picoprocess detaches into a new sandbox,
          carrying the file-system view it requested (always a subset
          of its previous view) *)
}

type gipc_payload = { g_src : pico; g_ranges : (int * int) list  (** base, npages *) }

(* One host syscall's accounting: its seccomp number (-1 when the name
   has none), the calls counted and the kernel-mode time charged. One
   table probe per call reaches all three. *)
type sysent = { nr : int; mutable calls : int; mutable time : Time.t }

(* A shared semaphore page: the medium of the futex-style SysV fast
   path. The owner publishes (value, waiter count) here; same-sandbox
   picoprocesses with live authority mutate it directly instead of
   RPC-ing the owner. The kernel only keeps the registry honest —
   pages die with their publisher and follow it across sandbox
   splits; the policy checks live in the readers (docs/WEB.md). *)
type sem_page = {
  sp_id : int;  (** the SysV semaphore id the page mirrors *)
  mutable sp_value : int;
  mutable sp_waiters : int;
      (** waiters queued at the owner; nonzero forces the slow path so
          queued acquirers are never barged past *)
  mutable sp_owner : string;  (** wire address of the publishing instance *)
  sp_pid : int;  (** host pid of the publisher, for exit revocation *)
  mutable sp_sandbox : int;
  mutable sp_valid : bool;
  mutable sp_fast_acquires : int;
  mutable sp_fast_releases : int;
}

(* The per-picoprocess vDSO page: a read-only state page the kernel
   publishes at picoprocess setup, holding the identity and time state
   libLinux needs for its hottest calls (getpid / gettimeofday class).
   Like a Linux vDSO, readers service those calls with a couple of
   loads instead of a host crossing; like the sem page, the kernel
   only keeps the registry honest — the page dies with its publisher,
   is invalidated on sandbox splits, and is never inherited across
   fork or checkpoint restore (the child publishes a fresh one, so a
   stale time base can never be served silently). *)
type vdso_page = {
  vd_host_pid : int;  (** publishing picoprocess, for exit revocation *)
  mutable vd_pid : int;  (** guest-visible pid recorded in the page *)
  mutable vd_ppid : int;
  mutable vd_uid : int;
  mutable vd_boot_epoch : Time.t;  (** when this instance booted *)
  mutable vd_time_base : Time.t;
      (** kernel virtual time captured when the page was (re)published;
          readers answer [time_base + (now - published_at)] *)
  mutable vd_published_at : Time.t;
  mutable vd_sandbox : int;
  mutable vd_valid : bool;
  mutable vd_generation : int;
      (** bumped on every republish; readers that cached a direct
          reference detect staleness via [vd_valid] + generation *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  fs : Vfs.t;
  alloc : Memory.allocator;
  cores : int;
  mutable picos : pico list;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable next_hid : int;
  mutable next_sandbox : int;
  servers : (string, server) Hashtbl.t;
  broadcasts : (int, (pico * (string -> unit)) list ref) Hashtbl.t;
  mutable lsm : lsm;
  mutable lsm_active : bool;
      (** a real reference monitor is installed — traced calls pay the
          LSM check costs *)
  gipc_store : (int, gipc_payload) Hashtbl.t;
  mutable next_gipc : int;
  mutable runnable : int;
  syscalls : (string, sysent) Hashtbl.t;
      (** per host syscall: calls and total kernel-mode virtual time *)
  tracer : Obs.t;
  audit : Audit.t;
  invariants : Invariant.t;
      (** online monitors over [audit]; attached at creation, inert
          while auditing is disabled *)
  contend : Contend.t;
      (** contention accounting (per-resource waits, wait-for graph);
          its detector advisories route into [invariants] and [audit] *)
  mutable introspectors : (int * (unit -> string)) list;
      (** per-pid live-state snapshot renderers, registered by the IPC
          layer; the source of [graphene top] *)
  images : (string, Memory.image) Hashtbl.t;
      (** page-cache-style shared code images *)
  mutable quantum : int;  (** interpreter steps per scheduling slice *)
  noise : float;
      (** multiplicative compute-timing jitter (0 = deterministic, for
          tests; benchmarks use a small value so confidence intervals
          are meaningful) *)
  mutable fault : Fault.t option;
      (** active fault plan; consulted by the coordination-stream and
          broadcast injection hooks *)
  mutable fault_leader : pico option;
      (** the current coordination leader, as reported by the IPC layer
          — the target of a kill-leader fault *)
  mutable leader_killed_at : Time.t option;
  mutable recovered_at : Time.t option;
      (** the first post-election RPC served by the replacement leader *)
  mutable pal_calls : int;
      (** lifetime PAL host calls, across all picoprocesses — the
          crash-call fault counts against this *)
  sem_pages : (int * int, sem_page) Hashtbl.t;
      (** shared sem pages by (sandbox, SysV id): id namespaces are
          per-sandbox-leader, so ids alone collide across a farm of
          sandboxes *)
  vdso_pages : (int, vdso_page) Hashtbl.t;
      (** per-picoprocess vDSO pages by host pid *)
}

exception Denied of string
(** An LSM / reference-monitor rejection. *)

exception Killed_by_seccomp of string

let permissive_lsm =
  { check_path = (fun _ _ _ -> true);
    probe_path = (fun _ _ _ -> false);
    check_net = (fun _ ~addr:_ ~port:_ _ -> true);
    check_stream_connect = (fun _ _ -> true);
    check_gipc = (fun ~src:_ ~dst:_ -> true);
    on_sandbox_split = (fun _ ~old_sandbox:_ ~paths:_ -> ()) }

let create ?(cores = 4) ?(seed = 42) ?(noise = 0.0) () =
  let tracer = Obs.create () in
  let audit = Audit.create () in
  let invariants = Invariant.create () in
  (* always attached: observers only fire from emits, which guard on
     [Audit.enabled], so this costs nothing while auditing is off *)
  Invariant.attach invariants audit;
  let contend = Contend.create () in
  let engine = Engine.create () in
  (* contention advisories (convoys, wait chains) land in the invariant
     registry as advisories — never violations — and in the audit log
     under the Contention category, with full provenance *)
  Contend.on_advisory contend (fun a ->
      Invariant.advise invariants ~at:a.Contend.a_at ~pid:a.Contend.a_pid
        ~kind:a.Contend.a_kind ~what:a.Contend.a_what;
      if Audit.enabled audit then
        Audit.emit audit Audit.Contention ~action:a.Contend.a_kind ~pid:a.Contend.a_pid
          ~args:
            [ ("resource", Obs.Astr a.Contend.a_resource); ("what", Obs.Astr a.Contend.a_what) ]
          a.Contend.a_at);
  (* Event-dispatch instrumentation: lifetime counter plus a sampled
     queue-depth track. Purely observational; one branch when tracing
     is off. *)
  Engine.set_fire_hook engine
    (Some
       (fun clock pending ->
         if Obs.enabled tracer then begin
           Obs.count tracer "sim.events_fired";
           if Engine.events_fired engine mod 64 = 0 then
             Obs.counter_sample tracer ~name:"sim.pending_events" clock pending
         end));
  let fs = Vfs.create () in
  (* dcache counters flow through the world's tracer like every other
     layer's; the hook stays a no-op while tracing is off *)
  Vfs.set_dcache_hook fs (fun name -> if Obs.enabled tracer then Obs.count tracer name);
  { engine;
    rng = Rng.create ~seed;
    fs;
    alloc = Memory.make_allocator ();
    cores;
    picos = [];
    next_pid = 0;
    next_tid = 0;
    next_hid = 0;
    next_sandbox = 0;
    servers = Hashtbl.create 16;
    broadcasts = Hashtbl.create 4;
    lsm = permissive_lsm;
    lsm_active = false;
    gipc_store = Hashtbl.create 16;
    next_gipc = 0;
    runnable = 0;
    syscalls = Hashtbl.create 64;
    tracer;
    audit;
    invariants;
    contend;
    introspectors = [];
    images = Hashtbl.create 8;
    quantum = 4000;
    noise;
    fault = None;
    fault_leader = None;
    leader_killed_at = None;
    recovered_at = None;
    pal_calls = 0;
    sem_pages = Hashtbl.create 8;
    vdso_pages = Hashtbl.create 16 }

let now t = Engine.now t.engine
let set_lsm t lsm =
  t.lsm <- lsm;
  t.lsm_active <- true

let lsm_active t = t.lsm_active

(* One branch while auditing is off, like every tracer emit. *)
let audit_emit t cat ~action ?(pid = 0) ?(args = []) () =
  if Audit.enabled t.audit then Audit.emit t.audit cat ~action ~pid ~args (Engine.now t.engine)

let register_introspector t ~pid f =
  t.introspectors <- (pid, f) :: List.filter (fun (p, _) -> p <> pid) t.introspectors

let introspection_report t =
  List.sort (fun (a, _) (b, _) -> compare a b) t.introspectors
  |> List.map (fun (_, f) -> f ())
  |> String.concat ""

let after t cost fn = ignore (Engine.schedule_after t.engine cost fn)
let run_until_idle t = Engine.run_until_idle t.engine

(* Schedule [fn] on [peer]'s inbox no earlier than the stream latency
   and never before anything already in flight to it: per-stream FIFO,
   so an EOF can never overtake data written first. *)
let schedule_into ?(extra = Time.zero) t peer fn =
  let at = Time.add (now t) (Time.add extra Cost.stream_oneway) in
  let at = if at < peer.Stream.fifo_clock then peer.Stream.fifo_clock else at in
  peer.Stream.fifo_clock <- at;
  ignore (Engine.schedule_at t.engine at fn)

let run_watchdog t ~max_events =
  if not (Engine.run_bounded t.engine ~max_events) then
    failwith "Kernel.run_watchdog: event budget exhausted (livelock?)"

let fresh_handle t obj =
  t.next_hid <- t.next_hid + 1;
  { hid = t.next_hid; obj }

let fresh_sandbox t =
  t.next_sandbox <- t.next_sandbox + 1;
  t.next_sandbox

(* {1 Shared semaphore pages} *)

let sem_page_publish t ~id ~owner ~pid ~sandbox ~value =
  let p =
    { sp_id = id;
      sp_value = value;
      sp_waiters = 0;
      sp_owner = owner;
      sp_pid = pid;
      sp_sandbox = sandbox;
      sp_valid = true;
      sp_fast_acquires = 0;
      sp_fast_releases = 0 }
  in
  Hashtbl.replace t.sem_pages (sandbox, id) p;
  p

let sem_page_lookup t ~sandbox ~id =
  match Hashtbl.find_opt t.sem_pages (sandbox, id) with
  | Some p when p.sp_valid -> Some p
  | _ -> None

(* Revocation flips the validity bit as well as dropping the registry
   entry: instances hold direct page references, and a reference that
   outlives the registry entry (migration in flight, dying owner) must
   fail the readers' validity check instead of answering stale. *)
let sem_page_invalidate t ~sandbox ~id =
  match Hashtbl.find_opt t.sem_pages (sandbox, id) with
  | Some p ->
    p.sp_valid <- false;
    Hashtbl.remove t.sem_pages (sandbox, id)
  | None -> ()

(* {1 vDSO pages} *)

(* Publishing replaces any previous page for the picoprocess and bumps
   the generation: a fork child, a restored checkpoint or a
   just-isolated picoprocess gets a page with a fresh time base, never
   the one its parent state was copied from. *)
let vdso_page_publish t ~host_pid ~pid ~ppid ~uid ~sandbox =
  let at = now t in
  let generation =
    match Hashtbl.find_opt t.vdso_pages host_pid with
    | Some prev ->
      prev.vd_valid <- false;
      prev.vd_generation + 1
    | None -> 1
  in
  let p =
    { vd_host_pid = host_pid;
      vd_pid = pid;
      vd_ppid = ppid;
      vd_uid = uid;
      vd_boot_epoch = at;
      vd_time_base = at;
      vd_published_at = at;
      vd_sandbox = sandbox;
      vd_valid = true;
      vd_generation = generation }
  in
  Hashtbl.replace t.vdso_pages host_pid p;
  p

let vdso_page_lookup t ~host_pid =
  match Hashtbl.find_opt t.vdso_pages host_pid with
  | Some p when p.vd_valid -> Some p
  | _ -> None

(* Like sem pages: flip the validity bit as well as dropping the entry,
   so direct references that outlive the registry fail their check. *)
let vdso_page_invalidate t ~host_pid =
  match Hashtbl.find_opt t.vdso_pages host_pid with
  | Some p ->
    p.vd_valid <- false;
    Hashtbl.remove t.vdso_pages host_pid
  | None -> ()

(* The time a reader derives from the page: base + elapsed-since-
   publish. Equals [now] exactly while the page is live in the kernel
   that published it — which is the only state a valid page can be in,
   because every event that could skew the base (restore, split, exit)
   invalidates first. *)
let vdso_time p ~now:at = Time.add p.vd_time_base (Time.diff at p.vd_published_at)

let sysent t name =
  match Hashtbl.find t.syscalls name with
  | e -> e
  | exception Not_found ->
    let nr = match Bpf.Sysno.number_opt name with Some nr -> nr | None -> -1 in
    let e = { nr; calls = 0; time = Time.zero } in
    Hashtbl.add t.syscalls name e;
    e

let syscall_counts t =
  Hashtbl.fold (fun name e acc -> (name, e.calls) :: acc) t.syscalls [] |> List.sort compare

(* Per-syscall (count, total kernel-mode time), busiest first. *)
let syscall_report t =
  Hashtbl.fold (fun name e acc -> (name, e.calls, e.time) :: acc) t.syscalls []
  |> List.sort (fun (n1, c1, _) (n2, c2, _) ->
         if c1 <> c2 then compare c2 c1 else compare n1 n2)

(* An LSM hook decision. Traced as a refmon-layer span at the hook
   point itself, so the trace shows the check even under the permissive
   LSM (where it costs nothing). *)
let lsm_verdict t pico ~hook ~target ~cost allowed =
  if Obs.enabled t.tracer then begin
    Obs.count t.tracer (if allowed then "refmon.allow" else "refmon.deny");
    Obs.span t.tracer Obs.Refmon ~name:hook ~pid:pico.pid
      ~args:
        [ ("target", Obs.Astr target);
          ("verdict", Obs.Astr (if allowed then "allow" else "deny")) ]
      ~start:(now t)
      ~dur:(if t.lsm_active then cost else Time.zero)
      ()
  end;
  allowed

(* {1 Seccomp} *)

(* Count a host system call [e] issued from return address [pc] and
   evaluate the picoprocess's installed filter for it. Returns the
   verdict plus the filter-evaluation cost. No filter means no
   restriction (native baseline picoprocesses). *)
let filter_syscall t pico e ~name ~pc ~args =
  e.calls <- e.calls + 1;
  let action, filter_cost =
    match pico.filter with
    | None -> (Bpf.Prog.Allow, Time.zero)
    | Some filter ->
      let data = { Bpf.Prog.nr = e.nr; arch = Bpf.Prog.audit_arch_x86_64; pc; args } in
      let action, insns = Bpf.Prog.eval filter data in
      (action, Time.scale Cost.seccomp_insn (float_of_int insns))
  in
  if Obs.enabled t.tracer then
    Obs.instant t.tracer Obs.Kernel ~name:("sys:" ^ name) ~pid:pico.pid
      ~args:
        [ ("verdict", Obs.Astr (Format.asprintf "%a" Bpf.Prog.pp_action action));
          ("filter_ns", Obs.Aint filter_cost) ]
      (now t);
  (action, filter_cost)

let syscall_check t pico ~name ~pc ~args = filter_syscall t pico (sysent t name) ~name ~pc ~args

(* The PAL's choke point: count, filter, and charge entry + filter +
   [cost] to [name], all through one table probe. *)
let pal_syscall t pico ~name ~pc ~args ~cost =
  let e = sysent t name in
  let action, filter_cost = filter_syscall t pico e ~name ~pc ~args in
  let total = Time.add (Time.add filter_cost Cost.host_syscall_entry) cost in
  e.time <- Time.add e.time total;
  (action, filter_cost, total)

(* Shared code images, loaded once. *)
let get_image t ~name ~bytes =
  match Hashtbl.find_opt t.images name with
  | Some img -> img
  | None ->
    let img = Memory.make_image t.alloc ~bytes in
    Hashtbl.replace t.images name img;
    img

(* {1 Picoprocess lifecycle} *)

let spawn t ?parent ?(with_pal = true) ~sandbox ~exe () =
  ignore parent;
  t.next_pid <- t.next_pid + 1;
  let aspace = Memory.create t.alloc in
  let pico =
    { pid = t.next_pid;
      sandbox;
      aspace;
      status = Alive;
      threads = [];
      exit_watchers = [];
      endpoints = [];
      filter = None;
      exe;
      spawned_at = now t;
      peak_rss = 0;
      cpu_tax = 1.0 }
  in
  (* The PAL image is mapped by the host loader before anything runs:
     its range is what the seccomp filter's PC checks refer to. The
     image is shared across picoprocesses like page-cache text. *)
  if with_pal then begin
    let pal_image = get_image t ~name:"[pal]" ~bytes:pal_image_bytes in
    ignore
      (Memory.map_image aspace ~base:pal_base ~image:pal_image ~perm:Memory.rx
         ~kind:Memory.Pal_code)
  end;
  t.picos <- pico :: t.picos;
  Obs.set_process_name t.tracer ~pid:pico.pid
    (Printf.sprintf "pico %d (%s) sandbox %d" pico.pid exe sandbox);
  audit_emit t Audit.Sandbox ~action:"spawn" ~pid:pico.pid
    ~args:[ ("exe", Obs.Astr exe); ("sandbox", Obs.Aint sandbox) ]
    ();
  pico

let install_filter _t pico filter =
  (* like seccomp, installation is one-way: no removal, no override *)
  match pico.filter with
  | Some _ -> invalid_arg "Kernel.install_filter: filter already installed"
  | None -> pico.filter <- Some filter

let find_pico t pid = List.find_opt (fun p -> p.pid = pid) t.picos
let alive pico = pico.status = Alive

let update_peak_rss pico =
  let r = Memory.rss pico.aspace in
  if r > pico.peak_rss then pico.peak_rss <- r

(* {1 Threads and scheduling} *)

let dilation t =
  if t.runnable <= t.cores then 1.0
  else float_of_int t.runnable /. float_of_int t.cores


let mark_runnable t th =
  if th.tstate <> `Runnable then begin
    th.tstate <- `Runnable;
    t.runnable <- t.runnable + 1
  end

let mark_not_runnable t th state =
  if th.tstate = `Runnable then t.runnable <- t.runnable - 1;
  th.tstate <- state

let rec slice t th =
  if th.tstate = `Runnable && alive th.t_pico then begin
    match th.machine with
    | None -> ()
    | Some m ->
      let before = Guest.Interp.steps_executed m in
      let charge steps extra =
        let work = Time.scale Cost.interp_step (float_of_int steps) in
        let jitter = if t.noise > 0.0 then Rng.jitter t.rng t.noise else 1.0 in
        let d = Time.scale (Time.add work extra) (dilation t *. jitter *. th.t_pico.cpu_tax) in
        if Obs.enabled t.tracer then begin
          Obs.span t.tracer Obs.Kernel ~name:"slice" ~pid:th.t_pico.pid ~tid:th.tid
            ~args:[ ("steps", Obs.Aint steps) ] ~start:(now t) ~dur:d ();
          Obs.observe t.tracer "kernel.slice_ns" (float_of_int d);
          (* guest profiler: the charged time belongs to whatever the
             machine's call stack is after the run *)
          match th.machine with
          | Some m -> Obs.profile_sample t.tracer ~stack:(Guest.Interp.call_stack m) d
          | None -> ()
        end;
        d
      in
      (match Guest.Interp.run m ~fuel:t.quantum with
      | Guest.Interp.Running m' ->
        th.machine <- Some m';
        let steps = Guest.Interp.steps_executed m' - before in
        after t (charge steps Time.zero) (fun () -> slice t th)
      | Guest.Interp.Compute (n, m') ->
        th.machine <- Some m';
        let steps = Guest.Interp.steps_executed m' - before in
        let compute = Time.scale Cost.interp_step (float_of_int n) in
        after t (charge steps compute) (fun () -> slice t th)
      | Guest.Interp.Syscall (name, args, m') ->
        th.machine <- Some m';
        let steps = Guest.Interp.steps_executed m' - before in
        if Obs.enabled t.tracer then
          Obs.profile_syscall t.tracer ~stack:(Guest.Interp.call_stack m');
        (* the syscall dispatch happens after the compute leading up to
           it; the thread is not runnable while the personality works *)
        mark_not_runnable t th `Parked;
        after t (charge steps Time.zero) (fun () -> th.service.on_syscall th name args)
      | Guest.Interp.Finished v ->
        mark_not_runnable t th `Parked;
        th.service.on_finish th v
      | Guest.Interp.Fault msg ->
        mark_not_runnable t th `Parked;
        th.service.on_fault th msg)
  end

let spawn_thread t pico machine ~service =
  if not (alive pico) then invalid_arg "Kernel.spawn_thread: picoprocess exited";
  t.next_tid <- t.next_tid + 1;
  let th =
    { tid = t.next_tid; t_pico = pico; machine = Some machine; tstate = `Parked; service }
  in
  pico.threads <- th :: pico.threads;
  mark_runnable t th;
  after t Time.zero (fun () -> slice t th);
  th

(* Resume a thread that was parked in a system call, delivering the
   result after [cost] more virtual time. *)
let syscall_return t th ~cost value =
  (match th.machine with
  | Some m -> th.machine <- Some (Guest.Interp.resume m value)
  | None -> invalid_arg "Kernel.syscall_return: no machine");
  after t cost (fun () ->
      if th.tstate <> `Done && alive th.t_pico then begin
        mark_runnable t th;
        slice t th
      end)

(* Replace the thread's machine (exec, signal injection) and continue.
   As in {!syscall_return}, [cost] is kernel/libOS CPU time: the thread
   occupies a core for it. *)
let set_machine t th machine ~cost =
  th.machine <- Some machine;
  mark_runnable t th;
  after t (Time.scale cost (dilation t)) (fun () ->
      if th.tstate <> `Done && alive th.t_pico then slice t th)

let thread_machine th = th.machine

let finish_thread t th =
  mark_not_runnable t th `Done;
  th.machine <- None;
  th.t_pico.threads <- List.filter (fun x -> x != th) th.t_pico.threads

(* {1 Exit} *)

(* Close an endpoint in order with the data already sent on it: the
   EOF travels at the same latency as bytes and respects the per-stream
   FIFO, so messages written before a close are never overtaken by it.
   (Sandbox splits close immediately instead — severing is the point
   there.) *)
let close_endpoint_ordered ?(force = true) t ep =
  let doit = if force then Stream.close else Stream.release in
  match ep.Stream.peer with
  | Some peer -> schedule_into t peer (fun () -> doit ep)
  | None -> after t Cost.stream_oneway (fun () -> doit ep)

(* A guest descriptor close: drop this picoprocess's reference (other
   inheritors keep theirs) and stop tracking that one reference for
   exit cleanup — the list holds one entry per reference (dup adds
   one), so exactly one is removed. *)
let release_endpoint t pico ep =
  let rec remove_one = function
    | [] -> []
    | e :: rest -> if e == ep then rest else e :: remove_one rest
  in
  pico.endpoints <- remove_one pico.endpoints;
  close_endpoint_ordered ~force:false t ep

let pico_exit t pico code =
  if alive pico then begin
    update_peak_rss pico;
    pico.status <- Exited code;
    List.iter (fun th -> finish_thread t th) pico.threads;
    (* one release per registered reference: inherited ends shared with
       live picoprocesses survive; ends only this process held reach
       zero and close *)
    List.iter (close_endpoint_ordered ~force:false t) pico.endpoints;
    pico.endpoints <- [];
    (* drop broadcast membership *)
    (match Hashtbl.find_opt t.broadcasts pico.sandbox with
    | Some members -> members := List.filter (fun (p, _) -> p != pico) !members
    | None -> ());
    (* close servers it owned *)
    Hashtbl.iter
      (fun _ srv -> if srv.srv_owner = pico.pid then srv.srv_closed <- true)
      t.servers;
    (* revoke shared sem pages it published: a crashed owner's page
       must never answer a fast-path op again (holders re-resolve
       through the coordination layer, which sweeps on peer death) *)
    let dead =
      Hashtbl.fold (fun key p acc -> if p.sp_pid = pico.pid then key :: acc else acc) t.sem_pages []
    in
    List.iter (fun (sandbox, id) -> sem_page_invalidate t ~sandbox ~id) dead;
    (* the vDSO page dies with its picoprocess *)
    vdso_page_invalidate t ~host_pid:pico.pid;
    Memory.destroy pico.aspace;
    let watchers = pico.exit_watchers in
    pico.exit_watchers <- [];
    List.iter (fun w -> w code) watchers
  end

let on_pico_exit _t pico watcher =
  match pico.status with
  | Exited code -> watcher code
  | Alive -> pico.exit_watchers <- watcher :: pico.exit_watchers

(* Host-level SIGKILL: no guest-side cleanup runs. *)
let kill_pico t pico = pico_exit t pico 137

(* {1 Fault injection}

   The kernel owns the injection hooks; the plan itself (rates, seed,
   verdict sequence) lives in {!Graphene_sim.Fault}. Only traffic that
   opts in ([~faultable:true] on [stream_send], and every broadcast
   delivery) draws verdicts, so fork pipes, checkpoint streams and file
   I/O are never corrupted — the paper's coordination framework is the
   system under test. *)

let fault_plan t = t.fault

let fault_trace t name pid args =
  if Obs.enabled t.tracer then begin
    Obs.count t.tracer ("fault." ^ name);
    Obs.instant t.tracer Obs.Kernel ~name:("fault." ^ name) ~pid ~args (now t)
  end;
  audit_emit t Audit.Fault ~action:name ~pid ~args ()

let note_leader t pico =
  t.fault_leader <- Some pico;
  Contend.note_leader t.contend pico.pid

(* Called by the replacement leader when it serves its first RPC: the
   recovery interval ends here. *)
let note_recovery t =
  match (t.leader_killed_at, t.recovered_at) with
  | Some killed, None ->
    let at = now t in
    t.recovered_at <- Some at;
    let delta = Time.diff at killed in
    Obs.observe t.tracer "ipc.recovery_ns" (float_of_int delta);
    fault_trace t "recovered" 0 [ ("recovery_ns", Obs.Aint delta) ]
  | _ -> ()

let fault_recovery t =
  match (t.leader_killed_at, t.recovered_at) with
  | Some k, Some r -> Some (k, r)
  | _ -> None

let leader_killed_at t = t.leader_killed_at

let install_faults t plan =
  t.fault <- Some plan;
  match Fault.kill_leader_at plan with
  | None -> ()
  | Some at ->
    ignore
      (Engine.schedule_at t.engine at (fun () ->
           match t.fault_leader with
           | Some p when alive p ->
             t.leader_killed_at <- Some (now t);
             fault_trace t "kill_leader" p.pid [ ("victim", Obs.Aint p.pid) ];
             kill_pico t p
           | _ -> ()))

(* The crash-at-Nth-PAL-call fault. The PAL calls this from its
   dispatch choke point; [true] means the picoprocess was just killed
   and the PAL must not run the continuation. *)
let fault_pal_call t pico =
  t.pal_calls <- t.pal_calls + 1;
  match t.fault with
  | None -> false
  | Some plan -> (
    match Fault.crash_call plan with
    | Some n when n = t.pal_calls && alive pico ->
      fault_trace t "crash" pico.pid [ ("pal_call", Obs.Aint n) ];
      kill_pico t pico;
      true
    | _ -> false)

(* {1 Streams} *)

let register_endpoint _t pico ep =
  ep.Stream.owner <- pico.pid;
  pico.endpoints <- ep :: pico.endpoints

let stream_server t pico ~name =
  if Hashtbl.mem t.servers name then raise (Denied ("address in use: " ^ name));
  let srv =
    { srv_name = name; srv_owner = pico.pid; backlog = []; accept_waiters = []; srv_closed = false }
  in
  Hashtbl.replace t.servers name srv;
  srv

(* listen(2) backlogs are finite: a TCP listener whose accept queue is
   full silently drops the SYN and the client retransmits after the
   initial RTO. 511 is the classic server default (nginx's listen()
   backlog); 1 s is the Linux initial SYN retransmission timer. This is
   the knee every high-concurrency benchmark eventually hits — past it,
   throughput over the request span degrades not because requests got
   slower but because part of the offered load waits out RTOs
   (docs/WEB.md). Only tcp: listeners drop; the coordination and
   sandbox pipe servers queue unboundedly, as local sockets do. *)
let listen_backlog_limit = 511
let syn_retransmit = Time.s 1.0

let stream_connect t ?(latency = Cost.stream_connect) pico ~name ~ok ~err =
  match Hashtbl.find_opt t.servers name with
  | None -> err "ENOENT"
  | Some srv when srv.srv_closed -> err "ECONNREFUSED"
  | Some srv ->
    if
      not
        (lsm_verdict t pico ~hook:"check_stream_connect" ~target:srv.srv_name
           ~cost:Cost.lsm_socket_check
           (t.lsm.check_stream_connect pico srv))
    then err "EACCES"
    else begin
      let client_ep, server_ep = Stream.pipe ~owner_a:pico.pid ~owner_b:srv.srv_owner in
      register_endpoint t pico client_ep;
      (match find_pico t srv.srv_owner with
      | Some owner -> register_endpoint t owner server_ep
      | None -> ());
      let is_tcp = String.length name >= 4 && String.sub name 0 4 = "tcp:" in
      (* connection establishment takes a stream round trip *)
      let rec deliver () =
        match srv.accept_waiters with
        | w :: rest ->
          srv.accept_waiters <- rest;
          w server_ep;
          ok client_ep
        | [] ->
          if is_tcp && List.length srv.backlog >= listen_backlog_limit then begin
            (* accept queue full: the SYN is dropped, the client's
               connect rides the retransmission timer *)
            if Obs.enabled t.tracer then Obs.count t.tracer "kernel.net.syn_drop";
            after t syn_retransmit deliver
          end
          else begin
            srv.backlog <- srv.backlog @ [ server_ep ];
            ok client_ep
          end
      in
      after t latency deliver
    end

let stream_accept _t srv k =
  match srv.backlog with
  | ep :: rest ->
    srv.backlog <- rest;
    k ep
  | [] -> srv.accept_waiters <- srv.accept_waiters @ [ k ]

(* Send data; it becomes readable at the peer after the one-way stream
   latency. *)
(* [extra] is send-side work (marshaling, copies) that delays delivery
   but not the write's position in the stream's FIFO order. *)
(* [faultable] opts this send into the active fault plan (only the
   coordination layer does); the verdict is drawn per message, in send
   order. A duplicate occupies two FIFO slots, so reordering never
   comes from duplication alone. *)
let stream_send ?(extra = Time.zero) ?(faultable = false) t ep data =
  match ep.Stream.peer with
  | None -> raise (Denied "EPIPE")
  | Some peer ->
    if Stream.is_closed peer then raise (Denied "EPIPE")
    else begin
      if Obs.enabled t.tracer then begin
        let len = String.length data in
        Obs.count t.tracer "kernel.stream_sends";
        Obs.observe t.tracer "kernel.stream_send_bytes" (float_of_int len);
        Obs.instant t.tracer Obs.Kernel ~name:"stream.send" ~pid:ep.Stream.owner
          ~args:
            [ ("bytes", Obs.Aint len);
              ("peer_queue_depth", Obs.Aint peer.Stream.inbox_bytes) ]
          (now t)
      end;
      (* the stamp is the actual delivery instant (read at fire time),
         so receivers can compute true time-in-queue even for delayed
         or duplicated deliveries *)
      let deliver ?(extra = extra) () =
        schedule_into ~extra t peer (fun () -> Stream.deliver ~at:(now t) peer data)
      in
      match t.fault with
      | Some plan when faultable -> (
        match Fault.message_action plan with
        | Fault.Deliver -> deliver ()
        | Fault.Drop -> fault_trace t "drop" ep.Stream.owner []
        | Fault.Delay d ->
          fault_trace t "delay" ep.Stream.owner [ ("delay_ns", Obs.Aint d) ];
          deliver ~extra:(Time.add extra d) ()
        | Fault.Duplicate ->
          fault_trace t "dup" ep.Stream.owner [];
          deliver ();
          deliver ())
      | _ -> deliver ()
    end

let stream_send_handle t ep handle =
  match ep.Stream.peer with
  | None -> raise (Denied "EPIPE")
  | Some peer ->
    (* SCM_RIGHTS semantics: the recipient gets its own reference *)
    (match handle.obj with Hstream ep' -> Stream.addref ep' | _ -> ());
    schedule_into t peer (fun () -> Stream.deliver_oob peer handle)

(* Blocking receive of up to [max] bytes; "" signals EOF. *)
let rec stream_recv t ep ~max k =
  if Stream.available ep > 0 then begin
    let data = Stream.read ep ~max in
    if Obs.enabled t.tracer then
      Obs.instant t.tracer Obs.Kernel ~name:"stream.recv" ~pid:ep.Stream.owner
        ~args:
          [ ("bytes", Obs.Aint (String.length data));
            ("queue_depth", Obs.Aint (Stream.available ep)) ]
        (now t);
    k data
  end
  else if Stream.at_eof ep || Stream.is_closed ep then k ""
  else Stream.on_activity ep (fun () -> stream_recv t ep ~max k)

let rec stream_recv_msg t ep k =
  match Stream.read_message ep with
  | Some msg ->
    if Obs.enabled t.tracer then begin
      let queued = max 0 (Time.diff (now t) (Stream.last_stamp ep)) in
      Obs.observe t.tracer "kernel.stream_queue_ns" (float_of_int queued);
      Obs.instant t.tracer Obs.Kernel ~name:"stream.recv_msg" ~pid:ep.Stream.owner
        ~args:
          [ ("queued_ns", Obs.Aint queued); ("depth", Obs.Aint (Stream.inbox_msgs ep)) ]
        (now t)
    end;
    k (Some msg)
  | None ->
    if Stream.at_eof ep || Stream.is_closed ep then k None
    else Stream.on_activity ep (fun () -> stream_recv_msg t ep k)

let rec stream_recv_handle _t ep k =
  match Stream.take_oob ep with
  | Some h -> k (Some h)
  | None ->
    if Stream.at_eof ep || Stream.is_closed ep then k None
    else Stream.on_activity ep (fun () -> stream_recv_handle _t ep k)

(* {1 Broadcast streams} *)

let broadcast_members t sandbox =
  match Hashtbl.find_opt t.broadcasts sandbox with
  | Some members -> members
  | None ->
    let members = ref [] in
    Hashtbl.replace t.broadcasts sandbox members;
    members

let broadcast_join t pico ~handler =
  let members = broadcast_members t pico.sandbox in
  members := (pico, handler) :: !members

let broadcast_leave t pico =
  match Hashtbl.find_opt t.broadcasts pico.sandbox with
  | Some members -> members := List.filter (fun (p, _) -> p != pico) !members
  | None -> ()

(* Message-granularity delivery to every member of the sender's
   sandbox except the sender itself. Broadcasts carry only
   coordination traffic (election, shutdown, async notifications), so
   every per-recipient delivery is fault-eligible: one verdict per
   (message, recipient), which lets a lossy plan partition the
   candidate set mid-election. *)
let broadcast_send t pico msg =
  let members = broadcast_members t pico.sandbox in
  List.iter
    (fun (p, handler) ->
      if p != pico && alive p then begin
        let deliver ?(d = Time.zero) () =
          after t (Time.add Cost.stream_oneway d) (fun () ->
              if alive p then begin
                (* sandboxes read at delivery time: a message still in
                   flight when a recipient isolates is a real bridge,
                   and the confinement monitor must see it as one *)
                audit_emit t Audit.Sandbox ~action:"deliver" ~pid:p.pid
                  ~args:
                    [ ("src_sandbox", Obs.Aint pico.sandbox);
                      ("dst_sandbox", Obs.Aint p.sandbox) ]
                  ();
                handler msg
              end)
        in
        match t.fault with
        | None -> deliver ()
        | Some plan -> (
          match Fault.message_action plan with
          | Fault.Deliver -> deliver ()
          | Fault.Drop -> fault_trace t "drop" pico.pid []
          | Fault.Delay d ->
            fault_trace t "delay" pico.pid [ ("delay_ns", Obs.Aint d) ];
            deliver ~d ()
          | Fault.Duplicate ->
            fault_trace t "dup" pico.pid [];
            deliver ();
            deliver ())
      end)
    !members

(* {1 Sandboxes} *)

(* Detach [pico] into a fresh sandbox: the defining security event.
   The kernel closes every byte stream bridging the old and new
   sandbox and moves the picoprocess to a fresh broadcast group
   (paper §3: "the reference monitor closes any byte streams that
   could bridge the two sandboxes"). Children listed in [keep] move
   along with it. *)
let sandbox_split t pico ~keep =
  let moving = pico :: keep in
  let moving_pids = List.map (fun p -> p.pid) moving in
  let new_sandbox = fresh_sandbox t in
  broadcast_leave t pico;
  List.iter (fun p -> broadcast_leave t p) keep;
  List.iter
    (fun p ->
      List.iter
        (fun ep ->
          match ep.Stream.peer with
          | Some peer when not (List.mem peer.Stream.owner moving_pids) ->
            Stream.close ep;
            Stream.close peer
          | _ -> ())
        p.endpoints;
      p.endpoints <- List.filter (fun ep -> not (Stream.is_closed ep)) p.endpoints;
      p.sandbox <- new_sandbox)
    moving;
  (* shared sem pages follow their publisher: re-tagging the sandbox
     here — in the same atomic step that severs the bridging streams —
     means a picoprocess left behind can never slip one more fast-path
     op onto a page whose owner just isolated itself *)
  let moving_pages =
    Hashtbl.fold
      (fun key p acc -> if List.mem p.sp_pid moving_pids then (key, p) :: acc else acc)
      t.sem_pages []
  in
  List.iter
    (fun ((_, id), p) ->
      Hashtbl.remove t.sem_pages (p.sp_sandbox, id);
      p.sp_sandbox <- new_sandbox;
      Hashtbl.replace t.sem_pages (new_sandbox, id) p)
    moving_pages;
  (* vDSO pages do NOT follow their publisher: the split changes the
     picoprocess's coordination world (ppid routing, sandbox tag), so
     the page is revoked in the same atomic step and the instance
     republishes a fresh one — a reader can never be served identity
     or time state from before its own isolation event *)
  List.iter (fun p -> vdso_page_invalidate t ~host_pid:p.pid) moving;
  if Obs.enabled t.tracer then begin
    Obs.count t.tracer "kernel.sandbox_splits";
    Obs.instant t.tracer Obs.Kernel ~name:"sandbox.split" ~pid:pico.pid
      ~args:
        [ ("new_sandbox", Obs.Aint new_sandbox);
          ("moved", Obs.Aint (List.length moving)) ]
      (now t)
  end;
  audit_emit t Audit.Sandbox ~action:"split" ~pid:pico.pid
    ~args:
      [ ("new_sandbox", Obs.Aint new_sandbox); ("moved", Obs.Aint (List.length moving)) ]
    ();
  new_sandbox

(* {1 Bulk IPC (gipc kernel module)} *)

let gipc_send t pico ~ranges =
  t.next_gipc <- t.next_gipc + 1;
  Hashtbl.replace t.gipc_store t.next_gipc { g_src = pico; g_ranges = ranges };
  if Obs.enabled t.tracer then begin
    let pages = List.fold_left (fun acc (_, n) -> acc + n) 0 ranges in
    Obs.count t.tracer "kernel.gipc_sends";
    Obs.instant t.tracer Obs.Kernel ~name:"gipc.send" ~pid:pico.pid
      ~args:[ ("pages", Obs.Aint pages); ("token", Obs.Aint t.next_gipc) ]
      (now t)
  end;
  t.next_gipc

let gipc_recv t pico ~token =
  match Hashtbl.find_opt t.gipc_store token with
  | None -> raise (Denied "gipc: no such token")
  | Some { g_src; g_ranges } ->
    if
      not
        (lsm_verdict t pico ~hook:"check_gipc"
           ~target:(Printf.sprintf "pid %d -> pid %d" g_src.pid pico.pid)
           ~cost:Cost.lsm_fd_check
           (t.lsm.check_gipc ~src:g_src ~dst:pico))
    then raise (Denied "gipc: cross-sandbox");
    Hashtbl.remove t.gipc_store token;
    let granted =
      List.fold_left
        (fun acc (base, npages) ->
          acc
          + Memory.share_range ~src:g_src.aspace ~dst:pico.aspace ~src_base:base
              ~dst_base:base ~npages ~kind:Memory.Mmap)
        0 g_ranges
    in
    update_peak_rss pico;
    if Obs.enabled t.tracer then begin
      Obs.count t.tracer "kernel.gipc_recvs";
      Obs.observe t.tracer "kernel.gipc_pages" (float_of_int granted);
      Obs.instant t.tracer Obs.Kernel ~name:"gipc.recv" ~pid:pico.pid
        ~args:[ ("pages_granted", Obs.Aint granted); ("token", Obs.Aint token) ]
        (now t)
    end;
    granted

(* {1 File system host calls} *)

(* Path-touching operations go through the LSM; these are the host
   syscalls the filter marks [Trace]. *)
let check_path_traced t pico path access =
  if not (Obs.enabled t.tracer) then t.lsm.check_path pico path access
  else begin
    (* probe before the check fills the memo: a cached decision shows
       up in the trace at its cheap cost, a cold one at the full walk;
       the probe is pure, so skipping it untraced changes nothing *)
    let cost =
      if t.lsm_active && t.lsm.probe_path pico path access then Cost.refmon_cache_hit
      else Cost.lsm_path_check
    in
    lsm_verdict t pico ~hook:"check_path"
      ~target:
        (path ^ " (" ^ (match access with `Read -> "r" | `Write -> "w" | `Exec -> "x") ^ ")")
      ~cost
      (t.lsm.check_path pico path access)
  end

let fs_open t pico path ~write ~create =
  let path = Vfs.normalize path in
  let access = if write || create then `Write else `Read in
  if not (check_path_traced t pico path access) then raise (Denied ("EACCES " ^ path));
  let file =
    if create then begin
      Vfs.mkdir_p t.fs (Filename.dirname path);
      Vfs.create_file t.fs path
    end
    else Vfs.find_file t.fs path
  in
  fresh_handle t (Hfile { file; path })

let fs_stat t pico path =
  let path = Vfs.normalize path in
  if not (check_path_traced t pico path `Read) then raise (Denied ("EACCES " ^ path));
  Vfs.stat t.fs path

let fs_unlink t pico path =
  let path = Vfs.normalize path in
  if not (check_path_traced t pico path `Write) then raise (Denied ("EACCES " ^ path));
  Vfs.unlink t.fs path

let fs_rename t pico ~src ~dst =
  let src = Vfs.normalize src and dst = Vfs.normalize dst in
  if not (check_path_traced t pico src `Write) then raise (Denied ("EACCES " ^ src));
  if not (check_path_traced t pico dst `Write) then raise (Denied ("EACCES " ^ dst));
  Vfs.rename t.fs ~src ~dst

let fs_mkdir t pico path =
  let path = Vfs.normalize path in
  if not (check_path_traced t pico path `Write) then raise (Denied ("EACCES " ^ path));
  Vfs.mkdir_p t.fs path

let fs_readdir t pico path =
  let path = Vfs.normalize path in
  if not (check_path_traced t pico path `Read) then raise (Denied ("EACCES " ^ path));
  Vfs.readdir t.fs path

(* {1 Loopback network} *)

let tcp_name port = Printf.sprintf "tcp:127.0.0.1:%d" port

let net_listen t pico ~port =
  if
    not
      (lsm_verdict t pico ~hook:"check_net"
         ~target:(Printf.sprintf "bind 127.0.0.1:%d" port)
         ~cost:Cost.lsm_socket_check
         (t.lsm.check_net pico ~addr:"127.0.0.1" ~port `Bind))
  then raise (Denied "EACCES: bind");
  stream_server t pico ~name:(tcp_name port)

let net_connect t pico ~port ~ok ~err =
  if
    not
      (lsm_verdict t pico ~hook:"check_net"
         ~target:(Printf.sprintf "connect 127.0.0.1:%d" port)
         ~cost:Cost.lsm_socket_check
         (t.lsm.check_net pico ~addr:"127.0.0.1" ~port `Connect))
  then err "EACCES"
  else stream_connect t ~latency:Cost.tcp_connect pico ~name:(tcp_name port) ~ok ~err

(* {1 Accounting} *)

let system_memory t = Memory.system_bytes t.alloc

let live_picos t = List.filter alive t.picos
