(** The simulated host kernel.

    Owns the virtual clock (an event engine), the host file system, all
    picoprocesses and their address spaces, byte/message streams, the
    loopback network, the bulk-IPC (gipc) module, the per-picoprocess
    seccomp filters, and the LSM hook points the reference monitor
    installs into.

    Threads of a picoprocess run guest-interpreter machines in sliced
    events under a processor-sharing multicore model: when more threads
    are runnable than cores, compute dilates by the ratio. Potentially
    blocking host calls are in continuation-passing style; continuations
    fire from later events, after the operation's latency. Deliveries
    into a stream (data, passed handles, EOF) respect per-stream FIFO
    order. *)

module Bpf : sig
  module Prog = Graphene_bpf.Prog
  module Seccomp = Graphene_bpf.Seccomp
  module Sysno = Graphene_bpf.Sysno
end

module Guest : sig
  module Interp = Graphene_guest.Interp
  module Ast = Graphene_guest.Ast
end

(** {1 Address-space layout constants} *)

val pal_base : int
(** Base of the PAL's code region — what the seccomp filter's
    return-PC checks refer to. *)

val pal_image_bytes : int
val pal_limit : int
val libos_base : int
val app_base : int
val heap_base : int
val stack_base : int

(** {1 Types} *)

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
  srv_owner : int;
  mutable backlog : handle Stream.endpoint list;
  mutable accept_waiters : (handle Stream.endpoint -> unit) list;
  mutable srv_closed : bool;
}

and pico_status = Alive | Exited of int

and pico = {
  pid : int;  (** host-level picoprocess id *)
  mutable sandbox : int;
  aspace : Memory.t;
  mutable status : pico_status;
  mutable threads : thread list;
  mutable exit_watchers : (int -> unit) list;
  mutable endpoints : handle Stream.endpoint list;
  mutable filter : Bpf.Prog.t option;
  mutable exe : string;
  mutable spawned_at : Graphene_sim.Time.t;
  mutable peak_rss : int;
  mutable cpu_tax : float;
      (** multiplicative compute overhead (e.g. nested paging inside a
          VM); 1.0 = none *)
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
  on_finish : thread -> Guest.Ast.value -> unit;
  on_fault : thread -> string -> unit;
}

and lsm = {
  check_path : pico -> string -> [ `Read | `Write | `Exec ] -> bool;
  probe_path : pico -> string -> [ `Read | `Write | `Exec ] -> bool;
      (** pure probe: is the verdict for this triple already memoized in
          the monitor's decision cache? Used by the PAL to charge the
          cache-hit cost instead of the full manifest walk; never
          decides access. *)
  check_net : pico -> addr:string -> port:int -> [ `Bind | `Connect ] -> bool;
  check_stream_connect : pico -> server -> bool;
  check_gipc : src:pico -> dst:pico -> bool;
  on_sandbox_split : pico -> old_sandbox:int -> paths:string list -> unit;
}

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
(** A shared semaphore page — the medium of the futex-style SysV fast
    path over the bulk-IPC shared pages. The owner publishes (value,
    waiter count); same-sandbox picoprocesses with live authority
    mutate it directly instead of RPC-ing the owner (docs/WEB.md). *)

type vdso_page = {
  vd_host_pid : int;  (** publishing picoprocess, for exit revocation *)
  mutable vd_pid : int;  (** guest-visible pid recorded in the page *)
  mutable vd_ppid : int;
  mutable vd_uid : int;
  mutable vd_boot_epoch : Graphene_sim.Time.t;
  mutable vd_time_base : Graphene_sim.Time.t;
      (** kernel virtual time captured at (re)publish; readers answer
          [time_base + (now - published_at)] *)
  mutable vd_published_at : Graphene_sim.Time.t;
  mutable vd_sandbox : int;
  mutable vd_valid : bool;
  mutable vd_generation : int;  (** bumped on every republish *)
}
(** The per-picoprocess vDSO page: a read-only state page the kernel
    publishes at picoprocess setup so libLinux can service getpid /
    gettimeofday-class calls with a couple of loads instead of a PAL
    crossing (docs/PERF.md). Revoked on publisher exit and sandbox
    split; never inherited across fork or checkpoint restore. *)

type t = {
  engine : Graphene_sim.Engine.t;
  rng : Graphene_sim.Rng.t;
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
  gipc_store : (int, gipc_payload) Hashtbl.t;
  mutable next_gipc : int;
  mutable runnable : int;
  syscalls : (string, sysent) Hashtbl.t;
      (** per host syscall: calls and total kernel-mode virtual time
          (read them with {!syscall_counts} and {!syscall_report}) *)
  tracer : Graphene_obs.Obs.t;
  audit : Graphene_obs.Audit.t;
  invariants : Graphene_obs.Invariant.t;
      (** online monitors over [audit]; attached at creation, inert
          while auditing is disabled *)
  contend : Graphene_obs.Contend.t;
      (** contention accounting (per-resource waits, queue depths,
          wait-for graph); its detector advisories route into
          [invariants] (as advisories, never violations) and [audit]
          under the [Contention] category *)
  mutable introspectors : (int * (unit -> string)) list;
  images : (string, Memory.image) Hashtbl.t;
  mutable quantum : int;
  noise : float;
  mutable fault : Graphene_sim.Fault.t option;
  mutable fault_leader : pico option;
  mutable leader_killed_at : Graphene_sim.Time.t option;
  mutable recovered_at : Graphene_sim.Time.t option;
  mutable pal_calls : int;
  sem_pages : (int * int, sem_page) Hashtbl.t;
      (** shared sem pages by (sandbox, SysV id): id namespaces are
          per-sandbox-leader, so ids alone collide across a farm of
          sandboxes *)
  vdso_pages : (int, vdso_page) Hashtbl.t;
      (** per-picoprocess vDSO pages by host pid *)
}

and gipc_payload
and sysent

exception Denied of string
(** An LSM / reference-monitor rejection, carrying an errno tag. *)

exception Killed_by_seccomp of string

(** {1 Construction and time} *)

val create : ?cores:int -> ?seed:int -> ?noise:float -> unit -> t
(** [noise] is multiplicative compute jitter (0, the default, keeps
    runs fully deterministic; benchmarks use ~0.006 so confidence
    intervals are meaningful). *)

val now : t -> Graphene_sim.Time.t
val after : t -> Graphene_sim.Time.t -> (unit -> unit) -> unit
val run_until_idle : t -> unit

val run_watchdog : t -> max_events:int -> unit
(** [run_until_idle] with an event budget; raises [Failure] on
    exhaustion (livelock guard). *)

(** {1 LSM} *)

val permissive_lsm : lsm
val set_lsm : t -> lsm -> unit
(** Also marks the monitor active, which turns on the LSM check costs
    in the PAL. *)

val lsm_active : t -> bool

(** {1 Audit and introspection}

    The kernel owns the world's audit log (like its tracer) and the
    invariant monitors attached to it. Layers emit through
    {!audit_emit}, which stamps the current virtual time and is one
    branch while auditing is disabled. *)

val audit_emit :
  t ->
  Graphene_obs.Audit.category ->
  action:string ->
  ?pid:int ->
  ?args:(string * Graphene_obs.Obs.arg) list ->
  unit ->
  unit

val register_introspector : t -> pid:int -> (unit -> string) -> unit
(** Register (or replace) the live-state snapshot renderer for a
    picoprocess; the IPC layer registers one per libOS instance. *)

val introspection_report : t -> string
(** Concatenate every registered snapshot, ascending by pid — the body
    of [graphene top]. *)

(** {1 Picoprocesses} *)

val spawn : t -> ?parent:pico -> ?with_pal:bool -> sandbox:int -> exe:string -> unit -> pico
(** A clean picoprocess with (by default) the shared PAL image mapped.
    [with_pal:false] is for the native-baseline processes. *)

val install_filter : t -> pico -> Bpf.Prog.t -> unit
(** One-way, like seccomp: installing twice raises. *)

val find_pico : t -> int -> pico option
val alive : pico -> bool
val live_picos : t -> pico list
val update_peak_rss : pico -> unit
val fresh_sandbox : t -> int
val fresh_handle : t -> handle_obj -> handle

(** {1 Shared semaphore pages}

    Registry bookkeeping for the semaphore fast path. Policy (owner
    match against the coordination table, sandbox confinement, waiter
    check) lives in the IPC layer; the kernel keeps the registry
    honest: pages are revoked when their publisher exits and follow it
    across sandbox splits. *)

val sem_page_publish :
  t -> id:int -> owner:string -> pid:int -> sandbox:int -> value:int -> sem_page
(** Publish (or replace) the shared page for semaphore [id]. [owner]
    is the publishing instance's wire address, [pid] its host pid. *)

val sem_page_lookup : t -> sandbox:int -> id:int -> sem_page option
(** The live page for [id] as seen from [sandbox]; revoked pages are
    invisible, and a page that followed its publisher into another
    sandbox is unreachable from the old one. *)

val sem_page_invalidate : t -> sandbox:int -> id:int -> unit
(** Revoke: flips the page invalid (direct references held by
    instances fail their validity check) and drops the registry
    entry. *)

(** {1 vDSO pages}

    Registry bookkeeping for the in-guest fast path over getpid /
    gettimeofday-class calls. The kernel keeps the registry honest: a
    page is revoked when its publisher exits or splits into a new
    sandbox, and every publish replaces (and invalidates) the previous
    page, so a fork child or a restored checkpoint can never serve the
    identity or time base its parent state was copied from. *)

val vdso_page_publish :
  t -> host_pid:int -> pid:int -> ppid:int -> uid:int -> sandbox:int -> vdso_page
(** Publish (or replace, invalidating the old page and bumping the
    generation) the state page for picoprocess [host_pid]. The time
    base and boot epoch are stamped with the current virtual time. *)

val vdso_page_lookup : t -> host_pid:int -> vdso_page option
(** The live page for a picoprocess; revoked pages are invisible. *)

val vdso_page_invalidate : t -> host_pid:int -> unit
(** Revoke: flips the page invalid (direct references fail their
    validity check) and drops the registry entry. *)

val vdso_time : vdso_page -> now:Graphene_sim.Time.t -> Graphene_sim.Time.t
(** The time a reader derives from the page: base + elapsed since
    publish. Exact while the page is valid — every event that could
    skew the base (restore, split, exit) invalidates it first. *)

val syscall_check :
  t -> pico -> name:string -> pc:int -> args:int array -> Bpf.Prog.action * Graphene_sim.Time.t
(** Evaluate the installed filter for one host call; returns the
    verdict and the filter-evaluation cost. Unfiltered picoprocesses
    are always allowed. Also feeds {!syscall_counts}. *)

val pal_syscall :
  t ->
  pico ->
  name:string ->
  pc:int ->
  args:int array ->
  cost:Graphene_sim.Time.t ->
  Bpf.Prog.action * Graphene_sim.Time.t * Graphene_sim.Time.t
(** The PAL's host-call choke point: {!syscall_check}, then charge
    entry + filter + [cost] of kernel-mode time to [name] (see
    {!syscall_report}), through one lookup in the syscall table.
    Returns the verdict, the filter cost and the total charged. *)

val get_image : t -> name:string -> bytes:int -> Memory.image
(** The shared code-image registry (page-cache semantics). *)

(** {1 Threads and scheduling} *)

val dilation : t -> float
val spawn_thread : t -> pico -> Guest.Interp.state -> service:thread_service -> thread

val syscall_return : t -> thread -> cost:Graphene_sim.Time.t -> Guest.Ast.value -> unit
(** Resume a thread parked in a system call; [cost] is kernel-mode CPU
    time (it occupies a core and dilates under contention). *)

val set_machine : t -> thread -> Guest.Interp.state -> cost:Graphene_sim.Time.t -> unit
(** Replace the machine (exec, signal injection) and continue, with the
    same cost semantics as {!syscall_return}. *)

val thread_machine : thread -> Guest.Interp.state option
val finish_thread : t -> thread -> unit

(** {1 Exit} *)

val pico_exit : t -> pico -> int -> unit
(** Terminate: tear down threads, close endpoints (in stream-FIFO
    order), close owned servers, free memory, fire exit watchers. *)

val on_pico_exit : t -> pico -> (int -> unit) -> unit
(** Fires immediately if already exited. *)

val kill_pico : t -> pico -> unit
(** Host-level SIGKILL (exit code 137); no guest cleanup. *)

(** {1 Fault injection}

    The kernel owns the injection hooks for a {!Graphene_sim.Fault}
    plan: coordination stream sends marked [~faultable:true] and every
    broadcast delivery draw one verdict each; a [crash-call] plan kills
    the picoprocess issuing the Nth PAL call; a [kill-leader] plan
    SIGKILLs the picoprocess most recently reported via {!note_leader}
    at the scheduled virtual time. *)

val install_faults : t -> Graphene_sim.Fault.t -> unit
(** Activate a plan; schedules the leader-kill event if the plan has
    one. Call before running the workload. *)

val fault_plan : t -> Graphene_sim.Fault.t option

val note_leader : t -> pico -> unit
(** The IPC layer reports the current coordination leader here (at
    bootstrap and after every election win) so a kill-leader fault
    knows its target. *)

val note_recovery : t -> unit
(** The replacement leader reports its first served RPC here; closes
    the recovery interval opened by the kill-leader fault and records
    it in the ["ipc.recovery_ns"] metric. *)

val fault_recovery : t -> (Graphene_sim.Time.t * Graphene_sim.Time.t) option
(** [(killed_at, recovered_at)] once both ends of the recovery interval
    have been observed. *)

val leader_killed_at : t -> Graphene_sim.Time.t option

val fault_pal_call : t -> pico -> bool
(** Count one PAL host call; [true] means the crash-call fault just
    killed the calling picoprocess and the caller must not continue. *)

(** {1 Streams} *)

val register_endpoint : t -> pico -> handle Stream.endpoint -> unit
(** Ownership for exit cleanup and sandbox-split severing. *)

val close_endpoint_ordered : ?force:bool -> t -> handle Stream.endpoint -> unit
(** Close after everything already in flight on the stream. [force]
    (the default) closes unconditionally — process death; with
    [~force:false] only this reference is dropped. *)

val release_endpoint : t -> pico -> handle Stream.endpoint -> unit
(** A guest descriptor close: drop this picoprocess's reference and
    stop tracking the endpoint for exit cleanup. *)

val stream_server : t -> pico -> name:string -> server
(** Raises {!Denied} if the name is taken. *)

val stream_connect :
  t ->
  ?latency:Graphene_sim.Time.t ->
  pico ->
  name:string ->
  ok:(handle Stream.endpoint -> unit) ->
  err:(string -> unit) ->
  unit
(** Rendezvous by name: creates the pair, queues the server side for
    accept, and calls [ok] with the client side after the connection
    latency. Errors: ENOENT, ECONNREFUSED, EACCES (LSM). *)

val stream_accept : t -> server -> (handle Stream.endpoint -> unit) -> unit
val stream_send :
  ?extra:Graphene_sim.Time.t -> ?faultable:bool -> t -> handle Stream.endpoint -> string -> unit
(** Raises {!Denied} ["EPIPE"] on a closed peer. [extra] is send-side
    work that delays delivery but not the message's FIFO position.
    [faultable] (default [false]) opts the message into the active
    fault plan — only the coordination layer sets it, so fork pipes,
    checkpoint streams and file I/O are never perturbed. *)

val stream_send_handle : t -> handle Stream.endpoint -> handle -> unit
val stream_recv : t -> handle Stream.endpoint -> max:int -> (string -> unit) -> unit
(** Blocking; [""] is EOF. *)

val stream_recv_msg : t -> handle Stream.endpoint -> (string option -> unit) -> unit
val stream_recv_handle : t -> handle Stream.endpoint -> (handle option -> unit) -> unit

(** {1 Broadcast streams} *)

val broadcast_join : t -> pico -> handler:(string -> unit) -> unit
val broadcast_leave : t -> pico -> unit
val broadcast_send : t -> pico -> string -> unit
(** Message-granularity delivery to every sandbox member except the
    sender. *)

(** {1 Sandboxes} *)

val sandbox_split : t -> pico -> keep:pico list -> int
(** Detach into a fresh sandbox, severing (immediately) every stream
    that would bridge the old and new sandboxes; [keep] children move
    along. Returns the new sandbox id. *)

(** {1 Bulk IPC (the gipc kernel module)} *)

val gipc_send : t -> pico -> ranges:(int * int) list -> int
(** Stage (base, npages) ranges for copy-on-write transfer; returns a
    single-use token. *)

val gipc_recv : t -> pico -> token:int -> int
(** Map the staged ranges at the same addresses, COW; returns the
    number of frames granted. {!Denied} across sandboxes. *)

(** {1 File system host calls (LSM-checked)} *)

val fs_open : t -> pico -> string -> write:bool -> create:bool -> handle
val fs_stat : t -> pico -> string -> Vfs.stat
val fs_unlink : t -> pico -> string -> unit
val fs_rename : t -> pico -> src:string -> dst:string -> unit
val fs_mkdir : t -> pico -> string -> unit
val fs_readdir : t -> pico -> string -> string list

(** {1 Loopback network} *)

val net_listen : t -> pico -> port:int -> server
val net_connect :
  t -> pico -> port:int -> ok:(handle Stream.endpoint -> unit) -> err:(string -> unit) -> unit

(** {1 Accounting} *)

val syscall_counts : t -> (string * int) list

val syscall_report : t -> (string * int * Graphene_sim.Time.t) list
(** Per-syscall [(name, count, total kernel-mode time)], descending by
    count (ties broken by name). *)

val lsm_verdict :
  t -> pico -> hook:string -> target:string -> cost:Graphene_sim.Time.t -> bool -> bool
(** Trace an LSM hook decision (refmon-layer span + allow/deny counter)
    and return the verdict unchanged. The span costs [cost] when a real
    monitor is installed, zero under the permissive LSM. *)

val system_memory : t -> int
