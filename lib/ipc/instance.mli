(** One libOS's coordination engine: the IPC helper, the leader role,
    and the client paths for every multi-process abstraction of the
    paper's Table 2.

    Each instance runs a pipe server named after its address
    ([pipe:pico.<addr>]); point-to-point RPC streams connect there and
    are cached (§4.3). One instance per sandbox is the leader, which
    subdivides the PID and System V id namespaces in batches. RPC
    handlers answer strictly from local state — no recursive RPCs
    (§4.1) — and responses may be deferred (a receive on an empty
    queue answers when a message arrives).

    Implemented optimizations, all gated by {!Config}: batched PID
    allocation, p2p stream and owner caching, asynchronous sends to
    known queues, queue/semaphore ownership migration to the frequent
    user, and queue persistence across non-concurrent processes. Also
    implements the paper's sketched leader recovery: on a dead leader,
    members elect the lowest PID over the broadcast stream and the new
    leader reconstructs its tables from member reports.

    Failure handling (the chaos-testing surface): requests carry
    per-sender sequence numbers and are retransmitted with capped
    exponential backoff after a 2 ms timeout; receivers
    deduplicate via {!Wire.Dedup}, so retries are idempotent; RPCs
    against a dead leader trigger re-election and are retried against
    the winner. All errors are typed {!Graphene_core.Errno.t} — the
    transient ones ({!Graphene_core.Errno.is_transient}) are the ones
    libLinux maps to EINTR/EAGAIN retries rather than failures. *)

module K = Graphene_host.Kernel
module Pal = Graphene_pal.Pal
module Errno = Graphene_core.Errno

type callbacks = {
  deliver_signal : signum:int -> from_pid:int -> to_pid:int -> bool;
      (** [false] if the target PID is not in this thread group *)
  on_exit_notification : pid:int -> code:int -> unit;
  proc_read : pid:int -> field:string -> (string, Errno.t) result;
      (** serve /proc reads for this instance's PIDs *)
}

type t

val create :
  pal:Pal.t ->
  cfg:Config.t ->
  callbacks:callbacks ->
  my_addr:string ->
  leader_addr:string ->
  make_leader:bool ->
  first_pid:int ->
  t
(** Starts the p2p rendezvous server and joins the sandbox broadcast.
    [first_pid] seeds the leader's PID namespace (leaders only). *)

val shutdown : t -> unit
val my_addr : t -> string
val set_my_pid : t -> int -> unit
val rpc_sent : t -> int

val retransmits : t -> int
(** Requests this instance re-sent after a timeout. *)

val snapshot : t -> string
(** A human-readable dump of this instance's live coordination state
    at the current virtual instant: leadership and epoch, owner/PID
    lease tables with remaining TTLs, dedup occupancy, owned SysV
    resources, and (on the leader) per-namespace ownership. Also
    registered with the kernel as this picoprocess's introspector —
    the body of [graphene top]. *)

(** {1 PID namespace (Table 2: Fork)} *)

val alloc_pid : t -> ((int, Errno.t) result -> unit) -> unit
(** From the local pool; refills from the leader in batches of
    {!Config.t.pid_batch}. *)

val register_pid_owner : t -> pid:int -> addr:string -> unit

(** {1 Signals (Table 2: Signaling)} *)

val send_signal :
  t -> to_pid:int -> signum:int -> from_pid:int -> ((unit, Errno.t) result -> unit) -> unit

(** {1 Exit notification and /proc} *)

val notify_exit : t -> parent_addr:string -> pid:int -> code:int -> unit
val read_proc : t -> pid:int -> field:string -> ((string, Errno.t) result -> unit) -> unit

(** {1 System V message queues} *)

val msgget : t -> key:int -> create:bool -> ((int * bool, Errno.t) result -> unit) -> unit
(** Continues with (id, created) — creation and lookup have very
    different costs (Table 7). *)

val msgsnd : t -> id:int -> data:string -> ((unit, Errno.t) result -> unit) -> unit
val msgrcv : t -> id:int -> ((string, Errno.t) result -> unit) -> unit
(** Blocking; may migrate ownership here after repeated receives. *)

val msgrm : t -> id:int -> ((unit, Errno.t) result -> unit) -> unit
val persist_owned_queues : t -> unit
(** At exit: owned queues with contents serialize to
    [/var/graphene/msgq/<id>] and reload on the next msgget (§4.2). *)

(** {1 System V semaphores} *)

val semget : t -> key:int -> init:int -> ((int * bool, Errno.t) result -> unit) -> unit

val semop :
  t -> ?nowait:bool -> id:int -> delta:int -> ((unit, Errno.t) result -> unit) -> unit
(** Negative [delta] acquires (blocking), positive releases (async to
    a known remote owner). [nowait] is IPC_NOWAIT: a would-block
    acquire answers [Error EAGAIN] instead of queueing — locally, and
    at a remote owner via the wire flag. *)

val semop_fast : t -> id:int -> delta:int -> bool
(** The shared-page fast path: try to complete [semop] as one atomic
    on the owner's published sem page. [true] means the op is done and
    the caller charges {!Graphene_sim.Cost.sem_fast_op}; [false] means
    nothing happened — contention, a cross-sandbox page, a stale or
    missing lease, or the knob off — and the caller must run {!semop}
    unchanged. Never blocks, so the contention plane's
    [sysv.wait.sem:*] accounting only ever sees the slow path
    (docs/WEB.md). *)

val semop_try : t -> id:int -> delta:int -> [ `Fast | `Again | `Slow ]
(** IPC_NOWAIT through the page: [`Fast] completed the op (charge
    {!Graphene_sim.Cost.sem_fast_op}); [`Again] is an authoritative
    guest-side EAGAIN — the page is live but the acquire would block
    or barge past queued waiters, and no RPC was sent; [`Slow] means
    the page cannot answer and the caller must run
    [semop ~nowait:true]. The trylock an event loop can afford:
    nginx's accept-mutex pattern (docs/WEB.md). *)

(** {1 Fork and sandbox support} *)

type inherited = {
  i_leader_addr : string;
  i_pid_range : (int * int) option;
  i_owner_cache : (int * string) list;
  i_pid_cache : (int * string) list;
}
(** The coordination state a child inherits through the checkpoint —
    pure data, serializable. *)

val snapshot_for_child : t -> inherited
val restore_inherited : t -> inherited -> unit

val become_isolated : t -> first_pid:int -> unit
(** After DkSandboxCreate: the instance is alone in a fresh sandbox —
    it becomes its own leader and forgets cross-sandbox state. *)

(** {1 Stress primitive} *)

val ping : t -> addr:string -> (unit -> unit) -> unit
(** A no-op RPC round trip — the Figure 5 ping-pong. *)
