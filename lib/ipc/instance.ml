(** One libOS's coordination engine: the IPC helper, the leader role,
    and the client paths for every multi-process abstraction
    (Table 2 of the paper).

    Each instance runs a pipe server named after its address
    ([pipe:pico.<addr>]); point-to-point RPC streams connect there and
    are cached. One instance per sandbox is the leader, which
    subdivides the PID and System V id namespaces in batches. RPC
    handlers answer strictly from local state (no recursive RPCs), and
    responses may be deferred (a receive on an empty queue answers when
    a message arrives), which keeps the helper deadlock-free.

    Failure handling: every request carries a per-sender sequence
    number; requests outstanding past {!rpc_timeout} are
    retransmitted with the same number under capped exponential
    backoff, and {!Wire.Dedup} suppresses re-execution at the handler.
    A dead leader is detected by connect failure, refused streams or
    timeout, and repaired by the broadcast election of §4.2. All
    errors are typed {!Graphene_core.Errno.t}. *)

open Graphene_sim
module Obs = Graphene_obs.Obs
module Audit = Graphene_obs.Audit
module K = Graphene_host.Kernel
module Stream = Graphene_host.Stream
module Pal = Graphene_pal.Pal
module Errno = Graphene_core.Errno
module Contend = Graphene_obs.Contend

(* {1 Timing constants}

   Every delay the failure-handling machinery waits on, and the
   migration and coalescing thresholds. No experiment varies them. *)

let migrate_threshold = 3  (* consecutive remote operations before ownership moves *)
let rpc_tries = 3  (* attempts per RPC before giving up (connect + response) *)

(* how long one attempt waits for a response before retransmitting it
   with the same sequence number (the handler side deduplicates) *)
let rpc_timeout = Time.ms 2.0
let backoff_base = Time.us 100.  (* first retransmission backoff; doubles per timeout *)
let backoff_cap = Time.ms 1.6

(* rendezvous-connect attempts, and the delay between them, while the
   peer's server may not be up yet *)
let connect_tries = 40
let connect_retry_delay = Time.us 50.

(* a candidate's wait for competing announcements; a non-winner's wait
   for the takeover before restarting the election; the delay before
   re-running an RPC whose leader died *)
let election_settle = Time.us 300.
let election_restart = Time.us 600.
let election_retry_delay = Time.ms 1.2

(* retries, and the delay between them, of operations answered EMOVED
   or ECONNREFUSED while ownership or leadership is in motion *)
let moved_tries = 10
let moved_retry_delay = Time.us 60.

(* wide enough that a guest-paced release burst (~1.5-2 us apart)
   lands several notes per window; well under the RPC timeout *)
let coalesce_window = Time.us 5.0

(* validity of a cached owner/pid resolution (a lease) from the moment
   it is cached, and the bound on each lease cache (oldest evicts) *)
let lease_ttl = Time.ms 50.
let lease_capacity = 512

type callbacks = {
  deliver_signal : signum:int -> from_pid:int -> to_pid:int -> bool;
      (** [false] if the target PID is not in this thread group *)
  on_exit_notification : pid:int -> code:int -> unit;
  proc_read : pid:int -> field:string -> (string, Errno.t) result;
}

(* A caller parked at an owner until its operation can complete: the
   owner's own continuation, or a peer's deferred request. *)
type 'a waiter =
  | Local of (('a, Errno.t) result -> unit)
  | Remote of { ep : K.handle Stream.endpoint; reqid : int; requester : string }

type msgq = {
  mq_id : int;
  mq_key : int;
  mutable contents : string list;  (** FIFO, head = oldest *)
  mutable rwaiters : string waiter list;
  recv_stats : (string, int) Hashtbl.t;
  mutable accessors : string list;  (** addresses to tell about deletion *)
}

type sem = {
  sm_id : int;
  sm_key : int;
  mutable count : int;
      (** the owner's mirror; with a published page the page is the
          single source of truth and this trails it *)
  mutable swaiters : unit waiter list;
  acq_stats : (string, int) Hashtbl.t;
  mutable page : K.sem_page option;
      (** the shared page this owner published (fast path on), revoked
          on migration/exit *)
}

(* Per-instance fast-path telemetry: fast vs slow acquires, and why
   each fallback fell back — the "sem fastpath" section of
   [graphene top]. *)
type fast_stats = {
  mutable fast_acquires : int;
  mutable fast_releases : int;
  mutable slow_acquires : int;
  mutable fall_no_page : int;
  mutable fall_cross_sandbox : int;
  mutable fall_stale_lease : int;
  mutable fall_contended : int;
  mutable fast_eagain : int;
      (** IPC_NOWAIT acquires the page answered EAGAIN for — contention
          resolved guest-side, no RPC and no queueing *)
  mutable sampled_tick : int;  (** fast ops since boot; drives audit sampling *)
}

type leader_state = {
  mutable next_pid : int;
  mutable pid_owners : (int * int * string) list;
  mutable next_rid : int;
  key_to_msgq : (int, int) Hashtbl.t;
  key_to_sem : (int, int) Hashtbl.t;
  res_owner : (int, string) Hashtbl.t;
  res_persisted : (int, unit) Hashtbl.t;
}

type t = {
  pal : Pal.t;
  cfg : Config.t;
  callbacks : callbacks;
  my_addr : string;
  mutable leader_addr : string;
  mutable leader : leader_state option;
  mutable pid_pool : (int * int) list;  (** owned ranges, allocated from front *)
  streams : (string, K.handle) Hashtbl.t;
  coord : Coord.t;
      (** the unified coordination table: SysV ownership (held), owner
          and PID leases (leased), and the election epoch — every
          namespace decision routes through it (docs/COORDINATION.md) *)
  mutable moved_hint : (int * string) option;
      (** the (id, holder) from the last [R_conflict] answer: the
          retry machinery re-aims at the holder immediately instead of
          invalidating and backing off *)
  coalesce_buf : (string, Wire.notification list ref) Hashtbl.t;
      (** peer addr -> notifications buffered while that peer's
          coalescing window is open (newest first) *)
  pending : (int, string option * (Wire.response -> unit)) Hashtbl.t;
  mutable next_req : int;
  dedup : Wire.Dedup.t;  (** receiver-side duplicate suppression *)
  msgqs : (int, msgq) Hashtbl.t;  (** queues owned here *)
  sems : (int, sem) Hashtbl.t;
  fp : fast_stats;  (** semaphore fast-path counters *)
  deleted : (int, unit) Hashtbl.t;  (** ids known deleted *)
  mutable rpc_sent : int;  (** telemetry *)
  mutable rpc_handled : int;
  mutable retransmits : int;
  mutable shutdown : bool;
  mutable my_pid : int;  (** guest PID, the election tie-breaker *)
  mutable electing : bool;
  mutable candidates : (int * string) list;
  mutable elected_leader : bool;
      (** won an election and has not yet served a request — the next
          one served closes the recovery interval *)
}

let persist_dir = "/var/graphene/msgq"
let persist_path id = Printf.sprintf "%s/%d" persist_dir id

let fresh_leader ~first_pid =
  { next_pid = first_pid;
    pid_owners = [];
    next_rid = 1;
    key_to_msgq = Hashtbl.create 16;
    key_to_sem = Hashtbl.create 16;
    res_owner = Hashtbl.create 16;
    res_persisted = Hashtbl.create 16 }

(* {1 The leader's rules}

   One copy of each namespace rule. A peer reaches them over the wire
   (the handlers below); the leader reaches them directly for its own
   calls ([ask_leader], [tell_leader]), at no wire cost. Only
   [leader_answer], [leader_note], the PID rules they share with the
   leader's own forks ([own_pids], [claim_pids]) and the crash reap
   ([leader_reap_peer]) write the tables. *)

let pid_owner ls pid =
  List.find_map (fun (lo, hi, addr) -> if pid >= lo && pid <= hi then Some addr else None)
    ls.pid_owners

(* PIDs [lo..hi] live at [addr]. *)
let own_pids ls lo hi addr = ls.pid_owners <- (lo, hi, addr) :: ls.pid_owners

(* Hand the next [count] PIDs to [requester]; the first of them. *)
let claim_pids ls ~count requester =
  let lo = ls.next_pid in
  ls.next_pid <- lo + count;
  own_pids ls lo (lo + count - 1) requester;
  lo

(* Who owns SysV [id] ([None] once reaped or persisted), and whether
   its queue waits on disk. *)
let resource_state ls id = (Hashtbl.find_opt ls.res_owner id, Hashtbl.mem ls.res_persisted id)

let resource_answer ls id ~created =
  let owner, persisted = resource_state ls id in
  Wire.R_resource { id; owner = Option.value ~default:"" owner; persisted; created }

(* Bind [key] in [keys] to a fresh id owned by [requester]. *)
let bind_key ls keys key requester =
  let id = ls.next_rid in
  ls.next_rid <- id + 1;
  Hashtbl.replace keys key id;
  Hashtbl.replace ls.res_owner id requester;
  Wire.R_resource { id; owner = requester; persisted = false; created = true }

(* The answer to every leader request (the others are not ours). *)
let leader_answer ls (req : Wire.request) =
  match req with
  | Pid_alloc { count; requester } ->
    let lo = claim_pids ls ~count requester in
    Wire.R_range { lo; hi = lo + count - 1 }
  | Pid_query { pid } -> Wire.R_owner { addr = pid_owner ls pid }
  | Res_query { id } -> resource_answer ls id ~created:false
  | Msgq_get { key; create; requester } -> (
    match Hashtbl.find_opt ls.key_to_msgq key with
    | Some id -> resource_answer ls id ~created:false
    | None when create -> bind_key ls ls.key_to_msgq key requester
    | None -> Wire.R_err Errno.ENOENT)
  | Sem_get { key; requester; _ } -> (
    match Hashtbl.find_opt ls.key_to_sem key with
    | Some id -> resource_answer ls id ~created:false
    | None -> bind_key ls ls.key_to_sem key requester)
  | Msgq_unbind { id } ->
    (* a removed queue frees its key: the next get under it creates *)
    Hashtbl.remove ls.res_owner id;
    Hashtbl.filter_map_inplace (fun _ q -> if q = id then None else Some q) ls.key_to_msgq;
    Wire.R_unit
  | Signal _ | Proc_read _ | Msgq_send _ | Msgq_recv _ | Msgq_rmid _ | Sem_op _
  | Wait_any_probe ->
    Wire.R_err Errno.EPROTO

(* Apply a leader note (the others are not ours). *)
let leader_note ls (n : Wire.notification) =
  match n with
  | Owner_update { id; addr; _ } ->
    Hashtbl.replace ls.res_owner id addr;
    (* a reloaded persistent queue is live again *)
    Hashtbl.remove ls.res_persisted id
  | Range_owned { lo; hi; addr } -> own_pids ls lo hi addr
  | Msgq_persisted { id } ->
    Hashtbl.replace ls.res_persisted id ();
    Hashtbl.remove ls.res_owner id
  | State_report { addr; pid; ranges; resources } ->
    ls.pid_owners <-
      ((pid, pid, addr) :: List.map (fun (lo, hi) -> (lo, hi, addr)) ranges) @ ls.pid_owners;
    List.iter (fun id -> Hashtbl.replace ls.res_owner id addr) resources;
    let hwm = List.fold_left (fun a (_, hi) -> max a hi) pid ranges in
    ls.next_pid <- max ls.next_pid (hwm + 1)
  | Exit_notify _ | Msgq_send_async _ | Sem_release_async _ | Msgq_deleted _
  | Leader_candidate _ | Leader_elected _ | Batch _ ->
    ()

(* A member's slice of the namespace, for a new leader to rebuild from. *)
let state_report t =
  Wire.State_report
    { addr = t.my_addr;
      pid = t.my_pid;
      ranges = t.pid_pool;
      resources =
        Hashtbl.fold (fun id _ acc -> id :: acc) t.msgqs
          (Hashtbl.fold (fun id _ acc -> id :: acc) t.sems []) }

let kernel t = Pal.kernel t.pal
let vnow t = K.now (kernel t)

let obs_count t name =
  let tracer = (kernel t).K.tracer in
  if Obs.enabled tracer then Obs.count tracer name

(* Audit events are attributed to the host picoprocess, like trace
   events. *)
let audit t cat ~action args =
  K.audit_emit (kernel t) cat ~action ~pid:(Pal.pico t.pal).K.pid ~args ()

(* {1 The coordination observer}

   The one instrumentation choke point: every Coord transition arrives
   here, and this single function decides what becomes an obs counter
   (the ipc.lease.* / ipc.coord.* families) and what becomes an audit
   event (the lease / migration / election categories the invariant
   monitors check). It replaces the per-resource hook registrations
   (lease counter hooks, lease audit hooks, ad-hoc ownership audit
   shims) this file used to carry. *)

let cache_of_ns = function Coord.Sysv -> "owner" | Coord.Pid -> "pid"

(* Lease hits fire on every owner-cached call: build a counter name or
   an audit payload only when its sink is on. *)
let lease_count t ns what =
  let tracer = (kernel t).K.tracer in
  if Obs.enabled tracer then Obs.count tracer ("ipc.lease." ^ cache_of_ns ns ^ "." ^ what)

let audit_lease t ns action key =
  if Audit.enabled (kernel t).K.audit then
    audit t Audit.Lease ~action
      (("cache", Obs.Astr (cache_of_ns ns))
      :: (match key with Some k -> [ ("key", Obs.Aint k) ] | None -> []))

let res_arg tag key = ("res", Obs.Astr (Printf.sprintf "%s:%d" tag key))

let coord_event t = function
  | Coord.Acquire { ns; kind = Coord.Leased; key; _ } -> audit_lease t ns "acquire" (Some key)
  | Coord.Acquire { kind = Coord.Held; key; owner; tag; _ } ->
    (* an ownership transition of a SysV resource: the single-owner
       invariant is checked over exactly these events *)
    audit t Audit.Migration ~action:"own" [ res_arg tag key; ("addr", Obs.Astr owner) ]
  | Coord.Use { ns; kind = Coord.Leased; key; _ } ->
    lease_count t ns "hit";
    audit_lease t ns "use" (Some key)
  | Coord.Use { kind = Coord.Held; _ } -> ()  (* authoritative hits are free *)
  | Coord.Miss { ns; _ } -> lease_count t ns "miss"
  | Coord.Expire { ns; key } ->
    lease_count t ns "expire";
    audit_lease t ns "expire" (Some key)
  | Coord.Evict { ns; key } ->
    lease_count t ns "evict";
    audit_lease t ns "evict" (Some key)
  | Coord.Invalidate { ns; key } ->
    lease_count t ns "invalidate";
    audit_lease t ns "invalidate" (Some key)
  | Coord.Release { key; owner; tag; _ } ->
    audit t Audit.Migration ~action:"disown" [ res_arg tag key; ("addr", Obs.Astr owner) ]
  | Coord.Conflict_detected { ns; key; requester; conflict } ->
    obs_count t "ipc.coord.conflict";
    audit t Audit.Migration ~action:"conflict"
      [ res_arg (cache_of_ns ns) key;
        ("requester", Obs.Astr requester);
        ("holder", Obs.Astr conflict.Coord.holder);
        ("epoch", Obs.Aint conflict.Coord.epoch) ]
  | Coord.Sweep { reason; ns; dropped } -> (
    obs_count t "ipc.coord.sweep";
    match reason with
    | Coord.Peer_death _ -> ()  (* per-key invalidations already reported *)
    | Coord.Epoch_change | Coord.Isolation | Coord.Owner_exit ->
      for _ = 1 to dropped do
        lease_count t ns "invalidate"
      done;
      (* one flush event for the whole sweep; the invariant monitor
         kills every live lease of this cache wholesale *)
      if dropped > 0 then audit_lease t ns "flush" None)
  | Coord.Epoch_bump { epoch } ->
    audit t Audit.Election ~action:"epoch" [ ("epoch", Obs.Aint epoch) ]
  | Coord.Stall { ns; _ } -> lease_count t ns "stall"

(* Leased lookups gate on the owner-caching knob, so with caching off
   the lease layer neither answers nor counts. Held state (local SysV
   ownership) is maintained regardless — it is authority, not cache —
   but the callers below consult their own msgq/sem tables first, so
   the gate only ever silences the cache. *)
let coord_check t ns key =
  if t.cfg.Config.cache_owners then Coord.check t.coord ~now:(vnow t) ~ns ~key else None

let coord_lease t ns key owner =
  if t.cfg.Config.cache_owners then
    ignore (Coord.acquire t.coord ~now:(vnow t) ~ns ~key ~owner ())

let coord_own t tag key =
  ignore
    (Coord.acquire t.coord ~now:(vnow t) ~ns:Coord.Sysv ~key ~owner:t.my_addr ~kind:Coord.Held
       ~tag ())

let coord_disown t key = ignore (Coord.release t.coord ~ns:Coord.Sysv ~key)

(* An operation reached us for a resource we no longer hold. With a
   live forwarding lease (left behind when ownership migrated away)
   the answer is the one typed conflict shape — holder + epoch — so
   the requester re-aims and retries directly; otherwise the legacy
   errno the four call sites used. *)
let moved_response t ~origin id fallback =
  if t.cfg.Config.cache_owners then
    match
      Coord.conflict_answer t.coord ~now:(vnow t) ~ns:Coord.Sysv ~key:id ~requester:origin
    with
    | Some c when c.Coord.holder <> t.my_addr ->
      Wire.R_conflict { holder = c.Coord.holder; epoch = c.Coord.epoch }
    | _ -> Wire.R_err fallback
  else Wire.R_err fallback

(* Client side of the conflict answer: re-aim the lease at the named
   holder and remember the hint so [with_retry] skips the blind
   invalidate-and-backoff for this one retry. *)
let note_conflict t id holder =
  coord_lease t Coord.Sysv id holder;
  t.moved_hint <- Some (id, holder)

(* {1 Contention accounting}

   Every blocking edge this layer creates — an RPC in flight, a
   semantic SysV wait, a retry backoff, an election settling — is
   reported to the kernel's contention plane under a stable resource
   key (docs/CONTENTION.md). All recorders are one branch while the
   plane is disabled. *)

let contend t = (kernel t).K.contend
let host_pid t = (Pal.pico t.pal).K.pid
let sysv_res kind id = Printf.sprintf "sysv.wait.%s:%d" kind id

(* Wait-for edges need a holder pid. Addresses resolve through the
   registry instances populate at creation; our own address yields no
   holder (a self-edge would read as a cycle). *)
let holder_of_addr t addr =
  if addr = t.my_addr then None else Contend.pid_of_addr (contend t) addr

(* The holder of a SysV resource, best effort and purely
   observational: a locally-owned resource has no foreign holder, an
   unexpired owner lease names one, and otherwise the holder is
   unknown (the leader will arbitrate). Uses [Coord.peek] so the
   lookup never perturbs the lease lifecycle the audit plane checks. *)
let holder_of_resource t id =
  if Hashtbl.mem t.sems id || Hashtbl.mem t.msgqs id then None
  else if not t.cfg.Config.cache_owners then None
  else
    match Coord.peek t.coord ~now:(vnow t) ~ns:Coord.Sysv ~key:id with
    | Some a -> holder_of_addr t a
    | None -> None

(* {1 Shared-page coherence (owner side)}

   With a published page, the page is the single source of truth for
   the semaphore's value: same-sandbox fast-path ops mutate it behind
   the owner's back, so every owner-side read goes through [sem_value]
   and every owner-side write through [set_sem_value] (which keeps the
   mirror and the page in lock step). The waiter count is advisory —
   it only ever forces fallers onto the slow path — and is re-synced
   at every owner-side queue mutation. *)

let sem_value s = match s.page with Some p when p.K.sp_valid -> p.K.sp_value | _ -> s.count

let set_sem_value s v =
  s.count <- v;
  match s.page with Some p -> p.K.sp_value <- v | None -> ()

let sync_sem_waiters s =
  match s.page with Some p -> p.K.sp_waiters <- List.length s.swaiters | None -> ()

let my_addr t = t.my_addr
let is_leader t = t.leader <> None
let rpc_sent t = t.rpc_sent
let retransmits t = t.retransmits

let ep_of_handle h =
  match h.K.obj with
  | K.Hstream ep -> ep
  | _ -> invalid_arg "Instance: not a stream handle"

(* One sequence counter numbers requests AND notifications, so
   (my_addr, seq) is globally unique across everything we emit — the
   receiver's dedup key. *)
let next_seq t =
  t.next_req <- t.next_req + 1;
  t.next_req

(* {1 Sending} *)

(* GRAPHENE_IPC_DEBUG traces every message to stderr; read once. *)
let debug = Sys.getenv_opt "GRAPHENE_IPC_DEBUG" <> None

(* Marshal + host write; the kernel adds the stream's one-way latency.
   Every message sent here is coordination traffic, so it opts into the
   active fault plan. *)
let send_env ?(ctx = 0) t ep env =
  let data = Wire.encode ~ctx env in
  if debug then Printf.eprintf "[ipc %s] sending %s ep=%d t=%d\n%!" t.my_addr (Wire.describe env) ep.Stream.id (K.now (kernel t));
  (* marshal + write cost delays delivery, but the message claims its
     place in the stream order now — an exiting peer's EOF cannot
     overtake it *)
  let cost = Time.add (Time.us 0.8) (Time.add Cost.host_write_base (Cost.copy_cost (String.length data))) in
  (try K.stream_send ~extra:cost ~faultable:true (kernel t) ep data
   with K.Denied e -> if debug then Printf.eprintf "[ipc %s] send failed %s\n%!" t.my_addr e)

let respond t ep reqid resp = send_env t ep (Wire.Resp (reqid, resp))

(* A response to a request we executed (now or deferred): record it so
   retransmissions of the same request replay it instead of
   re-executing the handler. *)
let respond_executed t ep ~origin ~reqid resp =
  Wire.Dedup.finish_request t.dedup ~origin ~seq:reqid resp;
  respond t ep reqid resp

(* {1 Owner rules}

   One copy of each queue and semaphore rule, shared by the owner's
   own calls and the handlers that answer its peers. Each rule is a
   take, which answers at once when it can, and a park: a caller builds
   its waiter only when the take says it has to wait, so an answer
   that does not wait allocates nothing. *)

(* Answer a parked caller; [wire] encodes a success for a peer. *)
let wake t w r ~wire =
  match w with
  | Local k -> k r
  | Remote { ep; reqid; requester } ->
    respond_executed t ep ~origin:requester ~reqid
      (match r with Ok v -> wire v | Error e -> Wire.R_err e)

let msg_response data = Wire.R_msg { data }

let enqueue t q data =
  match q.rwaiters with
  | [] -> q.contents <- q.contents @ [ data ]
  | w :: rest ->
    q.rwaiters <- rest;
    Contend.queue_sample (contend t) ~resource:(sysv_res "msgq" q.mq_id)
      ~depth:(List.length rest);
    wake t w (Ok data) ~wire:msg_response

(* The receive rule: take the oldest message. The cell taken off the
   queue ([m :: _]) answers at once; [[]] means the caller waits, and
   it parks with [park_reader]. *)
let msgq_take q =
  match q.contents with
  | _ :: rest as taken ->
    q.contents <- rest;
    taken
  | [] -> []

let park_reader t q w =
  q.rwaiters <- q.rwaiters @ [ w ];
  Contend.queue_sample (contend t) ~resource:(sysv_res "msgq" q.mq_id)
    ~depth:(List.length q.rwaiters)

let sem_release t s delta =
  set_sem_value s (sem_value s + delta);
  let rec wake_all woke =
    match s.swaiters with
    | w :: rest when sem_value s > 0 ->
      s.swaiters <- rest;
      sync_sem_waiters s;
      set_sem_value s (sem_value s - 1);
      wake t w (Ok ()) ~wire:(fun () -> Wire.R_unit);
      wake_all true
    | _ -> woke
  in
  if wake_all false then
    Contend.queue_sample (contend t) ~resource:(sysv_res "sem" s.sm_id)
      ~depth:(List.length s.swaiters)

(* The semaphore rule: apply a release, or take a unit for an acquire.
   [`Again] answers a would-block acquire under IPC_NOWAIT; on [`Wait]
   the caller parks with [park_acquirer]. *)
let sem_take t s ~delta ~nowait =
  if delta >= 0 then begin
    sem_release t s delta;
    `Done
  end
  else if sem_value s > 0 then begin
    set_sem_value s (sem_value s - 1);
    `Done
  end
  else if nowait then `Again
  else `Wait

let park_acquirer t s w =
  s.swaiters <- s.swaiters @ [ w ];
  sync_sem_waiters s;
  Contend.queue_sample (contend t) ~resource:(sysv_res "sem" s.sm_id)
    ~depth:(List.length s.swaiters)

let note_accessor q addr = if not (List.mem addr q.accessors) then q.accessors <- addr :: q.accessors

(* One more operation by [requester] on a resource we own: [true] when
   the resource should migrate to it. *)
let grants_ownership t stats requester =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt stats requester) in
  Hashtbl.replace stats requester n;
  t.cfg.Config.migrate_ownership && n >= migrate_threshold

(* Requests an owner may park: a queue receive, a semaphore acquire. *)
let may_block = function
  | Wire.Msgq_recv _ -> true
  | Wire.Sem_op { delta; _ } -> delta < 0
  | _ -> false

(* The answer to a queue operation that reached us without the queue. *)
let queue_absent t ~origin id =
  if Hashtbl.mem t.deleted id then Wire.R_err Errno.EIDRM
  else moved_response t ~origin id Errno.EMOVED

(* {1 The helper pump} *)

(* The leader's half of a crash sweep. A peer's SysV resources live in
   its address space, so they die with it: when its stream drops, the
   namespace must stop naming it as owner — otherwise every
   re-resolution hands survivors a fresh lease on a corpse, and the
   bounded retry loop spins to EAGAIN instead of answering EIDRM. The
   key mapping dies with the binding, so a later get under the same key
   creates a fresh resource; persisted queues keep theirs — the next
   open reloads them from disk under a new owner. The reap is audited
   as a "disown" on the dead owner's behalf, closing the single-owner
   invariant's books the way an orderly migration would have. *)
(* Long enough for a dying peer's last notifications (a few helper
   dispatches) to drain from its other streams, short against any
   guest-visible timescale. *)
let reap_grace = Time.us 200.

let leader_reap_peer t addr =
  match t.leader with
  | None -> ()
  | Some ls ->
    let dead =
      Hashtbl.fold
        (fun id a acc -> if String.equal a addr then id :: acc else acc)
        ls.res_owner []
    in
    let reap_keys tbl id =
      let keys = Hashtbl.fold (fun key v acc -> if v = id then key :: acc else acc) tbl [] in
      List.iter (Hashtbl.remove tbl) keys;
      keys <> []
    in
    List.iter
      (fun id ->
        Hashtbl.remove ls.res_owner id;
        if not (Hashtbl.mem ls.res_persisted id) then begin
          let tag =
            if reap_keys ls.key_to_sem id then "sem"
            else if reap_keys ls.key_to_msgq id then "msgq"
            else "res"
          in
          obs_count t "ipc.coord.reap";
          audit t Audit.Migration ~action:"disown"
            [ res_arg tag id; ("addr", Obs.Astr addr) ]
        end)
      (List.sort compare dead)

let rec pump ?addr t ep =
  K.stream_recv_msg (kernel t) ep (function
    | None ->
      if debug then
        Printf.eprintf "[ipc %s] pump EOF ep=%d closed=%b t=%d\n%!" t.my_addr ep.Stream.id
          (Stream.is_closed ep) (K.now (kernel t));
      (* the peer is gone: drop the cached stream and fail every
         request still waiting on it (the caller's retry machinery —
         EMOVED handling, leader election — takes over) *)
      (match addr with
      | Some a ->
        Hashtbl.remove t.streams a;
        let stale =
          Hashtbl.fold
            (fun id (target, k) acc -> if target = Some a then (id, k) :: acc else acc)
            t.pending []
        in
        List.iter
          (fun (id, k) ->
            Hashtbl.remove t.pending id;
            k (Wire.R_err Errno.ECONNREFUSED))
          stale;
        (* crash sweep: every lease naming the dead peer is now a
           misroute waiting to happen — drop them all at once rather
           than letting each one fail (and heal) individually *)
        if not t.shutdown then begin
          Coord.sweep t.coord ~now:(vnow t) ~reason:(Coord.Peer_death a);
          (* the namespace reap waits out a short grace: a peer keeps
             several streams, and this EOF can beat the exit-time
             notifications (queue persists, owner updates) still
             draining on another one. Leases above are only caches —
             dropping them early just costs a re-resolve — but the
             reap is authoritative, so it re-reads the table after the
             stragglers had time to land *)
          K.after (kernel t) reap_grace (fun () ->
              if not t.shutdown then leader_reap_peer t a)
        end
      | None -> ())
    | Some msg ->
      (* helper occupancy, queue side: how long the message sat
         delivered-but-unread (the stream stamps each chunk with its
         delivery instant), and how deep the mailbox still is *)
      let cd = contend t in
      if Contend.enabled cd then begin
        let res = "ipc.helper:" ^ string_of_int (host_pid t) in
        let queued = max 0 (Time.diff (K.now (kernel t)) (Stream.last_stamp ep)) in
        Contend.service cd ~resource:res ~queue_ns:queued ~service_ns:Time.zero;
        Contend.queue_sample cd ~resource:res ~depth:(Stream.inbox_msgs ep)
      end;
      (* helper wakeup + decode *)
      K.after (kernel t) Cost.helper_dispatch (fun () ->
          let decoded = if t.shutdown then None else Wire.decode msg in
          (match decoded with
          | Some (env, ctx) -> handle t ep env ~ctx
          | None -> ());
          (* an accepted stream starts anonymous; the first request
             names its origin, and from then on an EOF here is that
             peer's death — the server side of the crash sweep *)
          let addr =
            match (addr, decoded) with
            | Some _, _ -> addr
            | None, Some (Wire.Req { origin; _ }, _)
            | None, Some (Wire.Oneway { origin; _ }, _) ->
              Some origin
            | None, _ -> None
          in
          pump ?addr t ep))

and handle t ep env ~ctx =
  if debug then
    Printf.eprintf "[ipc %s] handling %s t=%d shutdown=%b\n%!" t.my_addr (Wire.describe env)
      (K.now (kernel t)) t.shutdown;
  t.rpc_handled <- t.rpc_handled + 1;
  match env with
  | Wire.Resp (id, resp) -> (
    (* a duplicated or replayed response finds no pending entry and
       falls through — client-side dedup is the pending table itself *)
    match Hashtbl.find_opt t.pending id with
    | Some (_, k) ->
      Hashtbl.remove t.pending id;
      k resp
    | None -> ())
  | Wire.Req { seq; origin; req } -> (
    match Wire.Dedup.begin_request t.dedup ~origin ~seq with
    | `Drop -> count_dup t
    | `Replay resp ->
      count_dup t;
      respond t ep seq resp
    | `Execute ->
      let t0 = K.now (kernel t) in
      K.after (kernel t) Cost.rpc_handler (fun () ->
          if not t.shutdown then begin
            handler_trace t ~label:("rpc:" ^ Wire.req_label req) ~ctx ~t0;
            handle_request t ep ~origin seq req
          end))
  | Wire.Oneway { seq; origin; note = n } ->
    if Wire.Dedup.seen_oneway t.dedup ~origin ~seq then count_dup t
    else begin
      let t0 = K.now (kernel t) in
      K.after (kernel t) Cost.rpc_handler (fun () ->
          if not t.shutdown then begin
            handler_trace t ~label:("oneway:" ^ Wire.notification_label n) ~ctx ~t0;
            handle_notification t n
          end)
    end

and count_dup t =
  let tracer = (kernel t).K.tracer in
  if Obs.enabled tracer then Obs.count tracer "ipc.dups_suppressed"

(* Handler-side trace: a span covering the dispatch cost, plus the
   terminating "f" of the sender's flow so the viewer draws the arrow
   from the originating span (possibly in another picoprocess) into
   this handler slice. Flow events bind by (name, id), so [label] must
   be byte-identical to the sender's flow_start name. *)
and handler_trace t ~label ~ctx ~t0 =
  let tracer = (kernel t).K.tracer in
  if Obs.enabled tracer then begin
    let pid = (Pal.pico t.pal).K.pid in
    Obs.span tracer Obs.Ipc ~name:("handle:" ^ label) ~pid ~start:t0
      ~dur:(Time.diff (K.now (kernel t)) t0) ();
    if ctx <> 0 then Obs.flow_end tracer ~name:label ~id:ctx ~pid t0
  end;
  (* helper occupancy, service side: pairs with the queue-side record
     in [pump] to give utilization (service/elapsed) vs saturation *)
  let cd = contend t in
  if Contend.enabled cd then
    Contend.service cd
      ~resource:("ipc.helper:" ^ string_of_int (host_pid t))
      ~queue_ns:Time.zero
      ~service_ns:(max 0 (Time.diff (K.now (kernel t)) t0))

(* {1 Client-side stream management} *)

and with_stream t addr k =
  match Hashtbl.find_opt t.streams addr with
  | Some h when Stream.connected (ep_of_handle h) && not (Stream.is_closed (ep_of_handle h)) ->
    k (Ok h)
  | _ ->
    Hashtbl.remove t.streams addr;
    (* ENOENT means the target's helper has not created its rendezvous
       server yet (it may still be restoring after fork); retry with
       backoff rather than failing a race *)
    let rec attempt tries =
      Pal.stream_open t.pal ("pipe:pico." ^ addr) ~write:true ~create:false (function
        | Ok h ->
          (* pump our side so responses and peer requests reach us *)
          pump ~addr t (ep_of_handle h);
          if t.cfg.Config.cache_p2p then Hashtbl.replace t.streams addr h;
          k (Ok h)
        | Error Errno.ENOENT when tries > 0 && not t.shutdown ->
          K.after (kernel t) connect_retry_delay (fun () -> attempt (tries - 1))
        | Error e -> k (Error e))
    in
    attempt connect_tries

and rpc t ~addr req k = rpc_attempt t ~addr ~tries:rpc_tries req k

and rpc_attempt t ~addr ~tries req k =
  if debug then
    Printf.eprintf "[ipc %s] rpc to %s\n%!" t.my_addr addr;
  (* the leader died (or is unreachable): elect a replacement over the
     broadcast stream, then retry against whoever won *)
  let retry_after_election () =
    join_election t;
    K.after (kernel t) election_retry_delay (fun () ->
        rpc_attempt t ~addr:t.leader_addr ~tries:(tries - 1) req k)
  in
  with_stream t addr (fun res ->
      match res with
      | Error _ when addr = t.leader_addr && tries > 0 && not t.shutdown ->
        retry_after_election ()
      | Error e ->
        if debug then
          Printf.eprintf "[ipc %s] connect to %s failed: %s\n%!" t.my_addr addr
            (Errno.to_string e);
        k (Wire.R_err e)
      | Ok h ->
        let id = next_seq t in
        t.rpc_sent <- t.rpc_sent + 1;
        let t0 = K.now (kernel t) in
        let tracer = (kernel t).K.tracer in
        let label = "rpc:" ^ Wire.req_label req in
        let pid = (Pal.pico t.pal).K.pid in
        (* flow id doubles as the wire trace context; 0 = untraced *)
        let flow = if Obs.enabled tracer then Obs.fresh_flow tracer else 0 in
        if Obs.enabled tracer then begin
          Obs.count tracer "ipc.rpcs";
          Obs.flow_start tracer ~name:label ~id:flow ~pid t0;
          Obs.async_begin tracer Obs.Ipc ~name:label ~id:flow ~pid t0
        end;
        let cd = contend t in
        (* the in-flight request window, sampled at issue and completion *)
        let mailbox = "ipc.mailbox:" ^ string_of_int pid in
        Contend.queue_sample cd ~resource:mailbox ~depth:(Hashtbl.length t.pending + 1);
        (* a request that may legitimately block server-side is
           accounted by its semantic wrapper under sysv.wait.* —
           recording the RPC too would tell the same blocked
           nanoseconds twice under two names *)
        let wtok =
          if Contend.enabled cd && not (may_block req) then
            Some
              (Contend.wait_start cd ~pid
                 ~resource:("ipc.wait." ^ Wire.req_label req)
                 ?holder:(holder_of_addr t addr) t0)
          else None
        in
        let finish resp =
          (match wtok with
          | Some tok -> Contend.wait_end cd tok (K.now (kernel t))
          | None -> ());
          Contend.queue_sample cd ~resource:mailbox ~depth:(Hashtbl.length t.pending);
          if Obs.enabled tracer then begin
            let dur = Time.diff (K.now (kernel t)) t0 in
            Obs.span tracer Obs.Ipc ~name:label ~pid
              ~args:[ ("peer", Obs.Astr addr) ]
              ~start:t0 ~dur ();
            Obs.async_end tracer Obs.Ipc ~name:label ~id:flow ~pid (K.now (kernel t));
            Obs.observe tracer ("ipc.rtt." ^ Wire.req_label req) (float_of_int dur)
          end;
          if not t.cfg.Config.cache_p2p then begin
            Hashtbl.remove t.streams addr;
            Pal.stream_close t.pal h (fun _ -> ())
          end;
          (* a transient failure of a leader RPC is grounds for an
             election retry, not an error to the caller *)
          match resp with
          | Wire.R_err ((Errno.ECONNREFUSED | Errno.ETIMEDOUT | Errno.ENOTLEADER) as e)
            when addr = t.leader_addr && tries > 0 && not t.shutdown ->
            ignore e;
            retry_after_election ()
          | resp -> k resp
        in
        let env = Wire.Req { seq = id; origin = t.my_addr; req } in
        let resend () =
          match Hashtbl.find_opt t.streams addr with
          | Some h' -> send_env ~ctx:flow t (ep_of_handle h') env
          | None -> send_env ~ctx:flow t (ep_of_handle h) env
        in
        Hashtbl.replace t.pending id (Some addr, finish);
        send_env ~ctx:flow t (ep_of_handle h) env;
        arm_timeout t ~id ~req ~resend)

(* Per-request timeout: while (id) is still pending after rpc_timeout
   (+ backoff), retransmit with the same sequence number — the handler
   side deduplicates, so retries are idempotent. Requests that may
   legitimately block server-side (queue receives, semaphore acquires)
   are never failed by the timer: they get their [rpc_tries]
   retransmissions against message loss and then wait, bounded, so a
   quiescent-but-blocked workload still lets the engine go idle. *)
and arm_timeout t ~id ~req ~resend =
  let tracer = (kernel t).K.tracer in
  let rec arm n backoff =
    K.after (kernel t) (Time.add rpc_timeout backoff) (fun () ->
        if Hashtbl.mem t.pending id && not t.shutdown then begin
          if n < rpc_tries then begin
            t.retransmits <- t.retransmits + 1;
            if Obs.enabled tracer then Obs.count tracer "ipc.retransmits";
            resend ();
            let doubled = Time.add backoff backoff in
            let next = if doubled = 0 then backoff_base else min doubled backoff_cap in
            arm (n + 1) next
          end
          else if not (may_block req) then begin
            match Hashtbl.find_opt t.pending id with
            | Some (_, finish) ->
              Hashtbl.remove t.pending id;
              if Obs.enabled tracer then Obs.count tracer "ipc.timeouts";
              finish (Wire.R_err Errno.ETIMEDOUT)
            | None -> ()
          end
        end)
  in
  arm 1 Time.zero

(* Send coalescing (loss-tolerant classes only): the first notification
   of a burst to a peer goes out immediately and opens that peer's
   coalescing window; followers arriving within the window buffer and
   leave as one [Wire.Batch] wire message when it closes. Only
   semaphore releases and exit notifications coalesce — both tolerate
   loss (waiter-timeout retry, synthesized exit events), so a dropped
   batch is recovered exactly like a dropped singleton. Async queue
   sends never coalesce: Table 7 measures their one-way latency. *)
and oneway t ~addr n =
  match n with
  | Wire.Sem_release_async _ | Wire.Exit_notify _ ->
    (match Hashtbl.find_opt t.coalesce_buf addr with
    | Some buf ->
      buf := n :: !buf;
      obs_count t "ipc.coalesced"
    | None ->
      oneway_now t ~addr n;
      Hashtbl.replace t.coalesce_buf addr (ref []);
      K.after (kernel t) coalesce_window (fun () -> flush_coalesced t ~addr))
  | _ -> oneway_now t ~addr n

and flush_coalesced t ~addr =
  match Hashtbl.find_opt t.coalesce_buf addr with
  | None -> ()
  | Some buf ->
    Hashtbl.remove t.coalesce_buf addr;
    (match List.rev !buf with
    | [] -> ()
    | [ n ] -> oneway_now t ~addr n
    | notes ->
      obs_count t "ipc.batches";
      oneway_now t ~addr (Wire.Batch notes))

and oneway_now t ~addr n =
  with_stream t addr (fun res ->
      match res with
      | Error _ -> ()
      | Ok h ->
        t.rpc_sent <- t.rpc_sent + 1;
        let tracer = (kernel t).K.tracer in
        let label = "oneway:" ^ Wire.notification_label n in
        let flow = if Obs.enabled tracer then Obs.fresh_flow tracer else 0 in
        if Obs.enabled tracer then begin
          let pid = (Pal.pico t.pal).K.pid in
          Obs.count tracer "ipc.oneway";
          Obs.instant tracer Obs.Ipc ~name:label ~pid
            ~args:[ ("peer", Obs.Astr addr) ]
            (K.now (kernel t));
          Obs.flow_start tracer ~name:label ~id:flow ~pid (K.now (kernel t))
        end;
        send_env ~ctx:flow t (ep_of_handle h)
          (Wire.Oneway { seq = next_seq t; origin = t.my_addr; note = n }))

(* {1 Request handling} *)

and handle_request t ep ~origin reqid req =
  (* a freshly elected leader serving its first request closes the
     recovery interval the kill-leader fault opened *)
  if t.elected_leader then begin
    t.elected_leader <- false;
    K.note_recovery (kernel t)
  end;
  (* only ever tail-called, so it compiles to a jump, not a closure *)
  let reply r = respond_executed t ep ~origin ~reqid r in
  match req with
  | Wire.Pid_alloc _ | Wire.Pid_query _ | Wire.Res_query _ | Wire.Msgq_get _ | Wire.Sem_get _
  | Wire.Msgq_unbind _ -> (
    match t.leader with
    | Some ls -> reply (leader_answer ls req)
    | None -> reply (Wire.R_err Errno.ENOTLEADER))
  | Wire.Signal { to_pid; signum; from_pid } ->
    if t.callbacks.deliver_signal ~signum ~from_pid ~to_pid then reply Wire.R_unit
    else reply (Wire.R_err Errno.ESRCH)
  | Wire.Proc_read { pid; field } -> (
    match t.callbacks.proc_read ~pid ~field with
    | Ok s -> reply (Wire.R_str s)
    | Error e -> reply (Wire.R_err e))
  | Wire.Msgq_send { id; data } -> (
    match Hashtbl.find_opt t.msgqs id with
    | None -> reply (queue_absent t ~origin id)
    | Some q ->
      enqueue t q data;
      reply Wire.R_unit)
  | Wire.Msgq_recv { id; requester } -> (
    match Hashtbl.find_opt t.msgqs id with
    | None -> reply (queue_absent t ~origin id)
    | Some q ->
      note_accessor q requester;
      if grants_ownership t q.recv_stats requester then begin
        (* grant ownership: answer the receive and ship the rest; a
           forwarding lease stays behind so later operations that
           still reach us get the typed conflict answer *)
        let data, rest =
          match q.contents with [] -> (None, []) | m :: rest -> (Some m, rest)
        in
        Hashtbl.remove t.msgqs id;
        coord_disown t id;
        coord_lease t Coord.Sysv id requester;
        notify_leader_owner t `Msgq id requester;
        reply (Wire.R_msg_migrate { data; contents = rest })
      end
      else begin
        match msgq_take q with
        | m :: _ -> reply (Wire.R_msg { data = m })
        | [] -> park_reader t q (Remote { ep; reqid; requester })
      end)
  | Wire.Msgq_rmid { id } -> (
    match Hashtbl.find_opt t.msgqs id with
    | None -> reply (queue_absent t ~origin id)
    | Some q ->
      delete_queue t q;
      reply Wire.R_unit)
  | Wire.Sem_op { id; delta; requester; nowait } -> (
    match Hashtbl.find_opt t.sems id with
    | None -> reply (moved_response t ~origin id Errno.EMOVED)
    | Some s ->
      if delta < 0 && grants_ownership t s.acq_stats requester && sem_value s > 0
         && s.swaiters = []
      then begin
        (* the acquire succeeds and the semaphore moves to the
           frequent acquirer; a forwarding lease stays behind. The
           shared page is revoked first: a fast-path op must never
           land between the grant and the new owner's republish *)
        let v = sem_value s in
        (match s.page with
        | Some p -> K.sem_page_invalidate (kernel t) ~sandbox:p.K.sp_sandbox ~id
        | None -> ());
        s.page <- None;
        Hashtbl.remove t.sems id;
        coord_disown t id;
        coord_lease t Coord.Sysv id requester;
        notify_leader_owner t `Sem id requester;
        reply (Wire.R_sem_migrate { count = v - 1 })
      end
      else begin
        match sem_take t s ~delta ~nowait with
        | `Done -> reply Wire.R_unit
        | `Again -> reply (Wire.R_err Errno.EAGAIN)
        | `Wait -> park_acquirer t s (Remote { ep; reqid; requester })
      end)
  | Wire.Wait_any_probe -> reply Wire.R_unit

and handle_notification t n =
  match n with
  | Wire.Exit_notify { pid; code } -> t.callbacks.on_exit_notification ~pid ~code
  | Wire.Msgq_send_async { id; data } -> (
    match Hashtbl.find_opt t.msgqs id with
    | Some q -> enqueue t q data
    | None -> () (* racing with deletion/migration: dropped, per §4.2 *))
  | Wire.Sem_release_async { id; delta } -> (
    match Hashtbl.find_opt t.sems id with
    | Some s -> sem_release t s delta
    | None -> () (* racing with migration: the release is retried by
                    the waiter timeout path, like dropped queue sends *))
  | Wire.Batch notes ->
    (* a coalesced burst: apply in send order *)
    List.iter (fun n -> handle_notification t n) notes
  | Wire.Msgq_deleted { id } ->
    Hashtbl.replace t.deleted id ();
    ignore (Coord.invalidate t.coord ~ns:Coord.Sysv ~key:id)
  | Wire.Owner_update _ | Wire.Range_owned _ | Wire.Msgq_persisted _ | Wire.State_report _ -> (
    match t.leader with
    | Some ls -> leader_note ls n
    | None -> ())
  | Wire.Leader_candidate { pid; addr } ->
    if not (List.mem (pid, addr) t.candidates) then t.candidates <- (pid, addr) :: t.candidates;
    if not t.electing then join_election t
  | Wire.Leader_elected { pid; addr; epoch } ->
    if addr = t.my_addr then begin
      t.electing <- false;
      t.candidates <- []
    end
    else if is_leader t && t.my_pid < pid then
      (* diverged candidate sets (message loss) produced a second,
         higher-PID winner: reassert — lowest PID wins *)
      broadcast_oneway t
        (Wire.Leader_elected
           { pid = t.my_pid; addr = t.my_addr; epoch = Coord.epoch t.coord })
    else begin
      (* if we also claimed leadership from a diverged candidate set,
         the lower PID wins and we demote ourselves *)
      if is_leader t && t.my_pid > pid then begin
        t.leader <- None;
        t.elected_leader <- false
      end;
      t.electing <- false;
      t.candidates <- [];
      t.leader_addr <- addr;
      (* adopt the announcement's epoch; max with ours so a delayed
         duplicate of an old announcement can never move us backwards.
         The epoch bump sweeps the whole coordination table: any cached
         resolution may point at the dead leader's world, and a stale
         lease must never misroute a signal *)
      Coord.adopt_epoch t.coord ~now:(vnow t) epoch;
      audit t Audit.Election ~action:"adopt"
        [ ("leader", Obs.Astr addr); ("leader_pid", Obs.Aint pid) ];
      (* help the new leader rebuild its tables *)
      oneway t ~addr (state_report t)
    end

(* {1 Asking the leader}

   The leader answers its own calls with the functions that answer its
   peers: directly when this instance leads, over the wire otherwise. *)

and ask_leader t req k =
  match t.leader with
  | Some ls -> k (leader_answer ls req)
  | None -> rpc t ~addr:t.leader_addr req k

and tell_leader t note =
  match t.leader with
  | Some ls -> leader_note ls note
  | None -> oneway t ~addr:t.leader_addr note

and notify_leader_owner t resource id addr =
  tell_leader t (Wire.Owner_update { resource; id; addr })

(* {1 Leader recovery (paper §4.2, "Leader Recovery")}

   On detecting the leader's death (a failed connect, a refused
   stream, or a timed-out request), members run a simple consensus
   over the broadcast stream: every reachable member announces its
   candidacy and, after a settling window, the lowest process ID wins.
   The new leader reconstructs the namespace tables from State_report
   messages ("leader state can be reconstructed by querying each
   picoprocess in the sandbox"). Under message loss the candidate sets
   can diverge; competing Leader_elected announcements converge on the
   lowest PID (see {!handle_notification}). *)

and broadcast_oneway t n =
  let tracer = (kernel t).K.tracer in
  let label = "bcast:" ^ Wire.notification_label n in
  let flow = if Obs.enabled tracer then Obs.fresh_flow tracer else 0 in
  if Obs.enabled tracer then begin
    let pid = (Pal.pico t.pal).K.pid in
    Obs.count tracer "ipc.broadcast";
    Obs.instant tracer Obs.Ipc ~name:label ~pid (K.now (kernel t));
    Obs.flow_start tracer ~name:label ~id:flow ~pid (K.now (kernel t))
  end;
  K.broadcast_send (kernel t) (Pal.pico t.pal)
    (Wire.encode ~ctx:flow (Wire.Oneway { seq = next_seq t; origin = t.my_addr; note = n }))

and join_election t =
  if (not t.electing) && not t.shutdown then begin
    t.electing <- true;
    if not (List.mem (t.my_pid, t.my_addr) t.candidates) then
      t.candidates <- (t.my_pid, t.my_addr) :: t.candidates;
    audit t Audit.Election ~action:"candidate" [ ("pid", Obs.Aint t.my_pid) ];
    broadcast_oneway t (Wire.Leader_candidate { pid = t.my_pid; addr = t.my_addr });
    let t0 = vnow t in
    K.after (kernel t) election_settle (fun () ->
        (* the settle window is dead time every participant pays *)
        Contend.record_wait (contend t) ~pid:(host_pid t)
          ~resource:"ipc.wait.election:settle" ~start:t0 (vnow t);
        conclude_election t)
  end

and conclude_election t =
  if t.electing && not t.shutdown then begin
    let winner =
      List.fold_left
        (fun acc c -> match acc with None -> Some c | Some (p, _) when fst c < p -> Some c | _ -> acc)
        None t.candidates
    in
    match winner with
    | Some (pid, addr) when addr = t.my_addr ->
      (* we won: become leader with reconstructed state *)
      t.electing <- false;
      t.candidates <- [];
      t.leader <- Some (fresh_leader ~first_pid:(t.my_pid + 1000));
      t.leader_addr <- t.my_addr;
      t.elected_leader <- true;
      let epoch = Coord.advance_epoch t.coord ~now:(vnow t) in
      audit t Audit.Election ~action:"elected" [ ("pid", Obs.Aint pid) ];
      K.note_leader (kernel t) (Pal.pico t.pal);
      (* adopt our own state directly *)
      tell_leader t (state_report t);
      broadcast_oneway t (Wire.Leader_elected { pid; addr; epoch })
    | _ ->
      (* wait for the winner's announcement a little longer; if it
         never comes (it also died, or its candidacy was dropped on the
         wire), restart with a fresh candidacy broadcast *)
      K.after (kernel t) election_restart (fun () ->
          if t.electing then begin
            t.electing <- false;
            t.candidates <- [];
            join_election t
          end)
  end

(* The owner removes a queue: every parked receiver gets EIDRM and
   every known accessor hears of it. The key is the remover's to free
   ([msgrm]), so no handler ever calls the leader. *)
and delete_queue t q =
  Hashtbl.remove t.msgqs q.mq_id;
  coord_disown t q.mq_id;
  Hashtbl.replace t.deleted q.mq_id ();
  List.iter (fun w -> wake t w (Error Errno.EIDRM) ~wire:msg_response) q.rwaiters;
  q.rwaiters <- [];
  List.iter (fun addr -> oneway t ~addr (Wire.Msgq_deleted { id = q.mq_id })) q.accessors

(* {1 Introspection (graphene top)} *)

(* A live snapshot of this instance's coordination state, rendered at
   whatever virtual instant it is asked for. Pure observation. *)
let snapshot t =
  let b = Buffer.create 512 in
  let pico = Pal.pico t.pal in
  let now = vnow t in
  Buffer.add_string b
    (Printf.sprintf "instance %s (host pid %d, guest pid %d, sandbox %d)%s\n" t.my_addr
       pico.K.pid t.my_pid pico.K.sandbox
       (if is_leader t then " [leader]" else ""));
  Buffer.add_string b
    (Printf.sprintf "  leader %s  epoch %d  rpc %d sent / %d handled  dedup %d keys / %d suppressed\n"
       t.leader_addr (Coord.epoch t.coord) t.rpc_sent t.rpc_handled
       (Wire.Dedup.length t.dedup) (Wire.Dedup.suppressed t.dedup));
  Buffer.add_string b
    (Printf.sprintf "  pid pool: %s\n"
       (if t.pid_pool = [] then "-"
        else
          String.concat ", "
            (List.map (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi) t.pid_pool)));
  let lease_table name ns =
    Buffer.add_string b
      (Printf.sprintf "  %s leases (%d):\n" name (Coord.leased_count t.coord ~ns));
    List.iter
      (fun (k, v, remaining) ->
        Buffer.add_string b
          (Printf.sprintf "    %d -> %s  ttl %dns\n" k v remaining))
      (Coord.entries t.coord ~now ~ns)
  in
  lease_table "owner" Coord.Sysv;
  lease_table "pid" Coord.Pid;
  let ids tbl = Hashtbl.fold (fun id _ acc -> id :: acc) tbl [] |> List.sort compare in
  Buffer.add_string b
    (Printf.sprintf "  owned: msgq [%s]  sem [%s]\n"
       (String.concat ", " (List.map string_of_int (ids t.msgqs)))
       (String.concat ", " (List.map string_of_int (ids t.sems))));
  Buffer.add_string b
    (Printf.sprintf
       "  sem fastpath: %s  fast %d/%d (acq/rel)  eagain %d  slow %d  fallback [no_page %d, cross_sandbox %d, stale_lease %d, contended %d]\n"
       (if t.cfg.Config.sem_fastpath then "on" else "off")
       t.fp.fast_acquires t.fp.fast_releases t.fp.fast_eagain t.fp.slow_acquires
       t.fp.fall_no_page t.fp.fall_cross_sandbox t.fp.fall_stale_lease t.fp.fall_contended);
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sems []
  |> List.sort (fun a b -> compare a.sm_id b.sm_id)
  |> List.iter (fun s ->
         match s.page with
         | Some p ->
           Buffer.add_string b
             (Printf.sprintf "    sem %d: value %d  waiters %d  page[fast %d/%d, sandbox %d%s]\n"
                s.sm_id (sem_value s) (List.length s.swaiters) p.K.sp_fast_acquires
                p.K.sp_fast_releases p.K.sp_sandbox
                (if p.K.sp_valid then "" else ", revoked"))
         | None ->
           Buffer.add_string b
             (Printf.sprintf "    sem %d: value %d  waiters %d  (no page)\n" s.sm_id
                (sem_value s) (List.length s.swaiters)));
  (match t.leader with
  | None -> ()
  | Some ls ->
    Buffer.add_string b
      (Printf.sprintf "  namespace (leader view): next pid %d, next rid %d\n" ls.next_pid
         ls.next_rid);
    List.iter
      (fun (lo, hi, addr) ->
        Buffer.add_string b (Printf.sprintf "    pids %d-%d @ %s\n" lo hi addr))
      (List.sort compare ls.pid_owners);
    Hashtbl.fold (fun id addr acc -> (id, addr) :: acc) ls.res_owner []
    |> List.sort compare
    |> List.iter (fun (id, addr) ->
           Buffer.add_string b (Printf.sprintf "    resource %d @ %s\n" id addr)));
  Buffer.contents b

(* {1 Construction} *)

let create ~pal ~cfg ~callbacks ~my_addr ~leader_addr ~make_leader ~first_pid =
  let t =
    { pal;
      cfg;
      callbacks;
      my_addr;
      leader_addr;
      leader = (if make_leader then Some (fresh_leader ~first_pid) else None);
      pid_pool = [];
      streams = Hashtbl.create 8;
      coord = Coord.create ~capacity:lease_capacity ~ttl:lease_ttl;
      moved_hint = None;
      coalesce_buf = Hashtbl.create 4;
      pending = Hashtbl.create 8;
      next_req = 0;
      dedup = Wire.Dedup.create ();
      msgqs = Hashtbl.create 8;
      sems = Hashtbl.create 8;
      fp =
        { fast_acquires = 0;
          fast_releases = 0;
          slow_acquires = 0;
          fall_no_page = 0;
          fall_cross_sandbox = 0;
          fall_stale_lease = 0;
          fall_contended = 0;
          fast_eagain = 0;
          sampled_tick = 0 };
      deleted = Hashtbl.create 8;
      rpc_sent = 0;
      rpc_handled = 0;
      retransmits = 0;
      shutdown = false;
      my_pid = first_pid - 1;
      electing = false;
      candidates = [];
      elected_leader = false }
  in
  (* single instrumentation choke point: every coordination event —
     lease lifecycle, ownership moves, conflicts, sweeps, epoch bumps —
     flows through one observer into the counters and the audit plane,
     attributed to this instance *)
  Coord.observe t.coord (coord_event t);
  K.register_introspector (kernel t) ~pid:(Pal.pico pal).K.pid (fun () -> snapshot t);
  (* identity for the wait-for graph: waits name their holder by wire
     address; this registry turns it back into a host pid *)
  Contend.register_addr (kernel t).K.contend ~addr:my_addr ~pid:(Pal.pico pal).K.pid;
  if make_leader then K.note_leader (kernel t) (Pal.pico pal);
  (* the p2p rendezvous server every other instance connects to *)
  Pal.stream_open pal ("pipe.srv:pico." ^ my_addr) ~write:true ~create:true (function
    | Ok server ->
      let rec accept_loop () =
        if not t.shutdown then
          Pal.stream_wait_for_client pal server (function
            | Ok h ->
              pump t (ep_of_handle h);
              accept_loop ()
            | Error _ -> ())
      in
      accept_loop ()
    | Error e ->
      failwith ("Instance.create: cannot create p2p server: " ^ Errno.to_string e));
  K.broadcast_join (kernel t) (Pal.pico pal) ~handler:(fun msg ->
      match Wire.decode msg with
      | Some (Wire.Oneway { seq; origin; note = n }, ctx) ->
        if Wire.Dedup.seen_oneway t.dedup ~origin ~seq then count_dup t
        else begin
          let t0 = K.now (kernel t) in
          K.after (kernel t) Cost.helper_dispatch (fun () ->
              if not t.shutdown then begin
                let tracer = (kernel t).K.tracer in
                let label = "bcast:" ^ Wire.notification_label n in
                if Obs.enabled tracer then begin
                  let pid = (Pal.pico pal).K.pid in
                  Obs.span tracer Obs.Ipc ~name:("handle:" ^ label) ~pid ~start:t0
                    ~dur:(Time.diff (K.now (kernel t)) t0) ();
                  (* a broadcast fans out: each receiver is a "t" step of
                     the sender's flow, none terminates it *)
                  if ctx <> 0 then Obs.flow_step tracer ~name:label ~id:ctx ~pid t0
                end;
                handle_notification t n
              end)
        end
      | _ -> ());
  t

(* Drain every open coalescing window before going quiet: a buffered
   exit notification must not die with the instance (the kernel's
   synthesized exit event would cover it, but slower). *)
let shutdown t =
  let addrs = Hashtbl.fold (fun addr _ acc -> addr :: acc) t.coalesce_buf [] in
  List.iter (fun addr -> flush_coalesced t ~addr) addrs;
  t.shutdown <- true;
  (* revoke every shared sem page we published — the fast path dies
     with its owner's authority (the kernel also revokes by publisher
     pid on exit; an orderly shutdown just beats it to the punch) *)
  Hashtbl.iter
    (fun id s ->
      match s.page with
      | Some p ->
        K.sem_page_invalidate (kernel t) ~sandbox:p.K.sp_sandbox ~id;
        s.page <- None
      | None -> ())
    t.sems;
  (* the same crash-sweep lifecycle as a peer death, driven from the
     exiting side: no entry of ours survives the instance *)
  Coord.sweep t.coord ~now:(vnow t) ~reason:Coord.Owner_exit

(* {1 PID namespace} *)

(* Allocate one PID: from the local pool if possible, otherwise fetch a
   batch from the leader (batch size is the §4.3 knob). The leader
   claims its own batch with the rule that answers [Pid_alloc], and
   builds neither the request nor the reply: forks are the hot path. *)
let rec alloc_pid t k =
  match t.pid_pool with
  | (lo, hi) :: rest ->
    t.pid_pool <- (if lo + 1 <= hi then (lo + 1, hi) :: rest else rest);
    k (Ok lo)
  | [] -> (
    let count = max 1 t.cfg.Config.pid_batch in
    match t.leader with
    | Some ls ->
      let lo = claim_pids ls ~count t.my_addr in
      t.pid_pool <- [ (lo, lo + count - 1) ];
      alloc_pid t k
    | None ->
      rpc t ~addr:t.leader_addr (Wire.Pid_alloc { count; requester = t.my_addr }) (function
        | Wire.R_range { lo; hi } ->
          t.pid_pool <- t.pid_pool @ [ (lo, hi) ];
          alloc_pid t k
        | Wire.R_err e -> k (Error e)
        | _ -> k (Error Errno.EPROTO)))

(* Carve off half of the local pool for a forked child, so the child
   can itself fork without consulting the leader. *)
let donate_pid_range t =
  match t.pid_pool with
  | (lo, hi) :: rest when hi > lo ->
    let mid = (lo + hi) / 2 in
    t.pid_pool <- (lo, mid) :: rest;
    Some (mid + 1, hi)
  | _ -> None

(* [tell_leader t (Range_owned {lo; hi; addr})], without building the
   note when this instance leads: every fork sends one. *)
let announce_pids t lo hi addr =
  match t.leader with
  | Some ls -> own_pids ls lo hi addr
  | None -> oneway t ~addr:t.leader_addr (Wire.Range_owned { lo; hi; addr })

let adopt_pid_range t (lo, hi) =
  t.pid_pool <- t.pid_pool @ [ (lo, hi) ];
  announce_pids t lo hi t.my_addr

(* fork tells the leader where the child PID itself lives, since the
   child's thread group is at the child *)
let register_pid_owner t ~pid ~addr = announce_pids t pid pid addr

(* {1 Signals} *)

let resolve_pid t pid k =
  match coord_check t Coord.Pid pid with
  | Some addr ->
    (* a valid lease answers locally for one hash-probe's worth of time *)
    K.after (kernel t) Cost.lease_probe (fun () -> k (Some addr))
  | None -> (
    match t.leader with
    | Some ls -> k (pid_owner ls pid)  (* our own table: no lease, no stall *)
    | None ->
      let t0 = vnow t in
      rpc t ~addr:t.leader_addr (Wire.Pid_query { pid }) (fun resp ->
          if t.cfg.Config.cache_owners then
            Coord.note_stall t.coord ~ns:Coord.Pid (max 0 (Time.diff (vnow t) t0));
          match resp with
          | Wire.R_owner { addr = Some addr } ->
            coord_lease t Coord.Pid pid addr;
            k (Some addr)
          | _ -> k None))

let send_signal t ~to_pid ~signum ~from_pid k =
  resolve_pid t to_pid (function
    | None -> k (Error Errno.ESRCH)
    | Some addr ->
      if addr = t.my_addr then
        if t.callbacks.deliver_signal ~signum ~from_pid ~to_pid then k (Ok ())
        else k (Error Errno.ESRCH)
      else
        rpc t ~addr (Wire.Signal { to_pid; signum; from_pid }) (function
          | Wire.R_unit -> k (Ok ())
          | Wire.R_err e ->
            ignore (Coord.invalidate t.coord ~ns:Coord.Pid ~key:to_pid);
            k (Error e)
          | _ -> k (Error Errno.EPROTO)))

(* {1 Exit notification and /proc} *)

let notify_exit t ~parent_addr ~pid ~code =
  if parent_addr <> "" && parent_addr <> t.my_addr then
    oneway t ~addr:parent_addr (Wire.Exit_notify { pid; code })

let read_proc t ~pid ~field k =
  resolve_pid t pid (function
    | None -> k (Error Errno.ESRCH)
    | Some addr ->
      if addr = t.my_addr then k (t.callbacks.proc_read ~pid ~field)
      else
        rpc t ~addr (Wire.Proc_read { pid; field }) (function
          | Wire.R_str s -> k (Ok s)
          | Wire.R_err e -> k (Error e)
          | _ -> k (Error Errno.EPROTO)))

(* {1 System V message queues} *)

let new_local_queue t ~id ~key =
  let q =
    { mq_id = id;
      mq_key = key;
      contents = [];
      rwaiters = [];
      recv_stats = Hashtbl.create 4;
      accessors = [] }
  in
  Hashtbl.replace t.msgqs id q;
  coord_own t "msgq" id;
  q

(* Load a queue another (exited) owner serialized to disk, becoming
   the new owner (paper §4.2, non-concurrent sharing). *)
let load_persistent_queue t ~id ~key k =
  Pal.stream_open t.pal ("file:" ^ persist_path id) ~write:false ~create:false (function
    | Error e -> k (Error e)
    | Ok h ->
      Pal.stream_read t.pal h ~off:0 ~max:(16 * 1024 * 1024) (function
        | Error e -> k (Error e)
        | Ok data ->
          Pal.stream_close t.pal h (fun _ -> ());
          Pal.stream_delete t.pal ("file:" ^ persist_path id) (fun _ -> ());
          let contents : string list = try Marshal.from_string data 0 with _ -> [] in
          let q = new_local_queue t ~id ~key in
          q.contents <- contents;
          notify_leader_owner t `Msgq id t.my_addr;
          k (Ok ())))

(* [k (Ok (id, created))]: [created] distinguishes queue creation from
   lookup, which have very different costs (Table 7). *)
let msgget t ~key ~create k =
  ask_leader t (Wire.Msgq_get { key; create; requester = t.my_addr }) (function
    | Wire.R_resource { id; persisted = true; _ } ->
      load_persistent_queue t ~id ~key (function
        | Ok () -> k (Ok (id, false))
        | Error e -> k (Error e))
    | Wire.R_resource { id; owner; created; _ } ->
      if owner = t.my_addr && not (Hashtbl.mem t.msgqs id) then
        ignore (new_local_queue t ~id ~key);
      if owner <> "" then coord_lease t Coord.Sysv id owner;
      k (Ok (id, created))
    | Wire.R_err e -> k (Error e)
    | _ -> k (Error Errno.EPROTO))

(* Resolve a SysV id to (owner, persisted). The cache only short-cuts
   the owner; persistence is always re-checked at the leader when the
   owner is unknown or unreachable. *)
let resolve_resource t id k =
  match coord_check t Coord.Sysv id with
  | Some addr -> K.after (kernel t) Cost.lease_probe (fun () -> k (Some addr, false))
  | None -> (
    match t.leader with
    | Some ls -> k (resource_state ls id)  (* our own table: no lease, no stall *)
    | None ->
      (* a lease miss turned into a blocking round trip: account the
         stall against the cache that failed to answer *)
      let t0 = vnow t in
      rpc t ~addr:t.leader_addr (Wire.Res_query { id }) (fun resp ->
          if t.cfg.Config.cache_owners then
            Coord.note_stall t.coord ~ns:Coord.Sysv (max 0 (Time.diff (vnow t) t0));
          match resp with
          | Wire.R_resource { owner = ""; persisted; _ } -> k (None, persisted)
          | Wire.R_resource { owner; persisted; _ } ->
            coord_lease t Coord.Sysv id owner;
            k (Some owner, persisted)
          | _ -> k (None, false)))

(* Retry an operation whose owner moved, died, or persisted: drop the
   cached owner, give in-flight leader updates a moment to land, and
   re-resolve — bounded, so a truly dead resource still errors out. *)
let with_retry t ~id op k =
  let rec attempt tries =
    op (function
      | Error e
        when Errno.(equal e EMOVED || equal e ECONNREFUSED) && tries > 0 && not t.shutdown -> (
        match t.moved_hint with
        | Some (hid, _) when hid = id ->
          (* a typed conflict answer already re-aimed our lease at the
             new holder: retry immediately, no invalidation, no blind
             backoff *)
          t.moved_hint <- None;
          attempt (tries - 1)
        | _ ->
          ignore (Coord.invalidate t.coord ~ns:Coord.Sysv ~key:id);
          let t0 = vnow t in
          K.after (kernel t) moved_retry_delay (fun () ->
              (* the backoff is blocked time charged to the retry path,
                 not to the resource that moved *)
              Contend.record_wait (contend t) ~pid:(host_pid t) ~resource:"ipc.wait.retry"
                ~start:t0 (vnow t);
              attempt (tries - 1)))
      | r -> k r)
  in
  attempt moved_tries

(* The failure answers an owner gives every operation: the resource
   moved (re-aim at the named holder, and [with_retry] goes again), or
   the operation failed. *)
let owner_failure t id resp k =
  match resp with
  | Wire.R_conflict { holder; _ } ->
    note_conflict t id holder;
    k (Error Errno.EMOVED)
  | Wire.R_err e -> k (Error e)
  | _ -> k (Error Errno.EPROTO)

(* The semantic wait of a blocking operation on [kind:id], from the
   call to its answer, whether it parked here or at a remote owner. The inner
   RPC skips its own wait record for may-block requests, so the edge
   is counted exactly once, under the resource's name. [k] is wrapped
   only while the contention plane is on. *)
let contended t ~kind ~id k =
  let cd = contend t in
  if not (Contend.enabled cd) then k
  else
    let tok =
      Contend.wait_start cd ~pid:(host_pid t) ~resource:(sysv_res kind id)
        ?holder:(holder_of_resource t id) (vnow t)
    in
    fun r ->
      Contend.wait_end cd tok (vnow t);
      k r

let rec msgsnd t ~id ~data k = with_retry t ~id (msgsnd_once t ~id ~data) k

and msgsnd_once t ~id ~data k =
  if Hashtbl.mem t.deleted id then k (Error Errno.EIDRM)
  else
    match Hashtbl.find_opt t.msgqs id with
    | Some q ->
      enqueue t q data;
      k (Ok ())
    | None ->
      resolve_resource t id (fun (owner, persisted) ->
          match owner with
          | None when persisted ->
            load_persistent_queue t ~id ~key:0 (function
              | Ok () -> msgsnd_once t ~id ~data k
              | Error e -> k (Error e))
          | None -> k (Error Errno.EIDRM)
          | Some addr when addr = t.my_addr ->
            (* stale: we are recorded owner but have no queue (deleted) *)
            k (Error Errno.EIDRM)
          | Some addr ->
            if t.cfg.Config.async_send && Hashtbl.mem t.streams addr then begin
              (* the existence and location are known and the stream is
                 established: assume success (§4.2: the only failure is
                 a concurrent delete, and then the message is treated
                 as sent after the deletion) *)
              oneway t ~addr (Wire.Msgq_send_async { id; data });
              k (Ok ())
            end
            else
              (* first contact is synchronous: it establishes the
                 point-to-point stream later sends fire along *)
              rpc t ~addr (Wire.Msgq_send { id; data }) (function
                | Wire.R_unit -> k (Ok ())
                | resp -> owner_failure t id resp k))

let rec msgrcv t ~id k =
  with_retry t ~id (msgrcv_once t ~id) (contended t ~kind:"msgq" ~id k)

and msgrcv_once t ~id k =
  if Hashtbl.mem t.deleted id then k (Error Errno.EIDRM)
  else
    match Hashtbl.find_opt t.msgqs id with
    | Some q -> (
      match msgq_take q with
      | m :: _ -> k (Ok m)
      | [] -> park_reader t q (Local k))
    | None ->
      resolve_resource t id (fun (owner, persisted) ->
          match owner with
          | None when persisted ->
            load_persistent_queue t ~id ~key:0 (function
              | Ok () -> msgrcv_once t ~id k
              | Error e -> k (Error e))
          | None -> k (Error Errno.EIDRM)
          | Some addr when addr = t.my_addr -> k (Error Errno.EIDRM)
          | Some addr ->
            rpc t ~addr (Wire.Msgq_recv { id; requester = t.my_addr }) (function
              | Wire.R_msg { data } -> k (Ok data)
              | Wire.R_msg_migrate { data; contents } ->
                (* we are the owner now; the Held acquire inside
                   new_local_queue drops any stale lease atomically *)
                let q = new_local_queue t ~id ~key:0 in
                q.contents <- contents;
                notify_leader_owner t `Msgq id t.my_addr;
                (match data with
                | Some m -> k (Ok m)
                | None -> msgrcv_once t ~id k)
              | resp -> owner_failure t id resp k))

(* Whoever removes a queue marks the id deleted here and has the
   leader free its key before the call returns. The request comes from
   this client, never from the owner's handler (§4.1). *)
let msgrm t ~id k =
  let removed () =
    Hashtbl.replace t.deleted id ();
    ask_leader t (Wire.Msgq_unbind { id }) (fun _ -> k (Ok ()))
  in
  if Hashtbl.mem t.deleted id then k (Error Errno.EIDRM)
  else
    match Hashtbl.find_opt t.msgqs id with
    | Some q ->
      delete_queue t q;
      removed ()
    | None ->
      resolve_resource t id (fun (owner, _persisted) ->
          match owner with
          | None -> k (Error Errno.EIDRM)
          | Some addr ->
            rpc t ~addr (Wire.Msgq_rmid { id }) (function
              | Wire.R_unit -> removed ()
              | resp -> owner_failure t id resp k))

(* On exit, owned queues with contents survive as files ("a common
   file naming scheme to serialize message queues to disk"). *)
let persist_owned_queues t =
  let owned = Hashtbl.fold (fun _ q acc -> q :: acc) t.msgqs [] in
  List.iter
    (fun q ->
      if q.contents <> [] then begin
        let data = Marshal.to_string q.contents [] in
        Pal.directory_create t.pal ("dir:" ^ persist_dir) (fun _ -> ());
        Pal.stream_open t.pal ("file:" ^ persist_path q.mq_id) ~write:true ~create:true
          (function
          | Ok h ->
            Pal.stream_write t.pal h ~off:0 data (fun _ -> ());
            Pal.stream_close t.pal h (fun _ -> ());
            tell_leader t (Wire.Msgq_persisted { id = q.mq_id })
          | Error _ -> ())
      end;
      Hashtbl.remove t.msgqs q.mq_id;
      coord_disown t q.mq_id)
    owned

(* {1 System V semaphores} *)

let new_local_sem t ~id ~key ~count =
  let page =
    if t.cfg.Config.sem_fastpath then
      Some
        (K.sem_page_publish (kernel t) ~id ~owner:t.my_addr ~pid:(host_pid t)
           ~sandbox:(Pal.pico t.pal).K.sandbox ~value:count)
    else None
  in
  let s =
    { sm_id = id; sm_key = key; count; swaiters = []; acq_stats = Hashtbl.create 4; page }
  in
  Hashtbl.replace t.sems id s;
  coord_own t "sem" id;
  s

let semget t ~key ~init k =
  ask_leader t (Wire.Sem_get { key; init; requester = t.my_addr }) (function
    | Wire.R_resource { id; owner; created; _ } ->
      if owner = t.my_addr && not (Hashtbl.mem t.sems id) then
        ignore (new_local_sem t ~id ~key ~count:init);
      if owner <> "" then coord_lease t Coord.Sysv id owner;
      k (Ok (id, created))
    | Wire.R_err e -> k (Error e)
    | _ -> k (Error Errno.EPROTO))

(* Same shape as [msgrcv]: an acquire ([delta < 0]) is the blocking
   edge, charged to the semaphore whether it blocks locally or at the
   remote owner. Releases never block and are not recorded.
   [nowait] is IPC_NOWAIT: a would-block acquire answers EAGAIN
   instead of queueing, locally and over the wire alike. *)
let rec semop t ?(nowait = false) ~id ~delta k =
  if delta < 0 then t.fp.slow_acquires <- t.fp.slow_acquires + 1;
  let k = if delta < 0 && not nowait then contended t ~kind:"sem" ~id k else k in
  with_retry t ~id (semop_once t ~nowait ~id ~delta) k

and semop_once t ~nowait ~id ~delta k =
  match Hashtbl.find_opt t.sems id with
  | Some s -> (
    match sem_take t s ~delta ~nowait with
    | `Done -> k (Ok ())
    | `Again -> k (Error Errno.EAGAIN)
    | `Wait -> park_acquirer t s (Local k))
  | None ->
    resolve_resource t id (fun (owner, _persisted) ->
        match owner with
        | None -> k (Error Errno.EIDRM)
        | Some addr when addr = t.my_addr -> k (Error Errno.EIDRM)
        | Some addr when delta >= 0 && t.cfg.Config.async_send && Hashtbl.mem t.streams addr ->
          (* a release cannot fail once the semaphore's location is
             known: fire and forget, like asynchronous queue sends *)
          oneway t ~addr (Wire.Sem_release_async { id; delta });
          k (Ok ())
        | Some addr ->
          rpc t ~addr (Wire.Sem_op { id; delta; requester = t.my_addr; nowait }) (function
            | Wire.R_unit -> k (Ok ())
            | Wire.R_sem_migrate { count } ->
              (* the Held acquire inside new_local_sem drops any stale
                 lease atomically *)
              ignore (new_local_sem t ~id ~key:0 ~count);
              notify_leader_owner t `Sem id t.my_addr;
              k (Ok ())
            | resp -> owner_failure t id resp k))

(* {1 The shared-page fast path}

   An uncontended [semop] as one atomic on the owner's published page —
   no RPC, no blocking, no continuation. The caller (libLinux) charges
   {!Cost.sem_fast_op} on [true]; on [false] nothing happened and the
   slow path above runs unchanged. Four gates, each with its own
   fallback counter:

   - a live page exists for the id ([no_page]);
   - the page's sandbox is ours — the fast path never crosses an
     isolation boundary ([cross_sandbox]);
   - authority: we own the semaphore, or a live Coord lease names the
     page's recorded owner ([stale_lease]). The lease check emits the
     same Use events the lease-validity monitor audits;
   - nobody is queued at the owner and an acquire would not go
     negative ([contended]) — queued waiters are never barged past,
     which keeps wakeup ordering exactly the slow path's FIFO. *)

let sem_fast_sample = 32

let fast_authority t p ~id =
  if p.K.sp_owner = t.my_addr then Hashtbl.mem t.sems id
  else
    match coord_check t Coord.Sysv id with
    | Some addr -> addr = p.K.sp_owner
    | None -> false

(* The shared attempt: [`Fast] completed the op on the page;
   [`Contended] means the page is live and authoritative but the op
   would block or barge (the caller decides between slow fallback and
   an honest EAGAIN); [`Slow] means the page cannot answer at all. *)
let sem_fast_attempt t ~id ~delta =
  if (not t.cfg.Config.sem_fastpath) || t.shutdown then `Slow
  else
    match K.sem_page_lookup (kernel t) ~sandbox:(Pal.pico t.pal).K.sandbox ~id with
    | None ->
      t.fp.fall_no_page <- t.fp.fall_no_page + 1;
      obs_count t "ipc.sem.fallback.no_page";
      `Slow
    | Some p ->
    if p.K.sp_sandbox <> (Pal.pico t.pal).K.sandbox then begin
      t.fp.fall_cross_sandbox <- t.fp.fall_cross_sandbox + 1;
      obs_count t "ipc.sem.fallback.cross_sandbox";
      `Slow
    end
    else if not (fast_authority t p ~id) then begin
      t.fp.fall_stale_lease <- t.fp.fall_stale_lease + 1;
      obs_count t "ipc.sem.fallback.stale_lease";
      `Slow
    end
    else if p.K.sp_waiters > 0 || (delta < 0 && p.K.sp_value + delta < 0) then
      `Contended
    else begin
      p.K.sp_value <- p.K.sp_value + delta;
      (* keep the owner's mirror honest when the owner is us *)
      (match Hashtbl.find_opt t.sems id with
      | Some s -> s.count <- p.K.sp_value
      | None -> ());
      if delta < 0 then begin
        p.K.sp_fast_acquires <- p.K.sp_fast_acquires + 1;
        t.fp.fast_acquires <- t.fp.fast_acquires + 1;
        obs_count t "ipc.sem.fast_acquire"
      end
      else begin
        p.K.sp_fast_releases <- p.K.sp_fast_releases + 1;
        t.fp.fast_releases <- t.fp.fast_releases + 1;
        obs_count t "ipc.sem.fast_release"
      end;
      (* sampled audit (first op, then every [sem_fast_sample]th): the
         single-owner monitor cross-checks the page's recorded owner
         against the own/disown history without paying per-op audit
         cost at memory-op frequencies *)
      t.fp.sampled_tick <- t.fp.sampled_tick + 1;
      if t.fp.sampled_tick = 1 || t.fp.sampled_tick mod sem_fast_sample = 0 then
        audit t Audit.Migration ~action:"fast_op"
          [ res_arg "sem" id;
            ("addr", Obs.Astr p.K.sp_owner);
            ("value", Obs.Aint p.K.sp_value);
            ("ops", Obs.Aint t.fp.sampled_tick) ];
      `Fast
    end

let semop_fast t ~id ~delta =
  match sem_fast_attempt t ~id ~delta with
  | `Fast -> true
  | `Contended ->
    t.fp.fall_contended <- t.fp.fall_contended + 1;
    obs_count t "ipc.sem.fallback.contended";
    false
  | `Slow -> false

(* IPC_NOWAIT through the page: with a live, authoritative page a
   would-block acquire is an EAGAIN decided guest-side — no RPC ever
   leaves the sandbox. This is what makes an nginx-style accept-mutex
   trylock cheap enough to sit inside an event loop (docs/WEB.md). A
   nowait release never fails: queued waiters force it onto the slow
   path so the owner wakes them in FIFO order. *)
let semop_try t ~id ~delta =
  match sem_fast_attempt t ~id ~delta with
  | `Fast -> `Fast
  | `Slow -> `Slow
  | `Contended ->
    if delta >= 0 then begin
      t.fp.fall_contended <- t.fp.fall_contended + 1;
      obs_count t "ipc.sem.fallback.contended";
      `Slow
    end
    else begin
      t.fp.fast_eagain <- t.fp.fast_eagain + 1;
      obs_count t "ipc.sem.fast_eagain";
      `Again
    end

(* {1 Fork support} *)

(* The coordination state a child inherits through the checkpoint. *)
type inherited = {
  i_leader_addr : string;
  i_pid_range : (int * int) option;
  i_owner_cache : (int * string) list;
  i_pid_cache : (int * string) list;
}

let snapshot_for_child t =
  { i_leader_addr = t.leader_addr;
    i_pid_range = donate_pid_range t;
    i_owner_cache = Coord.export t.coord ~ns:Coord.Sysv;
    i_pid_cache = Coord.export t.coord ~ns:Coord.Pid }

let restore_inherited t (i : inherited) =
  t.leader_addr <- i.i_leader_addr;
  (match i.i_pid_range with
  | Some r -> adopt_pid_range t r
  | None -> ());
  (* inherited resolutions lease afresh from the child's clock *)
  Coord.import t.coord ~now:(vnow t) ~ns:Coord.Sysv i.i_owner_cache;
  Coord.import t.coord ~now:(vnow t) ~ns:Coord.Pid i.i_pid_cache

(* {1 Sandbox split} *)

(* After DkSandboxCreate the instance is alone in a fresh sandbox: it
   becomes its own leader and forgets cross-sandbox state (the host
   already closed the bridging streams). *)
let become_isolated t ~first_pid =
  t.leader <- Some (fresh_leader ~first_pid);
  t.leader_addr <- t.my_addr;
  audit t Audit.Sandbox ~action:"isolate"
    [ ("sandbox", Obs.Aint (Pal.pico t.pal).K.sandbox) ];
  Coord.sweep t.coord ~now:(vnow t) ~reason:Coord.Isolation;
  Hashtbl.reset t.coalesce_buf;
  Hashtbl.reset t.streams;
  Hashtbl.reset t.pending

(* {1 Ping}

   A no-op RPC round trip — the Figure 5 stress primitive. *)
let ping t ~addr k = rpc t ~addr Wire.Wait_any_probe (fun _ -> k ())

let set_my_pid t pid = t.my_pid <- pid
