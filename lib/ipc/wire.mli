(** RPC wire protocol between libOS instances.

    Messages are pure data and travel marshaled over host byte streams
    at message granularity. Requests carry an id; a [Oneway] envelope
    carries fire-and-forget notifications (the asynchronous-send
    optimization, §4.3). Handlers answer from local state only and
    never issue recursive RPCs (the deadlock-avoidance rule of §4.1).

    Requests and notifications carry the sender's rendezvous address
    plus a per-sender sequence number; a retransmitted request reuses
    its original sequence number, so {!Dedup} can make retried RPCs
    idempotent at the handler. Errors travel as typed
    {!Graphene_core.Errno.t}.

    This interface is the only sanctioned view of the protocol:
    marshaling is an implementation detail of {!encode}/{!decode}, and
    handler modules must not depend on the byte layout. *)

type request =
  | Pid_alloc of { count : int; requester : string }
      (** leader only: batch of fresh PIDs *)
  | Pid_query of { pid : int }  (** leader only: who owns this PID *)
  | Res_query of { id : int }  (** leader only: who owns this SysV id *)
  | Signal of { to_pid : int; signum : int; from_pid : int }
  | Proc_read of { pid : int; field : string }  (** /proc/[pid] over RPC *)
  | Msgq_get of { key : int; create : bool; requester : string }
      (** leader only: key to queue id *)
  | Msgq_send of { id : int; data : string }
  | Msgq_recv of { id : int; requester : string }
  | Msgq_rmid of { id : int }
  | Sem_get of { key : int; init : int; requester : string }  (** leader only *)
  | Sem_op of { id : int; delta : int; requester : string; nowait : bool }
      (** [nowait]: IPC_NOWAIT — a would-block acquire gets EAGAIN back
          instead of queueing at the owner *)
  | Wait_any_probe  (** liveness check *)
  | Msgq_unbind of { id : int }
      (** leader only: free the key of a removed queue; sent by the
          remover before its [msgctl] returns *)

type notification =
  | Exit_notify of { pid : int; code : int }
  | Msgq_send_async of { id : int; data : string }
  | Sem_release_async of { id : int; delta : int }
      (** releases need no acknowledgment once the stream exists *)
  | Msgq_deleted of { id : int }
  | Owner_update of { resource : [ `Msgq | `Sem ]; id : int; addr : string }
      (** tell the leader ownership migrated *)
  | Range_owned of { lo : int; hi : int; addr : string }
      (** tell the leader a PID range changed hands (fork donates a
          slice of the parent's batch to the child) *)
  | Msgq_persisted of { id : int }
      (** owner exited; queue contents serialized to disk *)
  | Leader_candidate of { pid : int; addr : string }
      (** leader-recovery election over the broadcast stream (§4.2):
          candidates announce; lowest PID wins *)
  | Leader_elected of { pid : int; addr : string; epoch : int }
      (** [epoch] strictly increases across re-elections; adopters take
          the max of theirs and the announcement's, so the epoch each
          instance holds is monotone (the audit plane asserts it) *)
  | State_report of { addr : string; pid : int; ranges : (int * int) list; resources : int list }
      (** each member reports its slice of the namespace so the new
          leader can reconstruct its tables *)
  | Batch of notification list
      (** back-to-back loss-tolerant notifications to one peer,
          coalesced into a single wire message within a 5 µs
          window; the receiver applies them in
          order. Only loss-tolerant classes (semaphore releases, exit
          notifications) ride in batches, so a dropped batch is
          recovered the same way a dropped singleton is. *)

type response =
  | R_unit
  | R_str of string
  | R_range of { lo : int; hi : int }
  | R_owner of { addr : string option }
  | R_resource of { id : int; owner : string; persisted : bool; created : bool }
  | R_msg of { data : string }
  | R_msg_migrate of { data : string option; contents : string list }
      (** response granting queue ownership to the requester: [data] is
          the answer to the receive that triggered migration, [contents]
          the remaining queue *)
  | R_sem_migrate of { count : int }  (** semaphore ownership grant *)
  | R_conflict of { holder : string; epoch : int }
      (** typed conflict answer from an instance that no longer holds
          a resource but retains a forwarding lease: who holds it now,
          and under which election epoch that was observed. The
          requester re-aims its lease at [holder] and retries directly
          — no leader round trip, no blind EMOVED backoff
          (docs/COORDINATION.md). *)
  | R_err of Graphene_core.Errno.t

type envelope =
  | Req of { seq : int; origin : string; req : request }
      (** [seq] is unique per [origin]; a retransmission reuses the
          original [seq], which is what makes retries idempotent *)
  | Resp of int * response
  | Oneway of { seq : int; origin : string; note : notification }

val encode : ?ctx:int -> envelope -> string
(** Serialize with a trace context [ctx] — the flow id of the trace
    span that caused this message (default 0 = none). The context rides
    as a fixed-width header, so the encoded length does not depend on
    whether tracing is enabled: tracing cannot perturb modeled send
    costs. *)

val decode : string -> (envelope * int) option
(** Inverse of {!encode}; [None] on a corrupt message. The returned
    context is 0 when the sender attached none. *)

val req_label : request -> string
(** Stable lowercase label (["signal"], ["pid_alloc"], …) used for
    span names and per-request-type metrics. *)

val notification_label : notification -> string

val describe : envelope -> string

(** Receiver-side duplicate suppression: one instance per receiver,
    keyed by (origin, seq). Makes request handling exactly-once in
    effect under retransmission and fault-injected duplication — a
    replayed request is answered from the cached response without
    re-executing the handler. *)
module Dedup : sig
  type t

  val create : unit -> t
  (** Remembers the 512 most recent (origin, seq) keys in a
      {!Graphene_sim.Fifo_cache}. *)

  val begin_request : t -> origin:string -> seq:int -> [ `Execute | `Drop | `Replay of response ]
  (** First sighting: [`Execute] (and the key is marked in flight).
      Duplicate while the original is still being handled: [`Drop] —
      the original's response is on its way. Duplicate of a completed
      request: [`Replay r] with the cached response. *)

  val finish_request : t -> origin:string -> seq:int -> response -> unit
  (** Record the response sent for (origin, seq), enabling replays. *)

  val seen_oneway : t -> origin:string -> seq:int -> bool
  (** [true] if this notification was already delivered (drop it);
      marks it seen otherwise. *)

  val suppressed : t -> int
  (** How many duplicates this receiver has suppressed. *)

  val length : t -> int
  (** Current occupancy (remembered keys), for [graphene top]. *)
end
