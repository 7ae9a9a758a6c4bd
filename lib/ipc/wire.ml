(** RPC wire protocol between libOS instances.

    Messages are pure data and travel marshaled over host byte streams
    at message granularity. Requests carry an id; a [Oneway] envelope
    carries fire-and-forget notifications (the asynchronous-send
    optimization, §4.3). Handlers answer from local state only and
    never issue recursive RPCs (the deadlock-avoidance rule of §4.1).

    Requests and notifications additionally carry the sender's
    rendezvous address and a per-sender sequence number, so receivers
    can recognize retransmissions and duplicated deliveries: see
    {!Dedup}. Errors travel as typed {!Graphene_core.Errno.t}. *)

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
  | State_report of { addr : string; pid : int; ranges : (int * int) list; resources : int list }
      (** each member reports its slice of the namespace so the new
          leader can reconstruct its tables *)
  | Batch of notification list
      (** back-to-back loss-tolerant notifications to one peer,
          coalesced into a single wire message; the receiver applies
          them in order *)

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
      (** the resource moved: here is who holds it now, and under
          which election epoch that was observed — the requester can
          re-aim its lease and retry directly instead of falling back
          to a leader round trip *)
  | R_err of Graphene_core.Errno.t

type envelope =
  | Req of { seq : int; origin : string; req : request }
      (** [seq] is unique per [origin]; a retransmission reuses the
          original [seq], which is what makes retries idempotent *)
  | Resp of int * response
  | Oneway of { seq : int; origin : string; note : notification }

(* Every message carries a trace context: the flow id of the trace
   span that caused it (0 = none).  It rides as a fixed-width 8-hex
   header so the message length — and therefore the modeled copy cost
   of sending it — is identical whether tracing is on or off. *)
let ctx_width = 8

let encode ?(ctx = 0) (e : envelope) =
  Printf.sprintf "%08x" (ctx land 0xffff_ffff) ^ Marshal.to_string e []

let decode s : (envelope * int) option =
  if String.length s < ctx_width then None
  else
    try
      let ctx = int_of_string ("0x" ^ String.sub s 0 ctx_width) in
      Some ((Marshal.from_string s ctx_width : envelope), ctx)
    with _ -> None

let req_label = function
  | Pid_alloc _ -> "pid_alloc"
  | Pid_query _ -> "pid_query"
  | Res_query _ -> "res_query"
  | Signal _ -> "signal"
  | Proc_read _ -> "proc_read"
  | Msgq_get _ -> "msgq_get"
  | Msgq_send _ -> "msgq_send"
  | Msgq_recv _ -> "msgq_recv"
  | Msgq_rmid _ -> "msgq_rmid"
  | Sem_get _ -> "sem_get"
  | Sem_op _ -> "sem_op"
  | Wait_any_probe -> "wait_any_probe"
  | Msgq_unbind _ -> "msgq_unbind"

let notification_label = function
  | Exit_notify _ -> "exit_notify"
  | Msgq_send_async _ -> "msgq_send_async"
  | Sem_release_async _ -> "sem_release_async"
  | Msgq_deleted _ -> "msgq_deleted"
  | Owner_update _ -> "owner_update"
  | Range_owned _ -> "range_owned"
  | Msgq_persisted _ -> "msgq_persisted"
  | Leader_candidate _ -> "leader_candidate"
  | Leader_elected _ -> "leader_elected"
  | State_report _ -> "state_report"
  | Batch _ -> "batch"

let describe = function
  | Req { seq; origin; _ } -> Printf.sprintf "req#%d from %s" seq origin
  | Resp (n, _) -> Printf.sprintf "resp#%d" n
  | Oneway { seq; origin; _ } -> Printf.sprintf "oneway#%d from %s" seq origin

(* {1 Receiver-side duplicate suppression}

   One instance per receiver. The (origin, seq) pair identifies a
   logical message across retransmissions and fault-injected
   duplication; the cache is bounded FIFO, sized far above any
   plausible retransmission window. *)

module Dedup = struct
  module Fifo_cache = Graphene_sim.Fifo_cache

  type entry = In_flight | Done of response
  type t = { seen : (string * int, entry) Fifo_cache.t; mutable suppressed : int }

  let create () = { seen = Fifo_cache.create ~capacity:512; suppressed = 0 }
  let remember t key entry = ignore (Fifo_cache.add t.seen key entry)

  let begin_request t ~origin ~seq =
    let key = (origin, seq) in
    match Fifo_cache.find t.seen key with
    | None ->
      remember t key In_flight;
      `Execute
    | Some In_flight ->
      (* the first delivery is still being handled; its response will
         reach the origin, so this copy can vanish *)
      t.suppressed <- t.suppressed + 1;
      `Drop
    | Some (Done resp) ->
      t.suppressed <- t.suppressed + 1;
      `Replay resp

  let finish_request t ~origin ~seq resp = remember t (origin, seq) (Done resp)

  let seen_oneway t ~origin ~seq =
    let key = (origin, seq) in
    if Fifo_cache.mem t.seen key then begin
      t.suppressed <- t.suppressed + 1;
      true
    end
    else begin
      remember t key In_flight;
      false
    end

  let suppressed t = t.suppressed
  let length t = Fifo_cache.length t.seen
end
