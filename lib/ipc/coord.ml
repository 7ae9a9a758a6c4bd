(** The unified coordination table (see coord.mli for the design).

    Implementation notes:

    - The {!Leased} side of each namespace is a {!Fifo_cache} of
      owners, each stamped with the instant it was cached: an entry
      older than the TTL is dead, and the first lookup that sees it
      reaps it. The {!Held} side is a plain hash map — no TTL, no
      capacity, because authoritative state must never decay or
      evict.
    - Every transition funnels through {!emit}. The table performs no
      I/O, charges no virtual time and keeps no observer state, so a
      run with observers attached is byte-identical to one without.
    - Determinism: multi-entry operations (sweeps, snapshots) order
      keys ascending before reporting, so the event stream is a pure
      function of the operation history. *)

module Time = Graphene_sim.Time
module Fifo_cache = Graphene_sim.Fifo_cache

type namespace = Sysv | Pid
type kind = Held | Leased

type sweep_reason =
  | Epoch_change
  | Isolation
  | Peer_death of string
  | Owner_exit

type conflict = { holder : string; held : bool; epoch : int }
type outcome = Acquired | Conflict of conflict

type event =
  | Acquire of { ns : namespace; kind : kind; key : int; owner : string; tag : string }
  | Use of { ns : namespace; kind : kind; key : int; owner : string }
  | Miss of { ns : namespace; key : int }
  | Expire of { ns : namespace; key : int }
  | Evict of { ns : namespace; key : int }
  | Invalidate of { ns : namespace; key : int }
  | Release of { ns : namespace; key : int; owner : string; tag : string }
  | Conflict_detected of { ns : namespace; key : int; requester : string; conflict : conflict }
  | Sweep of { reason : sweep_reason; ns : namespace; dropped : int }
  | Epoch_bump of { epoch : int }
  | Stall of { ns : namespace; dur : Time.t }

type held_entry = { h_owner : string; h_tag : string }
type lease = { owner : string; cached_at : Time.t }

type side = {
  leased : (int, lease) Fifo_cache.t;
  held : (int, held_entry) Hashtbl.t;
}

type t = {
  sysv : side;
  pid : side;
  ttl : Time.t;  (** lease validity *)
  mutable epoch : int;
  mutable observers : (event -> unit) list;  (** registration order *)
}

let create ~capacity ~ttl =
  let side () = { leased = Fifo_cache.create ~capacity; held = Hashtbl.create 8 } in
  { sysv = side (); pid = side (); ttl; epoch = 0; observers = [] }

let side t = function Sysv -> t.sysv | Pid -> t.pid

let observe t f = t.observers <- t.observers @ [ f ]
let emit t e = List.iter (fun f -> f e) t.observers

let epoch t = t.epoch

(* A lease expires strictly after [ttl]: a lookup at exactly
   cached_at + ttl still hits. *)
let live t ~now l = Time.diff now l.cached_at <= t.ttl

(* The live lease on [key], without reaping or reporting anything. *)
let live_owner t s ~now key =
  match Fifo_cache.find s.leased key with
  | Some l when live t ~now l -> Some l.owner
  | _ -> None

(* {1 The sealed verbs} *)

let acquire t ~now ~ns ~key ~owner ?(kind = Leased) ?(tag = "") () =
  let s = side t ns in
  match Hashtbl.find_opt s.held key with
  | Some h when h.h_owner <> owner ->
    (* authority is never silently overwritten — the one conflict
       shape, whatever the caller was trying to do *)
    let c = { holder = h.h_owner; held = true; epoch = t.epoch } in
    emit t (Conflict_detected { ns; key; requester = owner; conflict = c });
    Conflict c
  | Some h -> (
    match kind with
    | Held ->
      (* idempotent re-own (a refreshed tag wins) *)
      let tag = if tag = "" then h.h_tag else tag in
      Hashtbl.replace s.held key { h_owner = owner; h_tag = tag };
      emit t (Acquire { ns; kind = Held; key; owner; tag });
      Acquired
    | Leased ->
      (* we already hold the key authoritatively: caching a resolution
         to ourselves adds nothing *)
      Acquired)
  | None -> (
    match kind with
    | Held ->
      (* a lease never blocks an authoritative acquire: a live one was
         just a cache (invalidated), an expired one is reaped — either
         way the acquire lands atomically, so the stale holder is
         never answered (the TTL-expiry-vs-acquire race fix) *)
      (match Fifo_cache.find s.leased key with
      | Some l ->
        ignore (Fifo_cache.remove s.leased key);
        emit t (if live t ~now l then Invalidate { ns; key } else Expire { ns; key })
      | None -> ());
      Hashtbl.replace s.held key { h_owner = owner; h_tag = tag };
      emit t (Acquire { ns; kind = Held; key; owner; tag });
      Acquired
    | Leased ->
      (* replace whatever lease was there: a newer resolution wins and
         the TTL clock restarts *)
      (match Fifo_cache.add s.leased key { owner; cached_at = now } with
      | Some evicted -> emit t (Evict { ns; key = evicted })
      | None -> ());
      emit t (Acquire { ns; kind = Leased; key; owner; tag });
      Acquired)

let release t ~ns ~key =
  let s = side t ns in
  match Hashtbl.find_opt s.held key with
  | Some { h_owner; h_tag } ->
    Hashtbl.remove s.held key;
    emit t (Release { ns; key; owner = h_owner; tag = h_tag });
    true
  | None -> false

let check t ~now ~ns ~key =
  let s = side t ns in
  match Hashtbl.find_opt s.held key with
  | Some h ->
    emit t (Use { ns; kind = Held; key; owner = h.h_owner });
    Some h.h_owner
  | None -> (
    match Fifo_cache.find s.leased key with
    | Some l when live t ~now l ->
      emit t (Use { ns; kind = Leased; key; owner = l.owner });
      Some l.owner
    | Some _ ->
      (* dead: reaped on the spot, and still a miss to resolve *)
      ignore (Fifo_cache.remove s.leased key);
      emit t (Expire { ns; key });
      emit t (Miss { ns; key });
      None
    | None ->
      emit t (Miss { ns; key });
      None)

let peek t ~now ~ns ~key =
  let s = side t ns in
  match Hashtbl.find_opt s.held key with
  | Some h -> Some h.h_owner
  | None -> live_owner t s ~now key

(* Routing-layer conflict detection: an operation reached this
   instance for a key someone else holds (per our table — usually the
   forwarding lease an old owner keeps after a migration grant). Same
   typed shape, same observer event as an acquire-time conflict. *)
let conflict_answer t ~now ~ns ~key ~requester =
  let s = side t ns in
  let resolved =
    match Hashtbl.find_opt s.held key with
    | Some h -> Some (h.h_owner, true)
    | None -> Option.map (fun owner -> (owner, false)) (live_owner t s ~now key)
  in
  match resolved with
  | Some (holder, held) when holder <> requester ->
    let c = { holder; held; epoch = t.epoch } in
    emit t (Conflict_detected { ns; key; requester; conflict = c });
    Some c
  | _ -> None

let invalidate t ~ns ~key =
  let s = side t ns in
  if Fifo_cache.remove s.leased key then begin
    emit t (Invalidate { ns; key });
    true
  end
  else false

(* {1 The one crash-sweep lifecycle} *)

let sweep t ~now ~reason =
  let wholesale ns =
    let s = side t ns in
    let dropped = Fifo_cache.length s.leased in
    Fifo_cache.clear s.leased;
    emit t (Sweep { reason; ns; dropped })
  in
  let by_addr ns addr =
    let s = side t ns in
    let keys = Fifo_cache.drop_matching s.leased (fun _ l -> l.owner = addr) in
    List.iter (fun key -> emit t (Invalidate { ns; key })) keys;
    emit t (Sweep { reason; ns; dropped = List.length keys })
  in
  let release_all ns =
    let s = side t ns in
    Hashtbl.fold (fun k _ acc -> k :: acc) s.held []
    |> List.sort compare
    |> List.iter (fun key -> ignore (release t ~ns ~key))
  in
  ignore now;
  match reason with
  | Epoch_change | Isolation ->
    wholesale Sysv;
    wholesale Pid
  | Peer_death addr ->
    by_addr Sysv addr;
    by_addr Pid addr
  | Owner_exit ->
    wholesale Sysv;
    wholesale Pid;
    release_all Sysv;
    release_all Pid

(* {1 Epoch}

   The bump and the sweep are one step: "the epoch moved" and "every
   lease predating it died" cannot be observed apart. *)

let advance_epoch t ~now =
  t.epoch <- t.epoch + 1;
  emit t (Epoch_bump { epoch = t.epoch });
  sweep t ~now ~reason:Epoch_change;
  t.epoch

let adopt_epoch t ~now e =
  (* max with ours: a delayed duplicate of an old announcement can
     never move us backwards (the epoch-monotonicity invariant) *)
  t.epoch <- max t.epoch e;
  emit t (Epoch_bump { epoch = t.epoch });
  sweep t ~now ~reason:Epoch_change

(* {1 Read-path telemetry} *)

let note_stall t ~ns d = emit t (Stall { ns; dur = d })

(* {1 Introspection and inheritance} *)

let leased_count t ~ns = Fifo_cache.length (side t ns).leased
let held_count t ~ns = Hashtbl.length (side t ns).held

(* Expired-but-unreaped entries report 0 remaining and stay put. *)
let entries t ~now ~ns =
  Fifo_cache.fold
    (fun k l acc ->
      (k, l.owner, max 0 (t.ttl - Time.diff now l.cached_at)) :: acc)
    (side t ns).leased []
  |> List.sort compare

let export t ~ns = Fifo_cache.fold (fun k l acc -> (k, l.owner) :: acc) (side t ns).leased []

let import t ~now ~ns alist =
  List.iter (fun (key, owner) -> ignore (acquire t ~now ~ns ~key ~owner ())) alist
