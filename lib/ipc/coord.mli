(** The unified coordination table: one typed lease/lock substrate
    behind every shared-namespace decision a libOS instance makes.

    Before this module, coordination state was fragmented per resource
    — owner/PID lease caches, SysV queue/semaphore ownership, signal
    routing and the re-election epoch each carried private
    invalidation rules. [Coord] collapses them into one table over
    [(namespace, key, owner, ttl, epoch)]:

    - {b acquire / release} manage entries. A {!Held} entry is
      authoritative local ownership (a queue or semaphore homed here):
      no TTL, survives sweeps, and conflicts are surfaced as the
      single typed {!Conflict} shape (holder + epoch) instead of four
      bespoke failure paths. A {!Leased} entry is a cached remote
      resolution: TTL-bounded, swept wholesale, and never able to
      block an authoritative acquire — in particular an acquire
      landing on an {e expired-but-unswept} lease succeeds atomically
      rather than answering the stale holder.
    - {b check / peek} are the read path: each namespace keeps
      its leases in a {!Graphene_sim.Fifo_cache} (oldest evicts first)
      stamped with the instant they were cached.
    - {b sweep} is the one crash-recovery lifecycle: re-election and
      isolation flush every lease ({!Epoch_change}, {!Isolation}), a
      dead peer's leases are dropped by address ({!Peer_death}), and a
      picoprocess exit clears its own table ({!Owner_exit}).
    - {b epochs} live here too: {!advance_epoch} (election winner) and
      {!adopt_epoch} (everyone else) bump the epoch and sweep in one
      step, so "new epoch" and "stale leases died" cannot be observed
      apart.

    Every transition is reported through {!observe} — the single
    instrumentation choke point the audit log, invariant monitors and
    contention plane hook once, instead of per-resource hooks
    (docs/COORDINATION.md). The table itself emits nothing: observers
    decide what becomes a counter or an audit event, so the table
    stays byte-deterministic and cost-free on the virtual clock. *)

module Time = Graphene_sim.Time

type namespace =
  | Sysv  (** SysV resource id → owner address *)
  | Pid  (** guest PID → home-instance address (signal routing) *)

type kind =
  | Held  (** authoritative local ownership: no TTL, survives sweeps *)
  | Leased  (** cached remote resolution: TTL-bounded, swept *)

type sweep_reason =
  | Epoch_change  (** re-election: leadership moved, every lease suspect *)
  | Isolation  (** sandbox split: cross-sandbox state forgotten *)
  | Peer_death of string  (** drop leases naming this dead peer's address *)
  | Owner_exit  (** picoprocess exit: clear the whole table *)

type conflict = {
  holder : string;  (** who owns the key now *)
  held : bool;  (** the holder's entry is authoritative (vs a live lease) *)
  epoch : int;  (** the election epoch the conflict was observed under *)
}

type outcome = Acquired | Conflict of conflict

(** What observers see. [tag] carries the resource class of a held
    entry ("msgq" | "sem") for audit rendering. *)
type event =
  | Acquire of { ns : namespace; kind : kind; key : int; owner : string; tag : string }
  | Use of { ns : namespace; kind : kind; key : int; owner : string }
  | Miss of { ns : namespace; key : int }
  | Expire of { ns : namespace; key : int }  (** TTL ran out *)
  | Evict of { ns : namespace; key : int }  (** capacity pressure *)
  | Invalidate of { ns : namespace; key : int }  (** targeted drop of a live lease *)
  | Release of { ns : namespace; key : int; owner : string; tag : string }
  | Conflict_detected of { ns : namespace; key : int; requester : string; conflict : conflict }
  | Sweep of { reason : sweep_reason; ns : namespace; dropped : int }
  | Epoch_bump of { epoch : int }
  | Stall of { ns : namespace; dur : Time.t }
      (** a miss turned into a blocking round trip *)

type t

val create : capacity:int -> ttl:Time.t -> t
(** One table with a {!Leased} cache per namespace ([capacity]
    entries, [ttl] validity) plus unbounded authoritative {!Held}
    state. Starts at epoch 0. *)

val observe : t -> (event -> unit) -> unit
(** Register an observer for every state transition. This is the only
    instrumentation hook: counters, audit events and invariant checks
    all derive from this stream. Observers run synchronously in
    registration order and must be pure with respect to the table. *)

(** {1 The sealed verbs} *)

val acquire :
  t ->
  now:Time.t ->
  ns:namespace ->
  key:int ->
  owner:string ->
  ?kind:kind ->
  ?tag:string ->
  unit ->
  outcome
(** Claim [key] for [owner] (default [?kind = Leased]).

    Conflict rules — the one conflict-detection path:
    - against a {!Held} entry with another owner: {!Conflict} with the
      holder and current epoch, for both kinds (authority is never
      silently overwritten);
    - a {!Held} acquire over any lease succeeds: a live lease is
      invalidated (it was just a cache), an expired one is dropped as
      an expiration — atomically, so the stale holder is never
      returned (the TTL-expiry-vs-acquire race fix);
    - a {!Leased} acquire over a lease replaces it (a newer resolution
      wins; re-acquiring restarts the TTL clock);
    - a {!Leased} acquire on a key we already hold authoritatively is
      a no-op [Acquired] (authority subsumes the cache). *)

val release : t -> ns:namespace -> key:int -> bool
(** Give up authoritative ownership (migration grant, deletion,
    persistence hand-off, exit). [false] if nothing was held. *)

val check : t -> now:Time.t -> ns:namespace -> key:int -> string option
(** Resolve [key]: authoritative state first, then the lease cache
    with full lease semantics (an expired entry answers as a miss and
    is dropped). *)

val peek : t -> now:Time.t -> ns:namespace -> key:int -> string option
(** Pure resolve: no events, no expiry side effect — for
    observers (contention holder attribution, introspection). *)

val conflict_answer :
  t -> now:Time.t -> ns:namespace -> key:int -> requester:string -> conflict option
(** Routing-layer conflict detection: an operation from [requester]
    reached this instance, but our table resolves [key] to someone
    else — typically the forwarding lease an old owner keeps after a
    migration grant. Reports the same typed {!conflict} (and emits
    {!Conflict_detected}) as an acquire-time clash; [None] when the
    table is silent or names the requester itself. *)

val invalidate : t -> ns:namespace -> key:int -> bool
(** Targeted drop of a lease (EMOVED answer, deletion notice, failed
    signal send). Held entries are immune — authority is only given up
    via {!release}. *)

val sweep : t -> now:Time.t -> reason:sweep_reason -> unit
(** The one crash-sweep lifecycle. {!Epoch_change} and {!Isolation}
    flush every lease in both namespaces; {!Peer_death} drops exactly
    the leases naming the dead peer's address (each reported as an
    {!Invalidate}); {!Owner_exit} flushes leases and releases every
    held entry (each reported as a {!Release}). *)

(** {1 Epoch} *)

val epoch : t -> int

val advance_epoch : t -> now:Time.t -> int
(** Election winner: epoch + 1, then [sweep ~reason:Epoch_change] —
    one atomic step, returning the new epoch for the announcement. *)

val adopt_epoch : t -> now:Time.t -> int -> unit
(** Adopt an announced epoch: [max] with ours (a delayed duplicate can
    never move us backwards), then [sweep ~reason:Epoch_change]. *)

(** {1 Read-path telemetry} *)

val note_stall : t -> ns:namespace -> Time.t -> unit
(** A miss on [ns] turned into a blocking round trip of the given
    virtual duration; reported as a {!Stall} event. *)

(** {1 Introspection and inheritance} *)

val leased_count : t -> ns:namespace -> int
val held_count : t -> ns:namespace -> int

val entries : t -> now:Time.t -> ns:namespace -> (int * string * int) list
(** Lease-table snapshot for [graphene top]: [(key, owner, remaining
    ns)], ascending by key. Pure observation. *)

val export : t -> ns:namespace -> (int * string) list
(** Leased entries for fork inheritance (order unspecified). Held
    entries never transfer — ownership is not inherited. *)

val import : t -> now:Time.t -> ns:namespace -> (int * string) list -> unit
(** Replay a snapshot in a child: each entry is a fresh {!Leased}
    acquire from the child's clock (observers see them). *)
