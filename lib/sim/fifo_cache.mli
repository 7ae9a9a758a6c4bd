(** A bounded hash map that evicts in insertion order.

    The one "bounded, oldest-first" table behind every cache in the
    simulation: the VFS dentry cache, the reference monitor's decision
    cache, the libOS handle cache, the coordination table's leases and
    the IPC receiver's duplicate filter. It counts nothing and emits
    nothing; every outcome is in a return value, so each user keeps
    its own counters and invalidation rules.

    Eviction rule (every simulated number depends on it):
    - adding a fresh key when [length >= capacity] first evicts the
      oldest queued key that is still present;
    - replacing a present key keeps its queue slot;
    - {!remove} leaves the key's queue slot behind. A key that is
      removed and added again therefore still owns its old slot, ahead
      of its new one, and is evicted at the old position: at capacity
      3, add a, b, c; remove a; add a; add d evicts [a], not [b].
      Compacting the queue would change which entry a full cache
      drops, so the quirk stays. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** An empty cache holding at most [max 1 capacity] entries. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; never reorders anything, so a probe and a hit are alike. *)

val mem : ('k, 'v) t -> 'k -> bool

val add : ('k, 'v) t -> 'k -> 'v -> 'k option
(** Insert or replace. Returns the key evicted to make room, if any. *)

val remove : ('k, 'v) t -> 'k -> bool
(** [true] if the key was present. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and queue slot; the table shrinks to its initial
    size. *)

val drop_matching : ('k, 'v) t -> ('k -> 'v -> bool) -> 'k list
(** Remove every entry whose (key, value) satisfies the predicate.
    Returns the removed keys in ascending order. *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** [Hashtbl.fold] order: a function of the cache's history alone. *)

val length : ('k, 'v) t -> int
