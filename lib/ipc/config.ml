(** Coordination-framework tuning knobs.

    Each field is one of the §4.3 "lessons learned" optimizations, or
    the semaphore fast path; the ablation benchmark and Table 5b′
    toggle them to reproduce the claimed effects (e.g. ownership
    migration reduced remote message-queue receive overhead by ~10x,
    and stream caching turns a ~2 ms first signal into ~55 us).

    A knob lives here only if a bench experiment toggles it; the
    failure-handling delays, the lease bounds and the cache sizes are
    constants next to their users. *)

type t = {
  async_send : bool;
      (** fire-and-forget sends to remote message queues whose location
          is already known *)
  migrate_ownership : bool;
      (** migrate queues to their consumer / semaphores to their most
          frequent acquirer *)
  pid_batch : int;
      (** how many PIDs the leader hands out per allocation request *)
  cache_p2p : bool;
      (** keep point-to-point streams open between RPCs *)
  cache_owners : bool;
      (** cache name-to-owner resolutions (PID maps, queue owners) *)
  sem_fastpath : bool;
      (** uncontended [semop] as a guest-side atomic on the owner's
          shared sem page (published through the host kernel, authority
          still anchored in the Coord table); falls back to the Sem_op
          RPC on contention, across sandbox boundaries, or when the
          holder's lease is stale *)
}

let default () =
  { async_send = true;
    migrate_ownership = true;
    pid_batch = 50;
    cache_p2p = true;
    cache_owners = true;
    sem_fastpath = true }

(* The starting point of §4.3's iteration: every coordination request
   is a synchronous RPC, no caching, no batching. *)
let naive () =
  { async_send = false;
    migrate_ownership = false;
    pid_batch = 1;
    cache_p2p = false;
    cache_owners = false;
    sem_fastpath = false }
