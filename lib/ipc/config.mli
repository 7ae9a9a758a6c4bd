(** Coordination-framework tuning knobs.

    Each field is one of the §4.3 "lessons learned" optimizations, or
    the semaphore fast path of Table 5b′; every field is toggled by a
    bench experiment (EXPERIMENTS.md). The ablation benchmark
    reproduces the claimed effects (ownership migration bought ~10x on
    remote receives; stream caching turns a ~2 ms first signal into
    ~55 µs; batching keeps the leader off fork's critical path).

    Values no experiment varies are constants next to their users: the
    failure-handling delays and the lease TTL and bound in
    {!Instance}, the cache bounds in the VFS, the reference monitor and
    libLinux. The fast paths no experiment toggles (the dentry,
    decision and handle caches, send coalescing, the vDSO page and the
    submission ring) are always on (docs/PERF.md). *)

type t = {
  async_send : bool;
      (** fire-and-forget sends to remote message queues whose location
          is known and whose stream is established *)
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
      (** futex-style System V semaphore fast path: an uncontended
          [semop] becomes a guest-side atomic on a shared sem page the
          owner publishes through the host kernel, charged at
          memory-op cost instead of a round-trip RPC. Authority stays
          anchored in the {!Coord} table — the fast path is taken only
          when the page's recorded owner matches local authority or a
          live lease, the page's sandbox matches ours, and nobody
          waits; otherwise the existing [Sem_op] RPC runs unchanged
          (docs/WEB.md) *)
}

val default : unit -> t
(** Everything on, PID batch 50. *)

val naive : unit -> t
(** The starting point of §4.3's iteration: every coordination request
    is a synchronous RPC, no caching, no batching, no migration, no
    semaphore fast path. *)
