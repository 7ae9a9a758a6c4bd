(** Coordination-framework tuning knobs.

    Each flag corresponds to one of the §4.3 "lessons learned"
    optimizations, or to one of the fast paths the cache, ring and web
    benchmarks ablate; every field is toggled by a bench experiment
    (EXPERIMENTS.md). The ablation benchmark reproduces the claimed
    effects (ownership migration bought ~10x on remote receives;
    stream caching turns a ~2 ms first signal into ~55 µs; batching
    keeps the leader off fork's critical path).

    Values no experiment varies are constants next to their users: the
    failure-handling delays in {!Instance}, the cache bounds in the VFS,
    the reference monitor and libLinux. *)

module Time = Graphene_sim.Time

type t = {
  mutable async_send : bool;
      (** fire-and-forget sends to remote message queues whose location
          is known and whose stream is established *)
  mutable migrate_ownership : bool;
      (** migrate queues to their consumer / semaphores to their most
          frequent acquirer *)
  mutable pid_batch : int;
      (** how many PIDs the leader hands out per allocation request *)
  mutable cache_p2p : bool;
      (** keep point-to-point streams open between RPCs *)
  mutable cache_owners : bool;
      (** cache name-to-owner resolutions (PID maps, queue owners) *)
  mutable dcache : bool;
      (** host VFS dentry cache: positive and negative lookups answered
          from a bounded hash table, invalidated on unlink / rename /
          create (docs/PERF.md) *)
  mutable refmon_cache : bool;
      (** reference-monitor decision cache: memoized allow/deny per
          (sandbox, rule class, canonical path), flushed by manifest
          epoch bumps *)
  mutable handle_cache : bool;
      (** libOS fast path: repeat opens of the same canonical path skip
          the duplicated path resolution *)
  mutable lease_ttl : Time.t;
      (** validity of a cached owner/pid resolution (a lease) from the
          moment it is cached; 0 = never expires, the historical
          invalidation-only behavior *)
  mutable lease_capacity : int;
      (** bound on each owner/pid lease cache; oldest entries evict *)
  mutable coalesce : bool;
      (** merge back-to-back async releases / exit notifications to the
          same peer into one wire message *)
  mutable sem_fastpath : bool;
      (** futex-style System V semaphore fast path: an uncontended
          [semop] becomes a guest-side atomic on a shared sem page the
          owner publishes through the host kernel, charged at
          memory-op cost instead of a round-trip RPC. Authority stays
          anchored in the {!Coord} table — the fast path is taken only
          when the page's recorded owner matches local authority or a
          live lease, the page's sandbox matches ours, and nobody
          waits; otherwise the existing [Sem_op] RPC runs unchanged
          (docs/WEB.md) *)
  mutable vdso : bool;
      (** vDSO-style in-guest fast path: the host kernel publishes a
          read-only per-picoprocess state page (pid, ppid, uid, boot
          epoch, virtual-time base) and libLinux answers getpid /
          getppid / getuid / gettimeofday / time / clock_gettime from
          it at {!Cost.vdso_call} — no PAL crossing. The page is
          invalidated on fork, checkpoint restore and sandbox split;
          an invalid page falls back to the PAL time query, never
          serves a stale base (docs/PERF.md) *)
  mutable ring : bool;
      (** io_uring-style PAL submission ring: loops of independent
          read / write / send enqueue SQEs and charge one boundary
          crossing ({!Cost.ring_submit}) per drained batch, with
          completions delivered in submission order and per-op errno
          preserved. Off, the batch executes as individual PAL calls
          with identical results (docs/PERF.md) *)
}

val default : unit -> t
(** Everything on: PID batch 50, 50 ms lease TTL, 512-entry lease
    caches. *)

val naive : unit -> t
(** The starting point of §4.3's iteration: every coordination request
    is a synchronous RPC, no caching, no batching, no migration — and
    none of the fast-path caches, the semaphore fast path, the vDSO
    page or the submission ring. *)

val uncached : unit -> t
(** Defaults with only the fast-path caches (dcache, refmon decision
    cache, handle fast path, TTL leases, coalescing), the semaphore
    fast path, the vDSO page and the submission ring disabled: the
    pre-caching behavior the bench ablations compare against. *)

val copy : t -> t
