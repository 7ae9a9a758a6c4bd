(** Coordination-framework tuning knobs.

    Each flag corresponds to one of the §4.3 "lessons learned"
    optimizations; the ablation benchmark toggles them individually to
    reproduce the claimed effects (e.g. ownership migration reduced
    remote message-queue receive overhead by ~10x, and stream caching
    turns a ~2 ms first signal into ~55 us).

    A knob lives here only if a bench experiment toggles it; the
    failure-handling delays and the cache bounds are constants next to
    their users. *)

module Time = Graphene_sim.Time

type t = {
  mutable async_send : bool;
      (** fire-and-forget sends to remote message queues whose location
          is already known *)
  mutable migrate_ownership : bool;
      (** migrate queues to their consumer / semaphores to their most
          frequent acquirer *)
  mutable pid_batch : int;
      (** how many PIDs the leader hands out per allocation request *)
  mutable cache_p2p : bool;
      (** keep point-to-point streams open between RPCs *)
  mutable cache_owners : bool;
      (** cache name-to-owner resolutions (PID maps, queue owners) *)
  (* --- fast-path caches (PR 4) --- *)
  mutable dcache : bool;  (** host VFS dentry cache *)
  mutable refmon_cache : bool;
      (** reference-monitor decision cache per (sandbox, class, path) *)
  mutable handle_cache : bool;
      (** libOS fast path for repeat opens of the same canonical path *)
  mutable lease_ttl : Time.t;
      (** validity of an owner/pid lease from the moment it is cached;
          0 = leases never expire (pure invalidation-driven) *)
  mutable lease_capacity : int;
      (** bound on each owner/pid lease cache; oldest entries evict *)
  mutable coalesce : bool;
      (** merge back-to-back async releases / exit notifications to the
          same peer into one wire message *)
  (* --- shared-memory semaphore fast path --- *)
  mutable sem_fastpath : bool;
      (** uncontended [semop] as a guest-side atomic on the owner's
          shared sem page (published through the host kernel, authority
          still anchored in the Coord table); falls back to the Sem_op
          RPC on contention, across sandbox boundaries, or when the
          holder's lease is stale *)
  (* --- vDSO page + PAL submission ring --- *)
  mutable vdso : bool;
      (** serve getpid / getppid / getuid / gettimeofday / time /
          clock_gettime from the read-only per-picoprocess state page
          the host kernel publishes, at {!Cost.vdso_call}, instead of
          crossing into the PAL; invalidated on fork, checkpoint
          restore and sandbox split *)
  mutable ring : bool;
      (** batch independent read/write/send operations through the
          io_uring-style PAL submission ring: one boundary crossing per
          drained batch instead of one per call *)
}

let default () =
  { async_send = true;
    migrate_ownership = true;
    pid_batch = 50;
    cache_p2p = true;
    cache_owners = true;
    dcache = true;
    refmon_cache = true;
    handle_cache = true;
    lease_ttl = Time.ms 50.;
    lease_capacity = 512;
    coalesce = true;
    sem_fastpath = true;
    vdso = true;
    ring = true }

(* The starting point of §4.3's iteration: every coordination request
   is a synchronous RPC, no caching, no batching. *)
let naive () =
  { (default ()) with
    async_send = false;
    migrate_ownership = false;
    pid_batch = 1;
    cache_p2p = false;
    cache_owners = false;
    dcache = false;
    refmon_cache = false;
    handle_cache = false;
    coalesce = false;
    sem_fastpath = false;
    vdso = false;
    ring = false }

(* Only the PR-4 fast-path caches off: the pre-caching behavior every
   cache-on run must beat (the A side of the bench-cache ablation). *)
let uncached () =
  { (default ()) with
    dcache = false;
    refmon_cache = false;
    handle_cache = false;
    lease_ttl = Time.zero;
    lease_capacity = max_int;
    coalesce = false;
    sem_fastpath = false;
    vdso = false;
    ring = false }

(* a fresh record with every field copied; [with] on one field forces
   the allocation *)
let copy c = { c with async_send = c.async_send }
