(** Calibrated virtual-time cost model.

    Every latency charged anywhere in the simulation is named here, with
    a provenance note. Calibration sources:

    - [paper-linux]: the Linux column of the paper's Tables 4-7 (the
      authors' Dell Optiplex 790 testbed). These anchor absolute scale.
    - [structural]: derived so that the *composition* of costs along a
      code path reproduces the paper's relative overheads. E.g. the
      Graphene open path = native open + libOS path resolution + (with
      reference monitor) an LSM manifest check; only the two added legs
      are structural estimates.

    Benchmarks must never charge ad-hoc constants; they go through the
    layers, which charge these. *)

(** {1 CPU and interpreter} *)

val interp_step : Time.t
(** Cost of one guest-interpreter small step (a few pipeline's worth of
    simulated work). [structural] *)

val host_syscall_entry : Time.t
(** Trap + return for a host system call, excluding the work of the
    call itself: 40 ns. [paper-linux: "syscall" row] *)

val libos_call : Time.t
(** A system call serviced entirely from libLinux state (function call,
    no host trap): 10 ns. [paper-linux: Graphene "syscall" row] *)

val seccomp_insn : Time.t
(** Evaluating one BPF instruction of the installed seccomp filter.
    [structural] *)

(** {1 Files and streams} *)

val host_read_base : Time.t
(** Host read of a ready byte stream / cached file: 50 ns of kernel
    work; with the 40 ns trap this is the paper's 90 ns native read.
    [paper-linux: read] *)

val host_write_base : Time.t
(** Host write: 70 ns of kernel work (110 ns with the trap).
    [paper-linux: write] *)

val byte_copy : float
(** Per-byte copy cost through the kernel, in ns/byte. [structural] *)

val copy_cost : int -> Time.t
(** [copy_cost n] is the time to move [n] bytes through the kernel. *)

val host_open : Time.t
(** Host-side open of an existing file, excluding the path walk: with
    per-component costs and the close, composes to the paper's 850 ns
    open/close pair. [paper-linux: open/close] *)

val path_component : Time.t
(** Per-component path walk in the host VFS. [structural] *)

val dcache_hit : Time.t
(** Host VFS dentry-cache hit: one hash probe replaces the
    per-component walk when the path was resolved before and no
    mutation invalidated it. [structural; cf. Linux dcache, where a
    cached lookup is tens of ns regardless of depth] *)

val dcache_neg_hit : Time.t
(** Negative dcache hit: a remembered ENOENT answered from the cache
    without walking to the missing component. [structural] *)

val libos_path_resolution : Time.t
(** libLinux-side path handling that duplicates host VFS effort
    (Graphene open/close 3.53 us vs 850 ns native). [structural] *)

val libos_path_fast : Time.t
(** libLinux path handling when the canonical path is in the libOS
    handle cache: canonicalization + one table probe instead of the
    full duplicated resolution. [structural] *)

val lsm_path_check : Time.t
(** AppArmor-LSM manifest check on open/exec (Graphene+RM open/close
    5.09 us vs 3.53 us). [structural] *)

val refmon_cache_hit : Time.t
(** Reference-monitor decision-cache hit: the memoized allow/deny for
    (sandbox, rule-class, canonical path) replaces the full manifest
    walk while the sandbox's manifest epoch is unchanged. [structural] *)

val lease_probe : Time.t
(** Probing a bounded owner/pid lease cache in the coordination layer
    (hash lookup + TTL comparison). [structural] *)

val sem_fast_op : Time.t
(** Uncontended [semop] over the shared sem page: a locked
    read-modify-write on shared memory plus the authority check
    against the coordination table — tens of ns, like a futex fast
    path, vs the ~25 us Sem_op RPC it replaces. [structural; the
    authors hint at exactly this shared-memory fast path "in ongoing
    work", Table 5 discussion] *)

val vdso_call : Time.t
(** A syscall serviced from the read-only per-picoprocess vDSO page the
    host kernel publishes (pid / ppid / uid / virtual-time base): one
    validity check plus a couple of loads, no PAL crossing — like a
    Linux vDSO [gettimeofday]. Slightly above {!libos_call} because the
    generation check touches shared state. [structural; cf.
    linux-insides vsyscall/vDSO chapter] *)

val ring_submit : Time.t
(** Draining one submission-ring batch into the PAL: a single boundary
    crossing (doorbell + SQE array walk setup + completion reap)
    amortized over every entry in the batch, replacing one
    {!host_syscall_entry} per call. [structural; cf. io_uring's
    single-syscall batch submission] *)

val ring_sqe : Time.t
(** Per-entry bookkeeping while draining a ring batch (decode the SQE,
    post the CQE in order); the operation's own work cost (e.g.
    {!host_read_base} + copy) is charged separately per entry.
    [structural] *)

val host_time_query : Time.t
(** Reading the host clock once trapped into the kernel (the work of
    clock_gettime itself, excluding entry): 25 ns. [structural;
    composes with {!host_syscall_entry} toward the paper's syscall
    row] *)

val pal_random_read : Time.t
(** PAL RandomBitsRead: host entropy-pool draw. [structural] *)

val pal_icache_flush : Time.t
(** PAL InstructionCacheFlush: purely local cache maintenance, no host
    trap. [structural] *)

val native_sched_yield : Time.t
(** Native sched_yield with an empty run queue: kernel entry aside,
    ~100 ns of scheduler work. [structural] *)

val lsm_socket_check : Time.t
(** Reference-monitor check on socket/bind/connect (AF_UNIX +RM 6.37 us
    vs 5.71 us). [structural] *)

val lsm_sock_op_check : Time.t
(** Per-send/receive recheck of a socket descriptor under the monitor
    (AF_UNIX +RM 6.37 us vs 5.71 us over a 4-call round trip).
    [structural] *)

val lsm_fd_check : Time.t
(** Cheaper per-call recheck of already-authorized descriptors (select
    +RM 17.44 us vs 17.02 us). [structural] *)

val select_base : Time.t
(** Host select/poll over TCP fds: 10.87 us. [paper-linux: select tcp] *)

val select_pal_translation : Time.t
(** PAL poll-set translation on top of host select (Graphene select
    17.02 us). [structural] *)

val epoll_op : Time.t
(** epoll_create / epoll_ctl bookkeeping in libLinux: allocate or
    mutate the interest list, no host call. [structural; cf. Linux
    epoll_ctl at a few hundred ns] *)

val epoll_wait_base : Time.t
(** Fixed cost of an epoll_wait that finds ready descriptors: unlike
    select's O(interest-set) scan + PAL poll-set translation per call,
    the kernel maintained the ready list while the libOS slept.
    [structural; the select/epoll gap on Linux is roughly this shape] *)

val epoll_ready_event : Time.t
(** Per-ready-descriptor reporting cost of epoll_wait — the O(ready)
    leg, vs select's O(interest). [structural] *)

val stream_oneway : Time.t
(** One-way latency of a host byte-stream message between picoprocesses
    (scheduling + wakeup included); AF_UNIX round trip 4.71 us native.
    [paper-linux: AF UNIX] *)

val stream_connect : Time.t
(** Establishing a new point-to-point stream (create + handshake +
    handle grant). [structural] *)

val tcp_connect : Time.t
(** Loopback TCP connect handshake. [structural] *)

(** {1 Signals} *)

val native_sig_install : Time.t
(** sigaction in the host kernel: 110 ns. [paper-linux: sig install] *)

val libos_sig_install : Time.t
(** sigaction updating libLinux tables: 200 ns. [structural, matches
    Graphene 0.20 us] *)

val native_self_signal : Time.t
(** kill(self)+handler on native Linux: 790 ns. [paper-linux: sigusr1] *)

val libos_self_signal : Time.t
(** Self-signal as a libLinux function call: 330 ns. [structural,
    matches Graphene 0.33 us] *)

val helper_dispatch : Time.t
(** IPC-helper wakeup + message decode + dispatch for one RPC.
    [structural; composes with {!stream_oneway} to the paper's ~55 us
    cached signal] *)

val rpc_handler : Time.t
(** Executing a simple RPC handler body (signal mark-pending, exit
    notification, ...). [structural] *)

(** {1 Process lifecycle} *)

val native_process_start : Time.t
(** fork+exec of a native Linux process: 208 us. [paper-Table 4] *)

val native_fork : Time.t
(** Native fork+exit: 67 us. [paper-linux: fork+exit] *)

val native_exec : Time.t
(** Native exec incremental over fork (fork+exec 231 us). [paper] *)

val picoprocess_spawn : Time.t
(** Host-side creation of a clean picoprocess (internally a vfork+exec
    of a fresh PAL instance): ~77 us. [structural: "one sixth of this
    overhead is in process creation"] *)

val pal_load : Time.t
(** PAL + manifest load and seccomp installation at picoprocess start;
    composes with {!picoprocess_spawn} and refmon startup to the
    paper's 641 us picoprocess start. [structural] *)

val ckpt_fixed : Time.t
(** Fixed cost of libLinux checkpoint (handle table walk, header).
    [structural] *)

val ckpt_per_byte : float
(** ns per byte serialized at checkpoint ("substantial serialization
    effort"). [structural; composes to 416 us for the 376 KB hello
    checkpoint] *)

val resume_fixed : Time.t
val resume_per_byte : float
(** Resume is slower than checkpoint (1387 us vs 416 us): state must be
    re-validated and relinked. [paper-Table 4 ratio] *)

val bulk_ipc_setup : Time.t
(** gipc send/receive setup per fork (map descriptors, control
    messages). [structural] *)

val bulk_ipc_per_page : Time.t
(** Marking one page COW and granting it over bulk IPC. [structural] *)

val cow_fault : Time.t
(** Copy-on-write fault: copy one page on first write. [structural] *)

(** {1 Virtual machines (KVM baseline)} *)

val kvm_boot : Time.t
(** Booting the KVM guest to a usable shell: 3.3 s. [paper-Table 4] *)

val kvm_checkpoint_per_byte : float
(** ns/byte to write the VM RAM image (105 MB in 0.987 s). [paper] *)

val kvm_resume_per_byte : float
(** ns/byte to load the VM RAM image (1.146 s). [paper] *)

val virtio_net_overhead : Time.t
(** Per-operation bridged-virtio overhead (KVM network rows of Table 5
    lose 3-22% vs native). [structural] *)

val kvm_syscall_overhead : Time.t
(** Added cost of a guest syscall under KVM (mostly none with hardware
    virtualization, small for the workloads measured). [structural] *)

(** {1 Memory accounting (bytes, not time)} *)

val page_size : int
val kvm_min_ram : int
(** Smallest VM RAM that does not harm performance: 128 MB. [paper] *)

val qemu_device_overhead : int
(** QEMU device-emulation memory: "a few dozen MB"; 25 MB. [paper] *)

(** {1 Contention (Figure 5)} *)

val pingpong_base : Time.t
(** Round-trip of a 1-byte ping-pong between two otherwise idle
    processes over a pipe, under the stress-test conditions of Fig. 5
    (cold caches, cross-chip wakeups on the 48-core Opteron).
    [structural] *)

val pingpong_contention : Time.t
(** Added round-trip latency per concurrently stress-testing process
    (shared kernel structures, run-queue pressure). [structural;
    slope of Fig. 5] *)

val rpc_pingpong_extra : Time.t
(** Graphene no-op RPC cost above the raw pipe round trip (message
    framing in the helper). [structural; Fig. 5 shows the two curves
    nearly overlap] *)

val numa_noise_above : int
(** Core count beyond which Fig. 5 shows extra variance (cross-socket
    scheduling); used to widen jitter. [paper §6.5] *)
