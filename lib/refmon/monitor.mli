(** The trusted reference monitor.

    An unprivileged launcher daemon plus AppArmor-LSM extensions
    (paper §3). Installing it hooks every path, network, stream and
    bulk-IPC decision in the host kernel; launching an application
    through it binds a manifest to the new sandbox. The monitor itself
    runs under a reduced seccomp filter. Every denial is recorded; the
    §6.6 isolation experiments assert on this audit log. *)

module K = Graphene_host.Kernel

type violation = {
  v_pid : int;  (** host picoprocess id *)
  v_sandbox : int;
  v_what : string;  (** human-readable description of the denial *)
}

type t

val install : K.t -> t
(** Install the LSM hooks into the kernel. From this point every
    traced host call is policy-checked (and pays the LSM costs). *)

(** {1 Decision cache}

    A bounded memo of allow verdicts per (sandbox, access class,
    canonical path). Invalidation is epoch-based: any change to a
    sandbox's manifest view (launch, {!bind_sandbox}, a sandbox split)
    bumps that sandbox's epoch and makes its entries stale at once.
    Denials are never cached — every one must reach the audit log.
    At most 512 entries; the oldest evicts first. On from {!install}
    (docs/PERF.md). Hits, misses, evictions and epoch bumps count as
    the kernel tracer's [refmon.cache.*] counters. *)

val sandbox_epoch : t -> sandbox:int -> int
(** The sandbox's current manifest epoch (0 until first bound). *)

val launch :
  ?cfg:Graphene_ipc.Config.t ->
  ?console_hook:(string -> unit) ->
  t ->
  manifest:Manifest.t ->
  exe:string ->
  argv:string list ->
  unit ->
  Graphene_liblinux.Lx.t
(** Start an application in a fresh sandbox governed by [manifest] —
    the only way applications start under the monitor. *)

val bind_sandbox : t -> sandbox:int -> manifest:Manifest.t -> unit
(** Attach a policy to an existing sandbox (children launched into a
    separate sandbox may be given a subset view). *)

val sandbox_manifest : t -> sandbox:int -> Manifest.t option

val violations : t -> violation list
(** The audit log, oldest first. *)

val clear_violations : t -> unit

val own_filter : t -> Graphene_bpf.Prog.t
(** The reduced seccomp filter the monitor runs itself under. *)
