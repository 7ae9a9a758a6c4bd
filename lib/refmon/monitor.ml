(** The trusted reference monitor.

    An unprivileged launcher daemon plus AppArmor-LSM extensions
    (paper §3). Installing it hooks every path, network, stream and
    bulk-IPC decision in the host kernel; launching an application
    through it binds a manifest to the new sandbox and boots the libOS
    inside. The monitor itself runs under a reduced seccomp filter
    ({!Graphene_bpf.Seccomp.monitor_filter}).

    Every denial is recorded; the isolation experiments of §6.6 assert
    on this audit log. *)

module Obs = Graphene_obs.Obs
module Audit = Graphene_obs.Audit
module K = Graphene_host.Kernel
module Lx = Graphene_liblinux.Lx
module Seccomp = Graphene_bpf.Seccomp
module Ipc_config = Graphene_ipc.Config
module Fifo_cache = Graphene_sim.Fifo_cache

type violation = {
  v_pid : int;  (** host picoprocess id *)
  v_sandbox : int;
  v_what : string;
}

(* Decision-cache key: which sandbox asked, for what access class, on
   which canonical path. The value carries the sandbox's manifest epoch
   at fill time plus the manifest rule that granted access — a bumped
   epoch makes every entry for that sandbox stale without walking the
   table, and a cache hit can still attribute its allow to the
   original rule in the audit log. Only allows are memoized — every
   denial must land in the audit log (§6.6 asserts on it). *)
type t = {
  kernel : K.t;
  sandboxes : (int, Manifest.t) Hashtbl.t;
  mutable violations : violation list;
  own_filter : Graphene_bpf.Prog.t;
  mutable launches : int;
  decisions : (int * char * string, int * string) Fifo_cache.t;
  epochs : (int, int) Hashtbl.t;  (** sandbox -> manifest epoch *)
}

let cache_capacity = 512

let violations t = List.rev t.violations
let clear_violations t = t.violations <- []
let own_filter t = t.own_filter

let cache_count t name =
  let tracer = t.kernel.K.tracer in
  if Obs.enabled tracer then Obs.count tracer name

let epoch_of t sandbox = Option.value ~default:0 (Hashtbl.find_opt t.epochs sandbox)

let sandbox_epoch t ~sandbox = epoch_of t sandbox

(* The manifest view of [sandbox] changed: every memoized decision for
   it is stale from this instant. *)
let bump_epoch t sandbox =
  Hashtbl.replace t.epochs sandbox (epoch_of t sandbox + 1);
  cache_count t "refmon.cache.invalidate"

let access_char = function `Read -> 'r' | `Write -> 'w' | `Exec -> 'x'

let deny t (pico : K.pico) what =
  t.violations <- { v_pid = pico.K.pid; v_sandbox = pico.K.sandbox; v_what = what } :: t.violations;
  let tracer = t.kernel.K.tracer in
  if Obs.enabled tracer then begin
    Obs.count tracer "refmon.violations";
    Obs.instant tracer Obs.Refmon ~name:"violation" ~pid:pico.K.pid
      ~args:[ ("what", Obs.Astr what); ("sandbox", Obs.Aint pico.K.sandbox) ]
      (K.now t.kernel)
  end;
  (* the one denial choke point: every refusal reaches the audit log,
     cached or not (denials are never cached) *)
  K.audit_emit t.kernel Audit.Refmon ~action:"deny" ~pid:pico.K.pid
    ~args:[ ("what", Obs.Astr what); ("sandbox", Obs.Aint pico.K.sandbox) ]
    ();
  false

(* An allow with its manifest-rule provenance; [cached] marks verdicts
   answered from the decision cache (attributed to the rule that
   filled the entry). Allows are the hot path, so callers test
   [auditing] first: a disabled log costs one branch and formats no
   target. *)
let auditing t = Audit.enabled t.kernel.K.audit

let audit_allow t (pico : K.pico) ~target ~rule ~cached =
  K.audit_emit t.kernel Audit.Refmon ~action:"allow" ~pid:pico.K.pid
    ~args:
      [ ("target", Obs.Astr target);
        ("rule", Obs.Astr rule);
        ("sandbox", Obs.Aint pico.K.sandbox);
        ("cached", Obs.Aint (if cached then 1 else 0)) ]
    ()

let manifest_of t sandbox =
  Option.value ~default:Manifest.empty (Hashtbl.find_opt t.sandboxes sandbox)

(* {1 LSM hooks} *)

let path_target path access = Printf.sprintf "%s (%c)" path (access_char access)

(* Full manifest walk; returns the granting rule so the caller can
   memoize it. *)
let check_path_rule t pico path access =
  let m = manifest_of t (pico : K.pico).K.sandbox in
  match Manifest.matching_rule m path access with
  | Some rule ->
    if auditing t then audit_allow t pico ~target:(path_target path access) ~rule ~cached:false;
    Some rule
  | None ->
    ignore (deny t pico (Printf.sprintf "path %s (%c)" path (access_char access)));
    None

let lsm_of t =
  { K.check_path =
      (fun pico path access ->
        let sandbox = pico.K.sandbox in
        let key = (sandbox, access_char access, path) in
        let epoch = epoch_of t sandbox in
        match Fifo_cache.find t.decisions key with
        | Some (e, rule) when e = epoch ->
          cache_count t "refmon.cache.hit";
          if auditing t then
            audit_allow t pico ~target:(path_target path access) ~rule ~cached:true;
          true
        | _ -> (
          cache_count t "refmon.cache.miss";
          match check_path_rule t pico path access with
          | Some rule ->
            if Fifo_cache.add t.decisions key (epoch, rule) <> None then
              cache_count t "refmon.cache.evict";
            true
          | None -> false));
    probe_path =
      (fun pico path access ->
        match Fifo_cache.find t.decisions (pico.K.sandbox, access_char access, path) with
        | Some (e, _) -> e = epoch_of t pico.K.sandbox
        | _ -> false);
    check_net =
      (fun pico ~addr:_ ~port dir ->
        let m = manifest_of t pico.K.sandbox in
        match Manifest.matching_net_rule m ~port dir with
        | Some rule ->
          if auditing t then
            audit_allow t pico
              ~target:
                (Printf.sprintf "port %d (%s)" port
                   (match dir with `Bind -> "bind" | `Connect -> "connect"))
              ~rule ~cached:false;
          true
        | None ->
          deny t pico
            (Printf.sprintf "net port %d (%s)" port
               (match dir with `Bind -> "bind" | `Connect -> "connect")));
    check_stream_connect =
      (fun pico srv ->
        (* pipe-style byte streams may not bridge sandboxes; TCP
           connections are governed by the iptables-style net rules,
           which were already checked on the connect path *)
        if String.length srv.K.srv_name >= 4 && String.sub srv.K.srv_name 0 4 = "tcp:" then
          true
        else
          match K.find_pico t.kernel srv.K.srv_owner with
          | Some owner when owner.K.sandbox = pico.K.sandbox -> true
          | Some _ -> deny t pico (Printf.sprintf "cross-sandbox stream %s" srv.K.srv_name)
          | None -> deny t pico (Printf.sprintf "stream to dead owner %s" srv.K.srv_name));
    check_gipc =
      (fun ~src ~dst ->
        src.K.sandbox = dst.K.sandbox || deny t dst "cross-sandbox bulk IPC");
    on_sandbox_split =
      (fun pico ~old_sandbox ~paths ->
        (* the detached picoprocess's view narrows to the requested
           subset of the view it left; it can never grow *)
        let old = manifest_of t old_sandbox in
        let narrowed = if paths = [] then old else Manifest.narrow_to_paths old paths in
        Hashtbl.replace t.sandboxes pico.K.sandbox narrowed;
        bump_epoch t pico.K.sandbox) }

let install kernel =
  let t =
    { kernel;
      sandboxes = Hashtbl.create 8;
      violations = [];
      own_filter = Seccomp.monitor_filter ();
      launches = 0;
      decisions = Fifo_cache.create ~capacity:cache_capacity;
      epochs = Hashtbl.create 8 }
  in
  K.set_lsm kernel (lsm_of t);
  t

(* {1 Launching}

   All Graphene applications are started by the reference monitor,
   which creates the sandbox, binds the manifest, loads the policy
   into the LSM and boots the libOS. *)

let launch ?(cfg = Ipc_config.default ()) ?console_hook t ~manifest ~exe ~argv () =
  t.launches <- t.launches + 1;
  (* policy load + manifest parse happen before the app runs *)
  let lx = Lx.boot ~cfg ?console_hook t.kernel ~exe ~argv () in
  Hashtbl.replace t.sandboxes (Lx.pico lx).K.sandbox manifest;
  bump_epoch t (Lx.pico lx).K.sandbox;
  lx

(* Children launched into a separate sandbox (the picoprocess-creation
   flag of §3) may be given a subset manifest. *)
let bind_sandbox t ~sandbox ~manifest =
  Hashtbl.replace t.sandboxes sandbox manifest;
  bump_epoch t sandbox

let sandbox_manifest t ~sandbox = Hashtbl.find_opt t.sandboxes sandbox
