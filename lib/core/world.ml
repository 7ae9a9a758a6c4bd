(** The top-level convenience API.

    A [World] is one simulated machine configured as one of the paper's
    three comparison stacks, with all guest binaries installed:

    - [Linux]: processes on the native kernel personality;
    - [Kvm]: the same, inside the KVM guest model (boot cost, VM
      memory, virtio overheads);
    - [Graphene]: picoprocesses on libLinux over the PAL;
    - [Graphene_rm]: same, launched by the reference monitor with a
      manifest (the configuration every security property needs and the
      "+RM" columns measure).

    [start] launches the same guest binary on whatever the stack is and
    returns a uniform process handle, so benchmarks and examples are
    written once. *)

module K = Graphene_host.Kernel
module Lx = Graphene_liblinux.Lx
module Native = Graphene_baseline.Native
module Monitor = Graphene_refmon.Monitor
module Manifest = Graphene_refmon.Manifest
module Install = Graphene_apps.Install
module Ipc_config = Graphene_ipc.Config

type stack = Linux | Kvm | Graphene | Graphene_rm

let stack_name = function
  | Linux -> "Linux"
  | Kvm -> "KVM"
  | Graphene -> "Graphene"
  | Graphene_rm -> "Graphene+RM"

type t = {
  kernel : K.t;
  stack : stack;
  native : Native.ctx option;
  monitor : Monitor.t option;
  cfg : Ipc_config.t;
}

type proc = Pl of Lx.t | Pn of Native.proc

let create ?(cores = 4) ?(seed = 42) ?(noise = 0.0) ?(cfg = Ipc_config.default ()) ?faults
    stack =
  let kernel = K.create ~cores ~seed ~noise () in
  (* the fault plan is materialized from the run seed, so the same
     (seed, spec) pair replays the exact same failure schedule *)
  (match faults with
  | Some spec -> K.install_faults kernel (Graphene_sim.Fault.create ~seed spec)
  | None -> ());
  Install.all kernel.K.fs;
  (* the dcache comes up after install-time churn, so the first guest
     walk of every path misses *)
  Graphene_host.Vfs.configure_dcache kernel.K.fs ~enabled:true
    ~capacity:Graphene_host.Vfs.dcache_capacity;
  let native =
    match stack with
    | Linux -> Some (Native.create kernel)
    | Kvm -> Some (Native.create ~vm:Native.kvm_profile kernel)
    | Graphene | Graphene_rm -> None
  in
  let monitor = match stack with Graphene_rm -> Some (Monitor.install kernel) | _ -> None in
  { kernel; stack; native; monitor; cfg }

let kernel t = t.kernel
let stack t = t.stack
let monitor t = t.monitor
let tracer t = t.kernel.K.tracer
let audit t = t.kernel.K.audit
let invariants t = t.kernel.K.invariants
let contend t = t.kernel.K.contend

let default_manifest =
  (* the benchmark manifest: the usual chroot view of a server image *)
  { Manifest.fs_rules =
      [ { Manifest.prefix = "/f.bench"; access = Manifest.Read_only };
        { Manifest.prefix = "/bin"; access = Manifest.Read_only };
        { Manifest.prefix = "/usr"; access = Manifest.Read_only };
        { Manifest.prefix = "/lib"; access = Manifest.Read_only };
        { Manifest.prefix = "/etc"; access = Manifest.Read_only };
        { Manifest.prefix = "/src"; access = Manifest.Read_write };
        { Manifest.prefix = "/tmp"; access = Manifest.Read_write };
        { Manifest.prefix = "/www"; access = Manifest.Read_only };
        { Manifest.prefix = "/var"; access = Manifest.Read_write };
        { Manifest.prefix = "/dev"; access = Manifest.Read_write } ];
    exec_prefixes = [ "/bin" ];
    net_rules =
      [ { Manifest.dir = Manifest.Bind; port_lo = 1; port_hi = 65535 };
        { Manifest.dir = Manifest.Connect; port_lo = 1; port_hi = 65535 } ] }

let start ?console_hook ?manifest t ~exe ~argv () =
  match (t.stack, t.native, t.monitor) with
  | (Linux | Kvm), Some ctx, _ -> Pn (Native.boot ?console_hook ctx ~exe ~argv ())
  | Graphene, None, None -> Pl (Lx.boot ~cfg:t.cfg ?console_hook t.kernel ~exe ~argv ())
  | Graphene_rm, None, Some mon ->
    let manifest = Option.value ~default:default_manifest manifest in
    Pl (Monitor.launch ~cfg:t.cfg ?console_hook mon ~manifest ~exe ~argv ())
  | _ -> invalid_arg "World.start: inconsistent stack"

let run ?(max_events = 100_000_000) t = K.run_watchdog t.kernel ~max_events
let now t = K.now t.kernel

let console = function Pl lx -> Lx.console_output lx | Pn p -> Native.console_output p
let exited = function Pl lx -> Lx.exited lx | Pn p -> Native.exited p
let exit_code = function Pl lx -> Lx.exit_code lx | Pn p -> Native.exit_code p

let started_at = function Pl lx -> Lx.started_at lx | Pn p -> Native.started_at p

let pico = function Pl lx -> Lx.pico lx | Pn p -> Native.pico_of p

(* System-wide memory footprint: unique resident frames — or, on a VM
   stack, the VM's fixed allocation (guest pages live inside that RAM,
   so they must not be double-counted) — what Figure 4 compares. *)
let memory_footprint t =
  match t.native with
  | Some ctx when Native.vm_memory ctx > 0 -> Native.vm_memory ctx
  | _ -> K.system_memory t.kernel

(* A permissive client sandbox for load generators ("the other
   machine"). *)
let client_pico t =
  let sandbox = K.fresh_sandbox t.kernel in
  let pico = K.spawn t.kernel ~with_pal:false ~sandbox ~exe:"[loadgen]" () in
  (match t.monitor with
  | Some mon -> Monitor.bind_sandbox mon ~sandbox ~manifest:Manifest.allow_all
  | None -> ());
  pico
