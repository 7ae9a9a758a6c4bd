(** The Platform Adaptation Layer.

    One [t] per picoprocess. Implements the 43 host ABI functions of
    {!Abi.table} as thin translations onto the host kernel, charging
    the calibrated cost of the underlying host system calls (including
    evaluation of the installed seccomp filter and — when a reference
    monitor is active — the LSM checks on traced calls).

    All calls are in continuation-passing style: the continuation fires
    after the call's virtual-time cost has elapsed, so concurrent
    picoprocesses interleave correctly. Results are [('a, errno)
    result] with [errno = Graphene_core.Errno.t]; host-internal string
    tags ({!Graphene_host.Vfs.Error}, {!Graphene_host.Kernel.Denied})
    are converted exactly once, here at the PAL boundary. *)

open Graphene_sim
module Obs = Graphene_obs.Obs
module K = Graphene_host.Kernel
module Stream = Graphene_host.Stream
module Memory = Graphene_host.Memory
module Sync = Graphene_host.Sync
module Vfs = Graphene_host.Vfs
module Ast = Graphene_guest.Ast
module Interp = Graphene_guest.Interp
module Errno = Graphene_core.Errno

type errno = Errno.t

type exception_info =
  | Div_zero
  | Mem_fault of int
  | Illegal of string
  | Interrupted  (** DkThreadInterrupt upcall — signal delivery *)

type t = {
  kernel : K.t;
  pico : K.pico;
  mutable exception_handler : (K.thread -> exception_info -> unit) option;
  mutable thread_service : K.thread_service option;
      (** service installed on threads created by {!thread_create};
          registered by the personality at boot *)
  mutable tls : (int * Ast.value) list;  (** DkSegmentRegisterSet state, per tid *)
  mutable next_mmap : int;
  mutable call_count : int;  (** lifetime PAL calls, telemetry *)
}

let create kernel pico =
  { kernel;
    pico;
    exception_handler = None;
    thread_service = None;
    tls = [];
    next_mmap = K.heap_base;
    call_count = 0 }

let kernel t = t.kernel
let pico t = t.pico
let call_count t = t.call_count

(* Return PC used for host syscalls the PAL itself issues: inside the
   PAL's code region, so the seccomp filter lets them through. *)
let pal_pc = K.pal_base + 0x100

exception Pal_killed

(* Issue one host system call on behalf of a PAL entry point: evaluate
   the filter, charge entry + filter + [cost], then continue. *)
let host t ~name ?(args = [||]) ~cost k =
  t.call_count <- t.call_count + 1;
  if K.fault_pal_call t.kernel t.pico then
    (* crash-call fault: the kernel just killed this picoprocess; the
       call never completes and the continuation must not run *)
    ()
  else begin
  let action, filter_cost, total = K.pal_syscall t.kernel t.pico ~name ~pc:pal_pc ~args ~cost in
  let tracer = t.kernel.K.tracer in
  if Obs.enabled tracer then begin
    Obs.span tracer Obs.Pal ~name ~pid:t.pico.K.pid
      ~args:[ ("filter_ns", Obs.Aint filter_cost) ]
      ~start:(K.now t.kernel) ~dur:total ();
    Obs.observe tracer ("pal." ^ name ^ "_ns") (float_of_int total)
  end;
  match action with
  | Graphene_bpf.Prog.Allow | Graphene_bpf.Prog.Trace -> K.after t.kernel total k
  | Graphene_bpf.Prog.Errno e -> K.after t.kernel total (fun () -> raise (K.Denied (string_of_int e)))
  | Graphene_bpf.Prog.Trap ->
    (* A PAL-issued call should never trap; a broken filter is fatal. *)
    K.kill_pico t.kernel t.pico;
    raise Pal_killed
  | Graphene_bpf.Prog.Kill ->
    K.kill_pico t.kernel t.pico;
    raise Pal_killed
  end

(* LSM cost applies only when a real reference monitor installed one. *)
let lsm_cost t c = if K.lsm_active t.kernel then c else Time.zero

(* Path-walk cost leg: a dcache hit (positive or negative) replaces the
   per-component walk with one hash probe. The probe is pure — the real
   lookup inside the host call does the filling and counting. *)
let walk_cost t path =
  match Vfs.dcache_probe t.kernel.K.fs path with
  | Vfs.Dhit -> Cost.dcache_hit
  | Vfs.Dneg_hit -> Cost.dcache_neg_hit
  | Vfs.Dmiss -> Time.scale Cost.path_component (float_of_int (Vfs.depth path))

(* LSM path-check cost leg: shrinks to the memoized-decision cost when
   the monitor's decision cache already holds this (sandbox, access,
   path) verdict. *)
let path_check_cost t path access =
  if not (K.lsm_active t.kernel) then Time.zero
  else if t.kernel.K.lsm.K.probe_path t.pico (Vfs.normalize path) access then
    Cost.refmon_cache_hit
  else Cost.lsm_path_check

(* A seccomp Errno action carries a raw number; LSM denials carry a
   string tag, possibly with detail ("EACCES /etc/shadow"). *)
let errno_of_denied e =
  match int_of_string_opt e with
  | Some n -> (
    match Errno.of_code n with
    | Some c -> c
    | None -> Errno.EUNKNOWN e)
  | None -> Errno.of_string e

(* Convert kernel/VFS exceptions into typed Error results — the single
   point where host-internal string tags become {!Errno.t}. *)
let guard k f =
  match f () with
  | v -> k (Ok v)
  | exception Vfs.Error e -> k (Error (Errno.of_string e))
  | exception K.Denied e -> k (Error (errno_of_denied e))
  | exception Memory.Fault _ -> k (Error Errno.EFAULT)
  | exception Invalid_argument _ -> k (Error Errno.EINVAL)

(* {1 Memory} *)

let pages = Memory.pages_of_bytes

let virtual_memory_alloc t ?addr ~bytes ~perm ~kind k =
  let npages = pages bytes in
  let base =
    match addr with
    | Some a -> a
    | None ->
      let a = t.next_mmap in
      t.next_mmap <- a + (npages * Memory.page_size) + Memory.page_size;
      a
  in
  let cost = Time.add (Time.ns 300) (Time.scale (Time.ns 10) (float_of_int npages)) in
  host t ~name:"mmap" ~cost (fun () ->
      guard k (fun () ->
          ignore (Memory.map t.pico.K.aspace ~base ~npages ~perm ~kind);
          base))

let virtual_memory_free t ~addr k =
  host t ~name:"munmap" ~cost:(Time.ns 300) (fun () ->
      guard k (fun () -> Memory.unmap t.pico.K.aspace ~base:addr))

let virtual_memory_protect t ~addr ~npages ~perm k =
  host t ~name:"mprotect" ~cost:(Time.ns 250) (fun () ->
      guard k (fun () -> Memory.protect t.pico.K.aspace ~base:addr ~npages ~perm))

(* {1 Scheduling} *)

let thread_create t machine k =
  match t.thread_service with
  | None -> k (Error Errno.EINVAL)
  | Some service ->
    host t ~name:"clone" ~cost:(Time.us 15.) (fun () ->
        guard k (fun () -> K.spawn_thread t.kernel t.pico machine ~service))

let thread_exit t thread =
  (* issued for its side effect; the thread never continues *)
  t.call_count <- t.call_count + 1;
  K.finish_thread t.kernel thread

let thread_yield t k =
  host t ~name:"sched_yield" ~cost:Cost.native_sched_yield (fun () -> k (Ok ()))

(* Interrupt a thread: the exception handler (registered by the
   personality) runs with [Interrupted] — used to deliver signals to
   threads stuck in CPU loops (paper §4.2). *)
let thread_interrupt t thread k =
  host t ~name:"tgkill" ~cost:(Time.us 1.2) (fun () ->
      (match t.exception_handler with
      | Some handler -> handler thread Interrupted
      | None -> ());
      k (Ok ()))

let notification_event_create t ~auto_reset k =
  host t ~name:"futex" ~cost:(Time.ns 80) (fun () ->
      k (Ok (K.fresh_handle t.kernel (K.Hevent (Sync.make_event ~auto_reset)))))

let event_set t h k =
  match h.K.obj with
  | K.Hevent ev -> host t ~name:"futex" ~cost:(Time.ns 60) (fun () -> Sync.event_set ev; k (Ok ()))
  | _ -> k (Error Errno.EINVAL)

let event_clear t h k =
  match h.K.obj with
  | K.Hevent ev -> host t ~name:"futex" ~cost:(Time.ns 60) (fun () -> Sync.event_clear ev; k (Ok ()))
  | _ -> k (Error Errno.EINVAL)

let mutex_create t k =
  host t ~name:"futex" ~cost:(Time.ns 80) (fun () ->
      k (Ok (K.fresh_handle t.kernel (K.Hmutex (Sync.make_mutex ())))))

let mutex_unlock t h k =
  match h.K.obj with
  | K.Hmutex mu ->
    host t ~name:"futex" ~cost:(Time.ns 60) (fun () -> Sync.mutex_unlock mu; k (Ok ()))
  | _ -> k (Error Errno.EINVAL)

let semaphore_create t ~count k =
  host t ~name:"futex" ~cost:(Time.ns 80) (fun () ->
      k (Ok (K.fresh_handle t.kernel (K.Hsema (Sync.make_semaphore ~count)))))

let semaphore_release t h k =
  match h.K.obj with
  | K.Hsema sem ->
    host t ~name:"futex" ~cost:(Time.ns 60) (fun () -> Sync.semaphore_release sem; k (Ok ()))
  | _ -> k (Error Errno.EINVAL)

(* Wait until any of [handles] is ready; continue with its index.
   Waitable objects: events, mutexes (lock), semaphores (acquire),
   process handles (exit) and stream handles (readable / EOF). A
   completed wait retracts grants it won from the other objects. *)
let objects_wait_any t handles k =
  if handles = [] then k (Error Errno.EINVAL)
  else begin
    host t ~name:"futex" ~cost:(Time.ns 120) (fun () ->
        let completed = ref false in
        let finish idx =
          if not !completed then begin
            completed := true;
            k (Ok idx)
          end
        in
        List.iteri
          (fun idx h ->
            if not !completed then
              match h.K.obj with
              | K.Hevent ev ->
                if Sync.event_wait ev ~waiter:(fun () -> finish idx) then finish idx
              | K.Hmutex mu ->
                let waiter () =
                  (* ownership was granted to us; give it back if the
                     wait already completed on another object *)
                  if !completed then Sync.mutex_unlock mu else finish idx
                in
                if Sync.mutex_lock mu ~waiter then finish idx
              | K.Hsema sem ->
                let waiter () =
                  if !completed then Sync.semaphore_release sem else finish idx
                in
                if Sync.semaphore_acquire sem ~waiter then finish idx
              | K.Hprocess p -> K.on_pico_exit t.kernel p (fun _code -> finish idx)
              | K.Hstream ep ->
                let rec arm () =
                  if Stream.available ep > 0 || Stream.has_oob ep || Stream.at_eof ep then
                    finish idx
                  else Stream.on_activity ep (fun () -> if not !completed then arm ())
                in
                arm ()
              | K.Hserver srv ->
                if srv.K.backlog <> [] then finish idx
                else
                  srv.K.accept_waiters <-
                    srv.K.accept_waiters
                    @ [ (fun ep ->
                          (* a readiness probe never consumes the
                             connection: pass it to the next waiter in
                             line (a blocked accept, or another probe),
                             or stash it for a later accept call.
                             Stranding it in the backlog while accepts
                             sit queued behind this probe would wedge
                             an acceptor that already checked the
                             backlog — and any semaphore it holds *)
                          (match srv.K.accept_waiters with
                          | w :: rest ->
                            srv.K.accept_waiters <- rest;
                            w ep
                          | [] -> srv.K.backlog <- srv.K.backlog @ [ ep ]);
                          if not !completed then finish idx) ]
              | K.Hfile _ | K.Hdir _ | K.Hnull -> finish idx)
          handles)
  end

(* {1 Files and streams} *)

type uri =
  | Ufile of string
  | Udir of string
  | Upipe_srv of string
  | Upipe of string
  | Utcp_srv of int
  | Utcp of int

let parse_uri s =
  match String.index_opt s ':' with
  | None -> Error Errno.EINVAL
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "file" -> Ok (Ufile rest)
    | "dir" -> Ok (Udir rest)
    | "pipe.srv" -> Ok (Upipe_srv rest)
    | "pipe" -> Ok (Upipe rest)
    | "tcp.srv" -> (
      match int_of_string_opt rest with
      | Some p -> Ok (Utcp_srv p)
      | None -> Error Errno.EINVAL)
    | "tcp" -> (
      match int_of_string_opt rest with
      | Some p -> Ok (Utcp p)
      | None -> Error Errno.EINVAL)
    | _ -> Error Errno.EINVAL)

let register_stream t ep = K.register_endpoint t.kernel t.pico ep

let stream_open t uri ~write ~create k =
  match parse_uri uri with
  | Error e -> k (Error e)
  | Ok (Ufile path) ->
    let access = if write || create then `Write else `Read in
    let cost =
      Time.add Cost.host_open (Time.add (walk_cost t path) (path_check_cost t path access))
    in
    host t ~name:"open" ~cost (fun () ->
        guard k (fun () -> K.fs_open t.kernel t.pico path ~write ~create))
  | Ok (Udir path) ->
    let cost = Time.add Cost.host_open (lsm_cost t Cost.lsm_path_check) in
    host t ~name:"open" ~cost (fun () ->
        guard k (fun () ->
            match Vfs.stat t.kernel.K.fs (Vfs.normalize path) with
            | { Vfs.st_is_dir = true; _ } -> K.fresh_handle t.kernel (K.Hdir (Vfs.normalize path))
            | _ -> raise (Vfs.Error "ENOTDIR")))
  | Ok (Upipe_srv name) ->
    host t ~name:"bind" ~cost:(Time.us 1.0) (fun () ->
        guard k (fun () ->
            K.fresh_handle t.kernel (K.Hserver (K.stream_server t.kernel t.pico ~name:("pipe:" ^ name)))))
  | Ok (Upipe name) ->
    host t ~name:"connect" ~cost:(Time.us 1.0) (fun () ->
        K.stream_connect t.kernel t.pico ~name:("pipe:" ^ name)
          ~ok:(fun ep ->
            register_stream t ep;
            k (Ok (K.fresh_handle t.kernel (K.Hstream ep))))
          ~err:(fun e -> k (Error (Errno.of_string e))))
  | Ok (Utcp_srv port) ->
    let cost = Time.add (Time.us 1.5) (lsm_cost t Cost.lsm_socket_check) in
    host t ~name:"bind" ~cost (fun () ->
        guard k (fun () ->
            K.fresh_handle t.kernel (K.Hserver (K.net_listen t.kernel t.pico ~port))))
  | Ok (Utcp port) ->
    let cost = Time.add (Time.us 1.5) (lsm_cost t Cost.lsm_socket_check) in
    host t ~name:"connect" ~cost (fun () ->
        K.net_connect t.kernel t.pico ~port
          ~ok:(fun ep ->
            register_stream t ep;
            k (Ok (K.fresh_handle t.kernel (K.Hstream ep))))
          ~err:(fun e -> k (Error (Errno.of_string e))))

let stream_read t h ~off ~max k =
  match h.K.obj with
  | K.Hfile { file; _ } ->
    (* charge the copy for what can actually transfer, not the caller's
       (possibly huge) buffer size *)
    let n = Stdlib.min max (Stdlib.max 0 (Vfs.file_size file - off)) in
    let cost = Time.add Cost.host_read_base (Cost.copy_cost n) in
    host t ~name:"read" ~cost (fun () -> guard k (fun () -> Vfs.read_file file ~off ~len:max))
  | K.Hstream ep ->
    host t ~name:"read" ~cost:Cost.host_read_base (fun () ->
        K.stream_recv t.kernel ep ~max (fun data -> k (Ok data)))
  | _ -> k (Error Errno.EBADF)

let stream_write t h ~off data k =
  match h.K.obj with
  | K.Hfile { file; _ } ->
    let cost = Time.add Cost.host_write_base (Cost.copy_cost (String.length data)) in
    host t ~name:"write" ~cost (fun () ->
        guard k (fun () ->
            Vfs.write_file file ~off data;
            String.length data))
  | K.Hstream ep ->
    let cost = Time.add Cost.host_write_base (Cost.copy_cost (String.length data)) in
    host t ~name:"write" ~cost (fun () ->
        guard k (fun () ->
            K.stream_send t.kernel ep data;
            String.length data))
  | _ -> k (Error Errno.EBADF)

let stream_close t h k =
  host t ~name:"close" ~cost:(Time.ns 120) (fun () ->
      (match h.K.obj with
      | K.Hstream ep -> K.release_endpoint t.kernel t.pico ep
      | K.Hserver srv -> srv.K.srv_closed <- true
      | _ -> ());
      k (Ok ()))

let stream_flush t _h k = host t ~name:"fsync" ~cost:(Time.us 2.0) (fun () -> k (Ok ()))

let stream_delete t uri k =
  match parse_uri uri with
  | Ok (Ufile path) | Ok (Udir path) ->
    let cost = Time.add Cost.host_open (lsm_cost t Cost.lsm_path_check) in
    host t ~name:"unlink" ~cost (fun () ->
        guard k (fun () -> K.fs_unlink t.kernel t.pico path))
  | Ok _ -> k (Error Errno.EINVAL)
  | Error e -> k (Error e)

let stream_set_length t h n k =
  match h.K.obj with
  | K.Hfile { file; _ } ->
    host t ~name:"ftruncate" ~cost:(Time.ns 600) (fun () ->
        guard k (fun () -> Vfs.truncate file n))
  | _ -> k (Error Errno.EBADF)

type stream_attrs = { size : int; is_dir : bool }

let stream_attributes_query t uri k =
  match parse_uri uri with
  | Ok (Ufile path) | Ok (Udir path) ->
    let cost =
      Time.add (Time.ns 700)
        (Time.add (walk_cost t path) (path_check_cost t path `Read))
    in
    host t ~name:"stat" ~cost (fun () ->
        guard k (fun () ->
            let st = K.fs_stat t.kernel t.pico path in
            { size = st.Vfs.st_size; is_dir = st.Vfs.st_is_dir }))
  | Ok _ -> k (Error Errno.EINVAL)
  | Error e -> k (Error e)

let stream_get_name t h k =
  host t ~name:"fcntl" ~cost:(Time.ns 100) (fun () ->
      match h.K.obj with
      | K.Hfile { path; _ } -> k (Ok ("file:" ^ path))
      | K.Hdir path -> k (Ok ("dir:" ^ path))
      | K.Hserver srv -> k (Ok srv.K.srv_name)
      | K.Hstream _ -> k (Ok "pipe:<anonymous>")
      | _ -> k (Error Errno.EBADF))

let stream_wait_for_client t h k =
  match h.K.obj with
  | K.Hserver srv ->
    host t ~name:"accept" ~cost:(Time.us 1.2) (fun () ->
        K.stream_accept t.kernel srv (fun ep ->
            register_stream t ep;
            k (Ok (K.fresh_handle t.kernel (K.Hstream ep)))))
  | _ -> k (Error Errno.EBADF)

let directory_create t uri k =
  match parse_uri uri with
  | Ok (Udir path) | Ok (Ufile path) ->
    let cost = Time.add Cost.host_open (lsm_cost t Cost.lsm_path_check) in
    host t ~name:"mkdir" ~cost (fun () ->
        guard k (fun () -> K.fs_mkdir t.kernel t.pico path))
  | Ok _ -> k (Error Errno.EINVAL)
  | Error e -> k (Error e)

let directory_list t h k =
  match h.K.obj with
  | K.Hdir path ->
    host t ~name:"getdents" ~cost:(Time.us 1.0) (fun () ->
        guard k (fun () -> K.fs_readdir t.kernel t.pico path))
  | _ -> k (Error Errno.ENOTDIR)

(* An anonymous connected pipe pair inside one picoprocess — the
   DkStreamOpen("pipe:") fast path the Linux PAL builds on socketpair. *)
let pipe_pair t k =
  host t ~name:"pipe2" ~cost:(Time.us 1.8) (fun () ->
      let a, b = Stream.pipe ~owner_a:t.pico.K.pid ~owner_b:t.pico.K.pid in
      K.register_endpoint t.kernel t.pico a;
      K.register_endpoint t.kernel t.pico b;
      k (Ok (K.fresh_handle t.kernel (K.Hstream a), K.fresh_handle t.kernel (K.Hstream b))))

(* {1 Submission ring} *)

type ring_sqe =
  | Sq_read of { handle : K.handle; off : int; max : int }
  | Sq_write of { handle : K.handle; off : int; data : string }

type ring_cqe =
  | Cq_data of string  (** completed read *)
  | Cq_len of int  (** completed write: bytes accepted *)
  | Cq_errno of errno  (** this entry failed; the batch keeps draining *)

(* Submit a batch of independent stream operations through the
   io_uring-style ring: one boundary crossing (the doorbell, an ioctl
   on the ring device — among the PAL's 50 allowed host calls) for the
   whole batch, then the host drains entries in submission order.
   Per-entry failures become [Cq_errno] completions; a stream read
   that would block completes [EAGAIN] rather than parking the batch.
   Crash-call faults land on individual entries: completions before
   the fault stand, the rest are never executed (partial drain). *)
let ring_submit t sqes k =
  if sqes = [] then k (Ok [])
  else begin
    let tracer = t.kernel.K.tracer in
    if Obs.enabled tracer then begin
      Obs.count tracer "pal.ring.submits";
      Obs.count tracer ~n:(List.length sqes) "pal.ring.sqes";
      Obs.observe tracer "pal.ring.batch" (float_of_int (List.length sqes))
    end;
    host t ~name:"ioctl" ~cost:Cost.ring_submit (fun () ->
        (* one entry's completion: charge its per-entry bookkeeping plus
           the work the host cannot avoid, then run [mk], converting
           exceptions into a per-op errno. File entries follow the
           registered-file model: the ring holds a reference for the
           batch's lifetime, so the per-syscall fd lookup and VFS entry
           path ([Cost.host_read_base]/[host_write_base]) are not paid
           per entry — only the data copy is. Stream entries still go
           through the host protocol stack and keep the base cost. *)
        let entry cost mk k_e =
          K.after t.kernel (Time.add Cost.ring_sqe cost) (fun () ->
              k_e
                (match mk () with
                | cqe -> cqe
                | exception Vfs.Error e -> Cq_errno (Errno.of_string e)
                | exception K.Denied e -> Cq_errno (errno_of_denied e)
                | exception Memory.Fault _ -> Cq_errno Errno.EFAULT
                | exception Invalid_argument _ -> Cq_errno Errno.EINVAL))
        in
        let exec sqe k_e =
          match sqe with
          | Sq_read { handle; off; max } -> (
            match handle.K.obj with
            | K.Hfile { file; _ } ->
              let n = Stdlib.min max (Stdlib.max 0 (Vfs.file_size file - off)) in
              entry (Cost.copy_cost n)
                (fun () -> Cq_data (Vfs.read_file file ~off ~len:max))
                k_e
            | K.Hstream ep ->
              K.after t.kernel (Time.add Cost.ring_sqe Cost.host_read_base) (fun () ->
                  if Stream.available ep > 0 || Stream.at_eof ep then
                    K.stream_recv t.kernel ep ~max (fun data -> k_e (Cq_data data))
                  else k_e (Cq_errno Errno.EAGAIN))
            | _ -> entry Time.zero (fun () -> Cq_errno Errno.EBADF) k_e)
          | Sq_write { handle; off; data } -> (
            match handle.K.obj with
            | K.Hfile { file; _ } ->
              entry
                (Cost.copy_cost (String.length data))
                (fun () ->
                  Vfs.write_file file ~off data;
                  Cq_len (String.length data))
                k_e
            | K.Hstream ep ->
              entry
                (Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))
                (fun () ->
                  K.stream_send t.kernel ep data;
                  Cq_len (String.length data))
                k_e
            | _ -> entry Time.zero (fun () -> Cq_errno Errno.EBADF) k_e)
        in
        let rec drain todo acc =
          match todo with
          | [] -> k (Ok (List.rev acc))
          | sqe :: rest ->
            if K.fault_pal_call t.kernel t.pico then
              (* crash-call fault mid-drain: the picoprocess is dead;
                 nothing after this entry executes and the continuation
                 never runs *)
              ()
            else exec sqe (fun cqe -> drain rest (cqe :: acc))
        in
        drain sqes [])
  end

(* {1 Process} *)

(* Create a clean child picoprocess (internally a vfork+exec of a
   fresh PAL instance — paper §5) connected to the parent by an init
   stream. [boot] runs in the "child context": the personality uses it
   to instantiate the child's libOS. *)
let process_create t ~exe ~sandboxed ~boot k =
  let cost =
    Time.add Cost.picoprocess_spawn
      (lsm_cost t (Time.add Cost.lsm_path_check (Time.us 2.0)))
  in
  host t ~name:"execve" ~cost (fun () ->
      guard
        (fun r ->
          match r with
          | Ok (proc_handle, parent_ep) -> k (Ok (proc_handle, parent_ep))
          | Error e -> k (Error e))
        (fun () ->
          if
            not
              (K.lsm_verdict t.kernel t.pico ~hook:"check_path"
                 ~target:(exe ^ " (x)") ~cost:Cost.lsm_path_check
                 (t.kernel.K.lsm.K.check_path t.pico exe `Exec))
          then raise (K.Denied ("EACCES exec " ^ exe));
          let sandbox =
            if sandboxed then K.fresh_sandbox t.kernel else t.pico.K.sandbox
          in
          let child = K.spawn t.kernel ~parent:t.pico ~sandbox ~exe () in
          let parent_ep, child_ep = Stream.pipe ~owner_a:t.pico.K.pid ~owner_b:child.K.pid in
          K.register_endpoint t.kernel t.pico parent_ep;
          K.register_endpoint t.kernel child child_ep;
          boot child child_ep;
          (K.fresh_handle t.kernel (K.Hprocess child), K.fresh_handle t.kernel (K.Hstream parent_ep))))

let process_exit t code =
  t.call_count <- t.call_count + 1;
  K.pico_exit t.kernel t.pico code

(* {1 Misc} *)

let system_time_query t k =
  host t ~name:"clock_gettime" ~cost:Cost.host_time_query (fun () -> k (Ok (K.now t.kernel)))

let random_bits_read t n k =
  host t ~name:"read" ~cost:Cost.pal_random_read (fun () ->
      let b = Bytes.init n (fun _ -> Char.chr (Rng.int t.kernel.K.rng 256)) in
      k (Ok (Bytes.to_string b)))

let instruction_cache_flush t k =
  t.call_count <- t.call_count + 1;
  K.after t.kernel Cost.pal_icache_flush (fun () -> k (Ok ()))

type system_info = { cores : int; pal_range : int * int }

let system_info_query t k =
  host t ~name:"uname" ~cost:(Time.ns 300) (fun () ->
      k (Ok { cores = t.kernel.K.cores; pal_range = (K.pal_base, K.pal_limit) }))

(* {1 Graphene additions} *)

let segment_register_set t ~tid value k =
  host t ~name:"arch_prctl" ~cost:(Time.ns 90) (fun () ->
      t.tls <- (tid, value) :: List.remove_assoc tid t.tls;
      k (Ok ()))

let segment_register_get t ~tid = List.assoc_opt tid t.tls

let exception_handler_set t handler =
  t.call_count <- t.call_count + 1;
  t.exception_handler <- Some handler

let exception_return t k =
  t.call_count <- t.call_count + 1;
  K.after t.kernel (Time.ns 150) (fun () -> k (Ok ()))

let deliver_exception t thread info =
  match t.exception_handler with
  | Some handler -> handler thread info
  | None -> K.pico_exit t.kernel t.pico 139 (* unhandled: SIGSEGV-style death *)

let stream_send_handle t stream_h payload k =
  match stream_h.K.obj with
  | K.Hstream ep ->
    host t ~name:"sendto" ~cost:(Time.us 1.5) (fun () ->
        guard k (fun () -> K.stream_send_handle t.kernel ep payload))
  | _ -> k (Error Errno.EBADF)

let stream_receive_handle t stream_h k =
  match stream_h.K.obj with
  | K.Hstream ep ->
    host t ~name:"recvfrom" ~cost:(Time.us 1.5) (fun () ->
        K.stream_recv_handle t.kernel ep (function
          | Some h ->
            (* a received stream handle belongs to this picoprocess now *)
            (match h.K.obj with
            | K.Hstream ep' -> K.register_endpoint t.kernel t.pico ep'
            | _ -> ());
            k (Ok h)
          | None -> k (Error Errno.EPIPE)))
  | _ -> k (Error Errno.EBADF)

let stream_change_name t ~src ~dst k =
  match (parse_uri src, parse_uri dst) with
  | Ok (Ufile s), Ok (Ufile d) ->
    let cost = Time.add Cost.host_open (lsm_cost t Cost.lsm_path_check) in
    host t ~name:"rename" ~cost (fun () ->
        guard k (fun () -> K.fs_rename t.kernel t.pico ~src:s ~dst:d))
  | Error e, _ | _, Error e -> k (Error e)
  | _ -> k (Error Errno.EINVAL)

let physical_memory_channel t k =
  host t ~name:"open" ~cost:(Time.us 2.0) (fun () ->
      (* the gipc device: a per-sandbox channel id *)
      k (Ok t.pico.K.sandbox))

let physical_memory_send t ~ranges k =
  let npages = List.fold_left (fun acc (_, n) -> acc + n) 0 ranges in
  let cost =
    Time.add Cost.bulk_ipc_setup (Time.scale Cost.bulk_ipc_per_page (float_of_int npages))
  in
  host t ~name:"ioctl" ~cost (fun () ->
      guard k (fun () -> K.gipc_send t.kernel t.pico ~ranges))

let physical_memory_receive t ~token k =
  host t ~name:"ioctl" ~cost:Cost.bulk_ipc_setup (fun () ->
      guard
        (fun r ->
          match r with
          | Ok granted ->
            K.after t.kernel (Time.scale Cost.bulk_ipc_per_page (float_of_int granted))
              (fun () -> k (Ok granted))
          | Error e -> k (Error e))
        (fun () -> K.gipc_recv t.kernel t.pico ~token))

let sandbox_create t ~keep_children k =
  (* mediated by the reference monitor through the sandbox device, like
     bulk IPC (prctl is not among the PAL's 50 host calls) *)
  host t ~name:"ioctl" ~cost:(Time.us 5.0) (fun () ->
      guard k (fun () -> K.sandbox_split t.kernel t.pico ~keep:keep_children))

(* {1 Raw syscalls (security testing / static binaries)} *)

type raw_disposition =
  | Raw_allowed  (** executed against the host *)
  | Raw_traced  (** forwarded to the reference monitor *)
  | Raw_redirected  (** SIGSYS; libLinux services it instead *)
  | Raw_killed

(* Emulate an inline-assembly [syscall] instruction issued from
   arbitrary code (return PC [pc]): this is how the isolation
   experiments of §6.6 probe the filter. *)
let raw_syscall t ~pc ~name ~args =
  let action, _cost = K.syscall_check t.kernel t.pico ~name ~pc ~args in
  match action with
  | Graphene_bpf.Prog.Allow -> Raw_allowed
  | Graphene_bpf.Prog.Trace -> Raw_traced
  | Graphene_bpf.Prog.Trap -> Raw_redirected
  | Graphene_bpf.Prog.Errno _ -> Raw_redirected
  | Graphene_bpf.Prog.Kill ->
    K.kill_pico t.kernel t.pico;
    Raw_killed
