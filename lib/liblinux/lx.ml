(** libLinux — the Linux personality.

    One [t] per picoprocess. Services guest system calls from local
    state when possible and coordinates shared POSIX state with other
    instances through {!Graphene_ipc.Instance} (signals, exit
    notification, /proc, System V IPC). Interacts with the host only
    through the PAL.

    {2 Guest system call ABI}

    Guest programs invoke services by name with guest values; failing
    calls return [Vint (-errno)] (see {!Errno}). The implemented table:

    - files: [open path mode] (mode "r"|"w"|"rw"|"a"), [close fd],
      [read fd n], [write fd s], [lseek fd off whence("set"|"cur"|"end")],
      [stat path] -> [(size, is_dir)], [unlink path], [rename old new],
      [mkdir path], [readdir path] -> string list, [access path],
      [chdir path], [getcwd], [dup fd], [pipe] -> [(rfd, wfd)],
      [truncate path n], [fsync fd]
    - process: [fork], [execve path argv], [exit code], [wait],
      [waitpid pid], [getpid], [getppid], [getpgid], [setpgid pgid],
      [gettid]
    - signals: [kill pid sig], [sigaction sig handler_name],
      [sigprocmask op("block"|"unblock") sig], [pause], [alarm? no]
    - System V IPC: [msgget key create01], [msgsnd id s],
      [msgrcv id], [msgctl_rmid id], [semget key init], [semop id delta]
    - network (loopback TCP): [listen_tcp port], [accept fd],
      [connect_tcp port], [select fds] -> ready fd, [shutdown fd]
    - memory: [mmap bytes] -> addr, [munmap addr], [brk bytes],
      [poke addr s], [peek addr n], [getrss]
    - threads: [clone fname arg] -> tid, [join tid], [sched_yield]
    - misc: [nanosleep ns] (negative -> -EINVAL), [gettimeofday],
      [time], [clock_gettime], [uname], [getuid], [sysinfo] -> cores,
      [rand n], [print s] (console write),
      [ring entries] — submit independent reads/writes as one batch:
      each entry [("read", (fd, n))] or [("write", (fd, s))], result
      is the list of per-op completions (data, length, or [-errno]),
      [sandbox_create paths] (the Graphene extension of §6.6)
    - /proc: [open "/proc/<pid>/<field>"] works locally and over RPC *)

open Graphene_sim
module Obs = Graphene_obs.Obs
module Contend = Graphene_obs.Contend
module K = Graphene_host.Kernel
module Memory = Graphene_host.Memory
module Stream = Graphene_host.Stream
module Vfs = Graphene_host.Vfs
module Pal = Graphene_pal.Pal
module Seccomp = Graphene_bpf.Seccomp
module Ast = Graphene_guest.Ast
module Interp = Graphene_guest.Interp
module Ipc = Graphene_ipc.Instance
module Ipc_config = Graphene_ipc.Config
module E = Graphene_core.Errno

(* {1 Memory model constants}

   Calibrated against §6.2: a Graphene "hello world" is ~1.4 MB
   resident (vs 352 KB native), and each forked child adds ~790 KB. *)

(* libLinux.so text+rodata, shared *)
let libos_image_bytes = 640 * 1024
(* private libOS data *)
let libos_data_bytes = 72 * 1024
let stack_bytes = 64 * 1024
let restore_scratch_bytes = 560 * 1024
(** private serialization buffers live across restore ("a substantial
    amount of serialization effort", §6.4) *)

let default_app_image_bytes = 96 * 1024
let libc_image_bytes = 256 * 1024  (** modified glibc, shared *)

(* {1 Lifecycle cost constants} *)

(* checkpoint walk per resident page *)
let fork_page_walk = Time.ns 400
let fork_restore_fixed = Time.us 60.
let exec_fixed = Time.us 250.
(* child PAL load, page cache warm *)
let pal_load_warm = Time.us 60.
(* Table 7 msgget-create, local *)
let queue_create_cost = Time.us 25.
let queue_lookup_cost = Time.us 1.0
(* four fine-grained locks, paper 6.4 *)
let queue_lock_cost = Time.us 3.2
let sock_overhead_roundtrip = Time.us 1.0  (** AF_UNIX PAL translation *)

(* {1 Types} *)

open Posix

type fd_kind =
  | Kfile of { path : string; mutable pos : int }
  | Kconsole
  | Knull
  | Kzero  (** /dev/zero *)
  | Kstream of { sock : bool }
  | Klisten of { port : int }
  | Kproc of { content : string; mutable pos : int }
  | Kepoll of epoll_state

type fd_entry = {
  mutable fh : K.handle option;
  kind : fd_kind;
  mutable cloexec : bool;
}

type own = {
  pal : Pal.t;
  cfg : Ipc_config.t;
  mutable ipc : Ipc.t option;
  parent_addr : string;
  mutable syscall_count : int;
  trace_open : (int, string * Time.t) Hashtbl.t;
      (** host tid -> (syscall, entry time): spans opened at dispatch
          and closed when the call resumes the thread (the calls are in
          continuation-passing style, so a stack scope cannot pair
          them) *)
  path_cache : (string, unit) Fifo_cache.t;
      (** canonical paths this libOS resolved before: a warm repeat
          open/stat reuses the cached dentry + decision and skips the
          duplicated path resolution *)
}

type t = (fd_entry, own) Posix.t

let kernel (lx : t) = lx.kernel
let pico (lx : t) = lx.pico
let pal (lx : t) = lx.own.pal
let ipc (lx : t) = match lx.own.ipc with Some i -> i | None -> failwith "Lx: ipc not ready"
let addr_of_pico (p : K.pico) = "g" ^ string_of_int p.K.pid
let my_addr lx = addr_of_pico (pico lx)
let console_output (lx : t) = Buffer.contents lx.console
let exited (lx : t) = lx.exited
let exit_code (lx : t) = lx.exit_code
let started_at (lx : t) = lx.started_at
let syscall_count (lx : t) = lx.own.syscall_count

(* Directory in which libLinux emulates /proc; never touches the host's. *)
let proc_prefix = "/proc/"

let vint n = Ast.Vint n
let vstr s = Ast.Vstr s
let err tag = Errno.to_value tag

(* {1 File descriptors} *)

let get_fd (lx : t) fd = Hashtbl.find_opt lx.fds fd

let init_std_fds (lx : t) =
  Hashtbl.replace lx.fds 0 { fh = None; kind = Knull; cloexec = false };
  Hashtbl.replace lx.fds 1 { fh = None; kind = Kconsole; cloexec = false };
  Hashtbl.replace lx.fds 2 { fh = None; kind = Kconsole; cloexec = false };
  lx.next_fd <- 3

(* The entry [dup] and [dup2] install: the same handle and kind, so a
   file's seek cursor is shared within the process (fork copies it
   through the checkpoint); a stream endpoint gains a reference. *)
let dup_entry lx e =
  (match e.fh with
  | Some { K.obj = K.Hstream ep; _ } ->
    Stream.addref ep;
    K.register_endpoint (kernel lx) (pico lx) ep
  | _ -> ());
  { e with cloexec = false }

(* {1 Resuming the guest} *)

let rec do_exit (lx : t) code =
  if not lx.exited then begin
    lx.exited <- true;
    lx.exit_code <- code;
    (match lx.own.ipc with
    | Some i ->
      Ipc.persist_owned_queues i;
      Ipc.notify_exit i ~parent_addr:lx.own.parent_addr ~pid:lx.pid ~code;
      Ipc.shutdown i
    | None -> ());
    Pal.process_exit lx.own.pal code
  end

(* Resume [th] with [v], delivering pending signals first. *)
and finish (lx : t) th ?(cost = Cost.libos_call) v =
  if not lx.exited then begin
    close_syscall_span lx th ~cost;
    match th.K.machine with
    | None -> ()
    | Some m -> (
      match Posix.apply_pending_signals lx (Interp.resume m v) with
      | `Exit code -> do_exit lx code
      | `Machine m -> K.set_machine (kernel lx) th m ~cost)
  end

(* Close the Liblinux span opened at [dispatch]: the interval from
   syscall entry to the resume that ends it (PAL waits included), plus
   the libOS-side cost charged on the way out. Spans only open while
   tracing, so an empty table skips the lookup. *)
and close_syscall_span lx th ~cost =
  if Hashtbl.length lx.own.trace_open > 0 then
    match Hashtbl.find_opt lx.own.trace_open th.K.tid with
    | None -> ()
    | Some (name, t0) ->
      Hashtbl.remove lx.own.trace_open th.K.tid;
      let tracer = (kernel lx).K.tracer in
      let dur = Time.add (Time.diff (K.now (kernel lx)) t0) cost in
      if Obs.enabled tracer then begin
        Obs.span tracer Obs.Liblinux ~name:("sys_" ^ name) ~pid:(pico lx).K.pid
          ~tid:th.K.tid ~start:t0 ~dur ();
        Obs.observe tracer ("liblinux.sys." ^ name) (float_of_int dur)
      end;
      (* cross-check for the contention plane: the end-to-end duration of
         coordination-class guest syscalls, measured at the libOS ruler.
         The per-resource attribution (the sysv.wait / ipc.wait keys) is
         the gated number; this total lets `bench contend` sanity-check
         it against an independent measurement. *)
      (match name with
      | "msgget" | "msgsnd" | "msgrcv" | "msgctl_rmid" | "semget" | "semop" | "semop_try"
      | "kill" | "waitpid" ->
        Contend.note_sys_blocked (kernel lx).K.contend dur
      | _ -> ())

let fail lx th ?cost tag = finish lx th ?cost (err tag)

let reply lx th ?cost = function Ok () -> finish lx th ?cost (vint 0) | Error e -> fail lx th e

(* A signal that finds the main thread running a CPU loop is injected
   at its next step through the PAL's exception upcall
   (DkThreadInterrupt -> [on_pal_exception]). *)
let ops =
  { Posix.resume = (fun lx th v -> finish lx th v);
    terminate = do_exit;
    interrupt = (fun lx th -> Pal.thread_interrupt lx.own.pal th (fun _ -> ())) }

(* {1 libOS handle fast path}

   [path_hit_cost] is called on the success path of open/stat/access:
   a path resolved before (and not invalidated since) charges the fast
   cost, a cold one charges the full duplicated resolution and fills
   the cache. Only successful resolutions fill — there is no handle to
   reuse for a path that failed to open. unlink and rmdir drop their
   own path; a rename drops both names and everything under them, as
   the host dcache does. *)

let lx_count lx name =
  let tracer = (kernel lx).K.tracer in
  if Obs.enabled tracer then Obs.count tracer name

let handle_cache_capacity = 256

let path_hit_cost lx path =
  if Fifo_cache.mem lx.own.path_cache path then begin
    lx_count lx "liblinux.handle_cache.hit";
    Cost.libos_path_fast
  end
  else begin
    lx_count lx "liblinux.handle_cache.miss";
    if Fifo_cache.add lx.own.path_cache path () <> None then
      lx_count lx "liblinux.handle_cache.evict";
    Cost.libos_path_resolution
  end

let path_cache_invalidate lx path =
  if Fifo_cache.remove lx.own.path_cache path then lx_count lx "liblinux.handle_cache.invalidate"

let path_cache_invalidate_renamed lx ~src ~dst =
  let under root =
    let prefix = if root = "/" then "/" else root ^ "/" in
    fun k -> k = root || String.starts_with ~prefix k
  in
  let in_src = under src and in_dst = under dst in
  Fifo_cache.drop_matching lx.own.path_cache (fun k () -> in_src k || in_dst k)
  |> List.iter (fun _ -> lx_count lx "liblinux.handle_cache.invalidate")

(* {1 vDSO page}

   The host kernel publishes a read-only per-picoprocess state page
   (pid, ppid, uid, boot epoch, virtual-time base); identity and time
   syscalls are serviced from it without crossing into the PAL. The
   page is invalidated on fork, checkpoint restore and sandbox split —
   a reader that finds it invalid takes the slow path and republishes,
   so a stale base is never served. *)

let vdso_uid = 1000

(* (Re)publish this picoprocess's state page: at boot, after restore,
   after a sandbox split, and lazily after any fast-path miss. *)
let vdso_publish lx =
  lx_count lx "liblinux.vdso.publish";
  ignore
    (K.vdso_page_publish (kernel lx) ~host_pid:(pico lx).K.pid ~pid:lx.pid ~ppid:lx.ppid
       ~uid:vdso_uid ~sandbox:(pico lx).K.sandbox)

(* Fast-path lookup: the page must be valid, ours (same guest pid) and
   of this sandbox; anything else is a miss and the caller falls back
   to libOS state or the PAL. *)
let vdso_page lx =
  match K.vdso_page_lookup (kernel lx) ~host_pid:(pico lx).K.pid with
  | Some p when p.K.vd_pid = lx.pid && p.K.vd_sandbox = (pico lx).K.sandbox ->
    lx_count lx "liblinux.vdso.hit";
    Some p
  | _ ->
    lx_count lx "liblinux.vdso.miss";
    None

(* Transient coordination failures — a timed-out RPC, a dead leader
   caught mid-election, an ownership move that never settled — get a
   few bounded libOS-side retries and then surface to the guest as
   EINTR (timeouts) or EAGAIN (resource churn), the way a signal
   interrupts a slow system call. The guest retries; it never hangs on
   a coordination-layer fault. *)
let ipc_sys_retries = 2
let ipc_sys_retry_delay = Time.us 300.

let with_ipc lx th op k =
  let rec attempt tries =
    op (fun r ->
        match r with
        | Error e when E.is_transient e && not lx.exited ->
          if tries > 0 then begin
            let t0 = K.now (kernel lx) in
            K.after (kernel lx) ipc_sys_retry_delay (fun () ->
                (* transient-errno backoff is blocked time too *)
                Contend.record_wait (kernel lx).K.contend ~pid:(pico lx).K.pid
                  ~resource:"ipc.wait.retry" ~start:t0
                  (K.now (kernel lx));
                attempt (tries - 1))
          end
          else fail lx th (if E.equal e E.ETIMEDOUT then E.EINTR else E.EAGAIN)
        | r -> k r)
  in
  attempt ipc_sys_retries

(* The PAL exception upcall: on [Interrupted], inject the pending
   signal handlers into the thread's machine at its next step
   boundary; hardware faults terminate like SIGSEGV. *)
let on_pal_exception lx th = function
  | Pal.Interrupted -> Posix.inject_signals lx th
  | Pal.Div_zero | Pal.Mem_fault _ | Pal.Illegal _ -> do_exit lx (128 + Signal.sigsegv)

(* {1 /proc} *)

let render_proc_local lx ~field =
  match field with
  | "status" ->
    Ok
      (Printf.sprintf "Name:\t%s\nPid:\t%d\nPPid:\t%d\nPGid:\t%d\nState:\tR (running)\nThreads:\t%d\n"
         (Filename.basename lx.exe) lx.pid lx.ppid lx.pgid
         (1 + Hashtbl.length lx.threads))
  | "cmdline" -> Ok lx.exe
  | "maps" ->
    let regions = Memory.regions (pico lx).K.aspace in
    Ok
      (String.concat ""
         (List.map
            (fun r ->
              Printf.sprintf "%08x-%08x\n" (Memory.region_base r)
                (Memory.region_base r + (Memory.region_npages r * Memory.page_size)))
            regions))
  | _ -> Error E.ENOENT

let parse_proc_path path =
  match String.split_on_char '/' path with
  | [ ""; "proc"; pid; field ] -> (
    match int_of_string_opt pid with Some p -> Some (p, field) | None -> None)
  | _ -> None

(* {1 Construction} *)

let make ~pal ~cfg ~pid ~ppid ~pgid ~parent_addr ~exe =
  Posix.make ~ops ~kernel:(Pal.kernel pal) ~pico:(Pal.pico pal) ~pid ~ppid ~pgid ~exe
    ~own:
      { pal;
        cfg;
        ipc = None;
        parent_addr;
        syscall_count = 0;
        trace_open = Hashtbl.create 4;
        path_cache = Fifo_cache.create ~capacity:handle_cache_capacity }

let callbacks_of (lx : t) =
  { Ipc.deliver_signal =
      (fun ~signum ~from_pid:_ ~to_pid -> to_pid = lx.pid && Posix.post_signal lx signum);
    on_exit_notification = (fun ~pid ~code -> Posix.mark_zombie lx pid code);
    proc_read =
      (fun ~pid ~field ->
        if pid = lx.pid then render_proc_local lx ~field else Error E.ESRCH) }

(* Map the shared libOS + libc images and the private data/stack
   regions into a fresh picoprocess. A restored child already holds the
   private regions through bulk IPC (copy-on-write); those are then
   dirtied rather than remapped, which is what makes the child's
   incremental footprint real (§6.2). *)
let map_private_unless_present asp ~base ~bytes ~kind =
  match Memory.find_region asp base with
  | Some _ -> ignore (Memory.zero_pages asp ~base ~npages:(Memory.pages_of_bytes bytes))
  | None ->
    ignore
      (Memory.map_resident asp ~base ~npages:(Memory.pages_of_bytes bytes) ~perm:Memory.rw
         ~kind)

let libos_data_base = K.libos_base + 0x0200_0000
let scratch_base = K.stack_base + 0x0100_0000

let map_libos_images lx ~app_bytes ~scratch =
  let kern = kernel lx in
  let asp = (pico lx).K.aspace in
  let libos = K.get_image kern ~name:"[libLinux]" ~bytes:libos_image_bytes in
  ignore (Memory.map_image asp ~base:K.libos_base ~image:libos ~perm:Memory.rx ~kind:Memory.Libos_image);
  let libc = K.get_image kern ~name:"[libc]" ~bytes:libc_image_bytes in
  ignore
    (Memory.map_image asp ~base:(K.libos_base + 0x0100_0000) ~image:libc ~perm:Memory.rx
       ~kind:Memory.Libos_image);
  map_private_unless_present asp ~base:libos_data_base ~bytes:libos_data_bytes ~kind:Memory.Heap;
  map_private_unless_present asp ~base:K.stack_base ~bytes:stack_bytes ~kind:Memory.Stack;
  if scratch > 0 then
    map_private_unless_present asp ~base:scratch_base ~bytes:scratch ~kind:Memory.Heap;
  let app = K.get_image kern ~name:("[bin]" ^ lx.exe) ~bytes:app_bytes in
  ignore (Memory.map_image asp ~base:K.app_base ~image:app ~perm:Memory.rx ~kind:Memory.App_image);
  K.update_peak_rss (pico lx)

(* {1 The system call dispatcher} *)

let rec dispatch lx th name args =
  lx.own.syscall_count <- lx.own.syscall_count + 1;
  let tracer = (kernel lx).K.tracer in
  if Obs.enabled tracer then begin
    Obs.count tracer "liblinux.syscalls";
    (* nested dispatches (writev -> write) keep the outer span *)
    if not (Hashtbl.mem lx.own.trace_open th.K.tid) then
      Hashtbl.replace lx.own.trace_open th.K.tid (name, K.now (kernel lx))
  end;
  Posix.guard lx th dispatch_inner name args

(* Every argument is decoded before the first PAL call: a continuation
   runs after [Posix.guard] has returned. *)
and dispatch_inner lx th name args =
  let a = Posix.arg args and int_arg = Posix.int_arg args and str_arg = Posix.str_arg args in
  match name with
  (* {2 Identity — serviced from the vDSO state page when valid,
     otherwise purely from libOS state (Table 6 row 1). Both are local
     loads, so either path charges the plain libOS-call cost. *)
  | "getpid" -> (
    match vdso_page lx with
    | Some p -> finish lx th (vint p.K.vd_pid)
    | None -> finish lx th (vint lx.pid))
  | "getppid" -> (
    match vdso_page lx with
    | Some p -> finish lx th (vint p.K.vd_ppid)
    | None -> finish lx th (vint lx.ppid))
  | "getuid" | "geteuid" -> (
    match vdso_page lx with
    | Some p -> finish lx th (vint p.K.vd_uid)
    | None -> finish lx th (vint vdso_uid))
  | "uname" -> finish lx th (vstr "Linux graphene 3.5.0-libos x86_64")
  (* {2 Console} *)
  | "print" ->
    (* variadic: all string arguments are concatenated *)
    let s = String.concat "" (List.map Ast.as_str args) in
    finish lx th ~cost:(Time.ns 150) (vint (Posix.console_write lx s))
  (* {2 Files} *)
  | "open" -> do_open lx th (Posix.abspath lx (str_arg 0)) (str_arg 1)
  | "close" -> (
    let fd = int_arg 0 in
    match get_fd lx fd with
    | None -> fail lx th E.EBADF
    | Some e -> (
      Hashtbl.remove lx.fds fd;
      match e.fh with
      | Some h -> Pal.stream_close lx.own.pal h (fun _ -> finish lx th (vint 0))
      | None -> finish lx th (vint 0)))
  | "read" -> do_read lx th (int_arg 0) (int_arg 1)
  | "write" -> do_write lx th (int_arg 0) (str_arg 1)
  | "lseek" -> (
    let fd = int_arg 0 and off = int_arg 1 and whence = str_arg 2 in
    match get_fd lx fd with
    | Some { kind = Kfile f; fh = Some _; _ } ->
      let seek size =
        match Posix.seek ~pos:f.pos ~size off whence with
        | Ok pos ->
          f.pos <- pos;
          finish lx th (vint pos)
        | Error e -> fail lx th e
      in
      if whence <> "end" then seek 0
      else
        Pal.stream_attributes_query lx.own.pal ("file:" ^ f.path) (function
          | Ok attrs -> seek attrs.Pal.size
          | Error e -> fail lx th e)
    | Some _ -> fail lx th E.ESPIPE
    | None -> fail lx th E.EBADF)
  | "stat" ->
    let path = Posix.abspath lx (str_arg 0) in
    Pal.stream_attributes_query lx.own.pal ("file:" ^ path) (function
      | Ok attrs ->
        finish lx th ~cost:(path_hit_cost lx path)
          (Ast.Vpair (vint attrs.Pal.size, vint (if attrs.Pal.is_dir then 1 else 0)))
      | Error e -> fail lx th e)
  | "access" ->
    let path = Posix.abspath lx (str_arg 0) in
    Pal.stream_attributes_query lx.own.pal ("file:" ^ path) (function
      | Ok _ -> finish lx th ~cost:(path_hit_cost lx path) (vint 0)
      | Error e -> fail lx th e)
  | "unlink" ->
    let path = Posix.abspath lx (str_arg 0) in
    Pal.stream_delete lx.own.pal ("file:" ^ path) (function
      | Ok () ->
        path_cache_invalidate lx path;
        finish lx th ~cost:Cost.libos_path_resolution (vint 0)
      | Error e -> fail lx th e)
  | "rename" ->
    let src = Posix.abspath lx (str_arg 0) and dst = Posix.abspath lx (str_arg 1) in
    Pal.stream_change_name lx.own.pal ~src:("file:" ^ src) ~dst:("file:" ^ dst) (function
      | Ok () ->
        path_cache_invalidate_renamed lx ~src ~dst;
        finish lx th ~cost:Cost.libos_path_resolution (vint 0)
      | Error e -> fail lx th e)
  | "mkdir" ->
    Pal.directory_create lx.own.pal ("dir:" ^ Posix.abspath lx (str_arg 0)) (function
      | Ok () -> finish lx th ~cost:Cost.libos_path_resolution (vint 0)
      | Error e -> fail lx th e)
  | "readdir" ->
    Pal.stream_open lx.own.pal ("dir:" ^ Posix.abspath lx (str_arg 0)) ~write:false ~create:false
      (function
      | Error e -> fail lx th e
      | Ok h ->
        Pal.directory_list lx.own.pal h (function
          | Ok names ->
            finish lx th ~cost:Cost.libos_path_resolution
              (Ast.Vlist (List.map (fun n -> vstr n) names))
          | Error e -> fail lx th e))
  | "chdir" ->
    let path = Posix.abspath lx (str_arg 0) in
    Pal.stream_attributes_query lx.own.pal ("file:" ^ path) (function
      | Ok attrs ->
        if attrs.Pal.is_dir then begin
          lx.cwd <- path;
          finish lx th (vint 0)
        end
        else fail lx th E.ENOTDIR
      | Error e -> fail lx th e)
  | "dup2" -> (
    (* replace [newfd] with a copy of [oldfd]; the shell uses it to
       wire pipeline ends onto stdin/stdout before exec *)
    let oldfd = int_arg 0 and newfd = int_arg 1 in
    match get_fd lx oldfd with
    | None -> fail lx th E.EBADF
    | Some e ->
      (match get_fd lx newfd with
      | Some { fh = Some h; _ } when newfd <> oldfd -> Pal.stream_close lx.own.pal h (fun _ -> ())
      | _ -> ());
      Hashtbl.replace lx.fds newfd (dup_entry lx e);
      lx.next_fd <- max lx.next_fd (newfd + 1);
      finish lx th ~cost:(Time.ns 220) (vint newfd))
  | "dup" -> (
    match get_fd lx (int_arg 0) with
    | None -> fail lx th E.EBADF
    | Some e -> finish lx th ~cost:(Time.ns 200) (vint (Posix.alloc_fd lx (dup_entry lx e))))
  | "truncate" ->
    let path = Posix.abspath lx (str_arg 0) and len = int_arg 1 in
    Pal.stream_open lx.own.pal ("file:" ^ path) ~write:true ~create:false
      (function
      | Error e -> fail lx th e
      | Ok h ->
        Pal.stream_set_length lx.own.pal h len (function
          | Ok () ->
            Pal.stream_close lx.own.pal h (fun _ -> ());
            finish lx th (vint 0)
          | Error e -> fail lx th e))
  | "fstat" -> (
    match get_fd lx (int_arg 0) with
    | Some { kind = Kfile f; _ } ->
      Pal.stream_attributes_query lx.own.pal ("file:" ^ f.path) (function
        | Ok attrs ->
          finish lx th (Ast.Vpair (vint attrs.Pal.size, vint (if attrs.Pal.is_dir then 1 else 0)))
        | Error e -> fail lx th e)
    | Some _ -> finish lx th (Ast.Vpair (vint 0, vint 0))
    | None -> fail lx th E.EBADF)
  | "rmdir" ->
    let path = Posix.abspath lx (str_arg 0) in
    Pal.stream_delete lx.own.pal ("dir:" ^ path) (function
      | Ok () ->
        path_cache_invalidate lx path;
        finish lx th ~cost:Cost.libos_path_resolution (vint 0)
      | Error e -> fail lx th e)
  | "sync" ->
    (* flush everything: a couple of host fsyncs' worth *)
    finish lx th ~cost:(Time.us 8.0) (vint 0)
  | "writev" ->
    (* vector write: a list of strings, one syscall *)
    let fd = a 0 and parts = List.map Ast.as_str (Ast.as_list (a 1)) in
    dispatch lx th "write" [ fd; vstr (String.concat "" parts) ]
  | "sendfile" -> (
    (* copy [n] bytes from in-fd to out-fd without guest copies *)
    let infd = int_arg 0 and outfd = int_arg 1 and n = int_arg 2 in
    match (get_fd lx infd, get_fd lx outfd) with
    | Some { kind = Kfile inf; fh = Some inh; _ }, Some out_e -> (
      Pal.stream_read lx.own.pal inh ~off:inf.pos ~max:n (function
        | Error e -> fail lx th e
        | Ok data -> (
          inf.pos <- inf.pos + String.length data;
          match (out_e.kind, out_e.fh) with
          | Kconsole, _ -> finish lx th (vint (Posix.console_write lx data))
          | Kfile outf, Some outh ->
            Pal.stream_write lx.own.pal outh ~off:outf.pos data (function
              | Ok m ->
                outf.pos <- outf.pos + m;
                finish lx th (vint m)
              | Error e -> fail lx th e)
          | Kstream _, Some outh ->
            Pal.stream_write lx.own.pal outh ~off:0 data (function
              | Ok m -> finish lx th (vint m)
              | Error e -> fail lx th e)
          | _ -> fail lx th E.EBADF)))
    | _ -> fail lx th E.EBADF)
  | "alarm" ->
    (* returns 0: the remaining-time report is not modeled *)
    Posix.alarm lx (int_arg 0);
    finish lx th ~cost:(Time.ns 180) (vint 0)
  | "fsync" -> (
    match get_fd lx (int_arg 0) with
    | Some { fh = Some h; _ } ->
      Pal.stream_flush lx.own.pal h (fun _ -> finish lx th (vint 0))
    | Some _ -> finish lx th (vint 0)
    | None -> fail lx th E.EBADF)
  | "pipe" ->
    Pal.pipe_pair lx.own.pal (function
      | Error e -> fail lx th e
      | Ok (h1, h2) ->
        let rfd = Posix.alloc_fd lx { fh = Some h1; kind = Kstream { sock = false }; cloexec = false } in
        let wfd = Posix.alloc_fd lx { fh = Some h2; kind = Kstream { sock = false }; cloexec = false } in
        finish lx th ~cost:(Time.us 1.0) (Ast.Vpair (vint rfd, vint wfd)))
  (* {2 Network} *)
  | "listen_tcp" ->
    let port = int_arg 0 in
    Pal.stream_open lx.own.pal (Printf.sprintf "tcp.srv:%d" port) ~write:true ~create:true
      (function
      | Ok h ->
        finish lx th (vint (Posix.alloc_fd lx { fh = Some h; kind = Klisten { port }; cloexec = false }))
      | Error e -> fail lx th e)
  | "accept" | "accept_try" -> (
    (* accept_try is accept on a non-blocking listener: -1 when no
       connection is pending. An event-loop worker must never sleep
       anywhere but its poll call — a blocking accept on stale epoll
       readiness would park it (and the accept semaphore it holds)
       while its own registered fds turn readable (docs/WEB.md). The
       backlog check cannot go stale before the accept lands: only the
       semaphore holder consumes the backlog, and the caller is
       holding it *)
    match get_fd lx (int_arg 0) with
    | Some { fh = Some h; kind = Klisten _; _ } ->
      let pending = match h.K.obj with K.Hserver srv -> srv.K.backlog <> [] | _ -> false in
      if name = "accept_try" && not pending then finish lx th ~cost:(Time.ns 300) (vint (-1))
      else
        Pal.stream_wait_for_client lx.own.pal h (function
          | Ok conn ->
            finish lx th ~cost:(Time.us 1.0)
              (vint (Posix.alloc_fd lx { fh = Some conn; kind = Kstream { sock = true }; cloexec = false }))
          | Error e -> fail lx th e)
    | _ -> fail lx th E.ENOTSOCK)
  | "connect_tcp" ->
    Pal.stream_open lx.own.pal (Printf.sprintf "tcp:%d" (int_arg 0)) ~write:true ~create:false
      (function
      | Ok h ->
        finish lx th ~cost:(Time.us 1.0)
          (vint (Posix.alloc_fd lx { fh = Some h; kind = Kstream { sock = true }; cloexec = false }))
      | Error e -> fail lx th e)
  | "shutdown" -> (
    match get_fd lx (int_arg 0) with
    | Some { fh = Some h; _ } -> Pal.stream_close lx.own.pal h (fun _ -> finish lx th (vint 0))
    | _ -> fail lx th E.EBADF)
  | "select" -> do_select lx th (Ast.as_list (a 0))
  (* {2 epoll}

     The event-driven alternative to [select]: the interest set lives
     in the libOS (an fd of its own), so a wait translates to one
     DkObjectsWaitAny over the registered handles and costs O(ready)
     rather than O(interest) — the scalable server loop of
     docs/WEB.md. *)
  | "epoll_create" ->
    finish lx th ~cost:Cost.epoll_op
      (vint (Posix.alloc_fd lx { fh = None; kind = Kepoll { interest = [] }; cloexec = false }))
  | "epoll_ctl" -> (
    let epfd = int_arg 0 and op = str_arg 1 and fd = int_arg 2 in
    match get_fd lx epfd with
    | Some { kind = Kepoll e; _ } -> reply lx th ~cost:Cost.epoll_op (Posix.epoll_ctl lx e op fd)
    | Some _ -> fail lx th E.EINVAL
    | None -> fail lx th E.EBADF)
  | "epoll_wait" -> (
    match get_fd lx (int_arg 0) with
    | Some { kind = Kepoll e; _ } -> do_epoll_wait lx th e
    | Some _ -> fail lx th E.EINVAL
    | None -> fail lx th E.EBADF)
  (* {2 Signals} *)
  | "sigaction" ->
    reply lx th ~cost:Cost.libos_sig_install (Posix.sigaction lx (int_arg 0) (str_arg 1))
  | "kill" ->
    let target = int_arg 0 and signum = int_arg 1 in
    if Posix.valid_signal signum then do_kill lx th target signum else fail lx th E.EINVAL
  (* {2 Process lifecycle} *)
  | "fork" -> do_fork lx th
  | "execve" ->
    do_exec lx th (Posix.abspath lx (str_arg 0)) (List.map Ast.as_str (Ast.as_list (a 1)))
  | "wait" | "waitpid" ->
    let pid = if name = "wait" then -1 else int_arg 0 in
    Option.iter (finish lx th ~cost:(Time.us 1.0)) (Posix.wait lx th pid)
  (* {2 System V IPC} *)
  | "msgget" ->
    with_ipc lx th (Ipc.msgget (ipc lx) ~key:(int_arg 0) ~create:(int_arg 1 <> 0)) (function
      | Ok (id, created) ->
        finish lx th ~cost:(if created then queue_create_cost else queue_lookup_cost) (vint id)
      | Error e -> fail lx th e)
  | "msgsnd" ->
    with_ipc lx th (Ipc.msgsnd (ipc lx) ~id:(int_arg 0) ~data:(str_arg 1)) (function
      | Ok () -> finish lx th ~cost:queue_lock_cost (vint 0)
      | Error e -> fail lx th e)
  | "msgrcv" ->
    with_ipc lx th (Ipc.msgrcv (ipc lx) ~id:(int_arg 0)) (function
      | Ok data -> finish lx th ~cost:(Time.us 1.8) (vstr data)
      | Error e -> fail lx th e)
  | "msgctl_rmid" ->
    with_ipc lx th (Ipc.msgrm (ipc lx) ~id:(int_arg 0)) (function
      | Ok () -> finish lx th ~cost:queue_lock_cost (vint 0)
      | Error e -> fail lx th e)
  | "semget" ->
    with_ipc lx th (Ipc.semget (ipc lx) ~key:(int_arg 0) ~init:(int_arg 1)) (function
      | Ok (id, created) ->
        finish lx th ~cost:(if created then queue_create_cost else queue_lookup_cost) (vint id)
      | Error e -> fail lx th e)
  | "semop" ->
    let id = int_arg 0 and delta = int_arg 1 in
    if Ipc.semop_fast (ipc lx) ~id ~delta then
      (* completed as one atomic on the owner's shared sem page: no
         RPC, no IPC-helper hop, memory-op cost (docs/WEB.md) *)
      finish lx th ~cost:Cost.sem_fast_op (vint 0)
    else
      with_ipc lx th (Ipc.semop (ipc lx) ~id ~delta) (function
        | Ok () -> finish lx th ~cost:(Time.us 1.5) (vint 0)
        | Error e -> fail lx th e)
  | "semop_try" -> (
    (* semop with IPC_NOWAIT: returns 0 on success, -1 when the op
       would block. The shared page usually answers both ways without
       an RPC, which is what lets an event loop treat the accept
       semaphore as an nginx-style trylock (docs/WEB.md) *)
    let id = int_arg 0 and delta = int_arg 1 in
    match Ipc.semop_try (ipc lx) ~id ~delta with
    | `Fast -> finish lx th ~cost:Cost.sem_fast_op (vint 0)
    | `Again -> finish lx th ~cost:Cost.sem_fast_op (vint (-1))
    | `Slow ->
      let op k =
        Ipc.semop (ipc lx) ~nowait:true ~id ~delta (function
          (* would-block is the answer, not a transient to retry *)
          | Error e when E.equal e E.EAGAIN -> k (Ok (-1))
          | Error e -> k (Error e)
          | Ok () -> k (Ok 0))
      in
      with_ipc lx th op (function
        | Ok r -> finish lx th ~cost:(Time.us 1.5) (vint r)
        | Error e -> fail lx th e))
  (* {2 Memory} *)
  | "mmap" ->
    Pal.virtual_memory_alloc lx.own.pal ~bytes:(int_arg 0) ~perm:Memory.rw ~kind:Memory.Mmap
      (function
      | Ok base -> finish lx th ~cost:(Time.ns 300) (vint base)
      | Error e -> fail lx th e)
  | "munmap" ->
    Pal.virtual_memory_free lx.own.pal ~addr:(int_arg 0) (function
      | Ok () -> finish lx th (vint 0)
      | Error e -> fail lx th e)
  | "brk" ->
    (* the legacy data segment, implemented entirely in the libOS over
       DkVirtualMemoryAlloc (paper §2) *)
    let target = int_arg 0 in
    if target <= lx.heap_mapped then begin
      lx.brk <- max lx.brk target;
      finish lx th ~cost:(Time.ns 120) (vint (K.heap_base + lx.brk))
    end
    else begin
      let grow = target - lx.heap_mapped in
      Pal.virtual_memory_alloc lx.own.pal ~addr:(K.heap_base + lx.heap_mapped) ~bytes:grow
        ~perm:Memory.rw ~kind:Memory.Heap (function
        | Ok _ ->
          lx.heap_mapped <- lx.heap_mapped + (Memory.pages_of_bytes grow * Memory.page_size);
          lx.brk <- target;
          finish lx th (vint (K.heap_base + lx.brk))
        | Error e -> fail lx th e)
    end
  | "poke" ->
    let addr = int_arg 0 and data = str_arg 1 in
    let cow = Memory.write_bytes (pico lx).K.aspace addr data in
    K.update_peak_rss (pico lx);
    finish lx th
      ~cost:(Time.add (Cost.copy_cost (String.length data)) (Time.scale Cost.cow_fault (float_of_int cow)))
      (vint 0)
  | "peek" ->
    let addr = int_arg 0 and n = int_arg 1 in
    let data = Memory.read_bytes (pico lx).K.aspace addr n in
    finish lx th ~cost:(Cost.copy_cost n) (vstr data)
  (* {2 Threads} *)
  | "clone" -> (
    match Posix.clone lx th (str_arg 0) (a 1) with
    | Error e -> fail lx th e
    | Ok (gtid, machine) ->
      Pal.thread_create lx.own.pal machine (function
        | Ok host_th ->
          Posix.add_thread lx gtid host_th;
          finish lx th ~cost:(Time.us 18.) (vint gtid)
        | Error e -> fail lx th e))
  | "sched_yield" -> Pal.thread_yield lx.own.pal (fun _ -> finish lx th (vint 0))
  (* {2 Time and misc} *)
  | "gettimeofday" | "time" | "clock_gettime" -> (
    match vdso_page lx with
    | Some p ->
      (* base + elapsed-since-publish: exact while the page is valid *)
      finish lx th ~cost:Cost.vdso_call
        (vint (K.vdso_time p ~now:(K.now (kernel lx))))
    | None ->
      Pal.system_time_query lx.own.pal (function
        | Ok t ->
          (* refresh the page so the next call takes the fast path *)
          vdso_publish lx;
          finish lx th (vint t)
        | Error e -> fail lx th e))
  | "ring" -> do_ring lx th (Ast.as_list (a 0))
  (* {2 Graphene extension: dynamic sandboxing (§6.6)} *)
  | "sandbox_create" ->
    let paths = List.map Ast.as_str (Ast.as_list (a 0)) in
    let old_sandbox = (pico lx).K.sandbox in
    Pal.sandbox_create lx.own.pal ~keep_children:[] (function
      | Ok new_sandbox ->
        (kernel lx).K.lsm.K.on_sandbox_split (pico lx) ~old_sandbox ~paths;
        Ipc.become_isolated (ipc lx) ~first_pid:(lx.pid + 1);
        (* the split invalidated our vDSO page; publish a fresh one
           bound to the new sandbox *)
        vdso_publish lx;
        finish lx th ~cost:(Time.us 10.) (vint new_sandbox)
      | Error e -> fail lx th e)
  (* calls answered from the process record alone; anything else is ENOSYS *)
  | _ -> Posix.dispatch lx th name args

(* {2 open} *)

and do_open lx th path mode =
  if path = "/dev/zero" then
    finish lx th (vint (Posix.alloc_fd lx { fh = None; kind = Kzero; cloexec = false }))
  else if path = "/dev/null" then
    finish lx th (vint (Posix.alloc_fd lx { fh = None; kind = Knull; cloexec = false }))
  else if String.length path >= String.length proc_prefix
     && String.sub path 0 (String.length proc_prefix) = proc_prefix
  then begin
    (* /proc is a libOS abstraction: local state or RPC, never the
       host's /proc (that is the Memento-style side channel the
       isolation evaluation probes) *)
    match parse_proc_path path with
    | None -> fail lx th E.ENOENT
    | Some (p, field) ->
      if p = lx.pid then begin
        match render_proc_local lx ~field with
        | Ok content ->
          finish lx th ~cost:(Time.us 1.5)
            (vint (Posix.alloc_fd lx { fh = None; kind = Kproc { content; pos = 0 }; cloexec = false }))
        | Error e -> fail lx th e
      end
      else
        Ipc.read_proc (ipc lx) ~pid:p ~field (function
          | Ok content ->
            finish lx th
              (vint (Posix.alloc_fd lx { fh = None; kind = Kproc { content; pos = 0 }; cloexec = false }))
          | Error e -> fail lx th e)
  end
  else begin
    let write = mode <> "r" in
    let create = mode = "w" || mode = "rw" || mode = "a" || mode = "creat" in
    (* O_APPEND positions at the end; others at 0 *)
    let after_open h pos =
      let fd = Posix.alloc_fd lx { fh = Some h; kind = Kfile { path; pos }; cloexec = false } in
      finish lx th ~cost:(path_hit_cost lx path) (vint fd)
    in
    Pal.stream_open lx.own.pal ("file:" ^ path) ~write ~create:(create && mode <> "a") (function
      | Error e -> fail lx th e
      | Ok h ->
        if mode = "a" then
          Pal.stream_attributes_query lx.own.pal ("file:" ^ path) (function
            | Ok attrs -> after_open h attrs.Pal.size
            | Error _ -> after_open h 0)
        else after_open h 0)
  end

(* {2 read / write} *)

and do_read lx th fd n =
  match get_fd lx fd with
  | None -> fail lx th E.EBADF
  | Some e -> (
    match e.kind with
    | Knull | Kconsole -> finish lx th (vstr "")
    | Kzero ->
      (* a PAL read of the host /dev/zero *)
      finish lx th
        ~cost:(Time.add Cost.host_syscall_entry (Time.add Cost.host_read_base (Time.ns 30)))
        (vstr (String.make (max 0 n) '\000'))
    | Kproc p ->
      let take = max 0 (min n (String.length p.content - p.pos)) in
      let s = String.sub p.content p.pos take in
      p.pos <- p.pos + take;
      finish lx th ~cost:(Time.us 0.5) (vstr s)
    | Kfile f -> (
      match e.fh with
      | None -> fail lx th E.EBADF
      | Some h ->
        Pal.stream_read lx.own.pal h ~off:f.pos ~max:n (function
          | Ok data ->
            f.pos <- f.pos + String.length data;
            finish lx th ~cost:(Time.ns 30) (vstr data)
          | Error err -> fail lx th err))
    | Kstream { sock } -> (
      match e.fh with
      | None -> fail lx th E.EBADF
      | Some h ->
        Pal.stream_read lx.own.pal h ~off:0 ~max:n (function
          | Ok data ->
            let rm =
              if sock && K.lsm_active (kernel lx) then Cost.lsm_sock_op_check else Time.zero
            in
            let cost = Time.add rm (if sock then Time.ns 530 else Time.ns 30) in
            finish lx th ~cost (vstr data)
          | Error err -> fail lx th err))
    | Klisten _ | Kepoll _ -> fail lx th E.EINVAL)

and do_write lx th fd data =
  match get_fd lx fd with
  | None -> fail lx th E.EBADF
  | Some e -> (
    match e.kind with
    | Knull ->
      (* a PAL write to the host /dev/null *)
      finish lx th
        ~cost:(Time.add Cost.host_syscall_entry Cost.host_write_base)
        (vint (String.length data))
    | Kzero -> fail lx th E.EACCES
    | Kconsole -> finish lx th ~cost:(Time.ns 150) (vint (Posix.console_write lx data))
    | Kproc _ -> fail lx th E.EACCES
    | Kfile f -> (
      match e.fh with
      | None -> fail lx th E.EBADF
      | Some h ->
        Pal.stream_write lx.own.pal h ~off:f.pos data (function
          | Ok n ->
            f.pos <- f.pos + n;
            finish lx th ~cost:(Time.ns 30) (vint n)
          | Error err -> fail lx th err))
    | Kstream { sock } -> (
      match e.fh with
      | None -> fail lx th E.EBADF
      | Some h ->
        Pal.stream_write lx.own.pal h ~off:0 data (function
          | Ok n ->
            let rm =
              if sock && K.lsm_active (kernel lx) then Cost.lsm_sock_op_check else Time.zero
            in
            let cost = Time.add rm (if sock then sock_overhead_roundtrip else Time.ns 30) in
            finish lx th ~cost (vint n)
          | Error err -> fail lx th err))
    | Klisten _ | Kepoll _ -> fail lx th E.EINVAL)

(* {2 ring} *)

(* Guest ABI: [ring entries] where each entry is ("read", (fd, n)) or
   ("write", (fd, data)). Completes with the per-op results in
   submission order — data string, bytes written, or [-errno] — and an
   individual failure never aborts the batch. The PAL-backed entries
   go through the submission ring: one boundary crossing for the whole
   batch, and a stream read that would block completes EAGAIN instead
   of parking the drain. Batched file entries are offset-projected
   like preadv/pwritev — entry k's offset assumes the earlier entries
   transfer fully — and file positions advance by what actually
   transferred. *)
and do_ring lx th entries =
  let proj : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let projected fd pos len =
    let off = match Hashtbl.find_opt proj fd with Some o -> o | None -> pos in
    Hashtbl.replace proj fd (off + len);
    off
  in
  let parse v =
    match v with
    | Ast.Vpair (Ast.Vstr "read", Ast.Vpair (Ast.Vint fd, Ast.Vint n)) -> (
      match get_fd lx fd with
      | Some { kind = Kfile f; fh = Some h; _ } ->
        `Op (Pal.Sq_read { handle = h; off = projected fd f.pos n; max = n }, fd, `File)
      | Some { kind = Kstream { sock }; fh = Some h; _ } ->
        `Op (Pal.Sq_read { handle = h; off = 0; max = n }, fd, `Stream sock)
      | Some _ -> `Imm (err E.EINVAL)
      | None -> `Imm (err E.EBADF))
    | Ast.Vpair (Ast.Vstr "write", Ast.Vpair (Ast.Vint fd, Ast.Vstr s)) -> (
      match get_fd lx fd with
      | Some { kind = Kfile f; fh = Some h; _ } ->
        `Op
          ( Pal.Sq_write { handle = h; off = projected fd f.pos (String.length s); data = s },
            fd,
            `File )
      | Some { kind = Kstream { sock }; fh = Some h; _ } ->
        `Op (Pal.Sq_write { handle = h; off = 0; data = s }, fd, `Stream sock)
      | Some { kind = Kconsole; _ } ->
        (* console writes never cross into the PAL; they complete at
           submission, like a kernel-buffered tty *)
        `Imm (vint (Posix.console_write lx s))
      | Some _ -> `Imm (err E.EINVAL)
      | None -> `Imm (err E.EBADF))
    | _ -> `Imm (err E.EINVAL)
  in
  let plan = List.map parse entries in
  let ops = List.filter_map (function `Op (sqe, _, _) -> Some sqe | `Imm _ -> None) plan in
  (* translate one completion to its guest value, advance the file
     position by what actually transferred, and account the same
     libOS-side per-op cost the single-call paths charge *)
  let apply fd ki cqe =
    let advance n =
      match get_fd lx fd with
      | Some { kind = Kfile f; _ } -> f.pos <- f.pos + n
      | _ -> ()
    in
    let op_cost read =
      match ki with
      | `Stream true ->
        let rm = if K.lsm_active (kernel lx) then Cost.lsm_sock_op_check else Time.zero in
        Time.add rm (if read then Time.ns 530 else sock_overhead_roundtrip)
      | _ ->
        (* file completions: the batch was marshalled once at submit;
           per entry only the result zip remains *)
        Time.ns 10
    in
    match cqe with
    | Pal.Cq_data data ->
      advance (String.length data);
      (vstr data, op_cost true)
    | Pal.Cq_len n ->
      advance n;
      (vint n, op_cost false)
    | Pal.Cq_errno e -> (err e, Time.zero)
  in
  lx_count lx "liblinux.ring.batches";
  if Obs.enabled (kernel lx).K.tracer then
    Obs.count (kernel lx).K.tracer ~n:(List.length ops) "liblinux.ring.ops";
  (* the PAL answers an empty submission at once, so a batch whose
     entries all completed above never crosses *)
  Pal.ring_submit lx.own.pal ops (function
    | Error e -> fail lx th e
    | Ok cqes ->
      let rec zip plan cqes acc cost =
        match (plan, cqes) with
        | [], _ -> finish lx th ~cost (Ast.Vlist (List.rev acc))
        | `Imm v :: rest, cq -> zip rest cq (v :: acc) cost
        | `Op (_, fd, ki) :: rest, cqe :: cq ->
          let v, c = apply fd ki cqe in
          zip rest cq (v :: acc) (Time.add cost c)
        | `Op _ :: _, [] ->
          (* a complete drain answers every submitted entry *)
          fail lx th E.EINVAL
      in
      zip plan cqes [] Time.zero)

(* {2 select} *)

and do_select lx th fd_values =
  let fds = List.map Ast.as_int fd_values in
  let handles =
    List.filter_map
      (fun fd ->
        match get_fd lx fd with
        | Some { fh = Some h; _ } -> Some (fd, h)
        | _ -> None)
      fds
  in
  if handles = [] then fail lx th E.EBADF
  else begin
    let cost =
      Time.add Cost.select_pal_translation
        (if K.lsm_active (kernel lx) then Cost.lsm_fd_check else Time.zero)
    in
    K.after (kernel lx) (Time.add Cost.select_base cost) (fun () ->
        Pal.objects_wait_any lx.own.pal (List.map snd handles) (function
          | Ok idx -> finish lx th (vint (fst (List.nth handles idx)))
          | Error e -> fail lx th e))
  end

(* {2 epoll_wait} *)

(* Synchronous readiness check, the heart of the O(ready) claim: a
   ready fd is answered without arming any waiter at all. *)
and fd_ready lx fd =
  match get_fd lx fd with
  | Some { fh = Some h; _ } -> (
    match h.K.obj with
    | K.Hstream ep -> Stream.available ep > 0 || Stream.has_oob ep || Stream.at_eof ep
    | K.Hserver srv -> srv.K.backlog <> [] || srv.K.srv_closed
    | _ -> false)
  | _ -> false

and do_epoll_wait lx th e =
  if e.interest = [] then fail lx th E.EINVAL
  else begin
    let scan () = List.filter (fd_ready lx) e.interest in
    let answer ready =
      let cost =
        Time.add Cost.epoll_wait_base
          (Time.scale Cost.epoll_ready_event (float_of_int (List.length ready)))
      in
      finish lx th ~cost (Ast.Vlist (List.map vint ready))
    in
    match scan () with
    | _ :: _ as ready -> answer ready
    | [] ->
      (* block on the whole interest set; the PAL re-queues a server
         endpoint it consumed while waiting, so no connection is lost
         to the wakeup (pal.ml objects_wait_any) *)
      let handles =
        List.filter_map (fun fd -> match get_fd lx fd with Some { fh = Some h; _ } -> Some h | _ -> None)
          e.interest
      in
      if handles = [] then fail lx th E.EBADF
      else
        Pal.objects_wait_any lx.own.pal handles (function
          | Error err -> fail lx th err
          | Ok _ -> (
            match scan () with
            | [] ->
              (* the wakeup's readiness was consumed by a peer thread
                 between the PAL callback and this rescan; report the
                 woken set as empty rather than spinning *)
              answer []
            | ready -> answer ready))
  end

(* {2 kill} *)

and do_kill lx th target signum =
  if target = lx.pid then begin
    (* self-signal: a library function call, faster than native *)
    ignore (Posix.post_signal lx signum);
    finish lx th ~cost:Cost.libos_self_signal (vint 0)
  end
  else if target < 0 then begin
    (* process group: deliver to self (if member) and every known
       child in the group; remote group members are reached through
       their PIDs *)
    let pgid = -target in
    if lx.pgid = pgid then ignore (Posix.post_signal lx signum);
    let targets =
      Hashtbl.fold (fun _ c acc -> if c.c_pgid = pgid then c.c_pid :: acc else acc) lx.children []
    in
    let rec send_all = function
      | [] -> finish lx th (vint 0)
      | p :: rest ->
        Ipc.send_signal (ipc lx) ~to_pid:p ~signum ~from_pid:lx.pid (fun _ -> send_all rest)
    in
    send_all targets
  end
  else begin
    let tracer = (kernel lx).K.tracer in
    if Obs.enabled tracer then
      Obs.instant tracer Obs.Liblinux ~name:"signal.remote" ~pid:(pico lx).K.pid
        ~tid:th.K.tid
        ~args:[ ("target", Obs.Aint target); ("signum", Obs.Aint signum) ]
        (K.now (kernel lx));
    with_ipc lx th (Ipc.send_signal (ipc lx) ~to_pid:target ~signum ~from_pid:lx.pid) (function
      | Ok () -> finish lx th (vint 0)
      | Error e -> fail lx th e)
  end

(* {2 fork} *)

(* The private regions fork moves by bulk IPC and migration re-maps:
   heap, mmap, stacks (code images are already page-cache shared). *)
and private_regions lx =
  List.filter_map
    (fun r ->
      match Memory.region_kind r with
      | Memory.Heap | Memory.Mmap | Memory.Stack ->
        Some (Memory.region_base r, Memory.region_npages r)
      | Memory.Pal_code | Memory.Libos_image | Memory.App_image -> None)
    (Memory.regions (pico lx).K.aspace)

and snapshot_fds lx =
  (* stream fds travel out-of-band; everything else by name *)
  let slots = ref [] in
  let next_slot = ref 0 in
  let slot h =
    let n = !next_slot in
    incr next_slot;
    slots := !slots @ [ h ];
    n
  in
  let snaps =
    Hashtbl.fold
      (fun fd e acc ->
        match (e.kind, e.fh) with
        | Kfile f, _ -> Ckpt.Sfile { fd; path = f.path; pos = f.pos; cloexec = e.cloexec } :: acc
        | Kconsole, _ -> Ckpt.Sconsole fd :: acc
        | (Knull | Kzero), _ -> Ckpt.Snull fd :: acc
        | Kproc _, _ -> acc (* /proc fds are not inherited *)
        | Kepoll _, _ -> acc (* interest sets are per-process; children re-register *)
        | Kstream _, Some h -> Ckpt.Sstream { fd; slot = slot h; cloexec = e.cloexec } :: acc
        | Klisten { port }, Some h ->
          Ckpt.Slisten { fd; slot = slot h; port; cloexec = e.cloexec } :: acc
        | (Kstream _ | Klisten _), None -> acc)
      lx.fds []
  in
  (snaps, !slots)

(* The checkpoint record of this process as it stands, with [machine]
   as its registers; fork rewrites the identity for the child. *)
and build_ckpt lx ~machine ~heap_pages =
  let fds, slots = snapshot_fds lx in
  ( { Ckpt.c_machine = Interp.to_bytes machine;
      c_exe = lx.exe;
      c_pid = lx.pid;
      c_ppid = lx.ppid;
      c_pgid = lx.pgid;
      c_parent_addr = lx.own.parent_addr;
      c_cwd = lx.cwd;
      c_fds = fds;
      c_sigactions = Hashtbl.fold (fun k v acc -> (k, v) :: acc) lx.sigactions [];
      c_sig_blocked = lx.sig_blocked;
      c_brk = lx.brk;
      c_inherited = Ipc.snapshot_for_child (ipc lx);
      c_regions = [];
      c_heap_pages = heap_pages },
    slots )

and do_fork lx th =
  match th.K.machine with
  | None -> fail lx th E.EINVAL
  | Some m ->
    Ipc.alloc_pid (ipc lx) (function
      | Error e -> fail lx th e
      | Ok child_pid ->
        let child_machine = Interp.resume m (vint 0) in
        let record, slots = build_ckpt lx ~machine:child_machine ~heap_pages:[] in
        let bytes =
          Ckpt.to_bytes
            { record with
              Ckpt.c_pid = child_pid;
              c_ppid = lx.pid;
              c_parent_addr = Ipc.my_addr (ipc lx) }
        in
        let resident = Memory.resident_pages (pico lx).K.aspace in
        (* checkpoint cost: table walk + serialization (§6.4: "about
           half the overhead comes from the checkpointing code") *)
        let ckpt_cost =
          Time.add (Time.us 30.)
            (Time.add
               (Time.scale fork_page_walk (float_of_int resident))
               (Time.ns (int_of_float (0.3 *. float_of_int (String.length bytes)))))
        in
        K.after (kernel lx) ckpt_cost (fun () ->
            if lx.exited then ()
            else
              Pal.process_create lx.own.pal ~exe:lx.exe ~sandboxed:false
                ~boot:(fun child_pico child_ep ->
                  restore_in_child ~kern:(kernel lx) ~cfg:lx.own.cfg
                    ~console_hook:lx.on_console child_pico child_ep)
                (function
                | Error e -> fail lx th e
                | Ok (proc_h, init_h) ->
                  let child_pico =
                    match proc_h.K.obj with K.Hprocess p -> p | _ -> assert false
                  in
                  Hashtbl.replace lx.children child_pid
                    { c_pid = child_pid; c_status = `Running; c_pgid = lx.pgid };
                  (* synthesized exit notification if the child dies
                     without reporting (crash, host kill) *)
                  K.on_pico_exit (kernel lx) child_pico (fun code ->
                      K.after (kernel lx) (Time.us 50.) (fun () ->
                          if not lx.exited then Posix.mark_zombie lx child_pid code));
                  Ipc.register_pid_owner (ipc lx) ~pid:child_pid ~addr:(addr_of_pico child_pico);
                  (* ship: checkpoint image, bulk-IPC token, handles *)
                  Pal.stream_write lx.own.pal init_h ~off:0 bytes (function
                    | Error e -> fail lx th e
                    | Ok _ ->
                      Pal.physical_memory_send lx.own.pal ~ranges:(private_regions lx) (function
                        | Error e -> fail lx th e
                        | Ok token ->
                          Pal.stream_write lx.own.pal init_h ~off:0
                            (Marshal.to_string token []) (function
                            | Error e -> fail lx th e
                            | Ok _ ->
                              let rec send_slots = function
                                | [] ->
                                  Pal.stream_close lx.own.pal init_h (fun _ -> ());
                                  finish lx th ~cost:(Time.us 2.0) (vint child_pid)
                                | h :: rest ->
                                  Pal.stream_send_handle lx.own.pal init_h h (fun _ ->
                                      send_slots rest)
                              in
                              send_slots slots))))))

(* Child-side restore: runs in the fresh picoprocess as the PAL boots
   it. Reads the checkpoint, maps the inherited pages by bulk IPC,
   receives stream handles, reopens files, and starts the machine. *)
and restore_in_child ~kern ~cfg ~console_hook child_pico child_ep =
  K.install_filter kern child_pico
    (Seccomp.graphene_filter ~pal_lo:K.pal_base ~pal_hi:K.pal_limit);
  let pal = Pal.create kern child_pico in
  K.stream_recv_msg kern child_ep (function
    | None -> K.pico_exit kern child_pico 127
    | Some ckpt_bytes -> (
      match Ckpt.of_bytes ckpt_bytes with
      | Error _ -> K.pico_exit kern child_pico 127
      | Ok record ->
        K.stream_recv_msg kern child_ep (function
          | None -> K.pico_exit kern child_pico 127
          | Some tokmsg ->
            let token : int = Marshal.from_string tokmsg 0 in
            K.after kern pal_load_warm (fun () ->
                Pal.physical_memory_receive pal ~token (fun _ ->
                    let nslots = Ckpt.stream_slots record.Ckpt.c_fds in
                    let rec recv_handles n acc k =
                      if n = 0 then k (List.rev acc)
                      else
                        K.stream_recv_handle kern child_ep (function
                          | Some h ->
                            (* the inherited reference belongs to the
                               child now: track it for exit cleanup *)
                            (match h.K.obj with
                            | K.Hstream ep -> K.register_endpoint kern child_pico ep
                            | _ -> ());
                            recv_handles (n - 1) (h :: acc) k
                          | None -> k (List.rev acc))
                    in
                    recv_handles nslots [] (fun handles ->
                        ignore (finish_restore ~kern ~pal ~cfg ~console_hook record handles)))))))

and finish_restore ?restore_cost ~kern ~pal ~cfg ~console_hook record handles =
  let lx =
    make ~pal ~cfg ~pid:record.Ckpt.c_pid ~ppid:record.Ckpt.c_ppid ~pgid:record.Ckpt.c_pgid
      ~parent_addr:record.Ckpt.c_parent_addr ~exe:record.Ckpt.c_exe
  in
  lx.on_console <- console_hook;
  lx.cwd <- record.Ckpt.c_cwd;
  lx.brk <- record.Ckpt.c_brk;
  lx.heap_mapped <- record.Ckpt.c_brk;
  List.iter (fun (s, h) -> Hashtbl.replace lx.sigactions s h) record.Ckpt.c_sigactions;
  lx.sig_blocked <- record.Ckpt.c_sig_blocked;
  (* a full checkpoint re-maps the private regions it recorded; a fork
     child inherited them by bulk IPC instead *)
  List.iter
    (fun (base, npages) ->
      if Memory.find_region (pico lx).K.aspace base = None then
        ignore
          (Memory.map (pico lx).K.aspace ~base ~npages ~perm:Memory.rw ~kind:Memory.Mmap))
    record.Ckpt.c_regions;
  (* code images (shared) + private libOS data; the heap arrived by
     bulk IPC already *)
  map_libos_images lx ~app_bytes:default_app_image_bytes ~scratch:restore_scratch_bytes;
  (* full-checkpoint restores carry page contents inline instead *)
  List.iter
    (fun (addr, data) -> ignore (Memory.write_bytes (pico lx).K.aspace addr data))
    record.Ckpt.c_heap_pages;
  let ipc_inst =
    Ipc.create ~pal ~cfg ~callbacks:(callbacks_of lx) ~my_addr:(my_addr lx)
      ~leader_addr:record.Ckpt.c_inherited.Ipc.i_leader_addr ~make_leader:false ~first_pid:0
  in
  lx.own.ipc <- Some ipc_inst;
  Ipc.set_my_pid ipc_inst record.Ckpt.c_pid;
  Ipc.restore_inherited ipc_inst record.Ckpt.c_inherited;
  let handle_arr = Array.of_list handles in
  let fd_of_slot slot = if slot < Array.length handle_arr then Some handle_arr.(slot) else None in
  (* restore descriptors: streams from the passed handles, files by
     reopening their paths *)
  let files_to_reopen = ref [] in
  List.iter
    (fun snap ->
      match snap with
      | Ckpt.Sconsole fd -> Hashtbl.replace lx.fds fd { fh = None; kind = Kconsole; cloexec = false }
      | Ckpt.Snull fd -> Hashtbl.replace lx.fds fd { fh = None; kind = Knull; cloexec = false }
      | Ckpt.Sstream { fd; slot; cloexec } ->
        Hashtbl.replace lx.fds fd { fh = fd_of_slot slot; kind = Kstream { sock = false }; cloexec }
      | Ckpt.Slisten { fd; slot; port; cloexec } ->
        Hashtbl.replace lx.fds fd { fh = fd_of_slot slot; kind = Klisten { port }; cloexec }
      | Ckpt.Sfile { fd; path; pos; cloexec } -> files_to_reopen := (fd, path, pos, cloexec) :: !files_to_reopen)
    record.Ckpt.c_fds;
  lx.next_fd <-
    1 + List.fold_left max 2 (List.map (fun s -> fd_of_snap s) record.Ckpt.c_fds);
  (* fresh PAL allocations must not collide with inherited regions *)
  let max_end =
    List.fold_left
      (fun acc r ->
        max acc (Memory.region_base r + (Memory.region_npages r * Memory.page_size)))
      K.heap_base
      (Memory.regions (pico lx).K.aspace)
  in
  pal.Pal.next_mmap <- max_end + Memory.page_size;
  let restore_cost =
    match restore_cost with
    | Some c -> c
    | None ->
      Time.add fork_restore_fixed
        (Time.ns (int_of_float (0.5 *. float_of_int (String.length record.Ckpt.c_machine))))
  in
  let rec reopen = function
    | [] ->
      (* install the machine and go *)
      let machine = Interp.of_bytes record.Ckpt.c_machine in
      (* a restored picoprocess never inherits the parent's time base:
         [start] publishes a fresh vDSO page stamped from this kernel's
         clock, once restore is charged *)
      K.after kern restore_cost (fun () -> start lx machine)
    | (fd, path, pos, cloexec) :: rest ->
      Pal.stream_open pal ("file:" ^ path) ~write:true ~create:false (function
        | Ok h ->
          Hashtbl.replace lx.fds fd { fh = Some h; kind = Kfile { path; pos }; cloexec };
          reopen rest
        | Error _ ->
          (* the file may be read-only for us; retry read-only *)
          Pal.stream_open pal ("file:" ^ path) ~write:false ~create:false (function
            | Ok h ->
              Hashtbl.replace lx.fds fd { fh = Some h; kind = Kfile { path; pos }; cloexec };
              reopen rest
            | Error _ -> reopen rest))
  in
  reopen !files_to_reopen;
  lx

and fd_of_snap = function
  | Ckpt.Sfile { fd; _ } | Ckpt.Sconsole fd | Ckpt.Snull fd | Ckpt.Sstream { fd; _ }
  | Ckpt.Slisten { fd; _ } ->
    fd

(* {2 exec} *)

and do_exec lx th path argv =
  Loader.load lx.own.pal ~path (function
    | Error e -> fail lx th e
    | Ok program ->
      (* close-on-exec descriptors go; signal dispositions reset *)
      Hashtbl.iter
        (fun fd e ->
          if e.cloexec then begin
            Hashtbl.remove lx.fds fd;
            match e.fh with Some h -> Pal.stream_close lx.own.pal h (fun _ -> ()) | None -> ()
          end)
        (Hashtbl.copy lx.fds);
      Hashtbl.reset lx.sigactions;
      lx.exe <- path;
      let m = Interp.start program ~argv in
      K.set_machine (kernel lx) th m ~cost:exec_fixed)

(* {2 Starting the main thread} *)

(* Install the thread service and the exception upcall, publish the
   vDSO page, and start the machine. *)
and start lx machine =
  let service = Posix.service lx ~dispatch in
  lx.own.pal.Pal.thread_service <- Some service;
  Pal.exception_handler_set lx.own.pal (on_pal_exception lx);
  vdso_publish lx;
  Posix.start_main lx machine ~service

(* Boot the first picoprocess of a sandbox: what the reference-monitor
   launcher does. Composes to the paper's 641 us start-up (Table 4). *)
let boot ?(cfg = Ipc_config.default ()) ?console_hook kernel ~exe ~argv () =
  let sandbox = K.fresh_sandbox kernel in
  let pico = K.spawn kernel ~sandbox ~exe () in
  K.install_filter kernel pico (Seccomp.graphene_filter ~pal_lo:K.pal_base ~pal_hi:K.pal_limit);
  let pal = Pal.create kernel pico in
  let lx = make ~pal ~cfg ~pid:1 ~ppid:0 ~pgid:1 ~parent_addr:"" ~exe in
  lx.on_console <- console_hook;
  init_std_fds lx;
  let ipc_inst =
    Ipc.create ~pal ~cfg ~callbacks:(callbacks_of lx) ~my_addr:(my_addr lx)
      ~leader_addr:(my_addr lx) ~make_leader:true ~first_pid:2
  in
  lx.own.ipc <- Some ipc_inst;
  Ipc.set_my_pid ipc_inst lx.pid;
  let boot_cost = Time.add Cost.picoprocess_spawn Cost.pal_load in
  let tracer = kernel.K.tracer in
  if Obs.enabled tracer then
    Obs.span tracer Obs.Pal ~name:"boot" ~pid:pico.K.pid
      ~args:[ ("exe", Obs.Astr exe) ]
      ~start:(K.now kernel) ~dur:boot_cost ();
  K.after kernel boot_cost (fun () ->
      Loader.load pal ~path:exe (function
        | Error _ -> K.pico_exit kernel pico 127
        | Ok program ->
          let binary_bytes =
            try (Vfs.stat kernel.K.fs exe).Vfs.st_size with Vfs.Error _ -> 0
          in
          map_libos_images lx ~app_bytes:(max default_app_image_bytes binary_bytes) ~scratch:0;
          start lx (Interp.start program ~argv)));
  lx
