(** The native-Linux baseline personality.

    Services the same guest system-call ABI as {!Graphene_liblinux.Lx}
    but the way a monolithic kernel does: directly against host kernel
    state, with the paper's measured native costs (Table 6 Linux
    column), kernel-resident System V IPC, in-kernel process tables and
    direct signal delivery. No PAL, no seccomp filter, no reference
    monitor, no RPC.

    An optional {!vm} profile layers the KVM guest model on top: a
    one-time boot cost, fixed VM memory, and virtio overhead on network
    operations — the third column of the paper's comparisons. *)

open Graphene_sim
module K = Graphene_host.Kernel
module Memory = Graphene_host.Memory
module Stream = Graphene_host.Stream
module Vfs = Graphene_host.Vfs
module Ast = Graphene_guest.Ast
module Interp = Graphene_guest.Interp
module Loader = Graphene_liblinux.Loader
module Signal = Graphene_liblinux.Signal
module Errno = Graphene_liblinux.Errno
module E = Graphene_core.Errno
module Posix = Graphene_liblinux.Posix

(* Native memory layout: tuned so "hello world" is ~352 KB resident. *)
let app_image_bytes = 64 * 1024
let libc_image_bytes = 256 * 1024
let stack_bytes = 32 * 1024

type vm = {
  vm_name : string;
  boot : Time.t;
  syscall_extra : Time.t;
  net_extra : Time.t;  (** bridged-virtio per network operation *)
  cpu_tax : float;  (** nested-paging / TLB overhead on guest compute *)
  guest_ram : int;
  device_overhead : int;
  ckpt_image : int;  (** bytes written at VM checkpoint (the RAM image) *)
}

let kvm_profile =
  { vm_name = "KVM";
    boot = Cost.kvm_boot;
    syscall_extra = Cost.kvm_syscall_overhead;
    net_extra = Cost.virtio_net_overhead;
    cpu_tax = 1.035;
    guest_ram = Cost.kvm_min_ram;
    device_overhead = Cost.qemu_device_overhead;
    ckpt_image = Cost.kvm_min_ram - (23 * 1024 * 1024) }

open Posix

type fd_kind =
  | Kfile of string
  | Kconsole
  | Knull
  | Kzero
  | Kstream of { sock : bool }
  | Klisten of int
  | Kproc of string
  | Kepoll of epoll_state

(* Open file description: shared across dup and fork, with a shared
   seek cursor — stock POSIX semantics. *)
type ofile = {
  mutable handle : K.handle option;
  mutable okind : fd_kind;
  mutable pos : int;
  mutable refs : int;
}

type msgq_k = {
  kq_id : int;
  mutable kq_msgs : string list;
  mutable kq_waiters : ((string, E.t) result -> unit) list;
}

type sem_k = { ks_id : int; mutable ks_count : int; mutable ks_waiters : (unit -> unit) list }

type ctx = {
  kernel : K.t;
  vm : vm option;
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  (* System V IPC lives in kernel memory and survives processes *)
  key_to_q : (int, int) Hashtbl.t;
  queues : (int, msgq_k) Hashtbl.t;
  key_to_sem : (int, int) Hashtbl.t;
  sems : (int, sem_k) Hashtbl.t;
  mutable next_rid : int;
  mutable booted_at : Time.t option;  (** when the VM finished booting *)
}

and proc = (ofile, own) Posix.t

and own = { ctx : ctx; mutable next_mmap : int }

let create ?vm kernel =
  let ctx =
    { kernel;
      vm;
      procs = Hashtbl.create 16;
      next_pid = 0;
      key_to_q = Hashtbl.create 8;
      queues = Hashtbl.create 8;
      key_to_sem = Hashtbl.create 8;
      sems = Hashtbl.create 8;
      next_rid = 1;
      booted_at = None }
  in
  (match vm with
  | Some v -> K.after kernel v.boot (fun () -> ctx.booted_at <- Some (K.now kernel))
  | None -> ctx.booted_at <- Some (K.now kernel));
  ctx

let vm_memory ctx =
  match ctx.vm with Some v -> v.guest_ram + v.device_overhead | None -> 0

let console_output (p : proc) = Buffer.contents p.console
let exited (p : proc) = p.exited
let exit_code (p : proc) = p.exit_code
let proc_pid (p : proc) = p.pid
let started_at (p : proc) = p.started_at
let kernel_of (p : proc) = p.kernel
let pico_of (p : proc) = p.pico

let vint n = Ast.Vint n
let vstr s = Ast.Vstr s
let err tag = Errno.to_value tag

(* Trap + kernel entry; VMs add their exit cost on some paths. *)
let entry ctx = Time.add Cost.host_syscall_entry (match ctx.vm with Some v -> v.syscall_extra | None -> Time.zero)

let net_cost ctx = match ctx.vm with Some v -> v.net_extra | None -> Time.zero

let new_ofile ?handle kind = { handle; okind = kind; pos = 0; refs = 1 }

let init_std_fds (p : proc) =
  Hashtbl.replace p.fds 0 (new_ofile Knull);
  Hashtbl.replace p.fds 1 (new_ofile Kconsole);
  Hashtbl.replace p.fds 2 (new_ofile Kconsole);
  p.next_fd <- 3

let release_fd (p : proc) fd =
  match Hashtbl.find_opt p.fds fd with
  | None -> ()
  | Some o ->
    Hashtbl.remove p.fds fd;
    o.refs <- o.refs - 1;
    if o.refs = 0 then begin
      match o.handle with
      | Some { K.obj = K.Hstream ep; _ } -> K.close_endpoint_ordered p.kernel ep
      | Some { K.obj = K.Hserver srv; _ } -> srv.K.srv_closed <- true
      | _ -> ()
    end

let do_exit (p : proc) code =
  if not p.exited then begin
    p.exited <- true;
    p.exit_code <- code;
    List.iter (fun fd -> release_fd p fd) (Hashtbl.fold (fun fd _ acc -> fd :: acc) p.fds []);
    Hashtbl.remove p.own.ctx.procs p.pid;
    (* direct in-kernel exit notification to the parent *)
    (match Hashtbl.find_opt p.own.ctx.procs p.ppid with
    | Some parent -> Posix.mark_zombie parent p.pid code
    | None -> ());
    K.pico_exit p.kernel p.pico code
  end

(* Resume [th] with [v], delivering pending signals first. *)
let finish (p : proc) th ?(cost = Time.zero) v =
  if not p.exited then begin
    match th.K.machine with
    | None -> ()
    | Some m -> (
      match Posix.apply_pending_signals p (Interp.resume m v) with
      | `Exit code -> do_exit p code
      | `Machine m -> K.set_machine p.kernel th m ~cost:(Time.add (entry p.own.ctx) cost))
  end

let fail p th ?cost tag = finish p th ?cost (err tag)

let reply p th ?cost = function Ok () -> finish p th ?cost (vint 0) | Error e -> fail p th e

(* In-kernel delivery: a signal reaches a running thread's machine
   directly, with no upcall. *)
let ops =
  { Posix.resume = (fun p th v -> finish p th v);
    terminate = do_exit;
    interrupt = Posix.inject_signals }

(* {1 Memory layout} *)

let map_images (p : proc) ~app_bytes =
  let kern = p.kernel in
  let asp = p.pico.K.aspace in
  let libc = K.get_image kern ~name:"[native-libc]" ~bytes:libc_image_bytes in
  ignore
    (Memory.map_image asp ~base:(K.libos_base + 0x0100_0000) ~image:libc ~perm:Memory.rx
       ~kind:Memory.Libos_image);
  ignore
    (Memory.map_resident asp ~base:K.stack_base ~npages:(Memory.pages_of_bytes stack_bytes)
       ~perm:Memory.rw ~kind:Memory.Stack);
  let app = K.get_image kern ~name:("[native-bin]" ^ p.exe) ~bytes:app_bytes in
  ignore (Memory.map_image asp ~base:K.app_base ~image:app ~perm:Memory.rx ~kind:Memory.App_image);
  K.update_peak_rss p.pico

(* {1 Process construction} *)

let make_proc ctx ~pid ~ppid ~pgid ~exe ~pico =
  Posix.make ~ops ~kernel:ctx.kernel ~pico ~pid ~ppid ~pgid ~exe
    ~own:{ ctx; next_mmap = K.heap_base + 0x0800_0000 }

(* {1 File and stream transfers}

   One read or write at an open file description, as [read]/[write]
   and the [ring] batch both perform it: the guest value and its
   cost. *)

let file_read (p : proc) o path n =
  let data = Vfs.read_file (Vfs.find_file p.kernel.K.fs path) ~off:o.pos ~len:n in
  o.pos <- o.pos + String.length data;
  (vstr data, Time.add Cost.host_read_base (Cost.copy_cost n))

let file_write (p : proc) o path data =
  Vfs.write_file (Vfs.find_file p.kernel.K.fs path) ~off:o.pos data;
  o.pos <- o.pos + String.length data;
  (vint (String.length data), Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))

let stream_recv (p : proc) ep ~sock n k =
  K.stream_recv p.kernel ep ~max:n (fun data ->
      k (vstr data, Time.add Cost.host_read_base (if sock then net_cost p.own.ctx else Time.zero)))

(* raises [K.Denied] when the peer has closed *)
let stream_send (p : proc) ep ~sock data =
  K.stream_send p.kernel ep data;
  ( vint (String.length data),
    Time.add
      (Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))
      (if sock then net_cost p.own.ctx else Time.zero) )

(* {1 The dispatcher} *)

let rec dispatch p th name args = Posix.guard p th dispatch_inner name args

and dispatch_inner (p : proc) th name args =
  let ctx = p.own.ctx in
  let kern = p.kernel in
  let a = Posix.arg args and int_arg = Posix.int_arg args and str_arg = Posix.str_arg args in
  let file_of_fd fd = Hashtbl.find_opt p.fds fd in
  match name with
  | "getpid" -> finish p th (vint p.pid)
  | "getppid" -> finish p th (vint p.ppid)
  | "getuid" | "geteuid" -> finish p th (vint 1000)
  | "uname" -> finish p th (vstr "Linux native 3.5.0 x86_64")
  | "print" ->
    (* variadic: all string arguments are concatenated *)
    let s = String.concat "" (List.map Ast.as_str args) in
    finish p th ~cost:(Time.ns 150) (vint (Posix.console_write p s))
  (* {2 Files: direct VFS access with native costs; a VFS error is the
     call's errno (Posix.guard)} *)
  | "open" -> do_open p th (Posix.abspath p (str_arg 0)) (str_arg 1)
  | "close" -> (
    let fd = int_arg 0 in
    match file_of_fd fd with
    | None -> fail p th E.EBADF
    | Some _ ->
      release_fd p fd;
      finish p th ~cost:(Time.ns 120) (vint 0))
  | "read" -> do_read p th (int_arg 0) (int_arg 1)
  | "write" -> do_write p th (int_arg 0) (str_arg 1)
  | "lseek" -> (
    let fd = int_arg 0 and off = int_arg 1 and whence = str_arg 2 in
    match file_of_fd fd with
    | Some ({ okind = Kfile path; _ } as o) -> (
      let size = if whence = "end" then (Vfs.stat kern.K.fs path).Vfs.st_size else 0 in
      match Posix.seek ~pos:o.pos ~size off whence with
      | Ok pos ->
        o.pos <- pos;
        finish p th (vint pos)
      | Error e -> fail p th e)
    | Some _ -> fail p th E.ESPIPE
    | None -> fail p th E.EBADF)
  | "stat" | "access" ->
    let path = Posix.abspath p (str_arg 0) in
    let cost = Time.add (Time.ns 700) (Time.scale Cost.path_component (float_of_int (Vfs.depth path))) in
    let st = Vfs.stat kern.K.fs path in
    if name = "access" then finish p th ~cost (vint 0)
    else finish p th ~cost (Ast.Vpair (vint st.Vfs.st_size, vint (if st.Vfs.st_is_dir then 1 else 0)))
  | "unlink" | "rmdir" ->
    Vfs.unlink kern.K.fs (Posix.abspath p (str_arg 0));
    finish p th ~cost:Cost.host_open (vint 0)
  | "rename" ->
    Vfs.rename kern.K.fs ~src:(Posix.abspath p (str_arg 0)) ~dst:(Posix.abspath p (str_arg 1));
    finish p th ~cost:Cost.host_open (vint 0)
  | "mkdir" ->
    Vfs.mkdir_p kern.K.fs (Posix.abspath p (str_arg 0));
    finish p th ~cost:Cost.host_open (vint 0)
  | "readdir" ->
    let names = Vfs.readdir kern.K.fs (Posix.abspath p (str_arg 0)) in
    finish p th ~cost:(Time.us 1.0) (Ast.Vlist (List.map vstr names))
  | "chdir" ->
    let path = Posix.abspath p (str_arg 0) in
    if (Vfs.stat kern.K.fs path).Vfs.st_is_dir then begin
      p.cwd <- path;
      finish p th (vint 0)
    end
    else fail p th E.ENOTDIR
  | "dup" -> (
    match file_of_fd (int_arg 0) with
    | None -> fail p th E.EBADF
    | Some o ->
      o.refs <- o.refs + 1;
      finish p th ~cost:(Time.ns 200) (vint (Posix.alloc_fd p o)))
  | "dup2" -> (
    let oldfd = int_arg 0 and newfd = int_arg 1 in
    match file_of_fd oldfd with
    | None -> fail p th E.EBADF
    | Some o ->
      if newfd <> oldfd then begin
        release_fd p newfd;
        o.refs <- o.refs + 1;
        Hashtbl.replace p.fds newfd o;
        p.next_fd <- max p.next_fd (newfd + 1)
      end;
      finish p th ~cost:(Time.ns 220) (vint newfd))
  | "truncate" ->
    let path = Posix.abspath p (str_arg 0) and len = int_arg 1 in
    Vfs.truncate (Vfs.find_file kern.K.fs path) len;
    finish p th ~cost:(Time.ns 600) (vint 0)
  | "fsync" -> finish p th ~cost:(Time.us 2.0) (vint 0)
  | "fstat" -> (
    match file_of_fd (int_arg 0) with
    | Some { okind = Kfile path; _ } ->
      let st = Vfs.stat kern.K.fs path in
      finish p th (Ast.Vpair (vint st.Vfs.st_size, vint (if st.Vfs.st_is_dir then 1 else 0)))
    | Some _ -> finish p th (Ast.Vpair (vint 0, vint 0))
    | None -> fail p th E.EBADF)
  | "sync" -> finish p th ~cost:(Time.us 6.0) (vint 0)
  | "writev" ->
    let fd = a 0 and parts = List.map Ast.as_str (Ast.as_list (a 1)) in
    dispatch p th "write" [ fd; vstr (String.concat "" parts) ]
  | "sendfile" -> (
    let infd = int_arg 0 and outfd = int_arg 1 and n = int_arg 2 in
    match (file_of_fd infd, file_of_fd outfd) with
    | Some ({ okind = Kfile inpath; _ } as ino), Some out_o -> (
      let data = Vfs.read_file (Vfs.find_file kern.K.fs inpath) ~off:ino.pos ~len:n in
      ino.pos <- ino.pos + String.length data;
      match out_o.okind with
      | Kconsole -> finish p th (vint (Posix.console_write p data))
      | Kfile outpath ->
        let v, cost = file_write p out_o outpath data in
        finish p th ~cost v
      | Kstream _ -> (
        match out_o.handle with
        | Some { K.obj = K.Hstream ep; _ } -> (
          match K.stream_send kern ep data with
          | () -> finish p th (vint (String.length data))
          | exception K.Denied _ -> fail p th E.EPIPE)
        | _ -> fail p th E.EBADF)
      | _ -> fail p th E.EBADF)
    | _ -> fail p th E.EBADF)
  | "alarm" ->
    Posix.alarm p (int_arg 0);
    finish p th ~cost:(Time.ns 150) (vint 0)
  | "pipe" ->
    let a_ep, b_ep = Stream.pipe ~owner_a:p.pico.K.pid ~owner_b:p.pico.K.pid in
    let rfd = Posix.alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream a_ep)) (Kstream { sock = false })) in
    let wfd = Posix.alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream b_ep)) (Kstream { sock = false })) in
    finish p th ~cost:(Time.us 1.3) (Ast.Vpair (vint rfd, vint wfd))
  (* {2 Network} *)
  | "listen_tcp" -> (
    let port = int_arg 0 in
    match K.net_listen kern p.pico ~port with
    | srv ->
      finish p th ~cost:(Time.add (Time.us 1.5) (net_cost ctx))
        (vint (Posix.alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hserver srv)) (Klisten port))))
    | exception K.Denied e -> fail p th (E.of_string e))
  | "accept" | "accept_try" -> (
    (* accept_try is a non-blocking accept: -1 when the backlog is
       empty, so an event loop never sleeps outside its poll call *)
    match file_of_fd (int_arg 0) with
    | Some { handle = Some { K.obj = K.Hserver srv; _ }; _ } ->
      if name = "accept_try" && srv.K.backlog = [] then finish p th ~cost:(Time.ns 300) (vint (-1))
      else
        K.stream_accept kern srv (fun ep ->
            finish p th
              ~cost:(Time.add (Time.us 1.2) (net_cost ctx))
              (vint (Posix.alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream ep)) (Kstream { sock = true })))))
    | _ -> fail p th E.ENOTSOCK)
  | "connect_tcp" ->
    K.net_connect kern p.pico ~port:(int_arg 0)
      ~ok:(fun ep ->
        finish p th
          ~cost:(Time.add (Time.us 1.5) (net_cost ctx))
          (vint (Posix.alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream ep)) (Kstream { sock = true })))))
      ~err:(fun e -> fail p th (E.of_string e))
  | "shutdown" -> (
    match file_of_fd (int_arg 0) with
    | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } ->
      K.close_endpoint_ordered kern ep;
      finish p th (vint 0)
    | _ -> fail p th E.EBADF)
  | "select" -> do_select p th (Ast.as_list (a 0))
  (* {2 epoll} *)
  | "epoll_create" ->
    finish p th ~cost:(Time.ns 150) (vint (Posix.alloc_fd p (new_ofile (Kepoll { interest = [] }))))
  | "epoll_ctl" -> (
    let epfd = int_arg 0 and op = str_arg 1 and fd = int_arg 2 in
    match file_of_fd epfd with
    | Some { okind = Kepoll e; _ } -> reply p th ~cost:(Time.ns 150) (Posix.epoll_ctl p e op fd)
    | Some _ -> fail p th E.EINVAL
    | None -> fail p th E.EBADF)
  | "epoll_wait" -> (
    match file_of_fd (int_arg 0) with
    | Some { okind = Kepoll e; _ } -> do_epoll_wait p th e
    | Some _ -> fail p th E.EINVAL
    | None -> fail p th E.EBADF)
  (* {2 Signals} *)
  | "sigaction" -> reply p th ~cost:Cost.native_sig_install (Posix.sigaction p (int_arg 0) (str_arg 1))
  | "kill" ->
    let target = int_arg 0 and signum = int_arg 1 in
    if not (Posix.valid_signal signum) then fail p th E.EINVAL
    else if target = p.pid then begin
      ignore (Posix.post_signal p signum);
      finish p th ~cost:Cost.native_self_signal (vint 0)
    end
    else if target < 0 then begin
      let pgid = -target in
      Hashtbl.iter (fun _ (q : proc) -> if q.pgid = pgid then ignore (Posix.post_signal q signum)) ctx.procs;
      finish p th ~cost:(Time.us 1.5) (vint 0)
    end
    else begin
      match Hashtbl.find_opt ctx.procs target with
      | Some q ->
        ignore (Posix.post_signal q signum);
        finish p th ~cost:(Time.us 1.1) (vint 0)
      | None -> fail p th E.ESRCH
    end
  (* {2 Process lifecycle} *)
  | "fork" -> do_fork p th
  | "execve" -> do_exec p th (Posix.abspath p (str_arg 0)) (List.map Ast.as_str (Ast.as_list (a 1)))
  | "wait" | "waitpid" ->
    let pid = if name = "wait" then -1 else int_arg 0 in
    Option.iter (finish p th ~cost:(Time.us 0.8)) (Posix.wait p th pid)
  (* {2 System V IPC in kernel memory} *)
  | "msgget" -> (
    let key = int_arg 0 and create = int_arg 1 <> 0 in
    match Hashtbl.find_opt ctx.key_to_q key with
    | Some id -> finish p th ~cost:(Time.us 32.4) (vint id)
    | None ->
      if not create then fail p th E.ENOENT
      else begin
        let id = ctx.next_rid in
        ctx.next_rid <- id + 1;
        Hashtbl.replace ctx.key_to_q key id;
        Hashtbl.replace ctx.queues id { kq_id = id; kq_msgs = []; kq_waiters = [] };
        finish p th ~cost:(Time.us 33.2) (vint id)
      end)
  | "msgsnd" -> (
    let id = int_arg 0 and data = str_arg 1 in
    match Hashtbl.find_opt ctx.queues id with
    | None -> fail p th E.EIDRM
    | Some q -> (
      match q.kq_waiters with
      | w :: rest ->
        q.kq_waiters <- rest;
        w (Ok data);
        finish p th ~cost:(Time.us 1.4) (vint 0)
      | [] ->
        q.kq_msgs <- q.kq_msgs @ [ data ];
        finish p th ~cost:(Time.us 1.4) (vint 0)))
  | "msgrcv" -> (
    match Hashtbl.find_opt ctx.queues (int_arg 0) with
    | None -> fail p th E.EIDRM
    | Some q -> (
      match q.kq_msgs with
      | m :: rest ->
        q.kq_msgs <- rest;
        finish p th ~cost:(Time.us 1.4) (vstr m)
      | [] ->
        q.kq_waiters <-
          q.kq_waiters
          @ [ (function
              | Ok m -> finish p th ~cost:(Time.us 1.4) (vstr m)
              | Error e -> fail p th ~cost:(Time.us 1.4) e) ]))
  | "msgctl_rmid" -> (
    let id = int_arg 0 in
    match Hashtbl.find_opt ctx.queues id with
    | None -> fail p th E.EIDRM
    | Some q ->
      Hashtbl.remove ctx.queues id;
      Hashtbl.iter
        (fun key qid -> if qid = id then Hashtbl.remove ctx.key_to_q key)
        (Hashtbl.copy ctx.key_to_q);
      List.iter (fun w -> w (Error E.EIDRM)) q.kq_waiters;
      finish p th ~cost:(Time.us 2.0) (vint 0))
  | "semget" -> (
    let key = int_arg 0 and init = int_arg 1 in
    match Hashtbl.find_opt ctx.key_to_sem key with
    | Some id -> finish p th ~cost:(Time.us 2.0) (vint id)
    | None ->
      let id = ctx.next_rid in
      ctx.next_rid <- id + 1;
      Hashtbl.replace ctx.key_to_sem key id;
      Hashtbl.replace ctx.sems id { ks_id = id; ks_count = init; ks_waiters = [] };
      finish p th ~cost:(Time.us 3.0) (vint id))
  | "semop" | "semop_try" -> (
    (* semop_try is semop with IPC_NOWAIT: -1 when the acquire would
       block (futex-backed on a native kernel, so it never sleeps) *)
    let id = int_arg 0 and delta = int_arg 1 in
    match Hashtbl.find_opt ctx.sems id with
    | None -> fail p th E.EIDRM
    | Some s ->
      let answer r () = finish p th ~cost:(Time.us 1.0) (vint r) in
      if delta >= 0 then begin
        s.ks_count <- s.ks_count + delta;
        let rec wake () =
          if s.ks_count > 0 then begin
            match s.ks_waiters with
            | [] -> ()
            | w :: rest ->
              s.ks_waiters <- rest;
              s.ks_count <- s.ks_count - 1;
              w ();
              wake ()
          end
        in
        wake ();
        answer 0 ()
      end
      else if s.ks_count > 0 then begin
        s.ks_count <- s.ks_count - 1;
        answer 0 ()
      end
      else if name = "semop_try" then answer (-1) ()
      else s.ks_waiters <- s.ks_waiters @ [ answer 0 ])
  (* {2 Memory} *)
  | "mmap" -> (
    let npages = Memory.pages_of_bytes (int_arg 0) in
    let base = p.own.next_mmap in
    match Memory.map p.pico.K.aspace ~base ~npages ~perm:Memory.rw ~kind:Memory.Mmap with
    | _ ->
      p.own.next_mmap <- base + (npages * Memory.page_size) + Memory.page_size;
      finish p th ~cost:(Time.ns 300) (vint base)
    | exception Invalid_argument _ -> fail p th E.ENOMEM)
  | "munmap" -> (
    match Memory.unmap p.pico.K.aspace ~base:(int_arg 0) with
    | () -> finish p th ~cost:(Time.ns 300) (vint 0)
    | exception Memory.Fault _ -> fail p th E.EINVAL)
  | "brk" ->
    let target = int_arg 0 in
    if target <= p.heap_mapped then begin
      p.brk <- max p.brk target;
      finish p th ~cost:(Time.ns 90) (vint (K.heap_base + p.brk))
    end
    else begin
      let grow = target - p.heap_mapped in
      let npages = Memory.pages_of_bytes grow in
      (match Memory.map p.pico.K.aspace ~base:(K.heap_base + p.heap_mapped) ~npages ~perm:Memory.rw ~kind:Memory.Heap with
      | _ ->
        p.heap_mapped <- p.heap_mapped + (npages * Memory.page_size);
        p.brk <- target;
        finish p th ~cost:(Time.ns 200) (vint (K.heap_base + p.brk))
      | exception Invalid_argument _ -> fail p th E.ENOMEM)
    end
  | "poke" ->
    let addr = int_arg 0 and data = str_arg 1 in
    let cow = Memory.write_bytes p.pico.K.aspace addr data in
    K.update_peak_rss p.pico;
    finish p th
      ~cost:(Time.add (Cost.copy_cost (String.length data)) (Time.scale Cost.cow_fault (float_of_int cow)))
      (vint 0)
  | "peek" ->
    let addr = int_arg 0 and n = int_arg 1 in
    finish p th ~cost:(Cost.copy_cost n) (vstr (Memory.read_bytes p.pico.K.aspace addr n))
  (* {2 Threads} *)
  | "clone" -> (
    match Posix.clone p th (str_arg 0) (a 1) with
    | Error e -> fail p th e
    | Ok (gtid, machine) ->
      Posix.add_thread p gtid
        (K.spawn_thread kern p.pico machine ~service:(Posix.service p ~dispatch));
      finish p th ~cost:(Time.us 9.0) (vint gtid))
  | "sched_yield" -> finish p th ~cost:Cost.native_sched_yield (vint 0)
  (* {2 Time and misc} *)
  | "gettimeofday" | "time" | "clock_gettime" ->
    finish p th ~cost:Cost.host_time_query (vint (K.now kern))
  | "ring" -> do_ring p th (Ast.as_list (a 0))
  | "sandbox_create" ->
    (* stock Linux has no equivalent; the nearest is ENOSYS *)
    fail p th E.ENOSYS
  (* calls answered from the process record alone; anything else is ENOSYS *)
  | _ -> Posix.dispatch p th name args

and do_open (p : proc) th path mode =
  let kern = p.kernel in
  if path = "/dev/zero" then
    finish p th (vint (Posix.alloc_fd p (new_ofile Kzero)))
  else if path = "/dev/null" then finish p th (vint (Posix.alloc_fd p (new_ofile Knull)))
  else if String.length path >= 6 && String.sub path 0 6 = "/proc/" then begin
    (* native /proc: the kernel renders it directly — including for
       OTHER processes, which is exactly the Memento-style exposure
       Graphene avoids (§6.6) *)
    match String.split_on_char '/' path with
    | [ ""; "proc"; pid_s; field ] -> (
      match int_of_string_opt pid_s with
      | None -> fail p th E.ENOENT
      | Some q_pid -> (
        match Hashtbl.find_opt p.own.ctx.procs q_pid with
        | None -> fail p th E.ESRCH
        | Some (q : proc) ->
          let content =
            match field with
            | "status" ->
              Printf.sprintf "Name:\t%s\nPid:\t%d\nPPid:\t%d\nState:\tR (running)\n"
                (Filename.basename q.exe) q.pid q.ppid
            | "cmdline" -> q.exe
            | _ -> ""
          in
          if content = "" then fail p th E.ENOENT
          else finish p th ~cost:(Time.us 1.2) (vint (Posix.alloc_fd p (new_ofile (Kproc content))))))
    | _ -> fail p th E.ENOENT
  end
  else begin
    let create = mode = "w" || mode = "rw" || mode = "creat" in
    let cost =
      Time.add Cost.host_open (Time.scale Cost.path_component (float_of_int (Vfs.depth path)))
    in
    let f =
      if create then begin
        Vfs.mkdir_p kern.K.fs (Filename.dirname path);
        Vfs.create_file kern.K.fs path
      end
      else Vfs.find_file kern.K.fs path
    in
    let o = new_ofile (Kfile path) in
    if mode = "a" then o.pos <- Vfs.file_size f;
    finish p th ~cost (vint (Posix.alloc_fd p o))
  end

and do_read (p : proc) th fd n =
  match Hashtbl.find_opt p.fds fd with
  | None -> fail p th E.EBADF
  | Some o -> (
    match o.okind with
    | Knull | Kconsole -> finish p th (vstr "")
    | Kzero -> finish p th ~cost:Cost.host_read_base (vstr (String.make (max 0 n) '\000'))
    | Kproc content ->
      let take = max 0 (min n (String.length content - o.pos)) in
      let s = String.sub content o.pos take in
      o.pos <- o.pos + take;
      finish p th ~cost:(Time.us 0.4) (vstr s)
    | Kfile path ->
      let v, cost = file_read p o path n in
      finish p th ~cost v
    | Kstream { sock } -> (
      match o.handle with
      | Some { K.obj = K.Hstream ep; _ } -> stream_recv p ep ~sock n (fun (v, cost) -> finish p th ~cost v)
      | _ -> fail p th E.EBADF)
    | Klisten _ | Kepoll _ -> fail p th E.EINVAL)

and do_write (p : proc) th fd data =
  match Hashtbl.find_opt p.fds fd with
  | None -> fail p th E.EBADF
  | Some o -> (
    match o.okind with
    | Knull -> finish p th ~cost:Cost.host_write_base (vint (String.length data))
    | Kzero -> fail p th E.EACCES
    | Kconsole -> finish p th ~cost:(Time.ns 150) (vint (Posix.console_write p data))
    | Kproc _ -> fail p th E.EACCES
    | Kfile path ->
      let v, cost = file_write p o path data in
      finish p th ~cost v
    | Kstream { sock } -> (
      match o.handle with
      | Some { K.obj = K.Hstream ep; _ } -> (
        match stream_send p ep ~sock data with
        | v, cost -> finish p th ~cost v
        | exception K.Denied _ ->
          ignore (Posix.post_signal p Signal.sigpipe);
          fail p th E.EPIPE)
      | _ -> fail p th E.EBADF)
    | Klisten _ | Kepoll _ -> fail p th E.EINVAL)

(* Guest-ABI parity with libLinux's submission ring: the same batch
   syscall with identical per-op results. A stock kernel services it
   as a plain sequence of reads and writes (the readv/writev path):
   one syscall entry for the batch, per-op work costs. A stream read
   that would block completes -EAGAIN — same no-park semantics as the
   ring drain — and an individual failure never aborts the batch. *)
and do_ring (p : proc) th entries =
  let rec step todo acc cost =
    match todo with
    | [] -> finish p th ~cost (Ast.Vlist (List.rev acc))
    | v :: rest -> (
      let imm (r, c) = step rest (r :: acc) (Time.add cost c) in
      let failed e = imm (err e, Time.zero) in
      let on_file op = match op () with r -> imm r | exception Vfs.Error e -> failed (E.of_string e) in
      match v with
      | Ast.Vpair (Ast.Vstr "read", Ast.Vpair (Ast.Vint fd, Ast.Vint n)) -> (
        match Hashtbl.find_opt p.fds fd with
        | None -> failed E.EBADF
        | Some ({ okind = Kfile path; _ } as o) -> on_file (fun () -> file_read p o path n)
        | Some { okind = Kstream { sock }; handle = Some { K.obj = K.Hstream ep; _ }; _ } ->
          if Stream.available ep > 0 || Stream.at_eof ep then stream_recv p ep ~sock n imm
          else imm (err E.EAGAIN, Cost.host_read_base)
        | Some { okind = Kstream _; _ } -> failed E.EBADF
        | Some _ -> failed E.EINVAL)
      | Ast.Vpair (Ast.Vstr "write", Ast.Vpair (Ast.Vint fd, Ast.Vstr data)) -> (
        match Hashtbl.find_opt p.fds fd with
        | None -> failed E.EBADF
        | Some { okind = Kconsole; _ } -> imm (vint (Posix.console_write p data), Time.ns 150)
        | Some ({ okind = Kfile path; _ } as o) -> on_file (fun () -> file_write p o path data)
        | Some { okind = Kstream { sock }; handle = Some { K.obj = K.Hstream ep; _ }; _ } -> (
          match stream_send p ep ~sock data with
          | r -> imm r
          | exception K.Denied _ -> failed E.EPIPE)
        | Some { okind = Kstream _; _ } -> failed E.EBADF
        | Some _ -> failed E.EINVAL)
      | _ -> failed E.EINVAL)
  in
  step entries [] Time.zero

and do_select (p : proc) th fd_values =
  let fds = List.map Ast.as_int fd_values in
  let eps =
    List.filter_map
      (fun fd ->
        match Hashtbl.find_opt p.fds fd with
        | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } -> Some (fd, ep)
        | _ -> None)
      fds
  in
  if eps = [] then fail p th E.EBADF
  else
    K.after p.kernel Cost.select_base (fun () ->
        let completed = ref false in
        List.iter
          (fun (fd, ep) ->
            let rec arm () =
              if not !completed then begin
                if Stream.available ep > 0 || Stream.at_eof ep then begin
                  completed := true;
                  finish p th (vint fd)
                end
                else Stream.on_activity ep (fun () -> arm ())
              end
            in
            arm ())
          eps)

and do_epoll_wait (p : proc) th e =
  let kern = p.kernel in
  if e.interest = [] then fail p th E.EINVAL
  else begin
    let ready_fd fd =
      match Hashtbl.find_opt p.fds fd with
      | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } ->
        Stream.available ep > 0 || Stream.at_eof ep
      | Some { handle = Some { K.obj = K.Hserver srv; _ }; _ } ->
        srv.K.backlog <> [] || srv.K.srv_closed
      | _ -> false
    in
    let answer ready =
      finish p th ~cost:(Time.us 0.6) (Ast.Vlist (List.map vint ready))
    in
    match List.filter ready_fd e.interest with
    | _ :: _ as ready -> answer ready
    | [] ->
      let completed = ref false in
      let wake () =
        if not !completed then begin
          completed := true;
          answer (List.filter ready_fd e.interest)
        end
      in
      K.after kern Cost.select_base (fun () ->
          if !completed then ()
          else
            List.iter
              (fun fd ->
                match Hashtbl.find_opt p.fds fd with
                | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } ->
                  let rec arm () =
                    if not !completed then
                      if Stream.available ep > 0 || Stream.at_eof ep then wake ()
                      else Stream.on_activity ep (fun () -> arm ())
                  in
                  arm ()
                | Some { handle = Some { K.obj = K.Hserver srv; _ }; _ } ->
                  if srv.K.backlog <> [] then wake ()
                  else
                    (* a readiness probe, not a consumer: pass the
                       connection to the next waiter in line or stash
                       it for a later accept — never strand it in the
                       backlog behind queued accepts *)
                    srv.K.accept_waiters <-
                      srv.K.accept_waiters
                      @ [ (fun ep ->
                            (match srv.K.accept_waiters with
                            | w :: rest ->
                              srv.K.accept_waiters <- rest;
                              w ep
                            | [] -> srv.K.backlog <- srv.K.backlog @ [ ep ]);
                            wake ()) ]
                | _ -> ())
              e.interest)
  end

(* Native copy-on-write fork: one kernel operation — duplicate the mm
   (COW), the fd table (refcounted) and the registers (the machine). *)
and do_fork (p : proc) th =
  let ctx = p.own.ctx in
  let kern = p.kernel in
  match th.K.machine with
  | None -> fail p th E.EINVAL
  | Some m ->
    ctx.next_pid <- ctx.next_pid + 1;
    let child_pid = ctx.next_pid in
    let child_pico = K.spawn kern ~with_pal:false ~sandbox:p.pico.K.sandbox ~exe:p.exe () in
    (match ctx.vm with Some v -> child_pico.K.cpu_tax <- v.cpu_tax | None -> ());
    ignore (Memory.share_all ~src:p.pico.K.aspace ~dst:child_pico.K.aspace);
    let child = make_proc ctx ~pid:child_pid ~ppid:p.pid ~pgid:p.pgid ~exe:p.exe ~pico:child_pico in
    child.cwd <- p.cwd;
    child.on_console <- p.on_console;
    child.brk <- p.brk;
    child.heap_mapped <- p.heap_mapped;
    child.own.next_mmap <- p.own.next_mmap;
    Hashtbl.iter (fun s h -> Hashtbl.replace child.sigactions s h) p.sigactions;
    child.sig_blocked <- p.sig_blocked;
    Hashtbl.iter
      (fun fd o ->
        o.refs <- o.refs + 1;
        Hashtbl.replace child.fds fd o)
      p.fds;
    child.next_fd <- p.next_fd;
    Hashtbl.replace ctx.procs child_pid child;
    Hashtbl.replace p.children child_pid { c_pid = child_pid; c_status = `Running; c_pgid = p.pgid };
    let child_machine = Interp.resume m (vint 0) in
    K.after kern Cost.native_fork (fun () ->
        if not child.exited then
          Posix.start_main child child_machine ~service:(Posix.service child ~dispatch);
        finish p th (vint child_pid))

and do_exec (p : proc) th path argv =
  match Loader.decode (Vfs.read_string p.kernel.K.fs path) with
  | Error e -> fail p th e
  | Ok program ->
    Hashtbl.reset p.sigactions;
    p.exe <- path;
    K.set_machine p.kernel th (Interp.start program ~argv) ~cost:Cost.native_exec

(* Start a fresh process: fork+exec from the "launcher" (208 us,
   Table 4); under KVM the one-time boot has already been charged. *)
let boot ?console_hook ctx ~exe ~argv () =
  let kern = ctx.kernel in
  ctx.next_pid <- ctx.next_pid + 1;
  let pid = ctx.next_pid in
  let sandbox = K.fresh_sandbox kern in
  let pico = K.spawn kern ~with_pal:false ~sandbox ~exe () in
  (match ctx.vm with Some v -> pico.K.cpu_tax <- v.cpu_tax | None -> ());
  let p = make_proc ctx ~pid ~ppid:0 ~pgid:pid ~exe ~pico in
  p.on_console <- console_hook;
  init_std_fds p;
  Hashtbl.replace ctx.procs pid p;
  let start_delay =
    match ctx.booted_at with
    | Some _ -> Cost.native_process_start
    | None -> Time.add (match ctx.vm with Some v -> v.boot | None -> Time.zero) Cost.native_process_start
  in
  K.after kern start_delay (fun () ->
      match Vfs.read_string kern.K.fs exe with
      | exception Vfs.Error _ -> do_exit p 127
      | data -> (
        match Loader.decode data with
        | Error _ -> do_exit p 127
        | Ok program ->
          let bin_bytes = try (Vfs.stat kern.K.fs exe).Vfs.st_size with Vfs.Error _ -> 0 in
          map_images p ~app_bytes:(max app_image_bytes bin_bytes);
          Posix.start_main p (Interp.start program ~argv) ~service:(Posix.service p ~dispatch)));
  p
