(** The POSIX core shared by both personalities: the per-process record
    and the decisions libLinux and the native baseline make the same
    way. Costs stay with the personalities (see posix.mli). *)

module K = Graphene_host.Kernel
module Memory = Graphene_host.Memory
module Vfs = Graphene_host.Vfs
module Ast = Graphene_guest.Ast
module Interp = Graphene_guest.Interp
module E = Graphene_core.Errno
module Time = Graphene_sim.Time
module Rng = Graphene_sim.Rng

type child = {
  c_pid : int;
  mutable c_status : [ `Running | `Zombie of int ];
  mutable c_pgid : int;
}

type epoll_state = { mutable interest : int list }

type ('fd, 'own) t = {
  own : 'own;
  ops : ('fd, 'own) ops;
  kernel : K.t;
  pico : K.pico;
  mutable pid : int;
  mutable ppid : int;
  mutable pgid : int;
  mutable exe : string;
  mutable cwd : string;
  fds : (int, 'fd) Hashtbl.t;
  mutable next_fd : int;
  sigactions : (int, string) Hashtbl.t;
  mutable sig_pending : int list;
  mutable sig_blocked : int list;
  children : (int, child) Hashtbl.t;
  mutable wait_waiters : (int option * (int * int -> unit)) list;
  mutable pause_waiters : K.thread list;
  console : Buffer.t;
  mutable on_console : (string -> unit) option;
  mutable brk : int;
  mutable heap_mapped : int;
  threads : (int, K.thread) Hashtbl.t;
  thread_guest_tid : (int, int) Hashtbl.t;
  mutable done_tids : int list;
  mutable join_waiters : (int * K.thread) list;
  mutable next_tid_seq : int;
  mutable main_thread : K.thread option;
  mutable exited : bool;
  mutable exit_code : int;
  mutable started_at : Time.t option;
  mutable alarm_seq : int;
  mutable umask : int;
}

and ('fd, 'own) ops = {
  resume : ('fd, 'own) t -> K.thread -> Ast.value -> unit;
  terminate : ('fd, 'own) t -> int -> unit;
  interrupt : ('fd, 'own) t -> K.thread -> unit;
}

let make ~own ~ops ~kernel ~pico ~pid ~ppid ~pgid ~exe =
  { own;
    ops;
    kernel;
    pico;
    pid;
    ppid;
    pgid;
    exe;
    cwd = "/";
    fds = Hashtbl.create 16;
    next_fd = 3;
    sigactions = Hashtbl.create 8;
    sig_pending = [];
    sig_blocked = [];
    children = Hashtbl.create 8;
    wait_waiters = [];
    pause_waiters = [];
    console = Buffer.create 256;
    on_console = None;
    brk = 0;
    heap_mapped = 0;
    threads = Hashtbl.create 4;
    thread_guest_tid = Hashtbl.create 4;
    done_tids = [];
    join_waiters = [];
    next_tid_seq = 1;
    main_thread = None;
    exited = false;
    exit_code = 0;
    started_at = None;
    alarm_seq = 0;
    umask = 0o022 }

let fail p th e = p.ops.resume p th (Errno.to_value e)

(* {1 Paths, descriptors and the console} *)

let abspath p path =
  if path = "" then p.cwd
  else if path.[0] = '/' then path
  else if p.cwd = "/" then "/" ^ path
  else p.cwd ^ "/" ^ path

let alloc_fd p entry =
  let fd = p.next_fd in
  p.next_fd <- fd + 1;
  Hashtbl.replace p.fds fd entry;
  fd

let console_write p s =
  Buffer.add_string p.console s;
  (match p.on_console with Some f -> f s | None -> ());
  String.length s

let seek ~pos ~size off whence =
  let target =
    match whence with
    | "set" -> Some off
    | "cur" -> Some (pos + off)
    | "end" -> Some (size + off)
    | _ -> None
  in
  match target with Some n when n >= 0 -> Ok n | _ -> Error E.EINVAL

let epoll_ctl p e op fd =
  match op with
  | "add" ->
    if not (Hashtbl.mem p.fds fd) then Error E.EBADF
    else begin
      if not (List.mem fd e.interest) then e.interest <- e.interest @ [ fd ];
      Ok ()
    end
  | "del" ->
    e.interest <- List.filter (fun f -> f <> fd) e.interest;
    Ok ()
  | _ -> Error E.EINVAL

(* {1 Signals} *)

let valid_signal n = n >= 0 && n <= Signal.sigrtmax

let sigaction p signum handler =
  if signum < 1 || signum > Signal.sigrtmax || not (Signal.catchable signum) then Error E.EINVAL
  else begin
    Hashtbl.replace p.sigactions signum handler;
    Ok ()
  end

let apply_pending_signals p m =
  let rec loop m = function
    | [] -> `Machine m
    | signum :: rest ->
      if List.mem signum p.sig_blocked then begin
        (* stays pending *)
        match loop m rest with
        | `Machine m' ->
          p.sig_pending <- signum :: p.sig_pending;
          `Machine m'
        | other -> other
      end
      else begin
        match Hashtbl.find_opt p.sigactions signum with
        | Some handler when Interp.has_func m handler && Signal.catchable signum ->
          loop (Interp.interrupt m ~func:handler ~args:[ Ast.Vint signum ]) rest
        | _ -> (
          match Signal.default_action signum with
          | Signal.Ignore | Signal.Continue | Signal.Stop -> loop m rest
          | Signal.Terminate -> `Exit (128 + signum))
      end
  in
  let pending = p.sig_pending in
  p.sig_pending <- [];
  loop m pending

let inject_signals p th =
  match th.K.machine with
  | Some m when not p.exited -> (
    match apply_pending_signals p m with
    | `Exit code -> p.ops.terminate p code
    | `Machine m' -> th.K.machine <- Some m')
  | _ -> ()

let post_signal p signum =
  if p.exited then false
  else if signum = 0 then true
  else if signum = Signal.sigkill then begin
    p.ops.terminate p (128 + signum);
    true
  end
  else begin
    p.sig_pending <- p.sig_pending @ [ signum ];
    (* pause()rs return -EINTR; handlers run on the way out *)
    let pausers = p.pause_waiters in
    p.pause_waiters <- [];
    List.iter (fun th -> fail p th E.EINTR) pausers;
    (* a CPU-spinning thread never reaches a syscall boundary *)
    (match p.main_thread with
    | Some th when th.K.tstate = `Runnable -> p.ops.interrupt p th
    | _ -> ());
    true
  end

let alarm p secs =
  p.alarm_seq <- p.alarm_seq + 1;
  let seq = p.alarm_seq in
  if secs > 0 then
    K.after p.kernel (Time.s (float_of_int secs)) (fun () ->
        if (not p.exited) && p.alarm_seq = seq then ignore (post_signal p Signal.sigalrm))

(* {1 Children} *)

let mark_zombie p cpid code =
  match Hashtbl.find_opt p.children cpid with
  | Some c when c.c_status = `Running ->
    c.c_status <- `Zombie code;
    ignore (post_signal p Signal.sigchld);
    (* wake one matching waiter *)
    let rec take acc = function
      | [] -> None
      | ((filt, k) as w) :: rest -> (
        match filt with
        | Some q when q <> cpid -> take (w :: acc) rest
        | _ -> Some (k, List.rev_append acc rest))
    in
    (match take [] p.wait_waiters with
    | Some (k, rest) ->
      p.wait_waiters <- rest;
      Hashtbl.remove p.children cpid;
      k (cpid, code)
    | None -> ())
  | _ -> ()

let wait p th pid =
  let filter = if pid = -1 then None else Some pid in
  let matches c = match filter with None -> true | Some q -> c.c_pid = q in
  let zombie =
    Hashtbl.fold
      (fun _ c acc ->
        match (acc, c.c_status) with
        | None, `Zombie code when matches c -> Some (c.c_pid, code)
        | _ -> acc)
      p.children None
  in
  let answer cpid code = Ast.Vpair (Ast.Vint cpid, Ast.Vint code) in
  match zombie with
  | Some (cpid, code) ->
    Hashtbl.remove p.children cpid;
    Some (answer cpid code)
  | None ->
    if Hashtbl.length p.children = 0 then fail p th E.ECHILD
    else
      p.wait_waiters <-
        p.wait_waiters @ [ (filter, fun (cpid, code) -> p.ops.resume p th (answer cpid code)) ];
    None

(* {1 Threads} *)

let clone p th fname arg =
  match th.K.machine with
  | Some m when Interp.has_func m fname ->
    (* a new machine entering at [fname], sharing this process (address
       space, fd table, signal handlers) *)
    let gtid = p.pid + p.next_tid_seq in
    p.next_tid_seq <- p.next_tid_seq + 1;
    let prog = Interp.program_of_state m in
    Ok (gtid, Interp.start { prog with Ast.main = Ast.Call (fname, [ Ast.Const arg ]) } ~argv:[])
  | _ -> Error E.EINVAL

let add_thread p gtid host_th =
  Hashtbl.replace p.threads gtid host_th;
  Hashtbl.replace p.thread_guest_tid host_th.K.tid gtid

let worker_finished p th =
  match Hashtbl.find_opt p.thread_guest_tid th.K.tid with
  | Some gtid ->
    Hashtbl.remove p.threads gtid;
    p.done_tids <- gtid :: p.done_tids;
    let ready, rest = List.partition (fun (g, _) -> g = gtid) p.join_waiters in
    p.join_waiters <- rest;
    List.iter (fun (_, waiter) -> p.ops.resume p waiter (Ast.Vint 0)) ready
  | None -> ()

let service p ~dispatch =
  { K.on_syscall = (fun th name args -> if not p.exited then dispatch p th name args);
    on_finish =
      (fun th v ->
        match p.main_thread with
        | Some main when main == th ->
          p.ops.terminate p (match v with Ast.Vint n -> n land 255 | _ -> 0)
        | _ ->
          worker_finished p th;
          K.finish_thread p.kernel th);
    on_fault = (fun _ _ -> p.ops.terminate p (128 + Signal.sigsegv)) }

let start_main p machine ~service =
  p.started_at <- Some (K.now p.kernel);
  let th = K.spawn_thread p.kernel p.pico machine ~service in
  p.main_thread <- Some th;
  Hashtbl.replace p.thread_guest_tid th.K.tid p.pid

(* {1 Dispatch} *)

let arg args n =
  match List.nth_opt args n with
  | Some v -> v
  | None -> raise (Ast.Guest_fault (Printf.sprintf "missing system-call argument %d" n))

let int_arg args n = Ast.as_int (arg args n)
let str_arg args n = Ast.as_str (arg args n)

let dispatch p th name args =
  let resume v = p.ops.resume p th v in
  match name with
  | "getpgid" -> resume (Ast.Vint p.pgid)
  | "setpgid" ->
    p.pgid <- int_arg args 0;
    resume (Ast.Vint 0)
  | "gettid" ->
    resume (Ast.Vint (Option.value ~default:p.pid (Hashtbl.find_opt p.thread_guest_tid th.K.tid)))
  | "getcwd" -> resume (Ast.Vstr p.cwd)
  | "umask" ->
    let old = p.umask in
    p.umask <- int_arg args 0 land 0o777;
    resume (Ast.Vint old)
  | "sysinfo" -> resume (Ast.Vint p.kernel.K.cores)
  | "getrss" -> resume (Ast.Vint (Memory.rss p.pico.K.aspace))
  | "getrusage" ->
    (* (maxrss bytes, user time ns) *)
    resume
      (Ast.Vpair
         ( Ast.Vint (max p.pico.K.peak_rss (Memory.rss p.pico.K.aspace)),
           Ast.Vint (K.now p.kernel) ))
  | "rand" -> resume (Ast.Vint (Rng.int p.kernel.K.rng (max 1 (int_arg args 0))))
  | "nanosleep" ->
    let ns = int_arg args 0 in
    if ns < 0 then fail p th E.EINVAL else K.after p.kernel (Time.ns ns) (fun () -> resume (Ast.Vint 0))
  | "sigprocmask" -> (
    let op = str_arg args 0 and signum = int_arg args 1 in
    match op with
    | "block" ->
      if not (List.mem signum p.sig_blocked) then p.sig_blocked <- signum :: p.sig_blocked;
      resume (Ast.Vint 0)
    | "unblock" ->
      p.sig_blocked <- List.filter (fun s -> s <> signum) p.sig_blocked;
      resume (Ast.Vint 0)
    | _ -> fail p th E.EINVAL)
  | "pause" -> p.pause_waiters <- th :: p.pause_waiters
  | "join" ->
    let gtid = int_arg args 0 in
    if List.mem gtid p.done_tids then resume (Ast.Vint 0)
    else if Hashtbl.mem p.threads gtid then p.join_waiters <- (gtid, th) :: p.join_waiters
    else fail p th E.ESRCH
  | "exit" -> p.ops.terminate p (int_arg args 0)
  | _ -> fail p th E.ENOSYS

let guard p th dispatch name args =
  try dispatch p th name args with
  | Ast.Guest_fault _ -> fail p th E.EINVAL
  | Vfs.Error e -> fail p th (E.of_string e)
  | Memory.Fault _ -> p.ops.terminate p (128 + Signal.sigsegv)
