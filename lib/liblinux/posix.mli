(** The POSIX core shared by both personalities.

    libLinux ({!Lx}) and the native-Linux baseline
    ({!Graphene_baseline.Native}) service the same guest system-call
    ABI over different hosts: the PAL, or direct kernel calls. This
    module holds what they have in common: the per-process record and
    each decision both make the same way (signal delivery, wait and
    reaping, threads, alarm, the seek rule, argument decoding and the
    guard around dispatch).

    A personality keeps its host access and its costs. A shared
    function either returns its decision for the caller to charge, or
    completes a parked call through the personality's {!ops} at that
    personality's default cost. Nothing here names a personality. *)

module K = Graphene_host.Kernel
module Ast = Graphene_guest.Ast
module Interp = Graphene_guest.Interp
module E = Graphene_core.Errno

(** {1 The process record} *)

type child = {
  c_pid : int;
  mutable c_status : [ `Running | `Zombie of int ];
  mutable c_pgid : int;
}

type epoll_state = { mutable interest : int list }
(** an epoll interest set of fds; readiness answers in O(ready), not
    O(interest) like [select] (docs/WEB.md) *)

(** One process. ['fd] is the personality's descriptor type, ['own]
    its private state (host access, caches, counters). *)
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
  mutable brk : int;  (** guest heap size in bytes *)
  mutable heap_mapped : int;  (** bytes of heap regions actually mapped *)
  threads : (int, K.thread) Hashtbl.t;  (** guest tid -> host thread *)
  thread_guest_tid : (int, int) Hashtbl.t;  (** host tid -> guest tid *)
  mutable done_tids : int list;
  mutable join_waiters : (int * K.thread) list;
  mutable next_tid_seq : int;
  mutable main_thread : K.thread option;
  mutable exited : bool;
  mutable exit_code : int;
  mutable started_at : Graphene_sim.Time.t option;  (** first app instruction *)
  mutable alarm_seq : int;  (** cancels superseded alarm timers *)
  mutable umask : int;
}

(** What shared code may ask of the personality. *)
and ('fd, 'own) ops = {
  resume : ('fd, 'own) t -> K.thread -> Ast.value -> unit;
      (** complete the thread's parked system call with a value, at the
          personality's default cost *)
  terminate : ('fd, 'own) t -> int -> unit;  (** exit with a status *)
  interrupt : ('fd, 'own) t -> K.thread -> unit;
      (** make a running main thread take its pending signals *)
}

val make :
  own:'own ->
  ops:('fd, 'own) ops ->
  kernel:K.t ->
  pico:K.pico ->
  pid:int ->
  ppid:int ->
  pgid:int ->
  exe:string ->
  ('fd, 'own) t
(** A process with no descriptors, no signal state, no children or
    threads, cwd ["/"], umask 022 and [next_fd] 3. *)

(** {1 Paths, descriptors and the console} *)

val abspath : (_, _) t -> string -> string
(** Resolve a guest path against the cwd; [""] is the cwd itself. *)

val alloc_fd : ('fd, _) t -> 'fd -> int
(** Install a descriptor at the next free number and return it. *)

val console_write : (_, _) t -> string -> int
(** Append to the console, call the hook, return the length written. *)

val seek : pos:int -> size:int -> int -> string -> (int, E.t) result
(** [seek ~pos ~size off whence], the lseek rule: the new cursor for
    [off] from [whence] ("set" from
    0, "cur" from [pos], "end" from [size]). A negative result or an
    unknown whence is EINVAL and the caller leaves the cursor alone. *)

val epoll_ctl : (_, _) t -> epoll_state -> string -> int -> (unit, E.t) result
(** [epoll_ctl p e op fd]: ["add"] an open fd once (EBADF if it is not
    open) or ["del"] it; any other op is EINVAL. *)

(** {1 Signals} *)

val valid_signal : int -> bool
(** [0..64]: what [kill] accepts; 0 only probes for the target. *)

val sigaction : (_, _) t -> int -> string -> (unit, E.t) result
(** [sigaction p signum handler]; EINVAL outside [1..64] and for
    SIGKILL or SIGSTOP. *)

val apply_pending_signals :
  (_, _) t -> Interp.state -> [ `Machine of Interp.state | `Exit of int ]
(** Take every pending signal: blocked ones stay pending, handled ones
    become handler calls injected into the machine, and the first one
    whose default action terminates gives the exit status. *)

val inject_signals : (_, _) t -> K.thread -> unit
(** {!apply_pending_signals} on a running thread's machine, in place;
    exits the process if a signal terminates it. *)

val post_signal : (_, _) t -> int -> bool
(** Deliver a signal; [false] once the process has exited. Signal 0
    delivers nothing. SIGKILL terminates at once. Any other signal is
    marked pending: [pause] callers wake with EINTR, and a running main
    thread is interrupted through [ops.interrupt]. *)

val alarm : (_, _) t -> int -> unit
(** Arm SIGALRM after [secs] seconds, superseding any earlier alarm;
    [secs <= 0] only cancels. *)

(** {1 Children} *)

val mark_zombie : (_, _) t -> int -> int -> unit
(** [mark_zombie p cpid code]: a running child exited with [code]. Post
    SIGCHLD and hand the status to the first waiter whose filter
    matches, reaping the child. *)

val wait : (_, _) t -> K.thread -> int -> Ast.value option
(** [wait p th pid] is [waitpid pid], where [-1] is any child: reap a
    matching zombie and return the [(pid, status)] answer for the
    caller to charge; otherwise answer ECHILD when there are no
    children, or park the thread until {!mark_zombie} resumes it. *)

(** {1 Threads} *)

val clone : (_, _) t -> K.thread -> string -> Ast.value -> (int * Interp.state, E.t) result
(** [clone p th fname arg]: a new guest tid and the machine of a thread
    entering [fname] with [arg], running the caller's program; EINVAL
    if the caller has no machine or no such function. *)

val add_thread : (_, _) t -> int -> K.thread -> unit
(** [add_thread p gtid th] records the host thread running [gtid]. *)

val service :
  ('fd, 'own) t ->
  dispatch:(('fd, 'own) t -> K.thread -> string -> Ast.value list -> unit) ->
  K.thread_service
(** The host-thread service of every thread of the process: system
    calls go to [dispatch] until the process exits; the main thread
    returning exits with its value masked to 8 bits; a worker
    finishing wakes its joiners; a guest fault is SIGSEGV. *)

val start_main : (_, _) t -> Interp.state -> service:K.thread_service -> unit
(** Start the main thread: stamp [started_at], spawn it, and give it
    the process's pid as its guest tid. *)

(** {1 Dispatch} *)

val arg : Ast.value list -> int -> Ast.value
(** The [n]th argument; a missing one is a guest fault. *)

val int_arg : Ast.value list -> int -> int
val str_arg : Ast.value list -> int -> string

val dispatch : (_, _) t -> K.thread -> string -> Ast.value list -> unit
(** The calls a personality answers from the process record alone, at
    its default cost: [getpgid], [setpgid], [gettid], [getcwd],
    [umask], [sysinfo], [getrss], [getrusage], [rand], [nanosleep]
    (EINVAL if negative), [sigprocmask "block"|"unblock" sig], [pause],
    [join tid] (0 once the thread has finished, ESRCH for an unknown
    tid) and [exit]. Any other name is ENOSYS: each personality sends
    here the names it does not serve itself. *)

val guard :
  ('fd, 'own) t ->
  K.thread ->
  (('fd, 'own) t -> K.thread -> string -> Ast.value list -> unit) ->
  string ->
  Ast.value list ->
  unit
(** [guard p th dispatch name args] runs [dispatch] so that no guest
    call escapes into the simulator:
    a guest fault (a bad or missing argument) answers EINVAL, a host
    file-system error answers its errno, and a bad guest address kills
    the process with status 139, as SIGSEGV would. Nothing else is
    caught. *)
