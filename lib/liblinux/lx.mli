(** libLinux — the Linux personality.

    One [t] per picoprocess. Services guest system calls from local
    state when possible and coordinates shared POSIX state with other
    instances through {!Graphene_ipc.Instance} (signals, exit
    notification, /proc, System V IPC). Interacts with the host only
    through the PAL.

    The guest system-call ABI is documented in docs/GUEST_LANGUAGE.md:
    files (with Unix seek cursors layered on the PAL's cursor-less
    handles), pipes and dup/dup2, fork (by checkpoint + bulk IPC), exec,
    wait, the three signal namespaces, System V message queues and
    semaphores, loopback TCP, brk/mmap memory, sibling threads, /proc,
    and the Graphene [sandbox_create] extension. *)

open Graphene_sim
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

(** {1 Memory model constants (§6.2 calibration)} *)

val libos_image_bytes : int
val libos_data_bytes : int
val stack_bytes : int
val restore_scratch_bytes : int
val default_app_image_bytes : int
val libc_image_bytes : int

(** {1 State} *)

type epoll_state = { mutable interest : int list }
(** an epoll interest set of fds; readiness answers in O(ready), not
    O(interest) like [select] (docs/WEB.md) *)

type fd_kind =
  | Kfile of { path : string; mutable pos : int }
      (** the seek cursor lives here, in the libOS (paper §4.2) *)
  | Kconsole
  | Knull
  | Kzero  (** /dev/zero *)
  | Kstream of { sock : bool }
  | Klisten of { port : int }
  | Kproc of { content : string; mutable pos : int }
  | Kepoll of epoll_state

type fd_entry = {
  mutable fh : K.handle option;
  mutable kind : fd_kind;
  mutable cloexec : bool;
}

type child = {
  c_pid : int;
  mutable c_status : [ `Running | `Zombie of int ];
  mutable c_pgid : int;
}

type t = {
  pal : Pal.t;
  cfg : Ipc_config.t;
  mutable ipc : Ipc.t option;
  mutable pid : int;
  mutable ppid : int;
  mutable pgid : int;
  mutable parent_addr : string;
  mutable exe : string;
  mutable cwd : string;
  fds : (int, fd_entry) Hashtbl.t;
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
  mutable syscall_count : int;
  trace_open : (int, string * Time.t) Hashtbl.t;
      (** host tid -> (syscall, entry time): spans opened at dispatch
          and closed when the call resumes the thread (the calls are in
          continuation-passing style, so a stack scope cannot pair
          them) *)
  mutable alarm_seq : int;  (** cancels superseded alarm timers *)
  mutable umask : int;
  path_cache : (string, unit) Fifo_cache.t;
      (** canonical paths this libOS resolved before: a warm repeat
          open/stat reuses the cached dentry + decision and skips the
          duplicated path resolution (gated by [cfg.handle_cache]) *)
}

(** {1 Accessors} *)

val kernel : t -> K.t
val pico : t -> K.pico
val ipc : t -> Ipc.t
val my_addr : t -> string
val addr_of_pico : K.pico -> string
val console_output : t -> string
val pid : t -> int
val exited : t -> bool
val exit_code : t -> int
val started_at : t -> Time.t option
val syscall_count : t -> int
val set_console_hook : t -> (string -> unit) -> unit

(** {1 Lifecycle} *)

val boot :
  ?cfg:Ipc_config.t ->
  ?console_hook:(string -> unit) ->
  K.t ->
  exe:string ->
  argv:string list ->
  unit ->
  t
(** Boot the first picoprocess of a fresh sandbox (what the reference
    monitor's launcher does): spawn the picoprocess, install the
    seccomp filter, create the PAL and the coordination instance (as
    leader), load the binary through the PAL and start the machine.
    Composes to the paper's ~641 µs start-up. *)

val do_exit : t -> int -> unit
(** Guest exit: persist owned queues, notify the parent, shut down the
    helper, terminate the picoprocess. Idempotent. *)

val post_signal : t -> int -> bool
(** Deliver a signal to this instance (local kill or incoming RPC);
    [false] once exited. SIGKILL terminates immediately; others are
    marked pending and interrupt CPU-bound threads via
    DkThreadInterrupt. *)

(** {1 Checkpoint/restore internals (used by fork and by
    {!Graphene_checkpoint.Migrate})} *)

val snapshot_fds : t -> Ckpt.fd_snapshot list * K.handle list
(** Serialize the descriptor table: files by reopen info, streams as
    out-of-band handle slots (returned in slot order). *)

val finish_restore :
  ?restore_cost:Time.t ->
  kern:K.t ->
  pal:Pal.t ->
  cfg:Ipc_config.t ->
  console_hook:(string -> unit) option ->
  Ckpt.t ->
  K.handle list ->
  t
(** Rebuild a libOS instance from a checkpoint record in a prepared
    picoprocess: map images, re-map recorded regions, write back page
    contents, reopen files, adopt inherited coordination state, and
    start the machine after [restore_cost]. *)
