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
module Pal = Graphene_pal.Pal
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

type fd_entry
(** A descriptor: the PAL handle and what it names. A file's seek
    cursor lives here, in the libOS (paper §4.2); [dup] shares it. *)

type own
(** libLinux's own part of the process: the PAL, the coordination
    instance, the parent's address, the system-call count, the open
    trace spans and the handle fast path's path cache. *)

type t = (fd_entry, own) Posix.t
(** One picoprocess. Read the shared fields through {!Posix}. *)

(** {1 Accessors} *)

val kernel : t -> K.t
val pico : t -> K.pico
val pal : t -> Pal.t
val ipc : t -> Ipc.t
val my_addr : t -> string
val console_output : t -> string
val exited : t -> bool
val exit_code : t -> int
val started_at : t -> Time.t option
val syscall_count : t -> int

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

(** {1 Checkpoint/restore internals (used by fork and by
    {!Graphene_checkpoint.Migrate})} *)

val private_regions : t -> (int * int) list
(** [(base, npages)] of the heap, mmap and stack regions: what fork
    moves by bulk IPC and a full checkpoint re-maps. *)

val build_ckpt :
  t -> machine:Interp.state -> heap_pages:(int * string) list -> Ckpt.t * K.handle list
(** The checkpoint record of this process with [machine] as its
    registers, and the stream handles its descriptors pass out of band
    (in slot order). Fork rewrites the identity for the child;
    migration adds {!private_regions}. *)

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
