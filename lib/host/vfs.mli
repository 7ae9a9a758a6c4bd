(** In-memory host file system.

    A single tree shared by all picoprocesses; isolation is enforced
    above this layer (the LSM checks each path against the opening
    picoprocess's sandbox manifest, and libLinux presents each guest a
    chroot-style view — paper §3). Paths are absolute, '/'-separated;
    "." and ".." are normalized away so policies cannot be escaped
    lexically. *)

type file
type t

type stat = { st_size : int; st_is_dir : bool }

exception Error of string
(** errno-style tags: "ENOENT", "EEXIST", "ENOTDIR", "EISDIR",
    "ENOTEMPTY", "EINVAL". *)

val create : unit -> t

val normalize : string -> string
(** Canonical absolute form; raises [Error "EINVAL"] on relative
    paths. *)

(** {1 Dentry cache}

    A bounded memo of path resolutions, positive (path → node) and
    negative (path → ENOENT), keyed by canonical path, in a
    {!Graphene_sim.Fifo_cache} (oldest evicts first). Namespace
    mutations invalidate: unlink and rename drop the affected subtree,
    mkdir and file creation drop the stale negative entry. Off until
    {!configure_dcache} enables it, so the walk-every-time behavior is
    the default (docs/PERF.md). *)

type dprobe = Dhit | Dneg_hit | Dmiss

val dcache_capacity : int
(** The entry bound every simulated host runs with (1024). *)

val configure_dcache : t -> enabled:bool -> capacity:int -> unit
(** Turn the cache on or off and bound it; either way it restarts
    empty. *)

val set_dcache_hook : t -> (string -> unit) -> unit
(** Counter hook: called with "vfs.dcache.hit" / "neg_hit" / "miss" /
    "evict" / "invalidate" as they happen (the kernel routes these to
    graphene.obs). *)

val dcache_probe : t -> string -> dprobe
(** Pure probe for cost composition: would this lookup hit? Does not
    fill the cache, count, or disturb eviction order. *)

val depth : string -> int
(** Number of path components after normalization. *)

val exists : t -> string -> bool

(** {1 Directories} *)

val mkdir : t -> string -> unit
(** Requires the parent to exist; [Error "EEXIST"] if present. *)

val mkdir_p : t -> string -> unit
(** Create the whole chain; idempotent. *)

val readdir : t -> string -> string list
(** Sorted entry names. *)

(** {1 Files} *)

val create_file : t -> string -> file
(** Create (or truncate, like O_CREAT|O_TRUNC) in an existing parent. *)

val find_file : t -> string -> file
val file_size : file -> int

val write_file : file -> off:int -> string -> unit
(** Holes read back as zeros. The [file] value stays valid across
    {!rename} — name and object are independent, as in POSIX. *)

val append_file : file -> string -> unit
val read_file : file -> off:int -> len:int -> string
val read_all : file -> string
val truncate : file -> int -> unit

(** {1 Namespace} *)

val unlink : t -> string -> unit
(** Removes files and {e empty} directories. *)

val rename : t -> src:string -> dst:string -> unit
val stat : t -> string -> stat

(** {1 Convenience} *)

val write_string : t -> string -> string -> unit
(** [write_string t path s]: mkdir -p the parent, create, write. *)

val read_string : t -> string -> string
