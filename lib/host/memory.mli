(** Picoprocess address spaces with copy-on-write page frames.

    Frames are reference-counted across address spaces; fork and bulk
    IPC share them, and the first write to a shared frame copies it
    privately. Code images (PAL, libOS, binaries) are shared through an
    image registry, like page-cache text. Resident-set and
    proportional-set accounting drive the Figure 4 experiment.

    Frame payloads are demand-zero. A frame starts with no bytes behind
    it, which reads as a page of zeros. A {!write_bytes} that fills a
    whole page with one byte value points it at a payload shared by
    every such page, so only other writes allocate a 4 KiB payload, and
    a COW break copies only a payload of the frame's own.
    Every accounting function counts frames, not payloads, so the
    representation never shows in a reported number. *)

val page_size : int

type perm = { r : bool; w : bool; x : bool }

val rw : perm
val rx : perm
val ro : perm

type kind = Pal_code | Libos_image | App_image | Heap | Mmap | Stack

type frame
type region
type allocator
(** System-wide frame accounting, shared by all address spaces of one
    host. *)

type t
(** One picoprocess's address space. *)

exception Fault of int
(** Unmapped address or permission violation; carries the address. *)

val make_allocator : unit -> allocator
val create : allocator -> t
val pages_of_bytes : int -> int

(** {1 Mapping} *)

val map : t -> base:int -> npages:int -> perm:perm -> kind:kind -> region
(** Demand-zero mapping: nothing resident until touched. Rejects
    overlap and misalignment with [Invalid_argument]. *)

val map_resident : t -> base:int -> npages:int -> perm:perm -> kind:kind -> region
(** Mapped and resident immediately (a loaded private image). *)

val protect : t -> base:int -> npages:int -> perm:perm -> unit
val unmap : t -> base:int -> unit
val destroy : t -> unit
(** Release every region (process exit). *)

val find_region : t -> int -> region option

(** {1 Access} *)

type touch_result = Resident | Faulted_in | Cow_copied

val touch : t -> int -> write:bool -> touch_result
(** Fault the page in; a write to a shared frame breaks the share with
    a private copy. *)

val resident : t -> int -> bool
(** Residency without faulting. *)

val write_bytes : t -> int -> string -> int
(** Returns the number of COW copies performed, so callers can charge
    {!Graphene_sim.Cost.cow_fault} per copy. *)

val read_bytes : t -> int -> int -> string
(** Faults each page in for reading; a frame never written reads as
    zeros. *)

val zero_pages : t -> base:int -> npages:int -> int
(** [zero_pages t ~base ~npages] has exactly the effect of writing a
    page of zeros at each of the [npages] pages from the page-aligned
    [base]: the same write fault or COW break per page, the same frame
    accounting, the same COW count returned. Each page is left private
    with a demand-zero payload, so nothing is allocated for its bytes.
    This is how a restored child dirties its private libOS data and
    stack (§6.2). *)

(** {1 Sharing (fork, bulk IPC)} *)

val share_range :
  src:t -> dst:t -> src_base:int -> dst_base:int -> npages:int -> kind:kind -> int
(** Grant the resident frames of a region prefix copy-on-write into
    [dst]; returns the number granted. *)

val share_all : src:t -> dst:t -> int
(** Fork-style duplication: every region, copy-on-write. *)

(** {1 Shared images} *)

type image

val make_image : allocator -> bytes:int -> image
(** Resident, demand-zero frames covering [bytes]. *)

val image_bytes : image -> int
val map_image : t -> base:int -> image:image -> perm:perm -> kind:kind -> region

(** {1 Accounting} *)

val rss : t -> int
(** Resident set: every resident frame counted fully. *)

val pss : t -> int
(** Proportional set: shared frames split between holders — what the
    incremental cost of a forked child measures. *)

val resident_pages : t -> int
val system_bytes : allocator -> int
(** Unique live frames across the whole host. *)

val cow_faults : t -> int
val regions : t -> region list
val region_kind : region -> kind
val region_base : region -> int
val region_npages : region -> int
