(** Picoprocess address spaces with copy-on-write page frames.

    Frames are reference-counted across address spaces; bulk IPC and
    fork share frames, and the first write to a shared frame copies it
    (charging {!Graphene_sim.Cost.cow_fault} — done by the caller).
    Resident-set and proportional-set sizes drive the Figure 4 memory
    footprint experiment.

    Payloads are demand-zero: a frame's bytes start as the shared
    [zero_payload], and a write that fills a whole page with one byte
    leaves it a shared payload of that byte, so only other writes
    allocate a private page. Accounting counts frames, never payloads,
    so this saves host memory without moving a virtual number. *)

let page_size = Graphene_sim.Cost.page_size

type perm = { r : bool; w : bool; x : bool }

let rw = { r = true; w = true; x = false }
let rx = { r = true; w = false; x = true }
let ro = { r = true; w = false; x = false }

type kind =
  | Pal_code
  | Libos_image
  | App_image
  | Heap
  | Mmap
  | Stack

type frame = { fid : int; mutable refcount : int; mutable data : bytes }

(* The shared payloads: for each byte value, one page of only that
   byte, made on first use and never written. A frame holding one owns
   no bytes, so a page written whole with one byte (zeros, or a guest's
   working set of repeated bytes) needs no page of its own. *)
let fill_pages = Array.make 256 Bytes.empty

let fill_page c =
  let i = Char.code c in
  if Bytes.length fill_pages.(i) = 0 then fill_pages.(i) <- Bytes.make page_size c;
  fill_pages.(i)

let zero_payload = fill_page '\000'

(* Every payload is a whole page, so its first byte names the one
   shared page it could be. *)
let shared data = data == fill_pages.(Char.code (Bytes.unsafe_get data 0))

type region = {
  base : int;
  npages : int;
  mutable perm : perm;
  kind : kind;
  frames : frame option array;  (** [None] = not resident *)
}

type allocator = { mutable next_fid : int; mutable live_frames : int }

type t = {
  alloc : allocator;
  mutable regions : region list;  (** sorted by base, non-overlapping *)
  mutable cow_faults : int;
}

exception Fault of int
(** Access to an unmapped or permission-violating address. *)

let make_allocator () = { next_fid = 0; live_frames = 0 }

let create alloc = { alloc; regions = []; cow_faults = 0 }

let pages_of_bytes n = (n + page_size - 1) / page_size

let new_frame alloc =
  alloc.next_fid <- alloc.next_fid + 1;
  alloc.live_frames <- alloc.live_frames + 1;
  { fid = alloc.next_fid; refcount = 1; data = zero_payload }

let drop_frame alloc frame =
  frame.refcount <- frame.refcount - 1;
  if frame.refcount = 0 then alloc.live_frames <- alloc.live_frames - 1

let region_end r = r.base + (r.npages * page_size)

let overlaps a_base a_end r = a_base < region_end r && r.base < a_end

let check_no_overlap t ~base ~npages =
  let e = base + (npages * page_size) in
  if List.exists (overlaps base e) t.regions then
    invalid_arg (Printf.sprintf "Memory.map: overlap at 0x%x" base)

let insert t r =
  t.regions <- List.sort (fun a b -> compare a.base b.base) (r :: t.regions)

let map t ~base ~npages ~perm ~kind =
  if base mod page_size <> 0 then invalid_arg "Memory.map: unaligned base";
  if npages <= 0 then invalid_arg "Memory.map: npages <= 0";
  check_no_overlap t ~base ~npages;
  let r = { base; npages; perm; kind; frames = Array.make npages None } in
  insert t r;
  r

(* Map and make resident immediately — a loaded code/data image. *)
let map_resident t ~base ~npages ~perm ~kind =
  let r = map t ~base ~npages ~perm ~kind in
  for i = 0 to npages - 1 do
    r.frames.(i) <- Some (new_frame t.alloc)
  done;
  r

let find_region t addr =
  List.find_opt (fun r -> addr >= r.base && addr < region_end r) t.regions

let region_at t addr =
  match find_region t addr with Some r -> r | None -> raise (Fault addr)

type touch_result = Resident | Faulted_in | Cow_copied

(* Make page [idx] of [r] (the page holding [addr]) resident; on a
   write to a shared frame, break the share with a private copy. *)
let touch_in t r idx addr ~write =
  if write && not r.perm.w then raise (Fault addr);
  if (not write) && not r.perm.r then raise (Fault addr);
  match r.frames.(idx) with
  | None ->
    r.frames.(idx) <- Some (new_frame t.alloc);
    Faulted_in
  | Some frame ->
    if write && frame.refcount > 1 then begin
      let copy = new_frame t.alloc in
      copy.data <- (if shared frame.data then frame.data else Bytes.copy frame.data);
      drop_frame t.alloc frame;
      r.frames.(idx) <- Some copy;
      t.cow_faults <- t.cow_faults + 1;
      Cow_copied
    end
    else Resident

let touch t addr ~write =
  let r = region_at t addr in
  touch_in t r ((addr - r.base) / page_size) addr ~write

(* Fault in the page holding [addr] and return its frame. *)
let touched_frame t addr ~write =
  let r = region_at t addr in
  let idx = (addr - r.base) / page_size in
  ignore (touch_in t r idx addr ~write);
  match r.frames.(idx) with Some f -> f | None -> assert false

(* Is the page containing [addr] resident, without faulting it in? *)
let resident t addr =
  match find_region t addr with
  | None -> false
  | Some r -> r.frames.((addr - r.base) / page_size) <> None

(* Is [s] one byte repeated over the page's worth of bytes from [off]?
   Compared eight bytes at a time. *)
let uniform s off =
  let w = Int64.mul 0x0101010101010101L (Int64.of_int (Char.code (String.unsafe_get s off))) in
  let i = ref 0 in
  while !i < page_size && Int64.equal (String.get_int64_ne s (off + !i)) w do
    i := !i + 8
  done;
  !i = page_size

(* Byte-granularity access spanning pages; returns the number of COW
   copies performed so the caller can charge fault costs. A write that
   fills a whole page with one byte leaves it a shared payload; any
   other write gives a shared frame a private copy first. *)
let write_bytes t addr s =
  let n = String.length s in
  let cow_before = t.cow_faults in
  let rec loop off =
    if off < n then begin
      let a = addr + off in
      let frame = touched_frame t a ~write:true in
      let page_off = a mod page_size in
      let take = Stdlib.min (n - off) (page_size - page_off) in
      if take = page_size && uniform s off then frame.data <- fill_page s.[off]
      else begin
        if shared frame.data then frame.data <- Bytes.copy frame.data;
        Bytes.blit_string s off frame.data page_off take
      end;
      loop (off + take)
    end
  in
  loop 0;
  t.cow_faults - cow_before

let read_bytes t addr n =
  let buf = Bytes.create (Stdlib.max n 0) in
  let rec loop off =
    if off < n then begin
      let a = addr + off in
      let frame = touched_frame t a ~write:false in
      let page_off = a mod page_size in
      let take = Stdlib.min (n - off) (page_size - page_off) in
      Bytes.blit frame.data page_off buf off take;
      loop (off + take)
    end
  in
  loop 0;
  Bytes.unsafe_to_string buf

(* Exactly what writing a page of zeros at each page would do — the
   same write faults and COW breaks — without materialising a payload:
   each page ends private and demand-zero. *)
let zero_pages t ~base ~npages =
  if base mod page_size <> 0 then invalid_arg "Memory.zero_pages: unaligned base";
  let cow_before = t.cow_faults in
  for i = 0 to npages - 1 do
    (touched_frame t (base + (i * page_size)) ~write:true).data <- zero_payload
  done;
  t.cow_faults - cow_before

let protect t ~base ~npages ~perm =
  match find_region t base with
  | Some r when r.base = base && r.npages = npages -> r.perm <- perm
  | Some _ -> invalid_arg "Memory.protect: partial-region protect not supported"
  | None -> raise (Fault base)

let unmap t ~base =
  match find_region t base with
  | None -> raise (Fault base)
  | Some r ->
    Array.iter (function Some f -> drop_frame t.alloc f | None -> ()) r.frames;
    t.regions <- List.filter (fun r' -> r' != r) t.regions

(* Share [npages] starting at [src_base] of [src] into [dst] at
   [dst_base]; frames become copy-on-write in both spaces. This is the
   mechanism under both fork and the bulk-IPC (gipc) ABI. Returns the
   number of frames granted. *)
let share_range ~src ~dst ~src_base ~dst_base ~npages ~kind =
  let src_region = region_at src src_base in
  if src_base <> src_region.base || npages > src_region.npages then
    invalid_arg "Memory.share_range: must cover a region prefix";
  check_no_overlap dst ~base:dst_base ~npages;
  let dst_region =
    { base = dst_base; npages; perm = src_region.perm; kind; frames = Array.make npages None }
  in
  let granted = ref 0 in
  for i = 0 to npages - 1 do
    match src_region.frames.(i) with
    | Some frame ->
      frame.refcount <- frame.refcount + 1;
      dst_region.frames.(i) <- Some frame;
      incr granted
    | None -> ()
  done;
  insert dst dst_region;
  !granted

(* Fork-style duplication of the whole address space: every region
   shared copy-on-write. Returns total granted frames. *)
let share_all ~src ~dst =
  List.fold_left
    (fun acc r ->
      acc
      + share_range ~src ~dst ~src_base:r.base ~dst_base:r.base ~npages:r.npages
          ~kind:r.kind)
    0 src.regions

(* {1 Shared images}

   Code images (PAL, libOS, application binaries) are loaded once and
   shared across picoprocesses, the way a host page cache shares file-
   backed text pages. *)

type image = { img_frames : frame array }

(* Image frames stay demand-zero: nothing writes into text pages. *)
let make_image alloc ~bytes =
  let n = pages_of_bytes bytes in
  { img_frames = Array.init n (fun _ -> new_frame alloc) }

let image_bytes img = Array.length img.img_frames * page_size

let map_image t ~base ~image ~perm ~kind =
  let npages = Array.length image.img_frames in
  check_no_overlap t ~base ~npages;
  let frames =
    Array.map
      (fun f ->
        f.refcount <- f.refcount + 1;
        Some f)
      image.img_frames
  in
  let r = { base; npages; perm; kind; frames } in
  insert t r;
  r

let destroy t =
  List.iter (fun r -> Array.iter (function Some f -> drop_frame t.alloc f | None -> ()) r.frames) t.regions;
  t.regions <- []

(* Resident set size: every resident frame counted fully. *)
let rss t =
  List.fold_left
    (fun acc r ->
      Array.fold_left (fun a -> function Some _ -> a + page_size | None -> a) acc r.frames)
    0 t.regions

(* Proportional set size: shared frames split between their holders —
   what "incremental memory of a forked child" measures. *)
let pss t =
  List.fold_left
    (fun acc r ->
      Array.fold_left
        (fun a -> function
          | Some f -> a +. (float_of_int page_size /. float_of_int f.refcount)
          | None -> a)
        acc r.frames)
    0.0 t.regions
  |> int_of_float

let resident_pages t =
  List.fold_left
    (fun acc r ->
      Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) acc r.frames)
    0 t.regions

let system_bytes alloc = alloc.live_frames * page_size
let cow_faults t = t.cow_faults
let regions t = t.regions
let region_kind r = r.kind
let region_base r = r.base
let region_npages r = r.npages
