(** In-memory host file system.

    A single tree shared by all picoprocesses; isolation is enforced
    above this layer (the LSM checks each path against the opening
    picoprocess's sandbox manifest, and libLinux presents each guest a
    chroot-style view of it — paper §3). Paths are absolute,
    '/'-separated; "." and ".." components are normalized away so the
    LSM cannot be escaped lexically. *)

module Fifo_cache = Graphene_sim.Fifo_cache

type file = { mutable data : bytes; mutable size : int }

type node = File of file | Dir of (string, node) Hashtbl.t

(* {1 Dentry cache}

   Bounded memo of path resolutions, positive and negative. Nodes are
   cached by reference, so in-place content changes stay visible; only
   namespace mutations (unlink, rename, create) invalidate. Disabled
   until configured — the simulated host boots without it, and the
   world enables it from the run's config so cache-off ablations
   reproduce the pre-cache walk exactly. *)

type dentry = Present of node | Absent

type dcache = {
  mutable enabled : bool;
  mutable entries : (string, dentry) Fifo_cache.t;
  mutable on_event : string -> unit;  (** counter hook (graphene.obs) *)
}

type dprobe = Dhit | Dneg_hit | Dmiss

type t = { root : node; dcache : dcache }

type stat = { st_size : int; st_is_dir : bool }

exception Error of string
(** Raised with an errno-style tag: "ENOENT", "EEXIST", "ENOTDIR",
    "EISDIR", "ENOTEMPTY", "EINVAL". *)

let err tag = raise (Error tag)

let dcache_capacity = 1024

let create () =
  { root = Dir (Hashtbl.create 16);
    dcache =
      { enabled = false;
        entries = Fifo_cache.create ~capacity:dcache_capacity;
        on_event = ignore } }

let configure_dcache t ~enabled ~capacity =
  t.dcache.enabled <- enabled;
  t.dcache.entries <- Fifo_cache.create ~capacity

let set_dcache_hook t f = t.dcache.on_event <- f

(* Normalize an absolute path to its component list. "/a/../b" -> ["b"]. *)
let components path =
  if path = "" || path.[0] <> '/' then err "EINVAL";
  let parts = String.split_on_char '/' path in
  let rec norm acc = function
    | [] -> List.rev acc
    | ("" | ".") :: rest -> norm acc rest
    | ".." :: rest -> norm (match acc with [] -> [] | _ :: t -> t) rest
    | c :: rest -> norm (c :: acc) rest
  in
  norm [] parts

(* Already canonical: absolute, no empty, "." or ".." component, and no
   trailing '/' unless the path is "/". One scan, no allocation: a host
   crossing normalizes its path several times, and the path is nearly
   always canonical already. *)
let canonical path =
  let n = String.length path in
  let rec component start i =
    if i < n && path.[i] <> '/' then component start (i + 1)
    else
      let len = i - start in
      len > 0
      && not (path.[start] = '.' && (len = 1 || (len = 2 && path.[start + 1] = '.')))
      && (i = n || component (i + 1) (i + 1))
  in
  n > 0 && path.[0] = '/' && (n = 1 || component 1 1)

let normalize path =
  if canonical path then path else "/" ^ String.concat "/" (components path)

let rec walk node = function
  | [] -> Some node
  | c :: rest -> (
    match node with
    | File _ -> None
    | Dir entries -> (
      match Hashtbl.find_opt entries c with
      | Some child -> walk child rest
      | None -> None))

let dc_invalidate_exact t key =
  let d = t.dcache in
  if d.enabled && Fifo_cache.remove d.entries key then d.on_event "vfs.dcache.invalidate"

(* Drop [key] and everything under it: a rename or unlink changes what
   every descendant path resolves to. *)
let dc_invalidate_subtree t key =
  let d = t.dcache in
  if d.enabled then begin
    let prefix = if key = "/" then "/" else key ^ "/" in
    Fifo_cache.drop_matching d.entries (fun k _ -> k = key || String.starts_with ~prefix k)
    |> List.iter (fun _ -> d.on_event "vfs.dcache.invalidate")
  end

let lookup t path =
  let d = t.dcache in
  if not d.enabled then walk t.root (components path)
  else begin
    let key = normalize path in
    match Fifo_cache.find d.entries key with
    | Some (Present node) ->
      d.on_event "vfs.dcache.hit";
      Some node
    | Some Absent ->
      d.on_event "vfs.dcache.neg_hit";
      None
    | None ->
      d.on_event "vfs.dcache.miss";
      let r = walk t.root (components path) in
      if Fifo_cache.add d.entries key (match r with Some n -> Present n | None -> Absent) <> None
      then d.on_event "vfs.dcache.evict";
      r
  end

(* Pure probe for cost composition in the PAL: does not fill, count,
   or touch eviction order. *)
let dcache_probe t path =
  let d = t.dcache in
  if not d.enabled then Dmiss
  else
    match Fifo_cache.find d.entries (normalize path) with
    | Some (Present _) -> Dhit
    | Some Absent -> Dneg_hit
    | None -> Dmiss

let exists t path = lookup t path <> None

(* The directory that should contain the last component of [path],
   plus that component's name. *)
let parent_of t path =
  match List.rev (components path) with
  | [] -> err "EINVAL"
  | name :: rev_dir -> (
    match walk t.root (List.rev rev_dir) with
    | Some (Dir entries) -> (entries, name)
    | Some (File _) -> err "ENOTDIR"
    | None -> err "ENOENT")

let mkdir t path =
  let entries, name = parent_of t path in
  if Hashtbl.mem entries name then err "EEXIST";
  Hashtbl.replace entries name (Dir (Hashtbl.create 8));
  (* a cached negative entry for this path is now wrong *)
  dc_invalidate_exact t (normalize path)

let rec mkdir_p t path =
  match lookup t path with
  | Some (Dir _) -> ()
  | Some (File _) -> err "ENOTDIR"
  | None ->
    (match components path with
    | [] -> ()
    | comps ->
      let parent = "/" ^ String.concat "/" (List.rev (List.tl (List.rev comps))) in
      mkdir_p t parent;
      mkdir t path)

let create_file t path =
  let entries, name = parent_of t path in
  match Hashtbl.find_opt entries name with
  | Some (File f) ->
    (* truncate, like O_CREAT|O_TRUNC; same object, cache stays valid *)
    f.data <- Bytes.empty;
    f.size <- 0;
    f
  | Some (Dir _) -> err "EISDIR"
  | None ->
    let f = { data = Bytes.empty; size = 0 } in
    Hashtbl.replace entries name (File f);
    dc_invalidate_exact t (normalize path);
    f

let find_file t path =
  match lookup t path with
  | Some (File f) -> f
  | Some (Dir _) -> err "EISDIR"
  | None -> err "ENOENT"

let file_size f = f.size

let ensure_capacity f n =
  if Bytes.length f.data < n then begin
    let cap = Stdlib.max n (Stdlib.max 64 (2 * Bytes.length f.data)) in
    let data = Bytes.make cap '\000' in
    Bytes.blit f.data 0 data 0 f.size;
    f.data <- data
  end

let write_file f ~off s =
  if off < 0 then err "EINVAL";
  let n = String.length s in
  ensure_capacity f (off + n);
  (* a sparse hole between size and off reads back as zeros *)
  Bytes.blit_string s 0 f.data off n;
  f.size <- Stdlib.max f.size (off + n)

let append_file f s = write_file f ~off:f.size s

let read_file f ~off ~len =
  if off < 0 || len < 0 then err "EINVAL";
  if off >= f.size then ""
  else begin
    let n = Stdlib.min len (f.size - off) in
    Bytes.sub_string f.data off n
  end

let read_all f = Bytes.sub_string f.data 0 f.size

let truncate f n =
  if n < 0 then err "EINVAL";
  ensure_capacity f n;
  f.size <- n

let unlink t path =
  let entries, name = parent_of t path in
  (match Hashtbl.find_opt entries name with
  | Some (File _) -> Hashtbl.remove entries name
  | Some (Dir d) -> if Hashtbl.length d = 0 then Hashtbl.remove entries name else err "ENOTEMPTY"
  | None -> err "ENOENT");
  dc_invalidate_subtree t (normalize path)

(* Linux's checks, all made before anything is unlinked: a node
   renamed onto itself is a no-op, a directory may not move into its
   own subtree, and a replaced target must be of the same kind (and,
   for a directory, empty). *)
let rename t ~src ~dst =
  let src_entries, src_name = parent_of t src in
  match Hashtbl.find_opt src_entries src_name with
  | None -> err "ENOENT"
  | Some node ->
    let dst_entries, dst_name = parent_of t dst in
    let src = normalize src and dst = normalize dst in
    match Hashtbl.find_opt dst_entries dst_name with
    | Some target when target == node -> ()
    | target ->
      (match node, target with
      | Dir _, _ when String.starts_with ~prefix:(src ^ "/") dst -> err "EINVAL"
      | Dir _, Some (File _) -> err "ENOTDIR"
      | File _, Some (Dir _) -> err "EISDIR"
      | Dir _, Some (Dir d) when Hashtbl.length d > 0 -> err "ENOTEMPTY"
      | _ -> ());
      Hashtbl.remove src_entries src_name;
      Hashtbl.replace dst_entries dst_name node;
      (* both subtrees resolve differently now: src is gone, dst holds
         the moved node (and its descendants) *)
      dc_invalidate_subtree t src;
      dc_invalidate_subtree t dst

let readdir t path =
  match lookup t path with
  | Some (Dir entries) ->
    Hashtbl.fold (fun name _ acc -> name :: acc) entries [] |> List.sort compare
  | Some (File _) -> err "ENOTDIR"
  | None -> err "ENOENT"

let stat t path =
  match lookup t path with
  | Some (File f) -> { st_size = f.size; st_is_dir = false }
  | Some (Dir _) -> { st_size = 0; st_is_dir = true }
  | None -> err "ENOENT"

let write_string t path s =
  mkdir_p t (Filename.dirname path);
  let f = create_file t path in
  write_file f ~off:0 s

let read_string t path = read_all (find_file t path)

let depth path = List.length (components path)
