(** Tests for the host kernel substrate: the VFS, COW memory, byte
    streams, synchronization objects, and kernel-level services
    (picoprocesses, gipc, sandbox splits, broadcast). *)

open Graphene_host
module K = Kernel
module Sim = Graphene_sim

let case = Util.case
let check_int = Util.check_int
let check_str = Util.check_str
let check_bool = Util.check_bool

(* {1 VFS} *)

let vfs_tests =
  [ case "create, write, read back" (fun () ->
        let fs = Vfs.create () in
        Vfs.write_string fs "/a/b/c.txt" "hello";
        check_str "content" "hello" (Vfs.read_string fs "/a/b/c.txt"));
    case "path normalization removes dot-dot" (fun () ->
        check_str "norm" "/b" (Vfs.normalize "/a/../b");
        check_str "root" "/" (Vfs.normalize "/../..");
        check_str "dots" "/a/c" (Vfs.normalize "/a/./b/../c"));
    case "relative paths are rejected" (fun () ->
        Alcotest.check_raises "rel" (Vfs.Error "EINVAL") (fun () ->
            ignore (Vfs.normalize "relative/path")));
    case "missing files raise ENOENT" (fun () ->
        let fs = Vfs.create () in
        Alcotest.check_raises "enoent" (Vfs.Error "ENOENT") (fun () ->
            ignore (Vfs.find_file fs "/nope")));
    case "mkdir requires the parent" (fun () ->
        let fs = Vfs.create () in
        Alcotest.check_raises "enoent" (Vfs.Error "ENOENT") (fun () -> Vfs.mkdir fs "/a/b"));
    case "mkdir_p creates the chain, idempotently" (fun () ->
        let fs = Vfs.create () in
        Vfs.mkdir_p fs "/x/y/z";
        Vfs.mkdir_p fs "/x/y/z";
        check_bool "dir" true (Vfs.stat fs "/x/y/z").Vfs.st_is_dir);
    case "duplicate mkdir fails" (fun () ->
        let fs = Vfs.create () in
        Vfs.mkdir fs "/d";
        Alcotest.check_raises "eexist" (Vfs.Error "EEXIST") (fun () -> Vfs.mkdir fs "/d"));
    case "sparse writes read back zeros" (fun () ->
        let fs = Vfs.create () in
        let f = Vfs.create_file fs "/sparse" in
        Vfs.write_file f ~off:10 "end";
        check_int "size" 13 (Vfs.file_size f);
        check_str "hole" "\000\000" (Vfs.read_file f ~off:0 ~len:2));
    case "read beyond EOF returns empty" (fun () ->
        let fs = Vfs.create () in
        let f = Vfs.create_file fs "/f" in
        Vfs.write_file f ~off:0 "abc";
        check_str "past end" "" (Vfs.read_file f ~off:10 ~len:5);
        check_str "clamped" "c" (Vfs.read_file f ~off:2 ~len:100));
    case "truncate shrinks and grows" (fun () ->
        let fs = Vfs.create () in
        let f = Vfs.create_file fs "/f" in
        Vfs.write_file f ~off:0 "abcdef";
        Vfs.truncate f 3;
        check_str "shrunk" "abc" (Vfs.read_all f);
        Vfs.truncate f 5;
        check_int "grown" 5 (Vfs.file_size f));
    case "unlink removes files and empty dirs only" (fun () ->
        let fs = Vfs.create () in
        Vfs.write_string fs "/d/f" "x";
        Alcotest.check_raises "notempty" (Vfs.Error "ENOTEMPTY") (fun () -> Vfs.unlink fs "/d");
        Vfs.unlink fs "/d/f";
        Vfs.unlink fs "/d";
        check_bool "gone" false (Vfs.exists fs "/d"));
    case "rename moves and replaces" (fun () ->
        let fs = Vfs.create () in
        Vfs.write_string fs "/src" "data";
        Vfs.write_string fs "/dst" "old";
        Vfs.rename fs ~src:"/src" ~dst:"/dst";
        check_bool "src gone" false (Vfs.exists fs "/src");
        check_str "replaced" "data" (Vfs.read_string fs "/dst"));
    case "readdir lists sorted names" (fun () ->
        let fs = Vfs.create () in
        Vfs.write_string fs "/d/b" "";
        Vfs.write_string fs "/d/a" "";
        Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (Vfs.readdir fs "/d"));
    case "open-file handle survives rename" (fun () ->
        (* POSIX: the file object is independent of its name *)
        let fs = Vfs.create () in
        Vfs.write_string fs "/f" "keep";
        let f = Vfs.find_file fs "/f" in
        Vfs.rename fs ~src:"/f" ~dst:"/g";
        Vfs.append_file f "!";
        check_str "via new name" "keep!" (Vfs.read_string fs "/g"));
    case "depth counts components" (fun () ->
        check_int "three" 3 (Vfs.depth "/a/b/c");
        check_int "root" 0 (Vfs.depth "/"));
    case "rename into its own subtree is EINVAL" (fun () ->
        let fs = Vfs.create () in
        Vfs.mkdir_p fs "/a/c";
        Vfs.write_string fs "/a/c/f" "hello";
        Alcotest.check_raises "einval" (Vfs.Error "EINVAL") (fun () ->
            Vfs.rename fs ~src:"/a" ~dst:"/a/b");
        Alcotest.(check (list string)) "root" [ "a" ] (Vfs.readdir fs "/");
        check_str "intact" "hello" (Vfs.read_string fs "/a/c/f"));
    case "rename of a directory over a file is ENOTDIR" (fun () ->
        let fs = Vfs.create () in
        Vfs.mkdir fs "/d";
        Vfs.write_string fs "/f" "file";
        Alcotest.check_raises "enotdir" (Vfs.Error "ENOTDIR") (fun () ->
            Vfs.rename fs ~src:"/d" ~dst:"/f");
        check_bool "dir stays" true (Vfs.stat fs "/d").Vfs.st_is_dir;
        check_str "file stays" "file" (Vfs.read_string fs "/f"));
    case "rename of a file over an empty directory is EISDIR" (fun () ->
        let fs = Vfs.create () in
        Vfs.write_string fs "/f" "file";
        Vfs.mkdir fs "/d";
        Alcotest.check_raises "eisdir" (Vfs.Error "EISDIR") (fun () ->
            Vfs.rename fs ~src:"/f" ~dst:"/d");
        check_bool "dir stays" true (Vfs.stat fs "/d").Vfs.st_is_dir;
        check_str "file stays" "file" (Vfs.read_string fs "/f"));
    case "rename of a non-empty directory onto itself is a no-op" (fun () ->
        let fs = Vfs.create () in
        Vfs.write_string fs "/d/f" "kept";
        Vfs.rename fs ~src:"/d" ~dst:"/d";
        Vfs.rename fs ~src:"/d" ~dst:"/d/.";
        check_str "intact" "kept" (Vfs.read_string fs "/d/f")) ]

(* A property: write at an offset then read back exactly. *)
let vfs_rw_prop =
  QCheck.Test.make ~name:"vfs write/read round trip" ~count:100
    QCheck.(pair (int_range 0 5000) (string_of_size Gen.(int_range 1 200)))
    (fun (off, data) ->
      let fs = Vfs.create () in
      let f = Vfs.create_file fs "/p" in
      Vfs.write_file f ~off data;
      Vfs.read_file f ~off ~len:(String.length data) = data)

(* [Vfs.normalize] against the split-and-join reference, over paths
   built from "", ".", "..", "a" and "bc": the same string, the same
   EINVAL, and an already canonical input comes back as itself. *)
let reference_normalize p =
  if p = "" || p.[0] <> '/' then None
  else
    let rec norm acc = function
      | [] -> List.rev acc
      | ("" | ".") :: rest -> norm acc rest
      | ".." :: rest -> norm (match acc with [] -> [] | _ :: t -> t) rest
      | c :: rest -> norm (c :: acc) rest
    in
    Some ("/" ^ String.concat "/" (norm [] (String.split_on_char '/' p)))

let vfs_normalize_prop =
  let path =
    QCheck.Gen.(
      map3
        (fun lead comps trail ->
          (if lead then "/" else "") ^ String.concat "/" comps ^ if trail then "/" else "")
        bool
        (list_size (int_range 0 6) (oneofl [ ""; "."; ".."; "a"; "bc" ]))
        bool)
  in
  QCheck.Test.make ~name:"vfs normalize matches its reference" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") path)
    (fun p ->
      match (reference_normalize p, Vfs.normalize p) with
      | Some want, got -> got = want && (want <> p || got == p)
      | None, _ -> false
      | exception Vfs.Error "EINVAL" -> reference_normalize p = None)

(* {1 Memory} *)

let fresh_mem () =
  let alloc = Memory.make_allocator () in
  (alloc, Memory.create alloc)

let mem_tests =
  [ case "map is lazy; touch faults pages in" (fun () ->
        let _, m = fresh_mem () in
        ignore (Memory.map m ~base:0x1000 ~npages:4 ~perm:Memory.rw ~kind:Memory.Heap);
        check_int "nothing resident" 0 (Memory.rss m);
        check_bool "faulted" true (Memory.touch m 0x1000 ~write:false = Memory.Faulted_in);
        check_int "one page" Memory.page_size (Memory.rss m));
    case "overlapping maps are rejected" (fun () ->
        let _, m = fresh_mem () in
        ignore (Memory.map m ~base:0x1000 ~npages:4 ~perm:Memory.rw ~kind:Memory.Heap);
        Alcotest.check_raises "overlap" (Invalid_argument "Memory.map: overlap at 0x2000")
          (fun () -> ignore (Memory.map m ~base:0x2000 ~npages:1 ~perm:Memory.rw ~kind:Memory.Heap)));
    case "unmapped access faults" (fun () ->
        let _, m = fresh_mem () in
        Alcotest.check_raises "fault" (Memory.Fault 0x9000) (fun () ->
            ignore (Memory.touch m 0x9000 ~write:false)));
    case "write to read-only region faults" (fun () ->
        let _, m = fresh_mem () in
        ignore (Memory.map m ~base:0x1000 ~npages:1 ~perm:Memory.ro ~kind:Memory.Heap);
        Alcotest.check_raises "wfault" (Memory.Fault 0x1000) (fun () ->
            ignore (Memory.touch m 0x1000 ~write:true)));
    case "bytes written read back across page boundaries" (fun () ->
        let _, m = fresh_mem () in
        ignore (Memory.map m ~base:0x1000 ~npages:2 ~perm:Memory.rw ~kind:Memory.Heap);
        let s = String.init 100 (fun i -> Char.chr (i mod 256)) in
        ignore (Memory.write_bytes m (0x1000 + Memory.page_size - 50) s);
        check_str "read back" s (Memory.read_bytes m (0x1000 + Memory.page_size - 50) 100));
    case "share_all shares frames copy-on-write" (fun () ->
        let alloc, a = fresh_mem () in
        let b = Memory.create alloc in
        ignore (Memory.map_resident a ~base:0x1000 ~npages:2 ~perm:Memory.rw ~kind:Memory.Heap);
        ignore (Memory.write_bytes a 0x1000 "parent");
        let granted = Memory.share_all ~src:a ~dst:b in
        check_int "two frames granted" 2 granted;
        (* the child reads the parent's data through the shared frame *)
        check_str "shared read" "parent" (Memory.read_bytes b 0x1000 6);
        (* PSS splits the shared pages *)
        check_int "pss half" Memory.page_size (Memory.pss a);
        (* a child write breaks the share privately *)
        ignore (Memory.write_bytes b 0x1000 "child!");
        check_str "parent intact" "parent" (Memory.read_bytes a 0x1000 6);
        check_str "child view" "child!" (Memory.read_bytes b 0x1000 6);
        check_int "one cow fault" 1 (Memory.cow_faults b));
    case "unmap drops refcounts and frees at zero" (fun () ->
        let alloc, a = fresh_mem () in
        let b = Memory.create alloc in
        ignore (Memory.map_resident a ~base:0x1000 ~npages:3 ~perm:Memory.rw ~kind:Memory.Heap);
        ignore (Memory.share_all ~src:a ~dst:b);
        let before = Memory.system_bytes alloc in
        Memory.unmap b ~base:0x1000;
        check_int "no frames freed while shared" before (Memory.system_bytes alloc);
        Memory.unmap a ~base:0x1000;
        check_int "all freed" 0 (Memory.system_bytes alloc));
    case "images are shared and refcounted" (fun () ->
        let alloc, a = fresh_mem () in
        let b = Memory.create alloc in
        let img = Memory.make_image alloc ~bytes:(8 * Memory.page_size) in
        ignore (Memory.map_image a ~base:0x10000 ~image:img ~perm:Memory.rx ~kind:Memory.App_image);
        ignore (Memory.map_image b ~base:0x10000 ~image:img ~perm:Memory.rx ~kind:Memory.App_image);
        (* rss counts fully, system memory only once *)
        check_int "rss a" (8 * Memory.page_size) (Memory.rss a);
        check_int "system" (8 * Memory.page_size) (Memory.system_bytes alloc));
    case "destroy releases everything" (fun () ->
        let alloc, a = fresh_mem () in
        ignore (Memory.map_resident a ~base:0x1000 ~npages:5 ~perm:Memory.rw ~kind:Memory.Heap);
        Memory.destroy a;
        check_int "freed" 0 (Memory.system_bytes alloc));
    case "protect changes permissions" (fun () ->
        let _, m = fresh_mem () in
        ignore (Memory.map m ~base:0x1000 ~npages:1 ~perm:Memory.rw ~kind:Memory.Heap);
        ignore (Memory.touch m 0x1000 ~write:true);
        Memory.protect m ~base:0x1000 ~npages:1 ~perm:Memory.ro;
        Alcotest.check_raises "now ro" (Memory.Fault 0x1000) (fun () ->
            ignore (Memory.touch m 0x1000 ~write:true))) ]

(* {2 Demand-zero payloads} *)

let page = Memory.page_size

let write_zero_pages m ~base ~npages =
  let cow = ref 0 in
  for i = 0 to npages - 1 do
    cow := !cow + Memory.write_bytes m (base + (i * page)) (String.make page '\000')
  done;
  !cow

(* A parent with data in two of six resident pages (two more mapped but
   not resident), forked to a child and a sibling, then the child's
   region dirtied twice by [dirty]: first over COW-shared frames, then
   over its now-private ones. Returns every observable number. *)
let dirty_observations dirty =
  let alloc, parent = fresh_mem () in
  let child = Memory.create alloc and sibling = Memory.create alloc in
  let base = 0x10000 and npages = 8 in
  ignore (Memory.map parent ~base ~npages ~perm:Memory.rw ~kind:Memory.Heap);
  for i = 0 to 5 do
    ignore (Memory.touch parent (base + (i * page)) ~write:true)
  done;
  ignore (Memory.write_bytes parent (base + page) "parent data");
  ignore (Memory.write_bytes parent (base + (3 * page) + 100) "more");
  ignore (Memory.share_all ~src:parent ~dst:child);
  ignore (Memory.share_all ~src:parent ~dst:sibling);
  let snapshot label cow =
    let ints =
      [ ("cow", cow); ("rss", Memory.rss child); ("pss", Memory.pss child);
        ("parent pss", Memory.pss parent); ("resident", Memory.resident_pages child);
        ("cow faults", Memory.cow_faults child); ("system", Memory.system_bytes alloc) ]
    in
    let reads =
      List.map
        (fun (who, m) -> (who, Memory.read_bytes m base (npages * page)))
        [ ("child", child); ("parent", parent); ("sibling", sibling) ]
    in
    (label, ints, reads)
  in
  let first = snapshot "shared" (dirty child ~base ~npages) in
  let second = snapshot "private" (dirty child ~base ~npages) in
  [ first; second ]

let demand_zero_tests =
  [ case "zero_pages matches writing zero pages, shared and private" (fun () ->
        let expect = dirty_observations write_zero_pages in
        let got = dirty_observations Memory.zero_pages in
        List.iter2
          (fun (label, ints, reads) (_, ints', reads') ->
            List.iter2
              (fun (name, v) (_, v') -> check_int (label ^ " " ^ name) v v')
              ints ints';
            List.iter2
              (fun (who, s) (_, s') -> check_bool (label ^ " read " ^ who) true (s = s'))
              reads reads')
          expect got;
        (* the scenario does exercise COW breaks and fault-ins *)
        match expect with
        | (_, ints, _) :: _ -> check_int "cow breaks" 6 (List.assoc "cow" ints)
        | [] -> assert false);
    case "a COW child of a never-written page reads zeros" (fun () ->
        let alloc, a = fresh_mem () in
        let b = Memory.create alloc in
        ignore (Memory.map_resident a ~base:0x1000 ~npages:1 ~perm:Memory.rw ~kind:Memory.Heap);
        ignore (Memory.share_all ~src:a ~dst:b);
        let zeros n = String.make n '\000' in
        check_str "child zeros" (zeros page) (Memory.read_bytes b 0x1000 page);
        ignore (Memory.write_bytes b 0x1010 "child");
        check_str "parent still zeros" (zeros page) (Memory.read_bytes a 0x1000 page);
        check_str "child sees its write" "child" (Memory.read_bytes b 0x1010 5);
        ignore (Memory.write_bytes a 0x1020 "parent");
        check_str "child unaffected" (zeros 6) (Memory.read_bytes b 0x1020 6);
        check_int "zero_pages on a private page: no cow" 0
          (Memory.zero_pages b ~base:0x1000 ~npages:1);
        check_str "written page reads zeros again" (zeros page) (Memory.read_bytes b 0x1000 page);
        check_str "parent keeps its write" "parent" (Memory.read_bytes a 0x1020 6));
    case "zero_pages rejects an unaligned base" (fun () ->
        let _, m = fresh_mem () in
        ignore (Memory.map m ~base:0x1000 ~npages:1 ~perm:Memory.rw ~kind:Memory.Heap);
        Alcotest.check_raises "unaligned" (Invalid_argument "Memory.zero_pages: unaligned base")
          (fun () -> ignore (Memory.zero_pages m ~base:0x1008 ~npages:1)));
    case "resident zero pages allocate no payloads" (fun () ->
        let _, m = fresh_mem () in
        let before = Gc.allocated_bytes () in
        ignore (Memory.map_resident m ~base:0x100000 ~npages:256 ~perm:Memory.rw ~kind:Memory.Heap);
        ignore (Memory.zero_pages m ~base:0x100000 ~npages:256);
        let allocated = Gc.allocated_bytes () -. before in
        check_int "resident" 256 (Memory.resident_pages m);
        check_bool
          (Printf.sprintf "%.0f bytes allocated < 16 pages" allocated)
          true
          (allocated < float_of_int (16 * page)));
    case "pages filled with one byte share a payload and stay isolated" (fun () ->
        let alloc, a = fresh_mem () in
        let b = Memory.create alloc in
        ignore (Memory.map a ~base:0x10000 ~npages:64 ~perm:Memory.rw ~kind:Memory.Heap);
        let ws = String.make (64 * page) 'w' in
        let before = Gc.allocated_bytes () in
        ignore (Memory.write_bytes a 0x10000 ws);
        let allocated = Gc.allocated_bytes () -. before in
        check_bool
          (Printf.sprintf "%.0f bytes allocated < 4 pages" allocated)
          true
          (allocated < float_of_int (4 * page));
        check_str "filled pages read back" ws (Memory.read_bytes a 0x10000 (64 * page));
        ignore (Memory.share_all ~src:a ~dst:b);
        check_int "a partial write breaks the share" 1 (Memory.write_bytes b 0x10010 "child");
        check_str "child sees its write" ("w" ^ "child" ^ "w") (Memory.read_bytes b 0x1000f 7);
        check_str "parent keeps its fill" ws (Memory.read_bytes a 0x10000 (64 * page));
        (* a page that differs only in its last byte is not one fill *)
        let almost = String.make (page - 1) 'w' ^ "x" in
        ignore (Memory.write_bytes b (0x10000 + page) almost);
        check_str "near-fill page read back" almost (Memory.read_bytes b (0x10000 + page) page);
        check_str "parent page unchanged" (String.make page 'w')
          (Memory.read_bytes a (0x10000 + page) page);
        ignore (Memory.write_bytes b (0x10000 + page) (String.make page 'z'));
        check_str "refilled page" (String.make page 'z') (Memory.read_bytes b (0x10000 + page) page);
        check_str "parent still filled" ws (Memory.read_bytes a 0x10000 (64 * page))) ]

(* COW invariant: after sharing and arbitrary writes on both sides,
   each side reads back exactly what it last wrote. *)
let cow_prop =
  QCheck.Test.make ~name:"COW isolation under random writes" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 20) (pair bool (int_range 0 (4 * 4096 - 20))))
    (fun writes ->
      let alloc = Memory.make_allocator () in
      let a = Memory.create alloc in
      let b = Memory.create alloc in
      ignore (Memory.map_resident a ~base:0 ~npages:4 ~perm:Memory.rw ~kind:Memory.Heap);
      ignore (Memory.share_all ~src:a ~dst:b);
      let expect_a = Bytes.make (4 * 4096) '\000' in
      let expect_b = Bytes.make (4 * 4096) '\000' in
      List.iteri
        (fun i (to_a, off) ->
          let data = Printf.sprintf "w%d" i in
          let m, e = if to_a then (a, expect_a) else (b, expect_b) in
          ignore (Memory.write_bytes m off data);
          Bytes.blit_string data 0 e off (String.length data))
        writes;
      Memory.read_bytes a 0 (4 * 4096) = Bytes.to_string expect_a
      && Memory.read_bytes b 0 (4 * 4096) = Bytes.to_string expect_b)

(* {1 Streams} *)

let stream_tests =
  [ case "deliver then read preserves bytes" (fun () ->
        let a, b = Stream.pipe ~owner_a:1 ~owner_b:2 in
        Stream.deliver b "hello ";
        Stream.deliver b "world";
        check_int "available" 11 (Stream.available b);
        check_str "read" "hello wor" (Stream.read b ~max:9);
        check_str "rest" "ld" (Stream.read b ~max:10);
        check_str "empty" "" (Stream.read b ~max:10);
        ignore a);
    case "read_message preserves boundaries" (fun () ->
        let _, b = Stream.pipe ~owner_a:1 ~owner_b:2 in
        Stream.deliver b "msg-one";
        Stream.deliver b "msg-two";
        check_bool "m1" true (Stream.read_message b = Some "msg-one");
        check_bool "m2" true (Stream.read_message b = Some "msg-two");
        check_bool "none" true (Stream.read_message b = None));
    case "notify fires on delivery and close" (fun () ->
        let a, b = Stream.pipe ~owner_a:1 ~owner_b:2 in
        let hits = ref 0 in
        Stream.on_activity b (fun () -> incr hits);
        Stream.deliver b "x";
        check_int "delivery" 1 !hits;
        Stream.on_activity b (fun () -> incr hits);
        Stream.close a;
        check_int "peer close" 2 !hits);
    case "eof only after draining" (fun () ->
        let a, b = Stream.pipe ~owner_a:1 ~owner_b:2 in
        Stream.deliver b "last";
        Stream.close a;
        check_bool "not eof yet" false (Stream.at_eof b);
        ignore (Stream.read b ~max:10);
        check_bool "eof now" true (Stream.at_eof b));
    case "oob handles queue independently of bytes" (fun () ->
        let _, b = Stream.pipe ~owner_a:1 ~owner_b:2 in
        Stream.deliver_oob b 42;
        Stream.deliver b "data";
        check_bool "has oob" true (Stream.has_oob b);
        check_bool "oob value" true (Stream.take_oob b = Some 42);
        check_bool "oob drained" true (Stream.take_oob b = None);
        check_str "bytes intact" "data" (Stream.read b ~max:10));
    case "delivery to a closed endpoint is dropped" (fun () ->
        let _, b = Stream.pipe ~owner_a:1 ~owner_b:2 in
        Stream.close b;
        Stream.deliver b "lost";
        check_int "nothing" 0 (Stream.available b)) ]

(* {1 Sync} *)

let sync_tests =
  [ case "notification event wakes all waiters" (fun () ->
        let ev = Sync.make_event ~auto_reset:false in
        let woke = ref 0 in
        check_bool "blocks" false (Sync.event_wait ev ~waiter:(fun () -> incr woke));
        check_bool "blocks" false (Sync.event_wait ev ~waiter:(fun () -> incr woke));
        Sync.event_set ev;
        check_int "both woke" 2 !woke;
        check_bool "now signaled" true (Sync.event_wait ev ~waiter:(fun () -> ())));
    case "auto-reset event wakes exactly one" (fun () ->
        let ev = Sync.make_event ~auto_reset:true in
        let woke = ref 0 in
        ignore (Sync.event_wait ev ~waiter:(fun () -> incr woke));
        ignore (Sync.event_wait ev ~waiter:(fun () -> incr woke));
        Sync.event_set ev;
        check_int "one" 1 !woke;
        Sync.event_set ev;
        check_int "two" 2 !woke;
        (* no waiters: latches *)
        Sync.event_set ev;
        check_bool "latched" true (Sync.event_wait ev ~waiter:(fun () -> ()));
        check_bool "consumed" false (Sync.event_is_signaled ev));
    case "mutex transfers ownership FIFO" (fun () ->
        let mu = Sync.make_mutex () in
        check_bool "acquired" true (Sync.mutex_lock mu ~waiter:(fun () -> ()));
        let order = ref [] in
        check_bool "q1" false (Sync.mutex_lock mu ~waiter:(fun () -> order := 1 :: !order));
        check_bool "q2" false (Sync.mutex_lock mu ~waiter:(fun () -> order := 2 :: !order));
        Sync.mutex_unlock mu;
        Sync.mutex_unlock mu;
        Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !order);
        check_bool "still locked by 2" true (Sync.mutex_is_locked mu));
    case "semaphore counts and wakes" (fun () ->
        let sem = Sync.make_semaphore ~count:2 in
        check_bool "a1" true (Sync.semaphore_acquire sem ~waiter:(fun () -> ()));
        check_bool "a2" true (Sync.semaphore_acquire sem ~waiter:(fun () -> ()));
        let woke = ref false in
        check_bool "blocks" false (Sync.semaphore_acquire sem ~waiter:(fun () -> woke := true));
        Sync.semaphore_release sem;
        check_bool "woken with the unit" true !woke;
        check_int "count zero" 0 (Sync.semaphore_value sem));
    case "negative semaphore init is rejected" (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Sync.make_semaphore: negative count")
          (fun () -> ignore (Sync.make_semaphore ~count:(-1)))) ]

(* {1 Kernel services} *)

let kernel_tests =
  [ case "spawn assigns pids and maps the PAL image" (fun () ->
        let k = K.create () in
        let p1 = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let p2 = K.spawn k ~sandbox:1 ~exe:"/b" () in
        check_bool "distinct" true (p1.K.pid <> p2.K.pid);
        check_int "pal resident" (Memory.pages_of_bytes K.pal_image_bytes * Memory.page_size)
          (Memory.rss p1.K.aspace));
    case "native spawn has no PAL image" (fun () ->
        let k = K.create () in
        let p = K.spawn k ~with_pal:false ~sandbox:1 ~exe:"/a" () in
        check_int "empty" 0 (Memory.rss p.K.aspace));
    case "filter installation is one-way" (fun () ->
        let k = K.create () in
        let p = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let f = Graphene_bpf.Seccomp.graphene_filter ~pal_lo:K.pal_base ~pal_hi:K.pal_limit in
        K.install_filter k p f;
        Alcotest.check_raises "twice" (Invalid_argument "Kernel.install_filter: filter already installed")
          (fun () -> K.install_filter k p f));
    case "stream server rendezvous with latency" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let b = K.spawn k ~sandbox:1 ~exe:"/b" () in
        let srv = K.stream_server k a ~name:"pipe:x" in
        let got = ref None in
        K.stream_connect k b ~name:"pipe:x" ~ok:(fun ep -> got := Some ep) ~err:(fun _ -> ());
        check_bool "not yet" true (!got = None);
        K.run_until_idle k;
        check_bool "connected" true (!got <> None);
        let accepted = ref None in
        K.stream_accept k srv (fun ep -> accepted := Some ep);
        check_bool "accepted" true (!accepted <> None));
    case "connect to a missing name fails" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let e = ref "" in
        K.stream_connect k a ~name:"pipe:ghost" ~ok:(fun _ -> ()) ~err:(fun x -> e := x);
        K.run_until_idle k;
        check_str "enoent" "ENOENT" !e);
    case "stream data arrives after the one-way latency" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let ea, eb = Stream.pipe ~owner_a:a.K.pid ~owner_b:a.K.pid in
        ignore ea;
        K.stream_send k eb "ping";
        (match eb.Stream.peer with
        | Some peer ->
          check_int "empty before latency" 0 (Stream.available peer);
          K.run_until_idle k;
          check_int "after" 4 (Stream.available peer)
        | None -> Alcotest.fail "no peer"));
    case "gipc transfers pages within a sandbox" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let b = K.spawn k ~sandbox:1 ~exe:"/b" () in
        ignore (Memory.map_resident a.K.aspace ~base:0x8000_0000 ~npages:2 ~perm:Memory.rw ~kind:Memory.Heap);
        ignore (Memory.write_bytes a.K.aspace 0x8000_0000 "gipc!");
        let token = K.gipc_send k a ~ranges:[ (0x8000_0000, 2) ] in
        check_int "granted" 2 (K.gipc_recv k b ~token);
        check_str "cow data" "gipc!" (Memory.read_bytes b.K.aspace 0x8000_0000 5));
    case "gipc tokens are single-use" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let b = K.spawn k ~sandbox:1 ~exe:"/b" () in
        ignore (Memory.map_resident a.K.aspace ~base:0x8000_0000 ~npages:1 ~perm:Memory.rw ~kind:Memory.Heap);
        let token = K.gipc_send k a ~ranges:[ (0x8000_0000, 1) ] in
        ignore (K.gipc_recv k b ~token);
        Alcotest.check_raises "reuse" (K.Denied "gipc: no such token") (fun () ->
            ignore (K.gipc_recv k b ~token)));
    case "pico_exit closes endpoints and frees memory" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let b = K.spawn k ~sandbox:1 ~exe:"/b" () in
        let ea, eb = Stream.pipe ~owner_a:a.K.pid ~owner_b:b.K.pid in
        K.register_endpoint k a ea;
        K.register_endpoint k b eb;
        let code = ref (-1) in
        K.on_pico_exit k a (fun c -> code := c);
        K.pico_exit k a 3;
        K.run_until_idle k;
        check_int "watcher" 3 !code;
        check_bool "endpoint closed" true (Stream.is_closed ea);
        check_int "memory freed" 0 (Memory.rss a.K.aspace));
    case "watcher registered after exit fires immediately" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        K.pico_exit k a 7;
        let code = ref (-1) in
        K.on_pico_exit k a (fun c -> code := c);
        check_int "late watcher" 7 !code);
    case "sandbox_split severs cross-sandbox streams" (fun () ->
        let k = K.create () in
        let sbx = K.fresh_sandbox k in
        let a = K.spawn k ~sandbox:sbx ~exe:"/a" () in
        let b = K.spawn k ~sandbox:sbx ~exe:"/b" () in
        let ea, eb = Stream.pipe ~owner_a:a.K.pid ~owner_b:b.K.pid in
        K.register_endpoint k a ea;
        K.register_endpoint k b eb;
        let new_sbx = K.sandbox_split k a ~keep:[] in
        check_bool "moved" true (a.K.sandbox = new_sbx && b.K.sandbox <> new_sbx);
        check_bool "severed" true (Stream.is_closed ea && Stream.is_closed eb));
    case "sandbox_split keeps designated children connected" (fun () ->
        let k = K.create () in
        let sbx = K.fresh_sandbox k in
        let a = K.spawn k ~sandbox:sbx ~exe:"/a" () in
        let b = K.spawn k ~sandbox:sbx ~exe:"/b" () in
        let ea, eb = Stream.pipe ~owner_a:a.K.pid ~owner_b:b.K.pid in
        K.register_endpoint k a ea;
        K.register_endpoint k b eb;
        let new_sbx = K.sandbox_split k a ~keep:[ b ] in
        check_bool "both moved" true (a.K.sandbox = new_sbx && b.K.sandbox = new_sbx);
        check_bool "intact" true (not (Stream.is_closed ea) && not (Stream.is_closed eb)));
    case "broadcast reaches members of the sandbox only" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:1 ~exe:"/a" () in
        let b = K.spawn k ~sandbox:1 ~exe:"/b" () in
        let c = K.spawn k ~sandbox:2 ~exe:"/c" () in
        let got = ref [] in
        K.broadcast_join k a ~handler:(fun m -> got := ("a", m) :: !got);
        K.broadcast_join k b ~handler:(fun m -> got := ("b", m) :: !got);
        K.broadcast_join k c ~handler:(fun m -> got := ("c", m) :: !got);
        K.broadcast_send k a "hello";
        K.run_until_idle k;
        (* the sender does not hear itself; sandbox 2 hears nothing *)
        check_bool "only b" true (!got = [ ("b", "hello") ]));
    case "syscall telemetry counts calls" (fun () ->
        let k = K.create () in
        let p = K.spawn k ~sandbox:1 ~exe:"/a" () in
        ignore (K.syscall_check k p ~name:"read" ~pc:0 ~args:[||]);
        ignore (K.syscall_check k p ~name:"read" ~pc:0 ~args:[||]);
        check_bool "counted" true (List.assoc "read" (K.syscall_counts k) = 2)) ]

let ordering_tests =
  [ case "EOF never overtakes data on a stream" (fun () ->
        let k = K.create () in
        let a = K.spawn k ~sandbox:(K.fresh_sandbox k) ~exe:"/a" () in
        let ea, eb = Stream.pipe ~owner_a:a.K.pid ~owner_b:a.K.pid in
        ignore ea;
        (* a burst of sends, then an immediate ordered close *)
        for i = 1 to 5 do
          K.stream_send ~extra:(Graphene_sim.Time.us (float_of_int i)) k eb
            (string_of_int i)
        done;
        K.close_endpoint_ordered k eb;
        K.run_until_idle k;
        (match eb.Stream.peer with
        | Some peer ->
          (* every message is readable despite the close *)
          let rec drain acc =
            match Stream.read_message peer with
            | Some m -> drain (acc ^ m)
            | None -> acc
          in
          check_str "all delivered" "12345" (drain "");
          check_bool "then EOF" true (Stream.at_eof peer)
        | None -> Alcotest.fail "no peer"));
    case "kernel-mode service time dilates under load" (fun () ->
        (* syscall_return cost stretches when many threads compete *)
        let k = K.create ~cores:1 () in
        check_bool "idle dilation" true (K.dilation k = 1.0));
    case "image frames free only at the last unmap" (fun () ->
        let k = K.create () in
        let img = K.get_image k ~name:"[x]" ~bytes:(4 * Memory.page_size) in
        let a = K.spawn k ~with_pal:false ~sandbox:(K.fresh_sandbox k) ~exe:"/a" () in
        let b = K.spawn k ~with_pal:false ~sandbox:(K.fresh_sandbox k) ~exe:"/b" () in
        ignore (Memory.map_image a.K.aspace ~base:0x1000 ~image:img ~perm:Memory.rx ~kind:Memory.App_image);
        ignore (Memory.map_image b.K.aspace ~base:0x1000 ~image:img ~perm:Memory.rx ~kind:Memory.App_image);
        let before = Memory.system_bytes k.K.alloc in
        K.pico_exit k a 0;
        check_int "still shared" before (Memory.system_bytes k.K.alloc);
        K.pico_exit k b 0;
        (* the registry still holds one reference: the image is a
           page-cache resident *)
        check_int "cache keeps it" (4 * Memory.page_size) (Memory.system_bytes k.K.alloc)) ]

let suite =
  ordering_tests @ vfs_tests
  @ List.map QCheck_alcotest.to_alcotest [ vfs_rw_prop; vfs_normalize_prop ]
  @ mem_tests @ demand_zero_tests
  @ [ QCheck_alcotest.to_alcotest cow_prop ]
  @ stream_tests @ sync_tests @ kernel_tests
