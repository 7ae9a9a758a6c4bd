(** The fast-path caches (docs/PERF.md): the one bounded table they
    share against a list model of its eviction rule, coherence of the
    VFS dcache under namespace mutations, epoch-based flushing of
    reference-monitor decisions, lease expiry through the coordination
    table, determinism of the cache counters, and coherence of the
    libOS handle cache under a directory rename. *)

open Util
module Vfs = Graphene_host.Vfs
module Manifest = Graphene_refmon.Manifest
module Monitor = Graphene_refmon.Monitor
module Obs = Graphene_obs.Obs
module Coord = Graphene_ipc.Coord
module Fifo_cache = Graphene_sim.Fifo_cache

(* {1 The bounded table against a list model}

   [tbl] is an association list, newest first; [order] is the queue of
   insertion slots, oldest first. A removal leaves its slot behind, and
   eviction skips the slots of absent keys. *)

type model = { cap : int; tbl : (int * int) list; order : int list }

type op = Add of int * int | Find of int | Remove of int | Clear | Drop_matching of int

type outcome = Evicted of int option | Found of int option | Removed of bool | Dropped of int list

let model_add m k v =
  if List.mem_assoc k m.tbl then (None, { m with tbl = (k, v) :: List.remove_assoc k m.tbl })
  else begin
    let rec oldest_live = function
      | [] -> (None, [])
      | k' :: rest when List.mem_assoc k' m.tbl -> (Some k', rest)
      | _ :: rest -> oldest_live rest
    in
    let evicted, order =
      if List.length m.tbl >= m.cap then oldest_live m.order else (None, m.order)
    in
    let tbl = match evicted with Some e -> List.remove_assoc e m.tbl | None -> m.tbl in
    (evicted, { m with tbl = (k, v) :: tbl; order = order @ [ k ] })
  end

let drops modulus k v = (k + v) mod modulus = 0

let model_step m = function
  | Add (k, v) ->
    let e, m = model_add m k v in
    (Evicted e, m)
  | Find k -> (Found (List.assoc_opt k m.tbl), m)
  | Remove k -> (Removed (List.mem_assoc k m.tbl), { m with tbl = List.remove_assoc k m.tbl })
  | Clear -> (Dropped [], { m with tbl = []; order = [] })
  | Drop_matching md ->
    let gone, kept = List.partition (fun (k, v) -> drops md k v) m.tbl in
    (Dropped (List.sort compare (List.map fst gone)), { m with tbl = kept })

let cache_step c = function
  | Add (k, v) -> Evicted (Fifo_cache.add c k v)
  | Find k -> Found (Fifo_cache.find c k)
  | Remove k -> Removed (Fifo_cache.remove c k)
  | Clear ->
    Fifo_cache.clear c;
    Dropped []
  | Drop_matching md -> Dropped (Fifo_cache.drop_matching c (drops md))

(* Run [ops] on a fresh cache and on the model: they must agree on
   every outcome and on the contents after every step. *)
let agrees cap ops =
  let c = Fifo_cache.create ~capacity:cap in
  let contents () = List.sort compare (Fifo_cache.fold (fun k v acc -> (k, v) :: acc) c []) in
  let rec go m = function
    | [] -> true
    | op :: rest ->
      let want, m = model_step m op in
      cache_step c op = want
      && contents () = List.sort compare m.tbl
      && Fifo_cache.length c = List.length m.tbl
      && go m rest
  in
  go { cap; tbl = []; order = [] } ops

let show_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"
  | Drop_matching md -> Printf.sprintf "drop (k+v) mod %d = 0" md

let ops_arb =
  let open QCheck.Gen in
  let key = int_range 0 5 in
  let op =
    frequency
      [ (5, map2 (fun k v -> Add (k, v)) key (int_range 0 9)); (3, map (fun k -> Find k) key);
        (3, map (fun k -> Remove k) key); (1, return Clear);
        (1, map (fun md -> Drop_matching md) (int_range 2 3)) ]
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map show_op ops)))
    (pair (int_range 1 4) (list_size (int_range 0 60) op))

let fifo_matches_model =
  QCheck.Test.make ~name:"fifo: random op sequences match the list model" ~count:500 ops_arb
    (fun (cap, ops) -> agrees cap ops)

(* Wire.Dedup's former rule: push the fresh key, then pop and drop the
   oldest while the queue exceeds capacity. Dedup never removes a key
   otherwise, so on add-only runs it is the same rule. *)
let fifo_matches_push_then_pop =
  QCheck.Test.make ~name:"fifo: add-only runs match push-then-pop" ~count:300
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 0 60) (int_range 0 7)))
    (fun (cap, keys) ->
      let c = Fifo_cache.create ~capacity:cap in
      let tbl = Hashtbl.create 8 and order = Queue.create () in
      List.iter
        (fun k ->
          ignore (Fifo_cache.add c k ());
          if not (Hashtbl.mem tbl k) then begin
            Queue.push k order;
            if Queue.length order > cap then Hashtbl.remove tbl (Queue.pop order)
          end;
          Hashtbl.replace tbl k ())
        keys;
      List.for_all (fun k -> Fifo_cache.mem c k = Hashtbl.mem tbl k) (List.init 8 Fun.id)
      && Fifo_cache.length c = Hashtbl.length tbl)

let test_fifo_examples () =
  let agree name cap ops = check_bool name true (agrees cap ops) in
  let evicts name cap ops k =
    agree name cap ops;
    let c = Fifo_cache.create ~capacity:cap in
    let last = List.fold_left (fun _ op -> cache_step c op) (Dropped []) ops in
    check_bool name true (last = Evicted (Some k))
  in
  evicts "capacity 1 keeps only the newest" 1 [ Add (1, 0); Add (2, 0) ] 1;
  evicts "a replaced key keeps its slot" 2 [ Add (1, 0); Add (2, 0); Add (1, 9); Add (3, 0) ] 1;
  agree "removing an absent key is a no-op" 2 [ Remove 4; Add (1, 0); Remove 4; Find 1 ];
  (* the documented quirk: a removed-then-re-added key is evicted at
     its old slot, ahead of keys inserted after it the first time *)
  evicts "re-add after remove evicts at the old slot" 3
    [ Add (0, 0); Add (1, 0); Add (2, 0); Remove 0; Add (0, 0); Add (3, 0) ] 0

(* {1 VFS dcache coherence} *)

let mk_vfs () =
  let fs = Vfs.create () in
  Vfs.configure_dcache fs ~enabled:true ~capacity:64;
  fs

(* Tally the dcache's counter events by name, as the kernel's tracer
   would. *)
let dcache_counter fs =
  let seen = Hashtbl.create 8 in
  Vfs.set_dcache_hook fs (fun name ->
      Hashtbl.replace seen name (1 + Option.value ~default:0 (Hashtbl.find_opt seen name)));
  fun name -> Option.value ~default:0 (Hashtbl.find_opt seen name)

let test_dcache_unlink_invalidates () =
  let fs = mk_vfs () in
  let count = dcache_counter fs in
  Vfs.write_string fs "/d/a" "one";
  check_bool "resolves" true (Vfs.exists fs "/d/a");
  check_bool "cached after walk" true (Vfs.dcache_probe fs "/d/a" = Vfs.Dhit);
  Vfs.unlink fs "/d/a";
  (* the stale positive entry must not answer *)
  check_bool "no stale hit" false (Vfs.exists fs "/d/a");
  check_bool "counted invalidation" true (count "vfs.dcache.invalidate" > 0)

let test_dcache_rename_invalidates_subtree () =
  let fs = mk_vfs () in
  Vfs.write_string fs "/src/deep/f" "payload";
  check_str "warm read" "payload" (Vfs.read_string fs "/src/deep/f");
  check_bool "descendant cached" true (Vfs.dcache_probe fs "/src/deep/f" = Vfs.Dhit);
  Vfs.rename fs ~src:"/src" ~dst:"/dst";
  check_bool "old name gone" false (Vfs.exists fs "/src/deep/f");
  check_str "new name resolves" "payload" (Vfs.read_string fs "/dst/deep/f")

let test_dcache_creation_drops_negative () =
  let fs = mk_vfs () in
  Vfs.mkdir_p fs "/d";
  check_bool "absent" false (Vfs.exists fs "/d/later");
  check_bool "negative cached" true (Vfs.dcache_probe fs "/d/later" = Vfs.Dneg_hit);
  Vfs.write_string fs "/d/later" "now";
  (* the negative entry must not shadow the new file *)
  check_str "resolves after create" "now" (Vfs.read_string fs "/d/later")

let test_dcache_capacity_bounds () =
  let fs = Vfs.create () in
  Vfs.configure_dcache fs ~enabled:true ~capacity:8;
  let count = dcache_counter fs in
  for i = 1 to 32 do
    Vfs.write_string fs (Printf.sprintf "/many/f%d" i) "x";
    ignore (Vfs.exists fs (Printf.sprintf "/many/f%d" i))
  done;
  check_bool "evicted under pressure" true (count "vfs.dcache.evict" > 0);
  (* every path still resolves correctly regardless of what evicted *)
  for i = 1 to 32 do
    check_bool "still resolves" true (Vfs.exists fs (Printf.sprintf "/many/f%d" i))
  done

(* {1 Reference-monitor decision cache} *)

let manifest_of s =
  match Manifest.parse s with Ok m -> m | Error e -> Alcotest.failf "manifest: %s" e

let test_refmon_epoch_flush () =
  let k = K.create () in
  Obs.enable k.K.tracer;
  let mon = Monitor.install k in
  let sbx = K.fresh_sandbox k in
  let pico = K.spawn k ~sandbox:sbx ~exe:"/bin/x" () in
  Monitor.bind_sandbox mon ~sandbox:sbx ~manifest:(manifest_of "fs.allow r /lib\n");
  let e0 = Monitor.sandbox_epoch mon ~sandbox:sbx in
  check_bool "allowed (fills)" true (k.K.lsm.K.check_path pico "/lib/libc.so" `Read);
  check_bool "allowed (cached)" true (k.K.lsm.K.check_path pico "/lib/libc.so" `Read);
  check_bool "second check hit" true (Obs.counter_value k.K.tracer "refmon.cache.hit" > 0);
  (* rebinding the sandbox to a narrower view bumps the epoch; the
     cached allow must not survive it *)
  Monitor.bind_sandbox mon ~sandbox:sbx ~manifest:(manifest_of "fs.allow r /data\n");
  check_bool "epoch bumped" true (Monitor.sandbox_epoch mon ~sandbox:sbx > e0);
  check_bool "no stale allow" false (k.K.lsm.K.check_path pico "/lib/libc.so" `Read);
  check_bool "counted invalidation" true
    (Obs.counter_value k.K.tracer "refmon.cache.invalidate" > 0)

let test_refmon_denials_uncached () =
  let k = K.create () in
  let mon = Monitor.install k in
  let sbx = K.fresh_sandbox k in
  let pico = K.spawn k ~sandbox:sbx ~exe:"/bin/x" () in
  Monitor.bind_sandbox mon ~sandbox:sbx ~manifest:(manifest_of "fs.allow r /lib\n");
  check_bool "denied" false (k.K.lsm.K.check_path pico "/etc/shadow" `Read);
  check_bool "denied again" false (k.K.lsm.K.check_path pico "/etc/shadow" `Read);
  (* every denial reaches the audit log — none is served from cache *)
  check_int "both denials audited" 2 (List.length (Monitor.violations mon))

(* {1 Lease TTL expiry vs concurrent acquire}

   Leases through the coordination table's public verbs, watching the
   event stream the audit log and the counters are derived from. *)

let mk_coord () =
  let c = Coord.create ~capacity:8 ~ttl:(T.us 10.) in
  let evs = ref [] in
  Coord.observe c (fun e -> evs := e :: !evs);
  (c, fun () -> List.rev !evs)

let lease c ~now owner = ignore (Coord.acquire c ~now ~ns:Coord.Pid ~key:1 ~owner ())
let resolve c ~now = Coord.check c ~now ~ns:Coord.Pid ~key:1
let expirations evs = List.length (List.filter (function Coord.Expire _ -> true | _ -> false) evs)

(* A lease cached at t expires strictly after t+ttl; a lookup exactly
   at the boundary still hits, one nanosecond later it misses with an
   expiration and the entry is reaped. *)
let test_lease_ttl_boundary () =
  let c, events = mk_coord () in
  lease c ~now:0 "owner-a";
  check_bool "hit before expiry" true (resolve c ~now:(T.us 10.) = Some "owner-a");
  check_bool "expired past boundary" true (resolve c ~now:(T.us 10. + 1) = None);
  check_int "expiration observed" 1 (expirations (events ()));
  check_int "entry reaped" 0 (Coord.leased_count c ~ns:Coord.Pid);
  check_bool "reaped slot reads absent" true (resolve c ~now:(T.us 11.) = None);
  check_int "an absent slot is a plain miss" 1 (expirations (events ()))

(* The race the coordination layer actually runs: an acquire lands
   while the old lease is expiring. It must restart the lease clock —
   the refreshed lease answers for a full TTL from the refresh, not
   from the original acquire. *)
let test_lease_expiry_races_acquire () =
  let c, events = mk_coord () in
  lease c ~now:0 "owner-a";
  (* re-acquire just before the old lease runs out, to a new owner
     (the resource migrated while we were re-resolving) *)
  lease c ~now:(T.us 9.) "owner-b";
  (* past the original deadline: the refreshed lease still answers *)
  check_bool "refreshed lease answers" true (resolve c ~now:(T.us 15.) = Some "owner-b");
  (* ... and expires a full TTL after the refresh *)
  check_bool "expires from the refresh" true (resolve c ~now:(T.us 19. + 1) = None);
  check_int "one expiration, not two" 1 (expirations (events ()));
  (* the losing side of the race: an acquire over an expired-but-unswept
     slot wins it atomically — no window where the key reads absent *)
  lease c ~now:(T.us 30.) "owner-c";
  lease c ~now:(T.us 45.) "owner-d";
  check_bool "writer wins the expired slot" true (resolve c ~now:(T.us 46.) = Some "owner-d")

(* [peek] is the contention plane's holder probe: it must answer
   without emitting anything or reaping the entry. *)
let test_lease_peek_is_pure () =
  let c, events = mk_coord () in
  lease c ~now:0 "owner-a";
  let before = List.length (events ()) in
  let peek now = Coord.peek c ~now ~ns:Coord.Pid ~key:1 in
  check_bool "peek answers" true (peek (T.us 5.) = Some "owner-a");
  check_bool "expired peek is silent None" true (peek (T.us 11.) = None);
  check_int "peek emits no events" before (List.length (events ()));
  (* the expired-but-unreaped entry is still there for check to reap *)
  check_int "entry not reaped by peek" 1 (Coord.leased_count c ~ns:Coord.Pid);
  check_bool "check reaps it" true (resolve c ~now:(T.us 11.) = None);
  check_int "reaped as an expiration" 1 (expirations (events ()))

let test_lease_stall_accounting () =
  let c, events = mk_coord () in
  Coord.note_stall c ~ns:Coord.Sysv (T.us 50.);
  Coord.note_stall c ~ns:Coord.Sysv (T.us 25.);
  let stalls =
    List.filter_map
      (function Coord.Stall { ns = Coord.Sysv; dur } -> Some dur | _ -> None)
      (events ())
  in
  check_int "stalls observed" 2 (List.length stalls);
  check_bool "stall time summed" true (List.fold_left T.add T.zero stalls = T.us 75.)

(* {1 Determinism} *)

let cache_counters =
  [ "vfs.dcache.hit"; "vfs.dcache.neg_hit"; "vfs.dcache.miss"; "vfs.dcache.evict";
    "vfs.dcache.invalidate"; "refmon.cache.hit"; "refmon.cache.miss";
    "liblinux.handle_cache.hit"; "liblinux.handle_cache.miss"; "ipc.lease.owner.hit";
    "ipc.lease.owner.miss"; "ipc.lease.pid.hit"; "ipc.lease.pid.miss"; "ipc.coalesced";
    "ipc.batches" ]

let instrumented ~exe ~argv () =
  let r =
    run_on ~stack:W.Graphene_rm ~seed:11
      ~setup:(fun w -> Obs.enable (W.tracer w))
      ~exe ~argv ()
  in
  let counters = List.map (Obs.counter_value (W.tracer r.w)) cache_counters in
  (r, counters)

let test_same_seed_same_counters () =
  let go () =
    let r, counters = instrumented ~exe:"/bin/lat_openclose" ~argv:[ "50" ] () in
    (r.out (), W.now r.w, counters)
  in
  check_bool "identical console, clock and cache counters" true (go () = go ())

(* {1 libOS handle cache under a directory rename}

   A rename moves every path under the old name, so the libOS must
   forget them all, as the host dcache does: a file created later at a
   reused path was never resolved by this libOS and pays the full
   resolution. *)

let rename_prog =
  B.(
    let reopen mode = sys "close" [ sys "open" [ str "/tmp/d/f"; str mode ] ] in
    prog ~name:"/bin/renamedir"
      (seq
         [ sys "mkdir" [ str "/tmp/d" ];
           reopen "w";
           reopen "r";
           sys "rename" [ str "/tmp/d"; str "/tmp/e" ];
           sys "mkdir" [ str "/tmp/d" ];
           reopen "w";
           sys "exit" [ int 0 ] ]))

let test_handle_cache_rename () =
  List.iter
    (fun stack ->
      let r =
        run_prog ~stack ~seed:11 ~setup:(fun w -> Obs.enable (W.tracer w)) rename_prog
      in
      expect_exit r;
      let c name = Obs.counter_value (W.tracer r.w) ("liblinux.handle_cache." ^ name) in
      let label what = W.stack_name stack ^ ": " ^ what in
      check_int (label "only the reopen hits") 1 (c "hit");
      check_int (label "the reused path misses") 2 (c "miss");
      check_int (label "the rename dropped the old file") 1 (c "invalidate"))
    [ W.Graphene; W.Graphene_rm ]

let suite =
  List.map QCheck_alcotest.to_alcotest [ fifo_matches_model; fifo_matches_push_then_pop ]
  @ [ case "fifo: fixed eviction examples" test_fifo_examples;
    case "dcache: unlink invalidates" test_dcache_unlink_invalidates;
    case "dcache: rename invalidates the subtree" test_dcache_rename_invalidates_subtree;
    case "dcache: creation drops the negative entry" test_dcache_creation_drops_negative;
    case "dcache: capacity bound evicts, never corrupts" test_dcache_capacity_bounds;
    case "refmon: manifest rebind flushes decisions" test_refmon_epoch_flush;
    case "refmon: denials are never cached" test_refmon_denials_uncached;
    case "lease: TTL boundary is inclusive at t+ttl" test_lease_ttl_boundary;
    case "lease: expiry racing a concurrent acquire" test_lease_expiry_races_acquire;
    case "lease: peek is pure" test_lease_peek_is_pure;
    case "lease: stall accounting" test_lease_stall_accounting;
    case "same seed, same cache counters" test_same_seed_same_counters;
    case "handle cache: a directory rename drops the paths under it" test_handle_cache_rename ]
