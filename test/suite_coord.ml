(** The unified coordination table (docs/COORDINATION.md): the sealed
    acquire/release/check/sweep verbs, the one typed conflict
    shape, the TTL-expiry-vs-acquire race fix, epoch machinery, and
    end-to-end: typed conflict answers after ownership migration,
    leader-kill chaos leaving zero stale entries, and audit-stream
    determinism across identical runs. *)

open Util
module Coord = Graphene_ipc.Coord
module Obs = Graphene_obs.Obs
module Audit = Graphene_obs.Audit
module Invariant = Graphene_obs.Invariant
module Contend = Graphene_obs.Contend
module Fault = Graphene_sim.Fault

let mk ?(ttl = T.us 10.) () = Coord.create ~capacity:8 ~ttl

(* Record the event stream; tests assert on the transitions the
   observers (audit, counters, invariants) would see. *)
let observed c =
  let evs = ref [] in
  Coord.observe c (fun e -> evs := e :: !evs);
  fun () -> List.rev !evs

(* {1 The sealed verbs} *)

let test_verbs () =
  let c = mk () in
  (* authoritative ownership *)
  (match Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:7 ~owner:"g1" ~kind:Coord.Held ~tag:"msgq" () with
  | Coord.Acquired -> ()
  | Coord.Conflict _ -> Alcotest.fail "fresh held acquire must succeed");
  check_bool "check answers the holder" true
    (Coord.check c ~now:(T.us 99.) ~ns:Coord.Sysv ~key:7 = Some "g1");
  check_int "held counted" 1 (Coord.held_count c ~ns:Coord.Sysv);
  (* a cached remote resolution in the other namespace *)
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Pid ~key:7 ~owner:"g2" ());
  check_bool "namespaces are disjoint" true
    (Coord.check c ~now:(T.us 1.) ~ns:Coord.Pid ~key:7 = Some "g2");
  (* release gives authority up; a second release reports nothing held *)
  check_bool "release" true (Coord.release c ~ns:Coord.Sysv ~key:7);
  check_bool "idempotent release" false (Coord.release c ~ns:Coord.Sysv ~key:7);
  check_bool "released key is gone" true
    (Coord.check c ~now:(T.us 1.) ~ns:Coord.Sysv ~key:7 = None);
  (* a held entry never decays: far past any TTL it still answers *)
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:8 ~owner:"g1" ~kind:Coord.Held ~tag:"sem" ());
  check_bool "authority has no TTL" true
    (Coord.check c ~now:(T.ms 500.) ~ns:Coord.Sysv ~key:8 = Some "g1")

let test_conflict_shape () =
  let c = mk () in
  let events = observed c in
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:7 ~owner:"g1" ~kind:Coord.Held ~tag:"msgq" ());
  ignore (Coord.advance_epoch c ~now:0);
  (* an acquire on a held key answers the one typed shape — holder +
     epoch — whether the requester wanted authority or just a lease *)
  (match Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:7 ~owner:"g2" ~kind:Coord.Held ~tag:"msgq" () with
  | Coord.Conflict { holder; held; epoch } ->
    check_str "names the holder" "g1" holder;
    check_bool "authoritative" true held;
    check_int "under the current epoch" 1 epoch
  | Coord.Acquired -> Alcotest.fail "held acquire over another owner must conflict");
  (match Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:7 ~owner:"g2" () with
  | Coord.Conflict { holder; _ } -> check_str "leased acquire conflicts too" "g1" holder
  | Coord.Acquired -> Alcotest.fail "leased acquire over a held key must conflict");
  check_int "both surfaced to observers" 2
    (List.length
       (List.filter (function Coord.Conflict_detected _ -> true | _ -> false) (events ())));
  (* the holder itself is never in conflict: re-own is idempotent and a
     self-lease is a no-op *)
  (match Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:7 ~owner:"g1" ~kind:Coord.Held () with
  | Coord.Acquired -> ()
  | Coord.Conflict _ -> Alcotest.fail "re-own by the holder must succeed");
  match Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:7 ~owner:"g1" () with
  | Coord.Acquired -> ()
  | Coord.Conflict _ -> Alcotest.fail "self-lease must be a quiet no-op"

(* The race the old per-resource caches could lose: a lease expires,
   nothing has swept it yet, and an authoritative acquire lands on the
   slot. It must win atomically — no window where the stale holder is
   answered, and the expiry is what observers see, not a spurious
   invalidation. *)
let test_expiry_races_acquire () =
  let c = mk () in
  let events = observed c in
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:5 ~owner:"g9" ());
  (* past the TTL but unswept: peek still sees the corpse *)
  check_int "entry unswept" 1 (Coord.leased_count c ~ns:Coord.Sysv);
  (match Coord.acquire c ~now:(T.us 11.) ~ns:Coord.Sysv ~key:5 ~owner:"g1" ~kind:Coord.Held ~tag:"msgq" () with
  | Coord.Acquired -> ()
  | Coord.Conflict _ -> Alcotest.fail "expired lease must not block the acquire");
  check_bool "new owner answers" true
    (Coord.check c ~now:(T.us 12.) ~ns:Coord.Sysv ~key:5 = Some "g1");
  check_bool "reported as an expiration" true
    (List.exists (function Coord.Expire { key = 5; _ } -> true | _ -> false) (events ()));
  (* the same acquire over a *live* lease is an invalidation instead *)
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:6 ~owner:"g9" ());
  ignore (Coord.acquire c ~now:(T.us 2.) ~ns:Coord.Sysv ~key:6 ~owner:"g1" ~kind:Coord.Held ~tag:"msgq" ());
  check_bool "live lease drop is an invalidation" true
    (List.exists (function Coord.Invalidate { key = 6; _ } -> true | _ -> false) (events ()))

let test_sweep_scoping () =
  let c = mk () in
  let events = observed c in
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:1 ~owner:"dead" ());
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:2 ~owner:"live" ());
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Pid ~key:9 ~owner:"dead" ());
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:3 ~owner:"me" ~kind:Coord.Held ~tag:"msgq" ());
  (* a dead peer takes exactly its own leases, in both namespaces *)
  Coord.sweep c ~now:(T.us 1.) ~reason:(Coord.Peer_death "dead");
  check_bool "dead peer's sysv lease dropped" true
    (Coord.check c ~now:(T.us 1.) ~ns:Coord.Sysv ~key:1 = None);
  check_bool "dead peer's pid lease dropped" true
    (Coord.check c ~now:(T.us 1.) ~ns:Coord.Pid ~key:9 = None);
  check_bool "bystander lease survives" true
    (Coord.check c ~now:(T.us 1.) ~ns:Coord.Sysv ~key:2 = Some "live");
  (* an epoch change flushes every lease but never authority *)
  Coord.sweep c ~now:(T.us 2.) ~reason:Coord.Epoch_change;
  check_int "all leases gone" 0 (Coord.leased_count c ~ns:Coord.Sysv);
  check_bool "held survives the epoch sweep" true
    (Coord.check c ~now:(T.us 2.) ~ns:Coord.Sysv ~key:3 = Some "me");
  (* exit clears the whole table, reporting each release *)
  Coord.sweep c ~now:(T.us 3.) ~reason:Coord.Owner_exit;
  check_int "held released on exit" 0 (Coord.held_count c ~ns:Coord.Sysv);
  check_bool "release observed" true
    (List.exists (function Coord.Release { key = 3; _ } -> true | _ -> false) (events ()))

let test_epoch_machinery () =
  let c = mk () in
  let events = observed c in
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Pid ~key:1 ~owner:"g2" ());
  check_int "winner bumps by one" 1 (Coord.advance_epoch c ~now:0);
  check_int "leases died with the bump" 0 (Coord.leased_count c ~ns:Coord.Pid);
  Coord.adopt_epoch c ~now:0 5;
  check_int "adopt takes the max" 5 (Coord.epoch c);
  Coord.adopt_epoch c ~now:0 3;
  check_int "a delayed duplicate cannot roll back" 5 (Coord.epoch c);
  let bumps =
    List.filter_map (function Coord.Epoch_bump { epoch } -> Some epoch | _ -> None) (events ())
  in
  check_bool "every bump observed, monotone" true (bumps = [ 1; 5; 5 ])

let test_export_import () =
  let c = mk () in
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:1 ~owner:"g5" ());
  ignore (Coord.acquire c ~now:0 ~ns:Coord.Sysv ~key:2 ~owner:"me" ~kind:Coord.Held ~tag:"sem" ());
  let snap = Coord.export c ~ns:Coord.Sysv in
  check_bool "leases export" true (List.mem_assoc 1 snap);
  (* ownership is not inherited: a fork child must re-earn authority *)
  check_bool "held entries do not export" false (List.mem_assoc 2 snap);
  let child = mk () in
  Coord.import child ~now:(T.us 100.) ~ns:Coord.Sysv snap;
  check_bool "imported lease answers from the child's clock" true
    (Coord.check child ~now:(T.us 105.) ~ns:Coord.Sysv ~key:1 = Some "g5")

(* {1 End-to-end: typed conflicts after ownership migration}

   Three processes, one queue. The parent creates and fills it; one
   child drains it remotely until the migration threshold moves the
   queue to that child; the other child cached the parent as owner
   before the move and operates on the stale lease. The operation
   reaches the old owner, which answers the typed conflict (holder +
   epoch) from its forwarding lease; the requester re-aims and retries
   directly against the new holder — no blind backoff. *)

let conflict_prog =
  let open B in
  let migrator =
    (* start after the sibling has cached its stale resolution; four
       remote receives push past migrate_threshold = 3. Stay alive
       afterwards: the point is the typed conflict from a live old
       owner, not the connection-refused fallback. *)
    seq
      [ sys "nanosleep" [ int 4_000_000 ];
        sys "msgrcv" [ v "id" ]; sys "msgrcv" [ v "id" ];
        sys "msgrcv" [ v "id" ]; sys "msgrcv" [ v "id" ];
        sys "nanosleep" [ int 10_000_000 ];
        sys "exit" [ int 0 ] ]
  in
  let stale_client =
    (* resolve the owner now (the parent), sit out the migration, then
       receive through the stale lease *)
    let_ "id2"
      (sys "msgget" [ int 900; int 0 ])
      (seq
         [ sys "nanosleep" [ int 5_000_000 ];
           sys "msgrcv" [ v "id2" ];
           sys "exit" [ int 0 ] ])
  in
  prog ~name:"/bin/coord_conflict"
    (let_ "id"
       (sys "msgget" [ int 900; int 1 ])
       (let_ "j" (int 0)
          (seq
             [ while_ (v "j" <% int 6)
                 (seq [ sys "msgsnd" [ v "id"; str "m" ]; set "j" (v "j" +% int 1) ]);
               let_ "p1" (sys "fork" [])
                 (if_ (v "p1" =% int 0) migrator
                    (let_ "p2" (sys "fork" [])
                       (if_ (v "p2" =% int 0) stale_client
                          (seq [ sys "wait" []; sys "wait" []; sys "exit" [ int 0 ] ])))) ])))

let run_conflict ?cfg () =
  let tracer = ref None in
  let r =
    run_prog ?cfg ~seed:11 ~path:"/bin/coord_conflict"
      ~setup:(fun w ->
        Obs.enable (W.tracer w);
        Audit.enable (W.audit w);
        tracer := Some (W.tracer w))
      conflict_prog
  in
  (r, Option.get !tracer)

let test_conflict_hint_end_to_end () =
  let r, tracer = run_conflict () in
  expect_exit r;
  (* the stale receive came back as the one typed conflict *)
  check_bool "conflict answered" true (Obs.counter_value tracer "ipc.coord.conflict" > 0);
  let conflicts =
    List.filter (fun e -> e.Audit.e_action = "conflict") (Audit.recorded (W.audit r.w))
  in
  check_bool "conflict audited" true (conflicts <> []);
  let arg e k = List.assoc_opt k e.Audit.e_args in
  let e = List.hd conflicts in
  check_bool "names holder and requester" true
    (arg e "holder" <> None && arg e "requester" <> None && arg e "epoch" <> None);
  (* migration itself rode through Coord: own at the new holder,
     disown at the old *)
  let migr =
    List.filter (fun e -> e.Audit.e_cat = Audit.Migration) (Audit.recorded (W.audit r.w))
  in
  check_bool "own audited" true (List.exists (fun e -> e.Audit.e_action = "own") migr);
  check_bool "disown audited" true (List.exists (fun e -> e.Audit.e_action = "disown") migr);
  check_int "no invariant violated" 0 (Invariant.total (W.invariants r.w))

(* {1 End-to-end: crash sweep under chaos}

   A leader-kill storm with message loss and duplication. After the
   run, no surviving instance may hold a lease naming a dead peer —
   a stale entry would misroute the next signal — and the invariant
   monitors must have stayed silent. *)

let storm_spec =
  { Fault.none with
    Fault.drop = 0.08;
    dup = 0.05;
    delay_p = 0.1;
    delay_max = T.us 150.;
    kill_leader_at = Some (T.ms 2.0) }

(* Count leases held by live instances that name a dead peer, from the
   introspection report (the same parse the chaos bench gates on). *)
let stale_leases report ~live =
  let stale = ref 0 in
  let in_live = ref false in
  List.iter
    (fun line ->
      if String.length line > 9 && String.sub line 0 9 = "instance " then
        in_live := List.mem (List.nth (String.split_on_char ' ' line) 1) live
      else if !in_live then
        match String.index_opt line '>' with
        | Some i when i >= 1 && line.[i - 1] = '-' -> (
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match String.split_on_char ' ' (String.trim rest) with
          | target :: _ when target <> "" && not (List.mem target live) -> incr stale
          | _ -> ())
        | _ -> ())
    (String.split_on_char '\n' report);
  !stale

let test_leader_kill_sweeps_clean () =
  let r =
    run_on ~seed:42 ~faults:storm_spec
      ~setup:(fun w -> Audit.enable (W.audit w))
      ~exe:"/bin/sigstorm" ~argv:[] ()
  in
  check_bool "storm completed across the kill" true
    (contains (r.out ()) "storm done\nstorm done");
  let k = W.kernel r.w in
  let live = List.map (fun p -> "g" ^ string_of_int p.K.pid) (K.live_picos k) in
  check_bool "the kill actually took a peer" true
    (K.leader_killed_at k <> None);
  check_int "zero stale entries at live instances" 0
    (stale_leases (K.introspection_report k) ~live);
  check_int "zero invariant violations" 0 (Invariant.total (W.invariants r.w));
  check_bool "sweeps were exercised" true
    (List.exists
       (fun e -> e.Audit.e_action = "flush" && e.Audit.e_cat = Audit.Lease)
       (Audit.recorded (W.audit r.w)))

(* {1 End-to-end: sem-page holder crash}

   The picoprocess that created — and therefore owns and published the
   shared page of — a semaphore is killed outright (no orderly
   shutdown) while a sibling holds a live lease on it. The kernel's
   exit path must revoke the dead pid's pages, the death notification
   must sweep the sibling's leases, and the survivor must neither hang
   nor find a stale entry anywhere: the Coord sweep is the single
   mechanism the fast path's authority hangs off, so a leak here would
   let the next fast-path attempt answer from a dead owner's page. *)

let holder_crash_prog =
  let open B in
  (* the leader (pid 1) only forks and reaps: leases live at the
     non-leader survivor, where a peer death actually has cached state
     to sweep (the leader answers owner lookups from its own table) *)
  let owner =
    (* pid 2: creates the sem, publishes the page, lingers to be
       crashed *)
    let_ "sem"
      (sys "semget" [ int 77; int 1 ])
      (seq
         [ sys "semop" [ v "sem"; int (-1) ];
           sys "semop" [ v "sem"; int 1 ];
           sys "print" [ str "owner up\n" ];
           sys "nanosleep" [ int 50_000_000 ];
           sys "exit" [ int 0 ] ])
  in
  let survivor =
    (* pid 3: resolves the owner through the leader, caches the lease,
       and is mid-sleep when the owner dies *)
    seq
      [ sys "nanosleep" [ int 4_000_000 ];
        let_ "sem"
          (sys "semget" [ int 77; int 0 ])
          (seq
             [ sys "semop" [ v "sem"; int (-1) ];
               sys "semop" [ v "sem"; int 1 ];
               sys "print" [ str "leased\n" ];
               (* the crash lands here, during this sleep *)
               sys "nanosleep" [ int 10_000_000 ];
               (* the sem died with its owner: the retry must answer
                  EIDRM promptly — not hang on a corpse, not spin the
                  re-resolve loop to EAGAIN off the leader's stale
                  namespace entry *)
               sys "print"
                 [ str "retry="
                   ^% str_of_int (sys "semop" [ v "sem"; int (-1) ])
                   ^% str "\n" ];
               sys "print" [ str "survivor done\n" ];
               sys "exit" [ int 0 ] ]) ]
  in
  prog ~name:"/bin/sem_crash"
    (let_ "a" (sys "fork" [])
       (if_ (v "a" =% int 0) owner
          (let_ "b" (sys "fork" [])
             (if_ (v "b" =% int 0) survivor
                (seq
                   [ sys "wait" []; sys "wait" [];
                     sys "print" [ str "parent done\n" ];
                     sys "exit" [ int 0 ] ])))))

let test_holder_crash_sweeps_clean () =
  let crashed = ref false in
  let snapshot = ref None in
  let kernel = ref None in
  let hook s =
    let k = Option.get !kernel in
    if (not !crashed) && Util.contains s "leased" then begin
      crashed := true;
      (* crash the owner mid-sleep: no shutdown runs on its side *)
      match List.find_opt (fun p -> p.K.pid = 2) (K.live_picos k) with
      | Some owner -> K.kill_pico k owner
      | None -> Alcotest.fail "owner already gone before the crash"
    end
    else if Util.contains s "survivor done" then
      (* capture the table state while the survivor is still live *)
      snapshot :=
        Some
          ( K.introspection_report k,
            List.map (fun p -> "g" ^ string_of_int p.K.pid) (K.live_picos k) )
  in
  let r =
    run_prog ~seed:13 ~console_hook:hook
      ~setup:(fun w ->
        kernel := Some (W.kernel w);
        Obs.enable (W.tracer w);
        Audit.enable (W.audit w);
        Contend.enable (W.contend w))
      holder_crash_prog
  in
  check_bool "the crash happened" true !crashed;
  expect_console_contains "survivor done" r;
  (* the post-crash retry answered EIDRM, the reaped-resource error *)
  expect_console_contains "retry=-43" r;
  (* the semop to the dead owner was refused, and with no forwarding
     lease to follow the retry loop dropped the cached owner and backed
     off before re-resolving *)
  (match Contend.resource_stats (W.contend r.w) "ipc.wait.retry" with
  | Some (n, _, _) -> check_bool "invalidate-and-backoff retry ran" true (n > 0)
  | None -> Alcotest.fail "no ipc.wait.retry wait: the backoff retry never ran");
  expect_exit r;
  let k = W.kernel r.w in
  (* the dead owner's page is gone from every sandbox slot *)
  List.iter
    (fun p ->
      for id = 0 to 128 do
        match K.sem_page_lookup k ~sandbox:p.K.sandbox ~id with
        | Some pg when pg.K.sp_pid = 2 ->
          Alcotest.failf "sem page %d still published by the dead owner" id
        | _ -> ()
      done)
    (K.live_picos k);
  (match !snapshot with
  | Some (report, live) ->
    check_int "zero stale entries at live instances" 0 (stale_leases report ~live)
  | None -> Alcotest.fail "survivor snapshot never taken");
  check_int "zero invariant violations" 0 (Invariant.total (W.invariants r.w));
  (* a peer-death sweep reports per-key invalidations, not a wholesale
     flush — the survivor's lease on the dead owner must be among them *)
  check_bool "the death invalidated the survivor's lease" true
    (List.exists
       (fun e -> e.Audit.e_action = "invalidate" && e.Audit.e_cat = Audit.Lease)
       (Audit.recorded (W.audit r.w)));
  (* and the leader reaped the orphaned sem, audited as a disown on
     the dead owner's behalf — the single-owner books balance *)
  check_bool "the leader disowned the dead owner's sem" true
    (List.exists
       (fun e ->
         e.Audit.e_action = "disown" && e.Audit.e_cat = Audit.Migration
         && List.exists (fun (k2, v2) -> k2 = "addr" && v2 = Obs.Astr "g2") e.Audit.e_args)
       (Audit.recorded (W.audit r.w)))

(* Byte-identical audit JSONL across identical (seed, faults) runs:
   the Coord observer sits on the hot path of every one of these
   events, so any nondeterminism it introduced would show here. *)
let test_same_seed_identical_audit () =
  let jsonl () =
    let r, _ = run_conflict () in
    Audit.to_jsonl (W.audit r.w)
  in
  let j1 = jsonl () in
  check_bool "events recorded" true (j1 <> "");
  check_str "byte-identical" j1 (jsonl ())

let suite =
  [ case "the sealed verbs" test_verbs;
    case "conflict returns holder+epoch" test_conflict_shape;
    case "expiry-vs-acquire race resolves to the writer" test_expiry_races_acquire;
    case "sweep scoping: peer death, epoch, exit" test_sweep_scoping;
    case "epoch bumps are monotone and sweep" test_epoch_machinery;
    case "fork export excludes authority" test_export_import;
    case "typed conflict after migration (end-to-end)" test_conflict_hint_end_to_end;
    case "leader-kill chaos leaves zero stale entries" test_leader_kill_sweeps_clean;
    case "sem holder crash sweeps page and leases" test_holder_crash_sweeps_clean;
    case "same seed: byte-identical audit JSONL" test_same_seed_identical_audit ]
