(** The shared-page semaphore fast path (docs/WEB.md): wakeup order
    under contention stays the slow path's FIFO and is deterministic
    at a fixed seed; the IPC_NOWAIT trylock answers EAGAIN guest-side;
    and the isolation gate — a picoprocess that moves itself into a
    new sandbox loses the page entirely (EIDRM on the old id), the
    fast path never reaches across the boundary. *)

open Util
module Config = Graphene_ipc.Config
module Obs = Graphene_obs.Obs
module Invariant = Graphene_obs.Invariant
open B

let sayn e = sys "print" [ e ^% str "\n" ]
let die = sys "exit" [ int 0 ]

let counter tracer name = Obs.counter_value tracer name

(* Run a program with tracing on; return (run, tracer). *)
let traced ?cfg ?(seed = 11) prog_ =
  let tracer = ref None in
  let r =
    run_prog ?cfg ~seed
      ~setup:(fun w ->
        Obs.enable (W.tracer w);
        tracer := Some (W.tracer w))
      prog_
  in
  (r, Option.get !tracer)

(* {1 FIFO wakeup under contention}

   The parent holds the semaphore while three children arrive at
   staggered times and queue at the owner. The release must wake them
   in arrival order — the fast path never barges past a queued waiter
   ([sp_waiters > 0] forces the slow path), so the order is the
   owner's FIFO whether the fast path is on or off. *)

let fifo_prog =
  let child i =
    seq
      [ sys "nanosleep" [ int (i * 2_000_000) ];
        sys "semop" [ v "sem"; int (-1) ];
        sayn (str (Printf.sprintf "w%d" i));
        sys "semop" [ v "sem"; int 1 ];
        die ]
  in
  prog ~name:"/bin/sem_fifo"
    (let_ "sem"
       (sys "semget" [ int 41; int 1 ])
       (seq
          [ sys "semop" [ v "sem"; int (-1) ];
            let_ "c1" (sys "fork" [])
              (if_ (v "c1" =% int 0) (child 1)
                 (let_ "c2" (sys "fork" [])
                    (if_ (v "c2" =% int 0) (child 2)
                       (let_ "c3" (sys "fork" [])
                          (if_ (v "c3" =% int 0) (child 3)
                             (seq
                                [ sys "nanosleep" [ int 10_000_000 ];
                                  sys "semop" [ v "sem"; int 1 ];
                                  sys "wait" []; sys "wait" []; sys "wait" [];
                                  sayn (str "fifo done");
                                  die ])))))) ]))

let wake_order out =
  let pos tag =
    let rec find i =
      if i + 2 > String.length out then None
      else if String.sub out i 2 = tag then Some i
      else find (i + 1)
    in
    find 0
  in
  (pos "w1", pos "w2", pos "w3")

let test_fifo_wakeup () =
  let r, tracer = traced fifo_prog in
  expect_exit r;
  expect_console_contains "fifo done" r;
  (match wake_order (r.out ()) with
  | Some p1, Some p2, Some p3 ->
    check_bool "wakeups in arrival order" true (p1 < p2 && p2 < p3)
  | _ -> Alcotest.fail "a child never woke");
  (* the children really did contend: queued acquires went slow *)
  check_bool "contention exercised" true
    (counter tracer "ipc.sem.fallback.contended" > 0
    || counter tracer "ipc.sem.fallback.stale_lease" > 0);
  check_int "no invariant violated" 0 (Invariant.total (W.invariants r.w))

let test_fifo_deterministic () =
  let out () =
    let r, _ = traced fifo_prog in
    expect_exit r;
    r.out ()
  in
  check_str "same seed, byte-identical console" (out ()) (out ())

let test_fifo_matches_slow_path () =
  (* the fast path must not change who wakes when: the wake sequence
     with the page on equals the pure-RPC sequence with it off *)
  let order cfg =
    let r, _ = traced ?cfg fifo_prog in
    expect_exit r;
    wake_order (r.out ())
  in
  check_bool "fastpath preserves slow-path wake order" true
    (order None = order (Some { (Config.default ()) with Config.sem_fastpath = false }))

(* {1 IPC_NOWAIT trylock}

   The nginx accept-mutex pattern: a trylock that loses answers -1
   (EAGAIN) without queueing the caller. With a live page the refusal
   is decided guest-side ([ipc.sem.fast_eagain]); the caller is free
   to keep serving and try again later. *)

let try_prog =
  prog ~name:"/bin/sem_try"
    (let_ "sem"
       (sys "semget" [ int 42; int 1 ])
       (seq
          [ sayn (str "t1=" ^% str_of_int (sys "semop_try" [ v "sem"; int (-1) ]));
            let_ "pid" (sys "fork" [])
              (if_ (v "pid" =% int 0)
                 (seq
                    [ sys "nanosleep" [ int 2_000_000 ];
                      (* parent still holds: an honest EAGAIN, no queueing *)
                      sayn (str "t2=" ^% str_of_int (sys "semop_try" [ v "sem"; int (-1) ]));
                      sys "nanosleep" [ int 4_000_000 ];
                      (* parent released: the retry wins *)
                      sayn (str "t3=" ^% str_of_int (sys "semop_try" [ v "sem"; int (-1) ]));
                      sys "semop" [ v "sem"; int 1 ];
                      die ])
                 (seq
                    [ sys "nanosleep" [ int 4_000_000 ];
                      sys "semop" [ v "sem"; int 1 ];
                      sys "wait" [];
                      sayn (str "try done");
                      die ])) ]))

let test_trylock () =
  let r, tracer = traced try_prog in
  expect_exit r;
  expect_console_contains "t1=0" r;
  expect_console_contains "t2=-1" r;
  expect_console_contains "t3=0" r;
  expect_console_contains "try done" r;
  check_bool "the lost trylock was an EAGAIN, not a queued waiter" true
    (counter tracer "ipc.sem.fast_eagain" > 0
    || counter tracer "ipc.sem.fallback.stale_lease" > 0)

let test_trylock_stacks_agree () =
  let g = run_prog ~stack:W.Graphene try_prog in
  let n = run_prog ~stack:W.Linux try_prog in
  expect_exit g;
  expect_exit n;
  check_str "stacks agree" (g.out ()) (n.out ())

(* {1 The sandbox boundary}

   A child that confines itself with [sandbox_create] leaves the
   coordination namespace that named the semaphore: the old id answers
   EIDRM, and — the security property — not one post-split operation
   touches the shared page. The fast path is gated on the kernel's
   (sandbox, id) registry, so the attempt falls back before any
   guest-side atomic happens. *)

let split_prog =
  prog ~name:"/bin/sem_split"
    (let_ "sem"
       (sys "semget" [ int 43; int 1 ])
       (let_ "pid" (sys "fork" [])
          (if_ (v "pid" =% int 0)
             (seq
                [ sys "nanosleep" [ int 2_000_000 ];
                  sayn (str "pre=" ^% str_of_int (sys "semop" [ v "sem"; int (-1) ]));
                  sys "semop" [ v "sem"; int 1 ];
                  sys "sandbox_create" [ list_ [ str "/www" ] ];
                  sayn (str "post=" ^% str_of_int (sys "semop" [ v "sem"; int (-1) ]));
                  sayn (str "posttry=" ^% str_of_int (sys "semop_try" [ v "sem"; int (-1) ]));
                  die ])
             (seq
                [ sayn (str "own=" ^% str_of_int (sys "semop" [ v "sem"; int (-1) ]));
                  sys "semop" [ v "sem"; int 1 ];
                  sys "wait" [];
                  sayn (str "split done");
                  die ]))))

let test_fastpath_stops_at_sandbox () =
  let r, tracer = traced split_prog in
  expect_exit r;
  expect_console_contains "own=0" r;
  expect_console_contains "pre=0" r;
  (* the moved process lost the id with its namespace *)
  expect_console_contains "post=-43" r;
  expect_console_contains "posttry=-43" r;
  expect_console_contains "split done" r;
  let fast =
    counter tracer "ipc.sem.fast_acquire" + counter tracer "ipc.sem.fast_release"
  in
  check_bool "pre-split ops used the page" true (fast > 0);
  (* every post-split attempt fell back before touching the page *)
  check_bool "post-split attempts rejected at the registry" true
    (counter tracer "ipc.sem.fallback.no_page" > 0);
  check_int "no invariant violated" 0 (Invariant.total (W.invariants r.w))

let suite =
  [ case "contended wakeups stay FIFO" test_fifo_wakeup;
    case "same seed: byte-identical wakeups" test_fifo_deterministic;
    case "fastpath preserves slow-path wake order" test_fifo_matches_slow_path;
    case "trylock answers EAGAIN guest-side" test_trylock;
    case "trylock agrees across stacks" test_trylock_stacks_agree;
    case "the fast path stops at the sandbox boundary" test_fastpath_stops_at_sandbox ]
