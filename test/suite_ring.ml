(** The PAL submission ring and the vDSO state page (docs/PERF.md).

    The ring: completions arrive in submission order, a per-op failure
    never aborts the batch, a crash-call fault lands on an individual
    entry (completions before it stand, later entries never run), and
    every batch answers what native Linux answers running each entry
    as its own call. The vDSO page: identity and time syscalls are
    served from the published page, a fork child gets a fresh page
    (never the parent's identity), and a revoked page falls back to
    the PAL time query and is republished, never read stale.
    Everything is deterministic at a fixed seed. *)

open Util
module Obs = Graphene_obs.Obs
module Invariant = Graphene_obs.Invariant
module Fault = Graphene_sim.Fault
module Vfs = Graphene_host.Vfs
open B

let say e = sys "print" [ e ]
let sayn e = sys "print" [ e ^% str "\n" ]
let die = sys "exit" [ int 0 ]

(* Run a program with tracing on; return (run, tracer). *)
let traced ?stack ?faults ?(seed = 11) prog_ =
  let tracer = ref None in
  let r =
    run_prog ?stack ?faults ~seed
      ~setup:(fun w ->
        Obs.enable (W.tracer w);
        tracer := Some (W.tracer w))
      prog_
  in
  (r, Option.get !tracer)

let sq_read fd n = pair (str "read") (pair fd n)
let sq_write fd s = pair (str "write") (pair fd s)

(* {1 Ordering and results}

   Interleaved reads and writes on two files: the completion list
   preserves submission order, reads advance through the source file
   (offset projection), writes land back to back in the sink. *)

let mixed_prog =
  prog ~name:"/bin/ring_mixed"
    (let_ "sf"
       (sys "open" [ str "/tmp/ring_src"; str "w" ])
       (seq
          [ sys "write" [ v "sf"; str "0123456789" ];
            sys "close" [ v "sf" ];
            let_ "rf"
              (sys "open" [ str "/tmp/ring_src"; str "r" ])
              (let_ "wf"
                 (sys "open" [ str "/tmp/ring_dst"; str "w" ])
                 (let_ "res"
                    (sys "ring"
                       [ list_
                           [ sq_read (v "rf") (int 5);
                             sq_write (v "wf") (str "alpha");
                             sq_read (v "rf") (int 5);
                             sq_write (v "wf") (str "beta") ] ])
                    (seq
                       [ say (nth (v "res") (int 0));
                         say (str "|");
                         say (str_of_int (nth (v "res") (int 1)));
                         say (str "|");
                         say (nth (v "res") (int 2));
                         say (str "|");
                         say (str_of_int (nth (v "res") (int 3)));
                         say (str "|");
                         sys "close" [ v "wf" ];
                         let_ "chk"
                           (sys "open" [ str "/tmp/ring_dst"; str "r" ])
                           (seq [ say (sys "read" [ v "chk"; int 100 ]); die ]) ]))) ]))

let mixed_expected = "01234|5|56789|4|alphabeta"

let test_ordering () =
  let r = run_prog ~seed:11 mixed_prog in
  expect_exit r;
  expect_console mixed_expected r

(* {1 Per-op errno}

   A bad descriptor in the middle of the batch answers -EBADF in its
   slot; the surrounding entries complete normally. *)

let errno_prog =
  prog ~name:"/bin/ring_errno"
    (let_ "wf"
       (sys "open" [ str "/tmp/ring_e"; str "w" ])
       (let_ "res"
          (sys "ring"
             [ list_
                 [ sq_write (v "wf") (str "x");
                   sq_read (int 99) (int 4);
                   sq_write (v "wf") (str "y") ] ])
          (seq
             [ say (str_of_int (nth (v "res") (int 0)));
               say (str "|");
               say (str_of_int (nth (v "res") (int 1)));
               say (str "|");
               say (str_of_int (nth (v "res") (int 2)));
               die ])))

let test_per_op_errno () =
  let r = run_prog ~seed:11 errno_prog in
  expect_exit r;
  (* EBADF = 9 *)
  expect_console "1|-9|1" r;
  let f = Vfs.find_file (W.kernel r.w).Graphene_host.Kernel.fs "/tmp/ring_e" in
  check_str "both good entries landed" "xy" (Vfs.read_file f ~off:0 ~len:10)

(* {1 Partial-batch drain under a crash-call fault}

   The fault plan kills the picoprocess at the Nth PAL call, aimed
   inside the ring drain: entries completed before the fault have
   committed their writes, entries after it never execute, the batch
   continuation never runs — and the run still drains. *)

let crash_prog =
  prog ~name:"/bin/ring_crash"
    (let_ "wf"
       (sys "open" [ str "/tmp/ring_c"; str "w" ])
       (seq
          [ sys "ring"
              [ list_
                  [ sq_write (v "wf") (str "a");
                    sq_write (v "wf") (str "b");
                    sq_write (v "wf") (str "c");
                    sq_write (v "wf") (str "d");
                    sq_write (v "wf") (str "e");
                    sq_write (v "wf") (str "f") ] ];
            sayn (str "done");
            die ]))

let test_partial_drain () =
  (* without faults the batch commits everything *)
  let clean = run_prog ~seed:11 crash_prog in
  expect_exit clean;
  expect_console_contains "done" clean;
  let full =
    let f = Vfs.find_file (W.kernel clean.w).Graphene_host.Kernel.fs "/tmp/ring_c" in
    Vfs.read_file f ~off:0 ~len:16
  in
  check_str "clean batch commits all entries" "abcdef" full;
  (* crash mid-drain: the per-entry fault check consumes one slot per
     entry, so some strict prefix of the writes commits *)
  let prefix_lens = ref [] in
  List.iter
    (fun n ->
      let spec = { Fault.none with Fault.crash_call = Some n } in
      let r = run_prog ~seed:11 ~faults:spec crash_prog in
      if not (contains (r.out ()) "done") then begin
        let content =
          match Vfs.find_file (W.kernel r.w).Graphene_host.Kernel.fs "/tmp/ring_c" with
          | f -> Vfs.read_file f ~off:0 ~len:16
          | exception Vfs.Error _ -> ""
        in
        check_bool
          (Printf.sprintf "crash-call %d leaves a strict prefix (got %S)" n content)
          true
          (String.length content < 6 && content = String.sub "abcdef" 0 (String.length content));
        prefix_lens := String.length content :: !prefix_lens
      end)
    [ 9; 10; 11; 12; 13; 14 ];
  (* at least one crash point must land on an individual entry strictly
     inside the drain: a non-empty strict prefix *)
  check_bool "some crash point hits mid-batch" true
    (List.exists (fun l -> l > 0 && l < 6) !prefix_lens)

(* {1 Linux is the oracle}

   The native baseline runs each entry as its own host call. A batch
   must answer the same on every stack, including one whose entries
   all complete at submission — a console write, a bad descriptor and
   a malformed entry — which finishes without crossing into the PAL. *)

let immediate_prog =
  prog ~name:"/bin/ring_imm"
    (let_ "res"
       (sys "ring" [ list_ [ sq_write (int 1) (str "hi;"); sq_read (int 99) (int 4); str "junk" ] ])
       (seq
          [ say (str_of_int (nth (v "res") (int 0)));
            say (str "|");
            say (str_of_int (nth (v "res") (int 1)));
            say (str "|");
            say (str_of_int (nth (v "res") (int 2)));
            die ]))

let test_linux_oracle () =
  List.iter
    (fun (prog_, expected) ->
      List.iter
        (fun stack ->
          let r = run_prog ~stack ~seed:11 prog_ in
          expect_exit r;
          check_str (W.stack_name stack) expected (r.out ()))
        [ W.Linux; W.Graphene; W.Graphene_rm ])
    [ (mixed_prog, mixed_expected); (errno_prog, "1|-9|1"); (immediate_prog, "hi;3|-9|-22") ];
  List.iter
    (fun stack ->
      let _, t_mixed = traced ~stack mixed_prog and _, t_imm = traced ~stack immediate_prog in
      check_int "one crossing for the mixed batch" 1 (Obs.counter_value t_mixed "pal.ring.submits");
      check_int "no crossing for the immediate batch" 0 (Obs.counter_value t_imm "pal.ring.submits"))
    [ W.Graphene; W.Graphene_rm ]

(* {1 Same seed, byte-identical}

   Two runs at one seed agree on console bytes and the final virtual
   clock — the ring introduces no nondeterminism. *)

let test_determinism () =
  let go () =
    let r = run_prog ~seed:23 mixed_prog in
    expect_exit r;
    (r.out (), W.now r.w)
  in
  let o1, t1 = go () and o2, t2 = go () in
  check_str "console" o1 o2;
  check_bool "final clock" true (t1 = t2)

(* {1 vDSO page: identity across fork}

   The child must answer getpid/getppid from its own freshly published
   page — never the parent's (invalidation on fork means publication
   is per-picoprocess, keyed by host pid). *)

let vdso_fork_prog =
  prog ~name:"/bin/vdso_fork"
    (seq
       [ sayn (str_of_int (sys "getpid" []));
         let_ "t0"
           (sys "gettimeofday" [])
           (let_ "c" (sys "fork" [])
              (if_ (v "c" =% int 0)
                 (seq
                    [ sayn (str_of_int (sys "getpid" []));
                      sayn (str_of_int (sys "getppid" []));
                      sayn
                        (if_
                           (sys "gettimeofday" [] >=% v "t0")
                           (str "mono") (str "STALE"));
                      die ])
                 (seq [ sys "wait" []; sayn (str "parent done"); die ]))) ])

let test_vdso_fork_identity () =
  let r, tracer = traced vdso_fork_prog in
  expect_exit r;
  expect_console_contains "parent done" r;
  (* parent pid 1; child pid 2 with ppid 1 — from the child's page *)
  expect_console_contains "1\n" r;
  expect_console_contains "2\n" r;
  (* a stale time base after checkpoint-restore must be caught *)
  expect_console_contains "mono" r;
  check_bool "no STALE marker" false (contains (r.out ()) "STALE");
  check_bool "both picoprocesses published a page" true
    (Obs.counter_value tracer "liblinux.vdso.publish" >= 2);
  check_bool "fast path taken" true (Obs.counter_value tracer "liblinux.vdso.hit" >= 1);
  check_int "no invariant violations" 0 (Invariant.total (W.invariants r.w))

(* {1 vDSO page: a revoked page is never read}

   The page is revoked while the guest sleeps between two
   gettimeofday calls. The second call must miss, answer from the PAL
   time query (no earlier than the first value plus the sleep) and
   republish; the third reads the fresh page and never goes back. *)

let sleep_ns = 1_000_000

let vdso_stale_prog =
  prog ~name:"/bin/vdso_stale"
    (let_ "t0"
       (sys "gettimeofday" [])
       (seq
          [ sayn (str "sleeping");
            sys "nanosleep" [ int sleep_ns ];
            let_ "t1"
              (sys "gettimeofday" [])
              (let_ "t2"
                 (sys "gettimeofday" [])
                 (seq
                    [ sayn (str_of_int (v "t0") ^% str " " ^% str_of_int (v "t1") ^% str " "
                            ^% str_of_int (v "t2"));
                      die ])) ]))

let test_vdso_stale_page () =
  let proc = ref None in
  let revoke w s =
    if s = "sleeping\n" then
      K.after (W.kernel w) (T.ns (sleep_ns / 2)) (fun () ->
          K.vdso_page_invalidate (W.kernel w) ~host_pid:(W.pico (Option.get !proc)).K.pid)
  in
  let w = W.create ~seed:11 W.Graphene in
  Obs.enable (W.tracer w);
  Loader.install (W.kernel w).K.fs ~path:"/bin/vdso_stale" vdso_stale_prog;
  let agg = Buffer.create 64 in
  let p =
    W.start w ~exe:"/bin/vdso_stale" ~argv:[]
      ~console_hook:(fun s ->
        Buffer.add_string agg s;
        revoke w s)
      ()
  in
  proc := Some p;
  W.run w;
  check_bool "exited" true (W.exited p);
  let t0, t1, t2 =
    match String.split_on_char '\n' (Buffer.contents agg) with
    | [ "sleeping"; times; "" ] -> Scanf.sscanf times "%d %d %d" (fun a b c -> (a, b, c))
    | _ -> Alcotest.failf "console %S" (Buffer.contents agg)
  in
  check_bool "second read is after the sleep" true (t1 >= t0 + sleep_ns);
  check_bool "third read never goes back" true (t2 >= t1);
  check_int "one miss" 1 (Obs.counter_value (W.tracer w) "liblinux.vdso.miss");
  check_int "published at boot and after the miss" 2
    (Obs.counter_value (W.tracer w) "liblinux.vdso.publish")

let suite =
  [ case "completions in submission order" test_ordering;
    case "per-op errno, batch keeps draining" test_per_op_errno;
    case "crash-call fault: partial drain, run drains" test_partial_drain;
    case "Linux is the oracle, immediate batches never cross" test_linux_oracle;
    case "same seed, byte-identical" test_determinism;
    case "vDSO: fork child gets its own page" test_vdso_fork_identity;
    case "vDSO: a revoked page is never read" test_vdso_stale_page ]
