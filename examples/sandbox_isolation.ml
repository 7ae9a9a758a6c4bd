(** Security isolation walkthrough (paper §3 and §6.6).

    Launches two mutually-distrusting applications through the
    reference monitor, each with its own manifest, and demonstrates
    that the attacks of §6.6 fail: cross-sandbox signals, file access
    outside the manifest, raw host system calls, and /proc snooping.

    Run with: dune exec examples/sandbox_isolation.exe *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Pal = Graphene_pal.Pal
module Lx = Graphene_liblinux.Lx
module Monitor = Graphene_refmon.Monitor
module Manifest = Graphene_refmon.Manifest
module Loader = Graphene_liblinux.Loader
open Graphene_guest.Builder

let sayn who e = sys "print" [ str (who ^ ": ") ^% e ^% str "\n" ]

(* The attacker probes everything it should not be able to touch. *)
let attacker =
  prog ~name:"/bin/attacker"
    (seq
       [ sys "nanosleep" [ int 2_000_000 ];
         sayn "attacker" (str "my pid is " ^% str_of_int (sys "getpid" []));
         sayn "attacker" (str "kill(2, SIGKILL) -> " ^% str_of_int (sys "kill" [ int 2; int 9 ]));
         sayn "attacker" (str "open /home/victim/secret -> "
                          ^% str_of_int (sys "open" [ str "/home/victim/secret"; str "r" ]));
         sayn "attacker" (str "open /proc/2/status -> "
                          ^% str_of_int (sys "open" [ str "/proc/2/status"; str "r" ]));
         sys "exit" [ int 0 ] ])

(* The victim quietly runs two processes with a secret on disk. *)
let victim =
  prog ~name:"/bin/victim"
    (let_ "pid" (sys "fork" [])
       (if_ (v "pid" =% int 0)
          (seq [ sys "nanosleep" [ int 8_000_000 ]; sys "exit" [ int 0 ] ])
          (seq
             [ sys "wait" [];
               sayn "victim" (str "finished undisturbed");
               sys "exit" [ int 0 ] ])))

let manifest_of_lines lines =
  match Manifest.parse (String.concat "\n" lines ^ "\n") with
  | Ok m -> m
  | Error e -> failwith e

let () =
  print_endline "== sandbox isolation (the s6.6 experiments) ==\n";
  let w = W.create W.Graphene_rm in
  let kernel = W.kernel w in
  Graphene_host.Vfs.write_string kernel.K.fs "/home/victim/secret" "the victim's data";
  Loader.install kernel.K.fs ~path:"/bin/attacker" attacker;
  Loader.install kernel.K.fs ~path:"/bin/victim" victim;
  let attacker_manifest =
    manifest_of_lines [ "fs.allow r /bin"; "fs.allow rw /tmp/attacker"; "fs.exec /bin" ]
  in
  let victim_manifest =
    manifest_of_lines [ "fs.allow r /bin"; "fs.allow rw /home/victim"; "fs.exec /bin" ]
  in
  let pa =
    W.start w ~manifest:attacker_manifest ~console_hook:print_string ~exe:"/bin/attacker"
      ~argv:[] ()
  in
  let pv =
    W.start w ~manifest:victim_manifest ~console_hook:print_string ~exe:"/bin/victim" ~argv:[] ()
  in
  W.run w;
  Printf.printf "\nattacker exit=%d, victim exit=%d\n" (W.exit_code pa) (W.exit_code pv);
  (* raw inline-assembly syscalls (attack (i)): the seccomp filter
     redirects them into libLinux; they never reach the host *)
  let lx = match pa with W.Pl lx -> lx | W.Pn _ -> assert false in
  let probe name =
    match Pal.raw_syscall (Lx.pal lx) ~pc:0x4000_0000 ~name ~args:[||] with
    | Pal.Raw_redirected -> "redirected to libLinux (SIGSYS)"
    | Pal.Raw_allowed -> "ALLOWED (bad!)"
    | Pal.Raw_traced -> "sent to reference monitor"
    | Pal.Raw_killed -> "picoprocess killed"
  in
  Printf.printf "\nraw syscall probes from the application's code region:\n";
  List.iter
    (fun name -> Printf.printf "  %-8s -> %s\n" name (probe name))
    [ "vfork"; "execve"; "kill"; "open"; "ptrace" ];
  (* the reference monitor's audit trail *)
  (match W.monitor w with
  | Some mon ->
    Printf.printf "\nreference monitor audit log:\n";
    List.iter
      (fun v ->
        Printf.printf "  denied: picoprocess %d (sandbox %d): %s\n" v.Monitor.v_pid
          v.Monitor.v_sandbox v.Monitor.v_what)
      (Monitor.violations mon)
  | None -> ())
