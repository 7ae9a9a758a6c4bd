let allowed = Sysno.pal_syscalls

let traced =
  [ "open"; "stat"; "mkdir"; "rmdir"; "unlink"; "rename"; "chmod"; "socket";
    "bind"; "connect"; "execve"; "kill"; "tgkill" ]

let internal_only = List.filter (fun s -> not (List.mem s traced)) allowed

(* Each test is the two-instruction pattern [Jeq (k, 0, 1); Ret a]:
   on a match fall through to the Ret, otherwise skip it. All jumps are
   forward, which keeps the program verifier-clean. *)
let match_ret nr action = [ Prog.Jeq (nr, 0, 1); Prog.Ret action ]

let preamble ~pal_lo ~pal_hi =
  [ Prog.Ld_arch;
    Prog.Jeq (Prog.audit_arch_x86_64, 1, 0);
    Prog.Ret Prog.Kill;
    (* Any call site outside [pal_lo, pal_hi) is redirected to
       libLinux: static binaries compile in syscall instructions. *)
    Prog.Ld_pc;
    Prog.Jge (pal_lo, 1, 0);
    Prog.Ret Prog.Trap;
    Prog.Jgt (pal_hi - 1, 0, 1);
    Prog.Ret Prog.Trap ]

let build_graphene_filter ~pal_lo ~pal_hi =
  let tests =
    List.concat_map
      (fun name ->
        let nr = Sysno.number name in
        let action = if List.mem name traced then Prog.Trace else Prog.Allow in
        match_ret nr action)
      allowed
  in
  Prog.assemble (preamble ~pal_lo ~pal_hi @ [ Prog.Ld_nr ] @ tests @ [ Prog.Ret Prog.Kill ])

(* Every picoprocess installs the filter for the same PAL region, and a
   program is immutable, so one assembled copy per region is shared. *)
let graphene_filters : (int * int, Prog.t) Hashtbl.t = Hashtbl.create 1

let graphene_filter ~pal_lo ~pal_hi =
  if pal_hi <= pal_lo then invalid_arg "Seccomp.graphene_filter: empty PAL region";
  match Hashtbl.find_opt graphene_filters (pal_lo, pal_hi) with
  | Some prog -> prog
  | None ->
    let prog = build_graphene_filter ~pal_lo ~pal_hi in
    Hashtbl.add graphene_filters (pal_lo, pal_hi) prog;
    prog

(* The monitor needs far fewer calls: it reads manifests, answers
   upcalls over a pipe, and loads LSM policy. *)
let monitor_allowed =
  [ "read"; "write"; "open"; "close"; "fstat"; "poll"; "select"; "pipe2";
    "rt_sigaction"; "rt_sigreturn"; "mmap"; "munmap"; "exit"; "exit_group";
    "prctl"; "wait4"; "execve"; "vfork" ]

let monitor_filter () =
  let tests =
    List.concat_map (fun name -> match_ret (Sysno.number name) Prog.Allow) monitor_allowed
  in
  Prog.assemble ([ Prog.Ld_nr ] @ tests @ [ Prog.Ret Prog.Kill ])

let is_reachable name = List.mem name allowed
