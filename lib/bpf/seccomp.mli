(** The Graphene seccomp filter (paper §3.1).

    The filter implements the paper's three-way policy:

    - a system call whose return PC lies outside the PAL's code region
      is redirected to libLinux with SIGSYS ([Trap]) — this is the
      static-binary compatibility path;
    - a PAL-issued call with external effects (paths, sockets, signals,
      process creation) is forwarded to the reference monitor
      ([Trace]);
    - a PAL-issued call from the allowed set of 50 is permitted
      ([Allow]); anything else kills the picoprocess. *)

val allowed : string list
(** The 50 host system calls the PAL issues ({!Sysno.pal_syscalls}). *)

val traced : string list
(** The subset of {!allowed} with effects outside the picoprocess's
    address space, mediated by the reference monitor. *)

val internal_only : string list
(** [allowed] minus [traced]. *)

val graphene_filter : pal_lo:int -> pal_hi:int -> Prog.t
(** Filter for an application picoprocess whose PAL code occupies
    [\[pal_lo, pal_hi)]. Assembled once per region and shared: a
    program is immutable. *)

val monitor_filter : unit -> Prog.t
(** The reduced filter the reference monitor runs itself under ("to
    reduce the impact of bugs in the reference monitor"). *)

val is_reachable : string -> bool
(** [is_reachable name]: can an application on Graphene cause the host
    kernel to execute syscall [name] at all (through any filter
    outcome other than Kill/Trap)? This is the question the Table 8
    vulnerability analysis asks. Unknown names are unreachable. *)
