(** Signal numbers and default dispositions (x86-64 Linux numbering). *)

val sighup : int
val sigint : int
val sigquit : int
val sigill : int
val sigabrt : int
val sigfpe : int
val sigkill : int
val sigusr1 : int
val sigsegv : int
val sigusr2 : int
val sigpipe : int
val sigalrm : int
val sigterm : int
val sigchld : int
val sigcont : int
val sigstop : int
val sigsys : int

val sigrtmax : int
(** 64: the highest signal number. *)

type default_action = Terminate | Ignore | Stop | Continue

val default_action : int -> default_action
(** What an unhandled signal does to the process, per signal(7):
    SIGCHLD is ignored, SIGCONT continues, SIGSTOP stops, everything
    else terminates. *)

val catchable : int -> bool
(** [false] only for SIGKILL and SIGSTOP. *)

val name : int -> string
(** ["SIGTERM"], ["SIGKILL"], …; ["SIG<n>"] for unknown numbers. *)
