(** Signal numbers and default dispositions (x86-64 Linux numbering). *)

let sighup = 1
let sigint = 2
let sigquit = 3
let sigill = 4
let sigabrt = 6
let sigfpe = 8
let sigkill = 9
let sigusr1 = 10
let sigsegv = 11
let sigusr2 = 12
let sigpipe = 13
let sigalrm = 14
let sigterm = 15
let sigchld = 17
let sigcont = 18
let sigstop = 19
let sigsys = 31
let sigrtmax = 64

type default_action = Terminate | Ignore | Stop | Continue

let default_action n =
  if n = sigchld then Ignore
  else if n = sigcont then Continue
  else if n = sigstop then Stop
  else Terminate

let catchable n = n <> sigkill && n <> sigstop

let name n =
  match n with
  | 1 -> "SIGHUP"
  | 2 -> "SIGINT"
  | 3 -> "SIGQUIT"
  | 4 -> "SIGILL"
  | 6 -> "SIGABRT"
  | 8 -> "SIGFPE"
  | 9 -> "SIGKILL"
  | 10 -> "SIGUSR1"
  | 11 -> "SIGSEGV"
  | 12 -> "SIGUSR2"
  | 13 -> "SIGPIPE"
  | 14 -> "SIGALRM"
  | 15 -> "SIGTERM"
  | 17 -> "SIGCHLD"
  | 18 -> "SIGCONT"
  | 19 -> "SIGSTOP"
  | 31 -> "SIGSYS"
  | n -> Printf.sprintf "SIG%d" n
