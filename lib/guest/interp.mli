(** CEK interpreter for the guest language.

    The machine state is pure data (no OCaml closures), so the
    personality layer can copy it (fork), serialize it (checkpoint,
    migration — see {!state_size} and {!to_bytes}/{!of_bytes}), replace
    it (exec) and inject calls into it (signal delivery via
    {!interrupt}).

    The interpreter knows nothing about the OS: when the program
    performs a [Syscall], the machine suspends and reports the request;
    whoever drives the machine performs the service and {!resume}s it
    with the result. *)

type state

type status =
  | Running of state  (** one small step was taken *)
  | Compute of int * state
      (** the program executed [Spin n]: charge [n] abstract compute
          units of virtual time, then continue *)
  | Syscall of string * Ast.value list * state
      (** suspended on a system call; continue with {!resume} *)
  | Finished of Ast.value  (** [main] returned *)
  | Fault of string  (** dynamic error: the guest equivalent of SIGSEGV *)

val start : Ast.program -> argv:string list -> state
(** A machine about to evaluate the program's [main] with ["argv"]
    bound to the argument strings. *)

val step : state -> status

val run : state -> fuel:int -> status
(** Take up to [fuel] small steps, stopping early on any non-[Running]
    status. Returns [Running s] if the fuel ran out. *)

val resume : state -> Ast.value -> state
(** Provide the result of the pending system call. *)

val interrupt : state -> func:string -> args:Ast.value list -> state
(** Arrange for the named program function to run next (a signal
    handler); when it returns, the machine continues exactly where it
    was. The function must exist in the program. Raises
    [Ast.Guest_fault] otherwise. *)

val has_func : state -> string -> bool

val call_stack : state -> string list
(** The guest function call stack, outermost first, starting with the
    synthetic root frame ["main"]; function entries are pushed by
    [Call] (including handlers injected via {!interrupt}) and popped on
    return. The stack is maintained unconditionally, so sampling it
    never perturbs execution. *)

val program_name : state -> string

val program_of_state : state -> Ast.program
(** The program image the machine is executing (clone() reuses it to
    start sibling threads at a named function). *)

val exec : state -> Ast.program -> argv:string list -> state
(** Replace the process image, keeping nothing of the old state. *)

val steps_executed : state -> int
(** Small steps taken since [start] (survives [resume], reset by
    [exec]); used for CPU accounting. *)

val to_bytes : state -> string
(** Serialized image of the machine — the payload of a checkpoint. The
    last image produced is remembered, together with its state, for
    {!of_bytes}. *)

val of_bytes : string -> state
(** Inverse of {!to_bytes}. Raises [Failure] on a corrupt image. An
    image equal to the last one {!to_bytes} produced (a fork child
    restoring its parent's checkpoint) decodes to that very state,
    without unmarshalling. This is sound because a [state] is
    immutable: every field and every value constructor reachable from
    it must stay so. *)

val state_size : state -> int
(** [String.length (to_bytes st)], without touching the image
    {!of_bytes} remembers. *)
