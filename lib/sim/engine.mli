(** Discrete-event simulation engine.

    The engine owns the virtual clock and a priority queue of pending
    events. Components schedule callbacks at absolute or relative
    virtual times; [run_until_idle] drains the queue in time order.

    Events scheduled for the same instant fire in scheduling order
    (FIFO), which keeps runs deterministic. *)

type t

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** [schedule_at e t f] runs [f] when the clock reaches [t]. Scheduling
    in the past raises [Invalid_argument]. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> unit
(** [schedule_after e d f] runs [f] after [d] more virtual time. *)

val pending : t -> int
(** Number of events still queued. *)

val run_until_idle : t -> unit
(** Fire events in time order until none remain. *)

val run_until : t -> Time.t -> unit
(** Fire events with timestamps [<= t], then advance the clock to [t]. *)

val run_bounded : t -> max_events:int -> bool
(** Fire at most [max_events] events. Returns [true] if the queue
    drained, [false] if the budget was exhausted first — a watchdog for
    tests that must terminate even if a component livelocks. *)

val advance : t -> Time.t -> unit
(** [advance e d] moves the clock forward by [d] without firing events
    scheduled in the skipped window (they fire on the next run). Used by
    sequential drivers that account work outside the event queue. *)

(** {1 Instrumentation} *)

val events_fired : t -> int
(** Lifetime count of events dispatched. *)

val set_fire_hook : t -> (Time.t -> int -> unit) option -> unit
(** Observe each dispatch: called with the clock and the number of
    events still queued, just before the event's callback runs. Purely
    observational — the hook must not perturb the simulation. The
    tracing layer installs this; [None] (the default) costs one branch
    per event. *)
