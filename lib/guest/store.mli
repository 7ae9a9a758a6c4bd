(** The guest store: an immutable map from locations to values.

    It is [Map.Make (Int)] with the key comparison written inline, so a
    lookup or update makes no indirect call per node. Its nodes have
    [Map]'s exact layout ([Empty | Node {l; v; d; r; h}]), built by the
    same balancing code, so a machine image that contains a store
    marshals to the same bytes as one built with [Map.Make (Int)]. *)

type 'a t

val singleton : int -> 'a -> 'a t

val add : int -> 'a -> 'a t -> 'a t
(** [add k d m] binds [k] to [d]. Replacing a binding with the
    physically same value returns [m] itself, as [Map.add] does. *)

val find : int -> 'a t -> 'a
(** Raises [Not_found] if [k] is unbound. *)
