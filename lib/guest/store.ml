(* The node layout, [create], [bal] and the [d == data] shortcut are
   those of the standard library's [Map] (OCaml 5.1): the marshalled
   bytes of a store must not depend on which of the two built it. *)

type 'a t = Empty | Node of { l : 'a t; v : int; d : 'a; r : 'a t; h : int }

let height = function Empty -> 0 | Node { h; _ } -> h

let create l x d r =
  let hl = height l and hr = height r in
  Node { l; v = x; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let singleton x d = Node { l = Empty; v = x; d; r = Empty; h = 1 }

let bal l x d r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then begin
    match l with
    | Empty -> invalid_arg "Store.bal"
    | Node { l = ll; v = lv; d = ld; r = lr; _ } -> (
      if height ll >= height lr then create ll lv ld (create lr x d r)
      else
        match lr with
        | Empty -> invalid_arg "Store.bal"
        | Node { l = lrl; v = lrv; d = lrd; r = lrr; _ } ->
          create (create ll lv ld lrl) lrv lrd (create lrr x d r))
  end
  else if hr > hl + 2 then begin
    match r with
    | Empty -> invalid_arg "Store.bal"
    | Node { l = rl; v = rv; d = rd; r = rr; _ } -> (
      if height rr >= height rl then create (create l x d rl) rv rd rr
      else
        match rl with
        | Empty -> invalid_arg "Store.bal"
        | Node { l = rll; v = rlv; d = rld; r = rlr; _ } ->
          create (create l x d rll) rlv rld (create rlr rv rd rr))
  end
  else Node { l; v = x; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let rec add (x : int) data = function
  | Empty -> Node { l = Empty; v = x; d = data; r = Empty; h = 1 }
  | Node { l; v; d; r; h } as m ->
    if x = v then if d == data then m else Node { l; v = x; d = data; r; h }
    else if x < v then
      let ll = add x data l in
      if l == ll then m else bal ll v d r
    else
      let rr = add x data r in
      if r == rr then m else bal l v d rr

let rec find (x : int) = function
  | Empty -> raise Not_found
  | Node { l; v; d; r; _ } -> if x = v then d else find x (if x < v then l else r)
