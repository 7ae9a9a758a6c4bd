type event = { time : Time.t; seq : int; fn : unit -> unit }

(* Binary min-heap ordered by (time, seq). [seq] breaks ties so that
   events scheduled earlier fire earlier, keeping runs deterministic. *)
module Heap = struct
  type t = { mutable arr : event array; mutable len : int }

  let dummy = { time = 0; seq = 0; fn = ignore }
  let create () = { arr = Array.make 64 dummy; len = 0 }

  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow h =
    let arr = Array.make (2 * Array.length h.arr) dummy in
    Array.blit h.arr 0 arr 0 h.len;
    h.arr <- arr

  let push h e =
    if h.len = Array.length h.arr then grow h;
    h.arr.(h.len) <- e;
    h.len <- h.len + 1;
    let rec up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if lt h.arr.(i) h.arr.(p) then begin
          let tmp = h.arr.(i) in
          h.arr.(i) <- h.arr.(p);
          h.arr.(p) <- tmp;
          up p
        end
      end
    in
    up (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- dummy;
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let m = if l < h.len && lt h.arr.(l) h.arr.(i) then l else i in
        let m = if r < h.len && lt h.arr.(r) h.arr.(m) then r else m in
        if m <> i then begin
          let tmp = h.arr.(i) in
          h.arr.(i) <- h.arr.(m);
          h.arr.(m) <- tmp;
          down m
        end
      in
      down 0;
      Some top
    end

  let peek h = if h.len = 0 then None else Some h.arr.(0)
end

type t = {
  mutable clock : Time.t;
  heap : Heap.t;
  mutable next_seq : int;
  mutable fired : int;
  mutable fire_hook : (Time.t -> int -> unit) option;
}

let create () =
  { clock = Time.zero;
    heap = Heap.create ();
    next_seq = 0;
    fired = 0;
    fire_hook = None }

let now e = e.clock

let schedule_at e time fn =
  if time < e.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d < now %d" time e.clock);
  Heap.push e.heap { time; seq = e.next_seq; fn };
  e.next_seq <- e.next_seq + 1

let schedule_after e d fn = schedule_at e (Time.add e.clock d) fn
let pending e = e.heap.Heap.len

let events_fired e = e.fired
let set_fire_hook e hook = e.fire_hook <- hook

let fire e ev =
  e.clock <- max e.clock ev.time;
  e.fired <- e.fired + 1;
  (match e.fire_hook with
  | Some hook -> hook e.clock e.heap.Heap.len
  | None -> ());
  ev.fn ()

let run_until_idle e =
  let rec loop () =
    match Heap.pop e.heap with
    | None -> ()
    | Some ev ->
      fire e ev;
      loop ()
  in
  loop ()

let run_until e t =
  let rec loop () =
    match Heap.peek e.heap with
    | Some ev when ev.time <= t ->
      (match Heap.pop e.heap with
      | Some ev -> fire e ev
      | None -> ());
      loop ()
    | _ -> ()
  in
  loop ();
  e.clock <- max e.clock t

let run_bounded e ~max_events =
  let rec loop budget =
    if budget = 0 then e.heap.Heap.len = 0
    else
      match Heap.pop e.heap with
      | None -> true
      | Some ev ->
        fire e ev;
        loop (budget - 1)
  in
  loop max_events

let advance e d = e.clock <- Time.add e.clock d
