(* Binary min-heap ordered by (time, seq), kept as three parallel
   arrays so that queuing an event allocates nothing beyond its
   callback. [seq] breaks ties so that events scheduled earlier fire
   earlier, keeping runs deterministic. Sifts move a hole instead of
   swapping, and a vacated callback slot is cleared so the heap never
   keeps a fired closure alive. *)
module Heap = struct
  type t = {
    mutable times : Time.t array;
    mutable seqs : int array;
    mutable fns : (unit -> unit) array;
    mutable len : int;
  }

  let create () =
    { times = Array.make 64 0; seqs = Array.make 64 0; fns = Array.make 64 ignore; len = 0 }

  let lt (t1 : Time.t) (s1 : int) (t2 : Time.t) (s2 : int) = t1 < t2 || (t1 = t2 && s1 < s2)

  let grow h =
    let extend a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 h.len;
      b
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.fns <- extend h.fns ignore

  let set h i time seq fn =
    h.times.(i) <- time;
    h.seqs.(i) <- seq;
    h.fns.(i) <- fn

  let move h ~src ~dst = set h dst h.times.(src) h.seqs.(src) h.fns.(src)

  (* Place (time, seq, fn) at or above the hole [i]. *)
  let rec up h i time seq fn =
    let p = (i - 1) / 2 in
    if i > 0 && lt time seq h.times.(p) h.seqs.(p) then begin
      move h ~src:p ~dst:i;
      up h p time seq fn
    end
    else set h i time seq fn

  (* Place (time, seq, fn) at or below the hole [i]. *)
  let rec down h i time seq fn =
    let l = (2 * i) + 1 in
    if l >= h.len then set h i time seq fn
    else begin
      let r = l + 1 in
      let c = if r < h.len && lt h.times.(r) h.seqs.(r) h.times.(l) h.seqs.(l) then r else l in
      if lt h.times.(c) h.seqs.(c) time seq then begin
        move h ~src:c ~dst:i;
        down h c time seq fn
      end
      else set h i time seq fn
    end

  let push h time seq fn =
    if h.len = Array.length h.times then grow h;
    h.len <- h.len + 1;
    up h (h.len - 1) time seq fn

  (* Drop the root, which the caller has already read. *)
  let remove_top h =
    let last = h.len - 1 in
    h.len <- last;
    let time = h.times.(last) and seq = h.seqs.(last) and fn = h.fns.(last) in
    h.fns.(last) <- ignore;
    if last > 0 then down h 0 time seq fn
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
  Heap.push e.heap time e.next_seq fn;
  e.next_seq <- e.next_seq + 1

let schedule_after e d fn = schedule_at e (Time.add e.clock d) fn
let pending e = e.heap.Heap.len

let events_fired e = e.fired
let set_fire_hook e hook = e.fire_hook <- hook

(* Pop and run the earliest event; the heap must be non-empty. *)
let fire e =
  let h = e.heap in
  let time = h.Heap.times.(0) and fn = h.Heap.fns.(0) in
  Heap.remove_top h;
  if time > e.clock then e.clock <- time;
  e.fired <- e.fired + 1;
  (match e.fire_hook with
  | Some hook -> hook e.clock h.Heap.len
  | None -> ());
  fn ()

let run_until_idle e =
  while e.heap.Heap.len > 0 do
    fire e
  done

let run_until e t =
  while e.heap.Heap.len > 0 && e.heap.Heap.times.(0) <= t do
    fire e
  done;
  if t > e.clock then e.clock <- t

let run_bounded e ~max_events =
  let rec loop budget =
    if budget = 0 || e.heap.Heap.len = 0 then e.heap.Heap.len = 0
    else begin
      fire e;
      loop (budget - 1)
    end
  in
  loop max_events

let advance e d = e.clock <- Time.add e.clock d
