(* A hash map plus a queue of insertion slots. The queue is never
   compacted: [remove] leaves a slot behind, and eviction pops slots
   until it finds a key that is still present (fifo_cache.mli states
   the rule this implies). *)

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t;  (** insertion slots, oldest first *)
}

(* 32 initial buckets: fold order depends on the bucket count, and the
   coordination table's fork export replays its leases in fold order. *)
let create ~capacity =
  { capacity = max 1 capacity; tbl = Hashtbl.create 32; order = Queue.create () }

let find t k = Hashtbl.find_opt t.tbl k
let mem t k = Hashtbl.mem t.tbl k
let length t = Hashtbl.length t.tbl
let fold f t acc = Hashtbl.fold f t.tbl acc

let rec evict t =
  match Queue.take_opt t.order with
  | None -> None
  | Some k when Hashtbl.mem t.tbl k ->
    Hashtbl.remove t.tbl k;
    Some k
  | Some _ -> evict t

let add t k v =
  let evicted =
    if Hashtbl.mem t.tbl k then None
    else begin
      let e = if Hashtbl.length t.tbl >= t.capacity then evict t else None in
      Queue.push k t.order;
      e
    end
  in
  Hashtbl.replace t.tbl k v;
  evicted

let remove t k =
  if Hashtbl.mem t.tbl k then begin
    Hashtbl.remove t.tbl k;
    true
  end
  else false

let clear t =
  Hashtbl.reset t.tbl;
  Queue.clear t.order

let drop_matching t f =
  let keys =
    Hashtbl.fold (fun k v acc -> if f k v then k :: acc else acc) t.tbl [] |> List.sort compare
  in
  List.iter (Hashtbl.remove t.tbl) keys;
  keys
