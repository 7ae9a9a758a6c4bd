open Ast

module Env = Map.Make (String)

type control =
  | Eval of expr
  | Ret of value
  | Await  (** suspended on a syscall, waiting for [resume] *)

(* Frames never capture the environment except [KRestore]: every
   transition that extends the environment (Let, Call) pushes a
   KRestore of the previous one, so the environment in the state is
   always the right one when any other frame resumes.

   Every field of [state] and every constructor reachable from it
   ([control], [frame], [Ast.value], [Ast.program], the maps) must stay
   immutable: [of_bytes] may return the very state its parent just
   encoded, so two machines can share one. *)
type frame =
  | KRestore of int Env.t
  | KReturn of int Env.t
      (** function return: restore the caller's environment and pop the
          call stack (KRestore without the stack pop is for Let/Match
          scopes, which are not calls) *)
  | KLet of string * expr
  | KSet of string
  | KSeq of expr
  | KIf of expr * expr
  | KWhile of expr * expr  (** condition just evaluated *)
  | KWhileBody of expr * expr  (** body just evaluated *)
  | KAnd of expr
  | KOr of expr
  | KBinop1 of binop * expr
  | KBinop2 of binop * value
  | KUnop of unop
  | KCons1 of expr
  | KCons2 of value
  | KPair1 of expr
  | KPair2 of value
  | KMatch of expr * (string * string * expr)
  | KCall of string * value list * expr list
  | KSys of string * value list * expr list
  | KSpin
  | KResume of control  (** return from an injected signal handler *)

type state = {
  control : control;
  env : int Env.t;
  store : value Store.t;
  next_loc : int;
  kont : frame list;
  program : program;
  steps : int;
  stack : string list;
      (** guest call stack, innermost first; the synthetic root frame
          ["main"] is never popped. Maintained unconditionally (not
          gated on tracing) so traced and untraced runs execute — and
          checkpoint — identically. *)
}

type status =
  | Running of state
  | Compute of int * state
  | Syscall of string * Ast.value list * state
  | Finished of Ast.value
  | Fault of string

let start program ~argv =
  let store = Store.singleton 0 (Vlist (List.map (fun s -> Vstr s) argv)) in
  { control = Eval program.main;
    env = Env.singleton "argv" 0;
    store;
    next_loc = 1;
    kont = [];
    program;
    steps = 0;
    stack = [ "main" ] }

(* Split [s] on the (non-empty) separator string [sep]. *)
let split_on_string s sep =
  let seplen = String.length sep in
  if seplen = 0 then raise (Guest_fault "Split: empty separator");
  let n = String.length s in
  let rec loop start i acc =
    if i + seplen > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i seplen = sep then
      loop (i + seplen) (i + seplen) (String.sub s start (i - start) :: acc)
    else loop start (i + 1) acc
  in
  loop 0 0 []

(* [s] concatenated [n] times. The result is allocated once and filled
   by doubling blits — O(log n) memcpys instead of [n] appends — and
   its size is checked first, so an oversized request is a guest fault
   rather than a host exception or a host loop. *)
let repeat s n =
  if n < 0 then raise (Guest_fault "Repeat: negative count");
  let len = String.length s in
  if len > 0 && n > Sys.max_string_length / len then
    raise (Guest_fault "Repeat: result too large");
  let total = len * n in
  let buf = Bytes.create total in
  if total > 0 then begin
    Bytes.blit_string s 0 buf 0 len;
    let filled = ref len in
    while !filled < total do
      let k = min !filled (total - !filled) in
      Bytes.blit buf 0 buf !filled k;
      filled := !filled + k
    done
  end;
  Bytes.unsafe_to_string buf

let apply_binop_general op a b =
  let int_op f = Vint (f (as_int a) (as_int b)) in
  let cmp f = Vbool (f (compare a b) 0) in
  match op with
  | Add -> int_op ( + )
  | Sub -> int_op ( - )
  | Mul -> int_op ( * )
  | Div ->
    if as_int b = 0 then raise (Guest_fault "division by zero") else int_op ( / )
  | Mod ->
    if as_int b = 0 then raise (Guest_fault "modulo by zero") else int_op (fun x y -> x mod y)
  | Eq -> Vbool (equal_value a b)
  | Ne -> Vbool (not (equal_value a b))
  | Lt -> cmp ( < )
  | Le -> cmp ( <= )
  | Gt -> cmp ( > )
  | Ge -> cmp ( >= )
  | Concat -> Vstr (as_str a ^ as_str b)
  | Split -> Vlist (List.map (fun s -> Vstr s) (split_on_string (as_str a) (as_str b)))
  | Nth -> (
    let l = as_list a and i = as_int b in
    match List.nth_opt l i with
    | Some v -> v
    | None -> raise (Guest_fault (Printf.sprintf "Nth: index %d out of bounds" i)))
  | Starts_with ->
    let s = as_str a and p = as_str b in
    Vbool (String.length s >= String.length p && String.sub s 0 (String.length p) = p)
  | Repeat -> Vstr (repeat (as_str a) (as_int b))

(* Integer arithmetic and comparison, the bulk of every guest loop,
   skip the polymorphic [compare]/[=] calls. They still allocate a fresh
   result: physical sharing shows in a machine image (Marshal writes a
   shared block once), so returning one shared [Vbool true] would
   shrink images and move fork costs. *)
let apply_binop op a b =
  match (op, a, b) with
  | Add, Vint x, Vint y -> Vint (x + y)
  | Sub, Vint x, Vint y -> Vint (x - y)
  | Lt, Vint x, Vint y -> Vbool (x < y)
  | Le, Vint x, Vint y -> Vbool (x <= y)
  | Gt, Vint x, Vint y -> Vbool (x > y)
  | Ge, Vint x, Vint y -> Vbool (x >= y)
  | Eq, Vint x, Vint y -> Vbool (x = y)
  | Ne, Vint x, Vint y -> Vbool (x <> y)
  | _ -> apply_binop_general op a b

let apply_unop op v =
  match op with
  | Not -> Vbool (not (as_bool v))
  | Neg -> Vint (-as_int v)
  | Len -> (
    match v with
    | Vstr s -> Vint (String.length s)
    | Vlist l -> Vint (List.length l)
    | _ -> raise (Guest_fault "Len: expected string or list"))
  | Str_of_int -> Vstr (string_of_int (as_int v))
  | Int_of_str -> (
    match int_of_string_opt (String.trim (as_str v)) with
    | Some n -> Vint n
    | None -> raise (Guest_fault ("Int_of_str: malformed number " ^ as_str v)))
  | Head -> (
    match as_list v with
    | x :: _ -> x
    | [] -> raise (Guest_fault "Head: empty list"))
  | Tail -> (
    match as_list v with
    | _ :: t -> Vlist t
    | [] -> raise (Guest_fault "Tail: empty list"))
  | Fst -> ( match v with Vpair (a, _) -> a | _ -> raise (Guest_fault "Fst: expected pair"))
  | Snd -> ( match v with Vpair (_, b) -> b | _ -> raise (Guest_fault "Snd: expected pair"))
  | Is_empty -> Vbool (as_list v = [])

let find_func program name =
  match List.assoc_opt name program.funcs with
  | Some f -> f
  | None -> raise (Guest_fault ("undefined function " ^ name))

(* The state of a run that stopped with [control] in its registers. *)
let freeze program control env store next_loc kont steps stack =
  { control; env; store; next_loc; kont; program; steps; stack }

(* The machine proper. A run keeps its registers in the arguments of
   two mutually tail-recursive loops: [eval e] is control [Eval e],
   [ret v] is control [Ret v]. Each pass through either is one small
   step; a [state] record is built only where the run stops (fuel out,
   [Syscall], [Compute]). A transition's result depends only on the
   registers, never on where a run stopped, so a machine's image,
   physical sharing included, is the same at any fuel. *)
let rec eval p e env store next_loc kont steps stack fuel =
  if fuel = 0 then Running (freeze p (Eval e) env store next_loc kont steps stack)
  else
    let steps = steps + 1 and fuel = fuel - 1 in
    match e with
    | Const v -> ret p v env store next_loc kont steps stack fuel
    | Var x -> (
      match Env.find x env with
      | loc -> ret p (Store.find loc store) env store next_loc kont steps stack fuel
      | exception Not_found -> raise (Guest_fault ("unbound variable " ^ x)))
    | Let (x, e1, body) -> eval p e1 env store next_loc (KLet (x, body) :: kont) steps stack fuel
    | Set (x, e1) -> eval p e1 env store next_loc (KSet x :: kont) steps stack fuel
    | If (c, t, f) -> eval p c env store next_loc (KIf (t, f) :: kont) steps stack fuel
    | While (c, body) -> eval p c env store next_loc (KWhile (c, body) :: kont) steps stack fuel
    | Seq (e1, e2) -> eval p e1 env store next_loc (KSeq e2 :: kont) steps stack fuel
    | And (e1, e2) -> eval p e1 env store next_loc (KAnd e2 :: kont) steps stack fuel
    | Or (e1, e2) -> eval p e1 env store next_loc (KOr e2 :: kont) steps stack fuel
    | Binop (op, e1, e2) -> eval p e1 env store next_loc (KBinop1 (op, e2) :: kont) steps stack fuel
    | Unop (op, e1) -> eval p e1 env store next_loc (KUnop op :: kont) steps stack fuel
    | Cons (e1, e2) -> eval p e1 env store next_loc (KCons1 e2 :: kont) steps stack fuel
    | Pair (e1, e2) -> eval p e1 env store next_loc (KPair1 e2 :: kont) steps stack fuel
    | Match_list (e1, nil_case, cons_case) ->
      eval p e1 env store next_loc (KMatch (nil_case, cons_case) :: kont) steps stack fuel
    | Call (f, []) -> call p f [] env store next_loc kont steps stack fuel
    | Call (f, a :: rest) -> eval p a env store next_loc (KCall (f, [], rest) :: kont) steps stack fuel
    | Syscall (name, []) -> Syscall (name, [], freeze p Await env store next_loc kont steps stack)
    | Syscall (name, a :: rest) ->
      eval p a env store next_loc (KSys (name, [], rest) :: kont) steps stack fuel
    | Spin e1 -> eval p e1 env store next_loc (KSpin :: kont) steps stack fuel

and ret p v env store next_loc kont steps stack fuel =
  if fuel = 0 then Running (freeze p (Ret v) env store next_loc kont steps stack)
  else
    let steps = steps + 1 and fuel = fuel - 1 in
    match kont with
    | [] -> Finished v
    | frame :: kont -> (
      match frame with
      | KRestore env -> ret p v env store next_loc kont steps stack fuel
      | KReturn env ->
        let stack = match stack with _ :: (_ :: _ as r) -> r | s -> s in
        ret p v env store next_loc kont steps stack fuel
      | KLet (x, body) ->
        eval p body (Env.add x next_loc env) (Store.add next_loc v store) (next_loc + 1)
          (KRestore env :: kont) steps stack fuel
      | KSet x -> (
        match Env.find x env with
        | loc -> ret p Vunit env (Store.add loc v store) next_loc kont steps stack fuel
        | exception Not_found -> raise (Guest_fault ("assignment to unbound variable " ^ x)))
      | KSeq e2 -> eval p e2 env store next_loc kont steps stack fuel
      | KIf (t, f) -> eval p (if truthy v then t else f) env store next_loc kont steps stack fuel
      | KWhile (c, body) ->
        if truthy v then
          eval p body env store next_loc (KWhileBody (c, body) :: kont) steps stack fuel
        else ret p Vunit env store next_loc kont steps stack fuel
      | KWhileBody (c, body) ->
        eval p c env store next_loc (KWhile (c, body) :: kont) steps stack fuel
      | KAnd e2 ->
        if truthy v then eval p e2 env store next_loc kont steps stack fuel
        else ret p (Vbool false) env store next_loc kont steps stack fuel
      | KOr e2 ->
        if truthy v then ret p (Vbool true) env store next_loc kont steps stack fuel
        else eval p e2 env store next_loc kont steps stack fuel
      | KBinop1 (op, e2) -> eval p e2 env store next_loc (KBinop2 (op, v) :: kont) steps stack fuel
      | KBinop2 (op, a) -> ret p (apply_binop op a v) env store next_loc kont steps stack fuel
      | KUnop op -> ret p (apply_unop op v) env store next_loc kont steps stack fuel
      | KCons1 e2 -> eval p e2 env store next_loc (KCons2 v :: kont) steps stack fuel
      | KCons2 hd -> ret p (Vlist (hd :: as_list v)) env store next_loc kont steps stack fuel
      | KPair1 e2 -> eval p e2 env store next_loc (KPair2 v :: kont) steps stack fuel
      | KPair2 a -> ret p (Vpair (a, v)) env store next_loc kont steps stack fuel
      | KMatch (nil_case, (h, t, cons_case)) -> (
        match as_list v with
        | [] -> eval p nil_case env store next_loc kont steps stack fuel
        | hd :: tl ->
          eval p cons_case
            (Env.add t (next_loc + 1) (Env.add h next_loc env))
            (Store.add (next_loc + 1) (Vlist tl) (Store.add next_loc hd store))
            (next_loc + 2) (KRestore env :: kont) steps stack fuel)
      | KCall (f, done_, todo) -> (
        match todo with
        | [] -> call p f (List.rev (v :: done_)) env store next_loc kont steps stack fuel
        | a :: rest ->
          eval p a env store next_loc (KCall (f, v :: done_, rest) :: kont) steps stack fuel)
      | KSys (name, done_, todo) -> (
        match todo with
        | [] ->
          Syscall
            (name, List.rev (v :: done_), freeze p Await env store next_loc kont steps stack)
        | a :: rest ->
          eval p a env store next_loc (KSys (name, v :: done_, rest) :: kont) steps stack fuel)
      | KSpin ->
        let n = as_int v in
        if n < 0 then raise (Guest_fault "Spin: negative work")
        else Compute (n, freeze p (Ret Vunit) env store next_loc kont steps stack)
      | KResume saved -> control p saved env store next_loc kont steps stack fuel)

(* Enter program function [fname]: its parameters are bound in a fresh
   environment, and [KReturn] restores the caller's. *)
and call p fname args env store next_loc kont steps stack fuel =
  let func = find_func p fname in
  if List.length func.params <> List.length args then
    raise
      (Guest_fault
         (Printf.sprintf "%s expects %d arguments, got %d" fname (List.length func.params)
            (List.length args)));
  let callee_env, store, next_loc =
    List.fold_left2
      (fun (env, store, loc) param v -> (Env.add param loc env, Store.add loc v store, loc + 1))
      (Env.empty, store, next_loc) func.params args
  in
  eval p func.body callee_env store next_loc (KReturn env :: kont) steps (fname :: stack) fuel

and control p c env store next_loc kont steps stack fuel =
  match c with
  | Eval e -> eval p e env store next_loc kont steps stack fuel
  | Ret v -> ret p v env store next_loc kont steps stack fuel
  | Await ->
    if fuel = 0 then Running (freeze p Await env store next_loc kont steps stack)
    else invalid_arg "Interp.step: machine is awaiting a syscall result"

let run st ~fuel =
  try control st.program st.control st.env st.store st.next_loc st.kont st.steps st.stack fuel
  with Guest_fault msg -> Fault msg

let step st = run st ~fuel:1

let resume st v =
  (match st.control with
  | Await -> ()
  | _ -> invalid_arg "Interp.resume: machine is not awaiting a syscall result");
  { st with control = Ret v }

let has_func st name = List.mem_assoc name st.program.funcs

let interrupt st ~func ~args =
  if not (has_func st func) then
    raise (Guest_fault ("interrupt: no such handler " ^ func));
  { st with
    control = Eval (Call (func, List.map (fun v -> Const v) args));
    kont = KResume st.control :: st.kont }

let call_stack st = List.rev st.stack

let program_name st = st.program.name
let program_of_state st = st.program
let exec _st program ~argv = start program ~argv
let steps_executed st = st.steps
let encode st = Marshal.to_string st []

(* The last image [to_bytes] produced and the state it encodes. A fork
   child decodes the image its parent encoded moments before, so
   [of_bytes] hands back that state instead of unmarshalling it again.
   Sharing it between two machines is sound only because a [state] is
   immutable all the way down (see [type state]). *)
let last_image : (string * state) option ref = ref None

let to_bytes st =
  let image = encode st in
  last_image := Some (image, st);
  image

let of_bytes s =
  match !last_image with
  | Some (image, st) when String.equal s image -> st
  | _ -> (
    try (Marshal.from_string s 0 : state)
    with _ -> failwith "Interp.of_bytes: corrupt machine image")

let state_size st = String.length (encode st)
