open Ast

module Env = Map.Make (String)
module Store = Map.Make (Int)

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

let lookup st x =
  match Env.find_opt x st.env with
  | Some loc -> Store.find loc st.store
  | None -> raise (Guest_fault ("unbound variable " ^ x))

let bind st x v =
  let loc = st.next_loc in
  let env = Env.add x loc st.env in
  let store = Store.add loc v st.store in
  (env, store, loc + 1)

let assign st x v =
  match Env.find_opt x st.env with
  | Some loc -> Store.add loc v st.store
  | None -> raise (Guest_fault ("assignment to unbound variable " ^ x))

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

let apply_binop op a b =
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

let enter_call st fname arg_values =
  let func = find_func st.program fname in
  if List.length func.params <> List.length arg_values then
    raise
      (Guest_fault
         (Printf.sprintf "%s expects %d arguments, got %d" fname
            (List.length func.params) (List.length arg_values)));
  let saved_env = st.env in
  let env, store, next_loc =
    List.fold_left2
      (fun (env, store, next) param v ->
        let loc = next in
        (Env.add param loc env, Store.add loc v store, next + 1))
      (Env.empty, st.store, st.next_loc)
      func.params arg_values
  in
  { st with
    control = Eval func.body;
    env;
    store;
    next_loc;
    kont = KReturn saved_env :: st.kont;
    stack = fname :: st.stack }

let step_unsafe st =
  let st = { st with steps = st.steps + 1 } in
  match st.control with
  | Await -> invalid_arg "Interp.step: machine is awaiting a syscall result"
  | Eval e -> (
    match e with
    | Const v -> Running { st with control = Ret v }
    | Var x -> Running { st with control = Ret (lookup st x) }
    | Let (x, e1, body) ->
      Running { st with control = Eval e1; kont = KLet (x, body) :: st.kont }
    | Set (x, e1) -> Running { st with control = Eval e1; kont = KSet x :: st.kont }
    | If (c, t, f) -> Running { st with control = Eval c; kont = KIf (t, f) :: st.kont }
    | While (c, body) ->
      Running { st with control = Eval c; kont = KWhile (c, body) :: st.kont }
    | Seq (e1, e2) -> Running { st with control = Eval e1; kont = KSeq e2 :: st.kont }
    | And (e1, e2) -> Running { st with control = Eval e1; kont = KAnd e2 :: st.kont }
    | Or (e1, e2) -> Running { st with control = Eval e1; kont = KOr e2 :: st.kont }
    | Binop (op, e1, e2) ->
      Running { st with control = Eval e1; kont = KBinop1 (op, e2) :: st.kont }
    | Unop (op, e1) -> Running { st with control = Eval e1; kont = KUnop op :: st.kont }
    | Cons (e1, e2) -> Running { st with control = Eval e1; kont = KCons1 e2 :: st.kont }
    | Pair (e1, e2) -> Running { st with control = Eval e1; kont = KPair1 e2 :: st.kont }
    | Match_list (e1, nil_case, cons_case) ->
      Running { st with control = Eval e1; kont = KMatch (nil_case, cons_case) :: st.kont }
    | Call (f, []) -> Running (enter_call st f [])
    | Call (f, a :: rest) ->
      Running { st with control = Eval a; kont = KCall (f, [], rest) :: st.kont }
    | Syscall (name, []) -> Syscall (name, [], { st with control = Await })
    | Syscall (name, a :: rest) ->
      Running { st with control = Eval a; kont = KSys (name, [], rest) :: st.kont }
    | Spin e1 -> Running { st with control = Eval e1; kont = KSpin :: st.kont })
  | Ret v -> (
    match st.kont with
    | [] -> Finished v
    | frame :: kont -> (
      let st = { st with kont } in
      match frame with
      | KRestore env -> Running { st with env }
      | KReturn env ->
        Running
          { st with env; stack = (match st.stack with _ :: (_ :: _ as r) -> r | s -> s) }
      | KLet (x, body) ->
        let env, store, next_loc = bind st x v in
        Running
          { st with
            control = Eval body;
            env;
            store;
            next_loc;
            kont = KRestore st.env :: st.kont }
      | KSet x -> Running { st with control = Ret Vunit; store = assign st x v }
      | KSeq e2 -> Running { st with control = Eval e2 }
      | KIf (t, f) -> Running { st with control = Eval (if truthy v then t else f) }
      | KWhile (c, body) ->
        if truthy v then
          Running { st with control = Eval body; kont = KWhileBody (c, body) :: st.kont }
        else Running { st with control = Ret Vunit }
      | KWhileBody (c, body) ->
        Running { st with control = Eval c; kont = KWhile (c, body) :: st.kont }
      | KAnd e2 ->
        if truthy v then Running { st with control = Eval e2 }
        else Running { st with control = Ret (Vbool false) }
      | KOr e2 ->
        if truthy v then Running { st with control = Ret (Vbool true) }
        else Running { st with control = Eval e2 }
      | KBinop1 (op, e2) ->
        Running { st with control = Eval e2; kont = KBinop2 (op, v) :: st.kont }
      | KBinop2 (op, a) -> Running { st with control = Ret (apply_binop op a v) }
      | KUnop op -> Running { st with control = Ret (apply_unop op v) }
      | KCons1 e2 -> Running { st with control = Eval e2; kont = KCons2 v :: st.kont }
      | KCons2 hd -> Running { st with control = Ret (Vlist (hd :: as_list v)) }
      | KPair1 e2 -> Running { st with control = Eval e2; kont = KPair2 v :: st.kont }
      | KPair2 a -> Running { st with control = Ret (Vpair (a, v)) }
      | KMatch (nil_case, (h, t, cons_case)) -> (
        match as_list v with
        | [] -> Running { st with control = Eval nil_case }
        | hd :: tl ->
          let env, store, next_loc = bind st h hd in
          let st' = { st with env; store; next_loc } in
          let env, store, next_loc = bind st' t (Vlist tl) in
          Running
            { st' with
              control = Eval cons_case;
              env;
              store;
              next_loc;
              kont = KRestore st.env :: st.kont })
      | KCall (f, done_, todo) -> (
        match todo with
        | [] -> Running (enter_call st f (List.rev (v :: done_)))
        | a :: rest ->
          Running { st with control = Eval a; kont = KCall (f, v :: done_, rest) :: st.kont })
      | KSys (name, done_, todo) -> (
        match todo with
        | [] -> Syscall (name, List.rev (v :: done_), { st with control = Await })
        | a :: rest ->
          Running { st with control = Eval a; kont = KSys (name, v :: done_, rest) :: st.kont })
      | KSpin ->
        let n = as_int v in
        if n < 0 then raise (Guest_fault "Spin: negative work")
        else Compute (n, { st with control = Ret Vunit })
      | KResume saved -> Running { st with control = saved }))

let step st = try step_unsafe st with Guest_fault msg -> Fault msg

let run st ~fuel =
  let rec loop st fuel =
    if fuel = 0 then Running st
    else
      match step st with
      | Running st' -> loop st' (fuel - 1)
      | other -> other
  in
  loop st fuel

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
