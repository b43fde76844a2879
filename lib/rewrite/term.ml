type t = App of string * t list

let app op args = App (op, args)
let atom op = App (op, [])

let rec size (App (_, args)) = List.fold_left (fun acc a -> acc + size a) 1 args

let rec depth (App (_, args)) = 1 + List.fold_left (fun acc a -> max acc (depth a)) 0 args

let rec to_string (App (op, args)) =
  match args with
  | [] -> op
  | _ -> Printf.sprintf "(%s %s)" op (String.concat " " (List.map to_string args))

let equal = ( = )

type pattern = Var of string | Papp of string * pattern list

let pvar v = Var v
let papp op args = Papp (op, args)
let patom op = Papp (op, [])

let rec pattern_to_string = function
  | Var v -> "?" ^ v
  | Papp (op, []) -> op
  | Papp (op, args) ->
      Printf.sprintf "(%s %s)" op (String.concat " " (List.map pattern_to_string args))

let pattern_vars p =
  let seen = Hashtbl.create 8 in
  let order = Vec.create () in
  let rec walk = function
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          Vec.push order v
        end
    | Papp (_, args) -> List.iter walk args
  in
  walk p;
  Vec.to_list order

type rule = { rule_name : string; lhs : pattern; rhs : pattern }

let rule ~name lhs rhs =
  let bound = pattern_vars lhs in
  List.iter
    (fun v ->
      if not (List.mem v bound) then
        invalid_arg (Printf.sprintf "Term.rule %s: rhs variable ?%s unbound by lhs" name v))
    (pattern_vars rhs);
  { rule_name = name; lhs; rhs }

let bidirectional ~name lhs rhs =
  let fwd = rule ~name lhs rhs in
  let lhs_vars = pattern_vars lhs and rhs_vars = pattern_vars rhs in
  if List.for_all (fun v -> List.mem v rhs_vars) lhs_vars then
    [ fwd; rule ~name:(name ^ "-rev") rhs lhs ]
  else [ fwd ]
