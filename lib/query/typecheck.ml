open Ast

type env = (string * int) list (* relation name -> arity *)

let rec arity_of (env : env) (e : expr) : (int, string) result =
  match e with
  | Lit [] -> Ok 1
  | Lit (t :: ts) ->
      let k = List.length t in
      if k = 0 then Error "empty tuple in relation literal"
      else if List.exists (fun t' -> List.length t' <> k) ts then
        Error "relation literal mixes tuple arities"
      else Ok k
  | Ref n -> (
      match List.assoc_opt n env with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "unknown relation %S" n))
  | Union (a, b) -> same_arity env "+" a b
  | Diff (a, b) -> same_arity env "-" a b
  | Inter (a, b) -> same_arity env "&" a b
  | Compose (a, b) -> (
      match (arity_of env a, arity_of env b) with
      | Ok 2, Ok 2 -> Ok 2
      | Ok k, Ok 2 | Ok 2, Ok k ->
          Error (Printf.sprintf "composition needs binary relations, got arity %d" k)
      | Ok k, Ok _ ->
          Error (Printf.sprintf "composition needs binary relations, got arity %d" k)
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  | Xfilter (a, b) | Xeq (a, b) -> (
      match (arity_of env a, arity_of env b) with
      | Ok 1, Ok 1 -> Ok 1
      | Ok k, Ok 1 | Ok 1, Ok k | Ok k, Ok _ ->
          Error
            (Printf.sprintf "document builtins need unary relations, got arity %d" k)
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  | Comp (head, quals) -> comp_arity env head quals

and same_arity env op a b =
  match (arity_of env a, arity_of env b) with
  | Ok ka, Ok kb when ka = kb -> Ok ka
  | Ok ka, Ok kb ->
      Error (Printf.sprintf "'%s' needs equal arities, got %d and %d" op ka kb)
  | (Error _ as e), _ | _, (Error _ as e) -> e

and comp_arity env head quals =
  if head = [] then Error "empty comprehension head"
  else
    let rec walk bound gens = function
      | [] -> Ok (bound, gens)
      | Gen (pats, e) :: rest -> (
          if pats = [] then Error "empty generator pattern"
          else
            match arity_of env e with
            | Error _ as err -> err_pair err
            | Ok k when k <> List.length pats ->
                Error
                  (Printf.sprintf
                     "generator pattern has %d elements but relation has arity %d"
                     (List.length pats) k)
            | Ok _ ->
                let bound =
                  List.fold_left
                    (fun acc -> function
                      | Pvar v -> if List.mem v acc then acc else v :: acc
                      | Pwild | Pconst _ -> acc)
                    bound pats
                in
                walk bound (gens + 1) rest)
      | Guard (a, _, b) :: rest -> (
          match check_scalar bound a with
          | Some m -> Error m
          | None -> (
              match check_scalar bound b with
              | Some m -> Error m
              | None -> walk bound gens rest))
    and err_pair = function Error m -> Error m | Ok _ -> assert false
    and check_scalar bound = function
      | Sconst _ -> None
      | Svar v ->
          if List.mem v bound then None
          else Some (Printf.sprintf "variable %S used before it is bound" v)
    in
    match walk [] 0 quals with
    | Error m -> Error m
    | Ok (_, 0) -> Error "comprehension needs at least one generator"
    | Ok (bound, _) ->
        let rec head_ok seen = function
          | [] -> Ok (List.length head)
          | Sconst _ :: rest -> head_ok seen rest
          | Svar v :: rest ->
              if not (List.mem v bound) then
                Error (Printf.sprintf "head variable %S is not bound" v)
              else if List.mem v seen then
                Error (Printf.sprintf "head variable %S repeated" v)
              else head_ok (v :: seen) rest
        in
        head_ok [] head
