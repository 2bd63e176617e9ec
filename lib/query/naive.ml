open Ast

type value = string list list (* sorted, distinct; row length = arity *)

type env = (string * (int * value)) list

let norm rows = List.sort_uniq compare rows

let lookup env n =
  match List.assoc_opt n env with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Query.Naive: unknown relation %S" n)

let rec eval (env : env) (e : expr) : int * value =
  match e with
  | Lit [] -> (1, [])
  | Lit (t :: _ as ts) -> (List.length t, norm ts)
  | Ref n -> lookup env n
  | Union (a, b) ->
      let k, ra = eval env a in
      let _, rb = eval env b in
      (k, norm (ra @ rb))
  | Diff (a, b) ->
      let k, ra = eval env a in
      let _, rb = eval env b in
      (k, List.filter (fun r -> not (List.mem r rb)) ra)
  | Inter (a, b) ->
      let k, ra = eval env a in
      let _, rb = eval env b in
      (k, List.filter (fun r -> List.mem r rb) ra)
  | Compose (a, b) ->
      let _, ra = eval env a in
      let _, rb = eval env b in
      ( 2,
        norm
          (List.concat_map
             (fun r ->
               match r with
               | [ x; y ] ->
                   List.filter_map
                     (function
                       | [ z; w ] when String.equal y z -> Some [ x; w ]
                       | _ -> None)
                     rb
               | _ -> invalid_arg "Query.Naive: composition of non-binary rows")
             ra) )
  | Comp (head, quals) ->
      let envs =
        List.fold_left
          (fun envs q ->
            match q with
            | Gen (pats, e) ->
                let _, rows = eval env e in
                List.concat_map
                  (fun b ->
                    List.filter_map (fun row -> match_pats b pats row) rows)
                  envs
            | Guard (a, c, b) ->
                List.filter
                  (fun bind ->
                    let va = scalar_value bind a and vb = scalar_value bind b in
                    match c with
                    | Ceq -> String.equal va vb
                    | Cne -> not (String.equal va vb)
                    | Clt -> String.compare va vb < 0)
                  envs)
          [ [] ] quals
      in
      ( List.length head,
        norm (List.map (fun b -> List.map (scalar_value b) head) envs) )
  | Xfilter (a, b) ->
      let _, ra = eval env a in
      let _, rb = eval env b in
      (1, if List.exists (fun r -> not (List.mem r rb)) ra then [ [ "true" ] ] else [])
  | Xeq (a, b) ->
      let _, ra = eval env a in
      let _, rb = eval env b in
      (1, if ra = rb then [ [ "true" ] ] else [])

and match_pats bind pats row =
  match (pats, row) with
  | [], [] -> Some bind
  | pat :: pats, v :: row -> (
      match pat with
      | Pwild -> match_pats bind pats row
      | Pconst c -> if String.equal c v then match_pats bind pats row else None
      | Pvar x -> (
          match List.assoc_opt x bind with
          | Some v0 ->
              if String.equal v0 v then match_pats bind pats row else None
          | None -> match_pats ((x, v) :: bind) pats row))
  | _ -> invalid_arg "Query.Naive: pattern/row arity mismatch"

and scalar_value bind = function
  | Sconst c -> c
  | Svar v -> (
      match List.assoc_opt v bind with
      | Some x -> x
      | None -> invalid_arg (Printf.sprintf "Query.Naive: unbound variable %S" v))
