open Ast

type plan = {
  rexpr : Relalg.expr;
  lits : (string * Relalg.relation) list;  (* literal relations this segment needs *)
  subs : (string * sub) list;  (* xmlq sub-plans feeding this segment, in order *)
  arity : int;
}

and sub = Sfilter of plan * plan | Sxeq of plan * plan

let swap_compose = ref false

let col j = Printf.sprintf "c%d" j
let cols k = List.init k (fun j -> col (j + 1))

let rename_to_canonical attrs =
  List.mapi (fun j a -> (a, col (j + 1))) attrs

let compile (env : Typecheck.env) (e : expr) : (plan, string) result =
  match Typecheck.arity_of env e with
  | Error m -> Error m
  | Ok _ ->
      let ctr = ref 0 in
      let fresh prefix =
        incr ctr;
        Printf.sprintf "%%%s%d" prefix !ctr
      in
      let rec plan_of e =
        let lits = ref [] and subs = ref [] in
        let add_lit rel =
          let name = fresh "lit" in
          lits := (name, rel) :: !lits;
          name
        in
        let rec go e =
          match e with
          | Lit [] ->
              (* the empty unary relation *)
              let name = add_lit (Relalg.relation ~schema:(cols 1) []) in
              (Relalg.Rel name, 1)
          | Lit (t :: _ as ts) ->
              let k = List.length t in
              let name =
                add_lit
                  (Relalg.relation ~schema:(cols k)
                     (List.map Array.of_list ts))
              in
              (Relalg.Rel name, k)
          | Ref n -> (Relalg.Rel n, List.assoc n env)
          | Union (a, b) -> set_op (fun x y -> Relalg.Union (x, y)) a b
          | Diff (a, b) -> set_op (fun x y -> Relalg.Diff (x, y)) a b
          | Inter (a, b) -> set_op (fun x y -> Relalg.Inter (x, y)) a b
          | Compose (a, b) ->
              let a', _ = go a and b', _ = go b in
              let a', b' = if !swap_compose then (b', a') else (a', b') in
              let left = Relalg.Rename ([ (col 1, "l1"); (col 2, "l2") ], a') in
              let right = Relalg.Rename ([ (col 1, "r1"); (col 2, "r2") ], b') in
              let joined =
                Relalg.Select
                  ( Relalg.Eq (Relalg.Attr "l2", Relalg.Attr "r1"),
                    Relalg.Product (left, right) )
              in
              ( Relalg.Rename
                  ( [ ("l1", col 1); ("r2", col 2) ],
                    Relalg.Project ([ "l1"; "r2" ], joined) ),
                2 )
          | Comp (head, quals) -> comp head quals
          | Xfilter (a, b) ->
              let pa = plan_of a and pb = plan_of b in
              let name = fresh "x" in
              subs := (name, Sfilter (pa, pb)) :: !subs;
              (Relalg.Rel name, 1)
          | Xeq (a, b) ->
              let pa = plan_of a and pb = plan_of b in
              let name = fresh "x" in
              subs := (name, Sxeq (pa, pb)) :: !subs;
              (Relalg.Rel name, 1)
        and set_op mk a b =
          let a', k = go a in
          let b', _ = go b in
          (mk a' b', k)
        and comp head quals =
          (* generators fold into one product; pattern constants,
             repeated variables and guards become selections; the head
             projects and renames back to canonical columns. *)
          let bindings = ref [] (* var -> internal attr, first binding wins *) in
          let preds = ref [] (* in occurrence order *) in
          let product = ref None in
          let gen_i = ref 0 in
          List.iter
            (function
              | Gen (pats, e) ->
                  incr gen_i;
                  let i = !gen_i in
                  let e', k = go e in
                  let gattr j = Printf.sprintf "g%d_%d" i j in
                  let renamed =
                    Relalg.Rename
                      (List.init k (fun j -> (col (j + 1), gattr (j + 1))), e')
                  in
                  product :=
                    Some
                      (match !product with
                      | None -> renamed
                      | Some p -> Relalg.Product (p, renamed));
                  List.iteri
                    (fun j pat ->
                      let a = gattr (j + 1) in
                      match pat with
                      | Pwild -> ()
                      | Pconst c ->
                          preds :=
                            Relalg.Eq (Relalg.Attr a, Relalg.Const c) :: !preds
                      | Pvar v -> (
                          match List.assoc_opt v !bindings with
                          | Some a0 ->
                              preds :=
                                Relalg.Eq (Relalg.Attr a0, Relalg.Attr a)
                                :: !preds
                          | None -> bindings := (v, a) :: !bindings))
                    pats
              | Guard (a, c, b) ->
                  let operand = function
                    | Sconst s -> Relalg.Const s
                    | Svar v -> Relalg.Attr (List.assoc v !bindings)
                  in
                  let p =
                    match c with
                    | Ceq -> Relalg.Eq (operand a, operand b)
                    | Cne -> Relalg.Neq (operand a, operand b)
                    | Clt -> Relalg.Lt (operand a, operand b)
                  in
                  preds := p :: !preds)
            quals;
          let body = Option.get !product in
          let selected =
            List.fold_left
              (fun acc p -> Relalg.Select (p, acc))
              body (List.rev !preds)
          in
          (* constant head elements ride in as one-tuple product legs *)
          let with_consts, head_attrs =
            List.fold_left
              (fun (acc, attrs) (j, s) ->
                match s with
                | Svar v -> (acc, List.assoc v !bindings :: attrs)
                | Sconst c ->
                    let h = Printf.sprintf "h%d" j in
                    let name =
                      add_lit (Relalg.relation ~schema:[ h ] [ [| c |] ])
                    in
                    (Relalg.Product (acc, Relalg.Rel name), h :: attrs))
              (selected, [])
              (List.mapi (fun j s -> (j + 1, s)) head)
          in
          let head_attrs = List.rev head_attrs in
          ( Relalg.Rename
              ( rename_to_canonical head_attrs,
                Relalg.Project (head_attrs, with_consts) ),
            List.length head )
        in
        let rexpr, arity = go e in
        { rexpr; lits = List.rev !lits; subs = List.rev !subs; arity }
      in
      Ok (plan_of e)

(* the relalg operator nodes of one compiled segment *)
let rec node_count (e : Relalg.expr) =
  match e with
  | Relalg.Rel _ -> 1
  | Relalg.Select (_, e) | Relalg.Project (_, e) | Relalg.Rename (_, e) ->
      1 + node_count e
  | Relalg.Union (a, b) | Relalg.Diff (a, b) | Relalg.Inter (a, b)
  | Relalg.Product (a, b) | Relalg.Join (_, a, b) ->
      1 + node_count a + node_count b

let rec plan_nodes p =
  node_count p.rexpr
  + List.fold_left
      (fun acc (_, s) ->
        acc
        +
        match s with
        | Sfilter (a, b) | Sxeq (a, b) -> 1 + plan_nodes a + plan_nodes b)
      0 p.subs
