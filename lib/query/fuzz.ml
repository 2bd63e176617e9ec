open Ast

(* ------------------------------------------------------------------ *)
(* Case fingerprints: FNV-1a 64 *)

module H = Util.Hash

(* a string field, then a 0x1f field separator *)
let fnv_field h s = H.fnv_byte (H.fnv_string h s) 0x1f

(* ------------------------------------------------------------------ *)
(* Generation *)

let atom_pool =
  [| "0"; "1"; "00"; "01"; "10"; "11"; "a"; "b"; "ab"; "ba"; "2"; "7" |]

let base_rels = [ ("r1", 1); ("r2", 1); ("r3", 2); ("r4", 2) ]

let gen_atom rng = atom_pool.(Random.State.int rng (Array.length atom_pool))

let gen_rows rng ~arity ~max_rows =
  List.init (Random.State.int rng (max_rows + 1)) (fun _ ->
      List.init arity (fun _ -> gen_atom rng))

let gen_env rng : Naive.env =
  List.map
    (fun (name, arity) ->
      (name, (arity, List.sort_uniq compare (gen_rows rng ~arity ~max_rows:8))))
    base_rels

(* Fresh comprehension-variable supply per generated expression. *)
type gctx = { rng : Random.State.t; mutable vars : int }

let fresh_var g =
  g.vars <- g.vars + 1;
  Printf.sprintf "v%d" g.vars

(* [wb] budgets the product width — the relation-valued leaves under
   products, which bound an intermediate stream at N^wb — so every
   generated plan stays inside relalg_node_spec's constant. *)
let rec gen_expr g ~arity ~depth ~wb =
  let rng = g.rng in
  let leaf () =
    let candidates =
      List.filter (fun (_, k) -> k = arity) base_rels |> List.map fst
    in
    match candidates with
    | _ :: _ when Random.State.bool rng ->
        Ref (List.nth candidates (Random.State.int rng (List.length candidates)))
    | _ -> (
        match gen_rows rng ~arity ~max_rows:3 |> List.sort_uniq compare with
        | [] when arity <> 1 ->
            (* [[]] is the empty *unary* relation; at other arities an
               empty literal leaf would be ill-typed *)
            Lit [ List.init arity (fun _ -> gen_atom rng) ]
        | rows -> Lit rows)
  in
  if depth = 0 || wb < 1 then leaf ()
  else
    let pick = Random.State.int rng 100 in
    if pick < 25 then leaf ()
    else if pick < 55 then
      let mk =
        match Random.State.int rng 3 with
        | 0 -> fun a b -> Union (a, b)
        | 1 -> fun a b -> Diff (a, b)
        | _ -> fun a b -> Inter (a, b)
      in
      mk (gen_expr g ~arity ~depth:(depth - 1) ~wb)
        (gen_expr g ~arity ~depth:(depth - 1) ~wb)
    else if pick < 70 && arity = 2 && wb >= 2 then
      let wa = 1 + Random.State.int rng (wb - 1) in
      Compose
        ( gen_expr g ~arity:2 ~depth:(depth - 1) ~wb:wa,
          gen_expr g ~arity:2 ~depth:(depth - 1) ~wb:(wb - wa) )
    else if pick < 85 && arity = 1 && depth >= 2 then
      let mk = if Random.State.bool rng then fun a b -> Xfilter (a, b) else fun a b -> Xeq (a, b) in
      (* sub-plans run as their own segments: width budget resets *)
      mk
        (gen_expr g ~arity:1 ~depth:(depth - 1) ~wb:4)
        (gen_expr g ~arity:1 ~depth:(depth - 1) ~wb:4)
    else gen_comp g ~arity ~depth ~wb

and gen_comp g ~arity ~depth ~wb =
  let rng = g.rng in
  let ngens = if wb >= 2 && Random.State.bool rng then 2 else 1 in
  let bound = ref [] in
  let quals = ref [] in
  let share = max 1 (wb / ngens) in
  for _ = 1 to ngens do
    let k = 1 + Random.State.int rng 2 in
    let e = gen_expr g ~arity:k ~depth:(max 0 (depth - 1)) ~wb:share in
    let pats =
      List.init k (fun _ ->
          let roll = Random.State.int rng 100 in
          if roll < 55 then begin
            let v = fresh_var g in
            bound := !bound @ [ v ];
            Pvar v
          end
          else if roll < 70 && !bound <> [] then
            Pvar (List.nth !bound (Random.State.int rng (List.length !bound)))
          else if roll < 85 then Pwild
          else Pconst (gen_atom rng))
    in
    quals := Gen (pats, e) :: !quals
  done;
  let nguards = if !bound = [] then 0 else Random.State.int rng 3 in
  for _ = 1 to nguards do
    let v = List.nth !bound (Random.State.int rng (List.length !bound)) in
    let other =
      if Random.State.bool rng && List.length !bound > 1 then
        Svar (List.nth !bound (Random.State.int rng (List.length !bound)))
      else Sconst (gen_atom rng)
    in
    let c =
      match Random.State.int rng 3 with 0 -> Ceq | 1 -> Cne | _ -> Clt
    in
    quals := Guard (Svar v, c, other) :: !quals
  done;
  let quals = List.rev !quals in
  let avail = ref !bound in
  let head =
    List.init arity (fun _ ->
        match !avail with
        | [] -> Sconst (gen_atom rng)
        | vs when Random.State.int rng 10 < 8 ->
            let v = List.nth vs (Random.State.int rng (List.length vs)) in
            avail := List.filter (fun x -> x <> v) !avail;
            Svar v
        | _ -> Sconst (gen_atom rng))
  in
  Comp (head, quals)

let gen_case ~seed ~index =
  let rng = Parallel.Rng.state ~seed ~index in
  let env = gen_env rng in
  let g = { rng; vars = 0 } in
  let arity = 1 + Random.State.int rng 2 in
  let depth = 2 + Random.State.int rng 2 in
  (env, gen_expr g ~arity ~depth ~wb:4)

(* ------------------------------------------------------------------ *)
(* Differential check *)

let program_text (env : Naive.env) e =
  String.concat "; "
    (List.map (fun (n, (_, rows)) -> n ^ " = " ^ Pretty.rows rows) env)
  ^ "; " ^ Pretty.expr e

type verdict =
  | Agree of Exec.outcome
  | Disagree of { expected : string; got : string }
  | Illtyped of string  (* a generator bug — counted as its own failure *)

let check ?device (env : Naive.env) e : verdict =
  match Typecheck.arity_of (List.map (fun (n, (k, _)) -> (n, k)) env) e with
  | Error m -> Illtyped m
  | Ok _ -> (
      let _, want = Naive.eval env e in
      match Exec.run ?device ~env e with
      | Error m -> Disagree { expected = Pretty.rows want; got = "error: " ^ m }
      | Ok o ->
          if o.Exec.rows = want then Agree o
          else
            Disagree { expected = Pretty.rows want; got = Pretty.rows o.Exec.rows })

(* shrink predicate: a reduction must stay well-typed AND disagreeing *)
let disagrees ?device env e =
  match check ?device env e with
  | Disagree _ -> true
  | Agree _ | Illtyped _ -> false

(* Deterministic greedy shrinking: keep applying the first reduction
   that preserves the disagreement until none applies. *)
let subexprs = function
  | Lit _ | Ref _ -> []
  | Union (a, b) | Diff (a, b) | Inter (a, b) | Compose (a, b)
  | Xfilter (a, b) | Xeq (a, b) ->
      [ a; b ]
  | Comp (_, quals) ->
      List.filter_map (function Gen (_, e) -> Some e | Guard _ -> None) quals

let drop_nth n xs = List.filteri (fun i _ -> i <> n) xs

let expr_reductions e =
  let head_reds =
    match e with
    | Comp (head, quals) ->
        let nq = List.length quals in
        List.init nq (fun i -> Comp (head, drop_nth i quals))
    | _ -> []
  in
  subexprs e @ head_reds

let env_reductions (env : Naive.env) =
  List.concat_map
    (fun (name, (_, rows)) ->
      List.init (List.length rows) (fun i ->
          List.map
            (fun (n, (k', rows')) ->
              if n = name then (n, (k', drop_nth i rows')) else (n, (k', rows')))
            env))
    env

let shrink ?device env e =
  let budget = ref 400 in
  let rec go env e =
    if !budget <= 0 then (env, e)
    else begin
      decr budget;
      let try_expr =
        List.find_opt (fun e' -> disagrees ?device env e') (expr_reductions e)
      in
      match try_expr with
      | Some e' -> go env e'
      | None -> (
          let try_env =
            List.find_opt (fun env' -> disagrees ?device env' e) (env_reductions env)
          in
          match try_env with Some env' -> go env' e | None -> (env, e))
    end
  in
  go env e

(* ------------------------------------------------------------------ *)
(* Campaign *)

type discrepancy = {
  d_index : int;
  d_program : string;  (* shrunk, self-contained *)
  d_expected : string;
  d_got : string;
}

type case_result = {
  c_index : int;
  c_ok : bool;
  c_audit_ok : bool;
  c_scans : int;
  c_plan_nodes : int;
  c_fingerprint : int64;
  c_discrepancy : discrepancy option;
}

let run_case ?device ~seed ~index () : case_result =
  let env, e = gen_case ~seed ~index in
  match check ?device env e with
  | Illtyped m ->
      let h = H.fnv_int (H.fnv_int H.fnv_offset index) 0xe11 in
      let h = fnv_field h m in
      {
        c_index = index;
        c_ok = false;
        c_audit_ok = true;
        c_scans = 0;
        c_plan_nodes = 0;
        c_fingerprint = h;
        c_discrepancy =
          Some
            {
              d_index = index;
              d_program = program_text env e;
              d_expected = "a well-typed query from the generator";
              d_got = "type error: " ^ m;
            };
      }
  | Agree o ->
      let h = H.fnv_int H.fnv_offset index in
      let h = H.fnv_int h (if o.Exec.audit_ok then 1 else 0) in
      let h = H.fnv_int h o.Exec.arity in
      let h = H.fnv_int h o.Exec.scans in
      let h = H.fnv_int h (List.length o.Exec.rows) in
      let h =
        List.fold_left
          (fun h row -> List.fold_left fnv_field h row)
          h o.Exec.rows
      in
      {
        c_index = index;
        c_ok = true;
        c_audit_ok = o.Exec.audit_ok;
        c_scans = o.Exec.scans;
        c_plan_nodes = o.Exec.plan_nodes;
        c_fingerprint = h;
        c_discrepancy = None;
      }
  | Disagree _ ->
      let env', e' = shrink ?device env e in
      let expected, got =
        match check ?device env' e' with
        | Disagree { expected; got } -> (expected, got)
        | Agree _ | Illtyped _ -> ("<unstable shrink>", "<unstable shrink>")
      in
      let h = H.fnv_int (H.fnv_int H.fnv_offset index) 0xbad in
      let h = fnv_field h expected in
      let h = fnv_field h got in
      {
        c_index = index;
        c_ok = false;
        c_audit_ok = true;
        c_scans = 0;
        c_plan_nodes = 0;
        c_fingerprint = h;
        c_discrepancy =
          Some
            {
              d_index = index;
              d_program = program_text env' e';
              d_expected = expected;
              d_got = got;
            };
      }

type campaign = {
  seed : int;
  iters : int;
  matches : int;
  mismatches : int;
  audit_failures : int;
  total_scans : int;
  total_plan_nodes : int;
  fingerprint : int64;
  discrepancies : discrepancy list;  (* index order *)
}

let run_campaign ?pool ?device ~seed ~iters () : campaign =
  let run index = run_case ?device ~seed ~index () in
  let results =
    match pool with
    | Some p -> Parallel.Pool.map p run (Array.init iters Fun.id)
    | None -> Array.init iters run
  in
  let c =
    Array.fold_left
      (fun acc r ->
        {
          acc with
          matches = (acc.matches + if r.c_ok then 1 else 0);
          mismatches = (acc.mismatches + if r.c_ok then 0 else 1);
          audit_failures = (acc.audit_failures + if r.c_audit_ok then 0 else 1);
          total_scans = acc.total_scans + r.c_scans;
          total_plan_nodes = acc.total_plan_nodes + r.c_plan_nodes;
          fingerprint =
            H.fnv_mix acc.fingerprint r.c_fingerprint;
          discrepancies =
            (match r.c_discrepancy with
            | Some d -> d :: acc.discrepancies
            | None -> acc.discrepancies);
        })
      {
        seed;
        iters;
        matches = 0;
        mismatches = 0;
        audit_failures = 0;
        total_scans = 0;
        total_plan_nodes = 0;
        fingerprint = H.fnv_offset;
        discrepancies = [];
      }
      results
  in
  { c with discrepancies = List.rev c.discrepancies }

let report c =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "query-fuzz: seed=%d iters=%d matches=%d mismatches=%d audit_failures=%d \
     plan_nodes=%d scans=%d fingerprint=%016Lx\n"
    c.seed c.iters c.matches c.mismatches c.audit_failures c.total_plan_nodes
    c.total_scans c.fingerprint;
  List.iter
    (fun d ->
      Printf.bprintf b
        "DISCREPANCY at index %d:\n  program:  %s\n  expected: %s\n  got:      %s\n"
        d.d_index d.d_program d.d_expected d.d_got)
    c.discrepancies;
  Buffer.contents b
