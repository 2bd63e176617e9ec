open Ast

type node_audit = { label : string; scans : int; allowed : int; ok : bool }

type outcome = {
  arity : int;
  rows : string list list;  (* sorted, distinct *)
  n : int;  (* total input tuples / stream bytes charged across segments *)
  scans : int;  (* total over all segments *)
  nodes : node_audit list;  (* audit per plan node, execution order *)
  audit_ok : bool;
  segments : int;  (* tape runs: one per relalg segment + one per builtin *)
  plan_nodes : int;
}

let rec referenced acc (e : Relalg.expr) =
  match e with
  | Relalg.Rel n -> if List.mem n acc then acc else n :: acc
  | Relalg.Select (_, e) | Relalg.Project (_, e) | Relalg.Rename (_, e) ->
      referenced acc e
  | Relalg.Union (a, b) | Relalg.Diff (a, b) | Relalg.Inter (a, b)
  | Relalg.Product (a, b) | Relalg.Join (_, a, b) ->
      referenced (referenced acc a) b

(* Serialize two unary results as the Section 4 instance document the
   stream filters consume. Atoms are already XML-safe by the lexer's
   alphabet. *)
let doc_of_rows rows1 rows2 =
  let items rows =
    String.concat ""
      (List.map
         (fun r -> "<item><string>" ^ List.hd r ^ "</string></item>")
         rows)
  in
  "<instance><set1>" ^ items rows1 ^ "</set1><set2>" ^ items rows2
  ^ "</set2></instance>"

let relation_of_rows ~arity rows =
  Relalg.relation
    ~schema:(Compile.cols arity)
    (List.map Array.of_list rows)

let rows_of_relation (r : Relalg.relation) =
  List.sort_uniq compare (List.map Array.to_list r.Relalg.tuples)

type acc = {
  mutable a_nodes : node_audit list;  (* reversed *)
  mutable a_scans : int;
  mutable a_n : int;
  mutable a_segments : int;
}

let run ?device ?obs ~(env : Naive.env) (e : expr) :
    (outcome, string) result =
  let tenv = List.map (fun (n, (k, _)) -> (n, k)) env in
  match Compile.compile tenv e with
  | Error m -> Error m
  | Ok plan -> (
      let acc = { a_nodes = []; a_scans = 0; a_n = 0; a_segments = 0 } in
      let audit_node spec label scans ~n =
        let allowed =
          match spec.Obs.Audit.scans with
          | Some b -> Obs.Audit.allowance b ~n
          | None -> max_int
        in
        acc.a_nodes <-
          { label; scans; allowed; ok = scans <= allowed } :: acc.a_nodes
      in
      let rec exec_plan (p : Compile.plan) : string list list =
        let sub_rels =
          List.map
            (fun (name, s) ->
              let builtin, verdict, rep =
                match s with
                | Compile.Sfilter (pa, pb) ->
                    let ra = exec_plan pa and rb = exec_plan pb in
                    let v, rep =
                      Xmlq.Stream_filter.figure1_filter ?obs
                        (doc_of_rows ra rb)
                    in
                    ("xfilter", v, rep)
                | Compile.Sxeq (pa, pb) ->
                    let ra = exec_plan pa and rb = exec_plan pb in
                    let v, rep =
                      Xmlq.Stream_filter.theorem12_query ?obs
                        (doc_of_rows ra rb)
                    in
                    ("xeq", v, rep)
              in
              acc.a_scans <- acc.a_scans + rep.Xmlq.Stream_filter.scans;
              acc.a_n <- acc.a_n + rep.Xmlq.Stream_filter.n;
              acc.a_segments <- acc.a_segments + 1;
              audit_node Obs.Audit.xpath_filter_spec builtin
                rep.Xmlq.Stream_filter.scans ~n:rep.Xmlq.Stream_filter.n;
              ( name,
                relation_of_rows ~arity:1 (if verdict then [ [ "true" ] ] else [])
              ))
            p.Compile.subs
        in
        let names = referenced [] p.Compile.rexpr in
        let db =
          List.filter_map
            (fun name ->
              if List.mem_assoc name sub_rels || List.mem_assoc name p.Compile.lits
              then None
              else
                match List.assoc_opt name env with
                | Some (k, rows) -> Some (name, relation_of_rows ~arity:k rows)
                | None -> None)
            names
          @ p.Compile.lits @ sub_rels
        in
        let seg_n = max 1 (Relalg.db_size db) in
        let result, rep =
          Relalg.eval_streaming ?device ?obs
            ~profile:(fun label scans ->
              audit_node Obs.Audit.relalg_node_spec label scans ~n:seg_n)
            db p.Compile.rexpr
        in
        acc.a_scans <- acc.a_scans + rep.Relalg.scans;
        acc.a_n <- acc.a_n + rep.Relalg.n;
        acc.a_segments <- acc.a_segments + 1;
        rows_of_relation result
      in
      match exec_plan plan with
      | exception Invalid_argument m -> Error m
      | rows ->
          let nodes = List.rev acc.a_nodes in
          Ok
            {
              arity = plan.Compile.arity;
              rows;
              n = acc.a_n;
              scans = acc.a_scans;
              nodes;
              audit_ok = List.for_all (fun na -> na.ok) nodes;
              segments = acc.a_segments;
              plan_nodes = Compile.plan_nodes plan;
            })
