type tuple = string array

type relation = { schema : string list; tuples : tuple list }

let encode_tuple (t : tuple) = String.concat "\x00" (Array.to_list t)

let decode_tuple s =
  if s = "" then [||] else Array.of_list (String.split_on_char '\x00' s)

let dedup_tuples tuples =
  let tbl = Hashtbl.create 64 in
  List.filter
    (fun t ->
      let k = encode_tuple t in
      if Hashtbl.mem tbl k then false
      else begin
        Hashtbl.add tbl k ();
        true
      end)
    tuples

let relation ~schema tuples =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a then invalid_arg "Relalg.relation: duplicate attribute";
      Hashtbl.add seen a ())
    schema;
  let w = List.length schema in
  List.iter
    (fun t ->
      if Array.length t <> w then invalid_arg "Relalg.relation: tuple arity")
    tuples;
  { schema; tuples = dedup_tuples tuples }

type operand = Attr of string | Const of string

type pred =
  | Eq of operand * operand
  | Neq of operand * operand
  | Lt of operand * operand
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type expr =
  | Rel of string
  | Select of pred * expr
  | Project of string list * expr
  | Rename of (string * string) list * expr
  | Union of expr * expr
  | Diff of expr * expr
  | Inter of expr * expr
  | Product of expr * expr
  | Join of string list * expr * expr

let symmetric_difference r1 r2 =
  Union (Diff (Rel r1, Rel r2), Diff (Rel r2, Rel r1))

type db = (string * relation) list

(* ------------------------------------------------------------------ *)
(* Shared semantics helpers                                            *)

let attr_index schema a =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Relalg: unknown attribute %S" a)
    | x :: _ when String.equal x a -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 schema

let operand_value schema (t : tuple) = function
  | Const c -> c
  | Attr a -> t.(attr_index schema a)

let rec eval_pred schema t = function
  | Eq (a, b) -> String.equal (operand_value schema t a) (operand_value schema t b)
  | Neq (a, b) -> not (String.equal (operand_value schema t a) (operand_value schema t b))
  | Lt (a, b) -> String.compare (operand_value schema t a) (operand_value schema t b) < 0
  | And (p, q) -> eval_pred schema t p && eval_pred schema t q
  | Or (p, q) -> eval_pred schema t p || eval_pred schema t q
  | Not p -> not (eval_pred schema t p)

let check_same_schema op a b =
  if a.schema <> b.schema then
    invalid_arg (Printf.sprintf "Relalg: %s requires identical schemas" op)

let project_schema schema attrs =
  List.iter (fun a -> ignore (attr_index schema a)) attrs;
  attrs

let rename_schema schema renames =
  List.iter (fun (old_, _) -> ignore (attr_index schema old_)) renames;
  List.map
    (fun a ->
      match List.assoc_opt a renames with Some fresh -> fresh | None -> a)
    schema

let product_schema a b =
  List.iter
    (fun x ->
      if List.mem x b.schema then
        invalid_arg "Relalg: product schemas must be disjoint")
    a.schema;
  a.schema @ b.schema

(* Join desugaring: once the two schemas are known, a natural join on
   [keys] is rename(b keys fresh) |> product |> select(key equalities)
   |> project(a's schema + b's non-keys). Fresh names use a character
   forbidden in user schemas only by convention; collisions are
   rejected. *)
let join_plan keys schema_a schema_b =
  List.iter
    (fun k ->
      if not (List.mem k schema_a && List.mem k schema_b) then
        invalid_arg (Printf.sprintf "Relalg: join key %S must occur on both sides" k))
    keys;
  List.iter
    (fun x ->
      if (not (List.mem x keys)) && List.mem x schema_a then
        invalid_arg "Relalg: join non-key attributes must be disjoint")
    schema_b;
  let fresh k =
    let f = k ^ "'" in
    if List.mem f schema_a || List.mem f schema_b then
      invalid_arg "Relalg: join fresh-name collision"
    else f
  in
  let renames = List.map (fun k -> (k, fresh k)) keys in
  let equalities =
    List.map (fun (k, f) -> Eq (Attr k, Attr f)) renames
  in
  let selection =
    match equalities with
    | [] -> invalid_arg "Relalg: join needs at least one key"
    | e :: rest -> List.fold_left (fun acc p -> And (acc, p)) e rest
  in
  let out_schema =
    schema_a @ List.filter (fun x -> not (List.mem x keys)) schema_b
  in
  (renames, selection, out_schema)

(* ------------------------------------------------------------------ *)
(* Reference evaluator                                                 *)

let lookup db name =
  match List.assoc_opt name db with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Relalg: unknown relation %S" name)

let rec eval db = function
  | Rel name -> lookup db name
  | Select (p, e) ->
      let r = eval db e in
      { r with tuples = List.filter (fun t -> eval_pred r.schema t p) r.tuples }
  | Project (attrs, e) ->
      let r = eval db e in
      let schema = project_schema r.schema attrs in
      let idxs = List.map (attr_index r.schema) attrs in
      relation ~schema
        (List.map (fun t -> Array.of_list (List.map (fun i -> t.(i)) idxs)) r.tuples)
  | Rename (renames, e) ->
      let r = eval db e in
      { r with schema = rename_schema r.schema renames }
  | Union (a, b) ->
      let ra = eval db a and rb = eval db b in
      check_same_schema "union" ra rb;
      relation ~schema:ra.schema (ra.tuples @ rb.tuples)
  | Diff (a, b) ->
      let ra = eval db a and rb = eval db b in
      check_same_schema "difference" ra rb;
      let keys = Hashtbl.create 64 in
      List.iter (fun t -> Hashtbl.replace keys (encode_tuple t) ()) rb.tuples;
      { ra with tuples = List.filter (fun t -> not (Hashtbl.mem keys (encode_tuple t))) ra.tuples }
  | Inter (a, b) ->
      let ra = eval db a and rb = eval db b in
      check_same_schema "intersection" ra rb;
      let keys = Hashtbl.create 64 in
      List.iter (fun t -> Hashtbl.replace keys (encode_tuple t) ()) rb.tuples;
      { ra with tuples = List.filter (fun t -> Hashtbl.mem keys (encode_tuple t)) ra.tuples }
  | Product (a, b) ->
      let ra = eval db a and rb = eval db b in
      let schema = product_schema ra rb in
      relation ~schema
        (List.concat_map
           (fun ta -> List.map (fun tb -> Array.append ta tb) rb.tuples)
           ra.tuples)
  | Join (keys, a, b) ->
      let ra = eval db a and rb = eval db b in
      let renames, selection, out_schema = join_plan keys ra.schema rb.schema in
      eval
        [ ("join.a", ra); ("join.b", rb) ]
        (Project
           ( out_schema,
             Select (selection, Product (Rel "join.a", Rename (renames, Rel "join.b")))
           ))

(* ------------------------------------------------------------------ *)
(* Streaming evaluator                                                 *)

type report = { n : int; scans : int; registers : int; tapes : int }

(* A stream: a tape of encoded tuples plus its logical length and
   schema. All tapes live in one group so scans accumulate. *)
type stream = { tape : string Tape.t; len : int; sschema : string list }

(* Atomic so concurrent streaming runs (the query fuzzer fans over a
   domain pool) never hand two tapes the same name. *)
let fresh_counter = Atomic.make 0

(* Evaluation context: the tape group, the byte codec every
   intermediate tape carries (a mem group ignores it; any other spec
   spills through it), and a per-node profile callback receiving
   (operator label, scans spent by that node exclusive of its
   children). *)
type ctx = {
  g : Tape.Group.t;
  codec : string Tape.Device.Codec.t;
  prof : string -> int -> unit;
}

let fresh_tape ctx =
  let id = Atomic.fetch_and_add fresh_counter 1 + 1 in
  Tape.Group.tape ctx.g ~codec:ctx.codec
    ~name:(Printf.sprintf "op%d" id)
    ~blank:"" ()

(* one-pass transform: read each cell, emit zero or more cells *)
let map_stream ctx s ~schema ~f =
  let out = fresh_tape ctx in
  let written = ref 0 in
  for i = 0 to s.len - 1 do
    List.iter
      (fun cell ->
        Tape.write_at out !written cell;
        incr written)
      (f (Tape.read_at s.tape i))
  done;
  { tape = out; len = !written; sschema = schema }

let sorted_copy ctx s =
  let out = map_stream ctx s ~schema:s.sschema ~f:(fun c -> [ c ]) in
  if out.len > 1 then Extsort.sort_tape ctx.g out.tape ~len:out.len;
  out

(* merge two sorted streams; [emit] decides, per distinct key, given
   (present_in_a, present_in_b), whether the tuple is in the output *)
let merge_set_op ctx a b ~emit =
  let out = fresh_tape ctx in
  let written = ref 0 in
  let push c =
    Tape.write_at out !written c;
    incr written
  in
  let i = ref 0 and j = ref 0 in
  while !i < a.len || !j < b.len do
    let skip_run s idx v =
      while !idx < s.len && String.equal (Tape.read_at s.tape !idx) v do
        incr idx
      done
    in
    if !i >= a.len then begin
      let v = Tape.read_at b.tape !j in
      if emit false true then push v;
      skip_run b j v
    end
    else if !j >= b.len then begin
      let v = Tape.read_at a.tape !i in
      if emit true false then push v;
      skip_run a i v
    end
    else begin
      let va = Tape.read_at a.tape !i and vb = Tape.read_at b.tape !j in
      let cmp = String.compare va vb in
      if cmp < 0 then begin
        if emit true false then push va;
        skip_run a i va
      end
      else if cmp > 0 then begin
        if emit false true then push vb;
        skip_run b j vb
      end
      else begin
        if emit true true then push va;
        skip_run a i va;
        skip_run b j vb
      end
    end
  done;
  { tape = out; len = !written; sschema = a.sschema }

(* n1 concatenated copies of the whole stream, by doubling appends *)
let repeat_whole ctx s ~times =
  let out = map_stream ctx s ~schema:s.sschema ~f:(fun c -> [ c ]) in
  let copies = ref (if s.len = 0 then times else 1) in
  let written = ref out.len in
  while !copies < times do
    let add = min !copies (times - !copies) in
    let cells = add * s.len in
    for i = 0 to cells - 1 do
      Tape.write_at out.tape !written (Tape.read_at out.tape i);
      incr written
    done;
    copies := !copies + add
  done;
  { out with len = !written }

(* every cell repeated [times] in place, by doubling passes *)
let stretch_each ctx s ~times =
  let cur = ref (map_stream ctx s ~schema:s.sschema ~f:(fun c -> [ c ])) in
  let rep = ref 1 in
  while !rep < times do
    if 2 * !rep <= times then begin
      cur := map_stream ctx !cur ~schema:s.sschema ~f:(fun c -> [ c; c ]);
      rep := 2 * !rep
    end
    else begin
      (* final exact pass: keep [times] of each group of [!rep] *)
      let keep = times - !rep in
      let count = ref 0 in
      cur :=
        map_stream ctx !cur ~schema:s.sschema ~f:(fun c ->
            let k = !count mod !rep in
            count := !count + 1;
            if k < keep then [ c; c ] else [ c ]);
      rep := times
    end
  done;
  !cur

(* [profiled ctx label f]: run the node body [f] (children already
   evaluated) and report the scans it spent, exclusive of subtrees. *)
let profiled ctx label f =
  let s0 = Tape.Group.scans ctx.g in
  let r = f () in
  ctx.prof label (Tape.Group.scans ctx.g - s0);
  r

let rec eval_stream ctx db = function
  | Rel name ->
      let r = lookup db name in
      let cells = List.map encode_tuple r.tuples in
      let tape =
        let id = Atomic.fetch_and_add fresh_counter 1 + 1 in
        Tape.Group.tape_of_list ctx.g ~codec:ctx.codec
          ~name:(Printf.sprintf "in-%s%d" name id)
          ~blank:"" cells
      in
      ctx.prof "input" 0;
      { tape; len = List.length cells; sschema = r.schema }
  | Select (p, e) ->
      let s = eval_stream ctx db e in
      profiled ctx "select" (fun () ->
          map_stream ctx s ~schema:s.sschema ~f:(fun c ->
              if eval_pred s.sschema (decode_tuple c) p then [ c ] else []))
  | Project (attrs, e) ->
      let s = eval_stream ctx db e in
      profiled ctx "project" (fun () ->
          let schema = project_schema s.sschema attrs in
          let idxs = List.map (attr_index s.sschema) attrs in
          let projected =
            map_stream ctx s ~schema ~f:(fun c ->
                let t = decode_tuple c in
                [ encode_tuple (Array.of_list (List.map (fun i -> t.(i)) idxs)) ])
          in
          (* projection can create duplicates: sort + dedup scan *)
          let sorted = sorted_copy ctx projected in
          let prev = ref None in
          map_stream ctx sorted ~schema ~f:(fun c ->
              match !prev with
              | Some p when String.equal p c -> []
              | Some _ | None ->
                  prev := Some c;
                  [ c ]))
  | Rename (renames, e) ->
      let s = eval_stream ctx db e in
      ctx.prof "rename" 0;
      { s with sschema = rename_schema s.sschema renames }
  | Union (a, b) ->
      let sa = eval_stream ctx db a and sb = eval_stream ctx db b in
      if sa.sschema <> sb.sschema then invalid_arg "Relalg: union schemas";
      profiled ctx "union" (fun () ->
          merge_set_op ctx (sorted_copy ctx sa) (sorted_copy ctx sb)
            ~emit:(fun _ _ -> true))
  | Diff (a, b) ->
      let sa = eval_stream ctx db a and sb = eval_stream ctx db b in
      if sa.sschema <> sb.sschema then invalid_arg "Relalg: difference schemas";
      profiled ctx "diff" (fun () ->
          merge_set_op ctx (sorted_copy ctx sa) (sorted_copy ctx sb)
            ~emit:(fun ina inb -> ina && not inb))
  | Inter (a, b) ->
      let sa = eval_stream ctx db a and sb = eval_stream ctx db b in
      if sa.sschema <> sb.sschema then invalid_arg "Relalg: intersection schemas";
      profiled ctx "inter" (fun () ->
          merge_set_op ctx (sorted_copy ctx sa) (sorted_copy ctx sb)
            ~emit:(fun ina inb -> ina && inb))
  | Product (a, b) ->
      let sa = eval_stream ctx db a and sb = eval_stream ctx db b in
      profiled ctx "product" (fun () ->
          let schema = product_schema { schema = sa.sschema; tuples = [] }
              { schema = sb.sschema; tuples = [] } in
          if sa.len = 0 || sb.len = 0 then
            { tape = fresh_tape ctx; len = 0; sschema = schema }
          else begin
            let left = stretch_each ctx sa ~times:sb.len in
            let right = repeat_whole ctx sb ~times:sa.len in
            (* zip: left cell k pairs with right cell k *)
            let out = fresh_tape ctx in
            for k = 0 to left.len - 1 do
              let ta = decode_tuple (Tape.read_at left.tape k) in
              let tb = decode_tuple (Tape.read_at right.tape k) in
              Tape.write_at out k (encode_tuple (Array.append ta tb))
            done;
            { tape = out; len = left.len; sschema = schema }
          end)
  | Join (keys, a, b) ->
      let sa = eval_stream ctx db a and sb = eval_stream ctx db b in
      profiled ctx "join" (fun () ->
          let renames, selection, out_schema =
            join_plan keys sa.sschema sb.sschema
          in
          (* glue: re-expose the two sub-results as relations of a local
             db and desugar; their tuples re-enter through fresh input
             tapes of the same group, so the accounting stays complete.
             The desugared subtree runs unprofiled: its cost is the join
             node's own. *)
          let rel_of s =
            {
              schema = s.sschema;
              tuples = List.init s.len (fun i -> decode_tuple (Tape.read_at s.tape i));
            }
          in
          eval_stream { ctx with prof = (fun _ _ -> ()) }
            [ ("join.a", rel_of sa); ("join.b", rel_of sb) ]
            (Project
               ( out_schema,
                 Select
                   (selection, Product (Rel "join.a", Rename (renames, Rel "join.b")))
               )))

let db_size db = List.fold_left (fun acc (_, r) -> acc + List.length r.tuples) 0 db

(* Static byte bound for one encoded cell anywhere in the plan: every
   atom written to a tape comes from the database (predicates only
   compare constants, they never emit them), and products/joins only
   concatenate leaf widths — so (sum of leaf widths) × (longest atom +
   1 separator) bounds every intermediate cell. Used to derive the
   fixed-width codec a byte-backed device needs. *)
let max_cell_bytes db expr =
  let max_atom =
    List.fold_left
      (fun acc (_, r) ->
        List.fold_left
          (fun acc t -> Array.fold_left (fun acc v -> max acc (String.length v)) acc t)
          acc r.tuples)
      1 db
  in
  let rec leaf_width = function
    | Rel name -> List.length (lookup db name).schema
    | Select (_, e) | Project (_, e) | Rename (_, e) -> leaf_width e
    | Union (a, b) | Diff (a, b) | Inter (a, b) | Product (a, b)
    | Join (_, a, b) ->
        leaf_width a + leaf_width b
  in
  let width = max 1 (leaf_width expr) in
  width * (max_atom + 1)

let eval_streaming ?device ?obs ?profile db expr =
  let g = Tape.Group.create ?device () in
  (match obs with None -> () | Some r -> Obs.Ledger.Recorder.observe r g);
  (* the evaluator's intermediate cells are not known up front: slots
     take the worst case, every byte of the widest cell escaped *)
  let codec =
    Tape.Device.Codec.tuple_string ~max_bytes:((2 * max_cell_bytes db expr) + 2)
  in
  let ctx =
    { g; codec; prof = (match profile with None -> fun _ _ -> () | Some f -> f) }
  in
  let meter = Tape.Group.meter g in
  Fun.protect
    ~finally:(fun () -> Tape.Group.close_all g)
    (fun () ->
      let result =
        Tape.Meter.with_units meter 8 (fun () ->
            let s = eval_stream ctx db expr in
            let tuples =
              List.init s.len (fun i -> decode_tuple (Tape.read_at s.tape i))
            in
            relation ~schema:s.sschema tuples)
      in
      let rep = Tape.Group.report g in
      ( result,
        {
          n = db_size db;
          scans = rep.Tape.Group.scans_used;
          registers = rep.Tape.Group.internal_peak_units;
          tapes = List.length rep.Tape.Group.tapes;
        } ))

let instance_db inst =
  let half h = List.map (fun v -> [| Util.Bitstring.to_string v |]) (Array.to_list h) in
  [
    ("R1", relation ~schema:[ "v" ] (half (Problems.Instance.xs inst)));
    ("R2", relation ~schema:[ "v" ] (half (Problems.Instance.ys inst)));
  ]

let pp_relation ppf r =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " r.schema);
  List.iter
    (fun t -> Format.fprintf ppf "%s@," (String.concat " | " (Array.to_list t)))
    r.tuples;
  Format.fprintf ppf "@]"
