type t = {
  mutable env : Naive.env;
  mutable device : Tape.Device.spec;
  mutable budget : bool;  (* enforce audits: violations flip the exit status *)
  mutable trace : Obs.Trace.t option;
  mutable failed : bool;  (* any error or (under :budget on) audit failure *)
  out : Buffer.t -> unit;  (* line sink *)
}

let create ?(device = Tape.Device.Mem) ~out () =
  { env = []; device; budget = true; trace = None; failed = false; out }

let printf st fmt =
  Printf.ksprintf
    (fun s ->
      let b = Buffer.create (String.length s + 1) in
      Buffer.add_string b s;
      Buffer.add_char b '\n';
      st.out b)
    fmt

let close st =
  match st.trace with
  | None -> ()
  | Some t ->
      Obs.Trace.close t;
      st.trace <- None

(* one audited run of [e] in the current environment *)
let run_expr st e =
  let recorder = Obs.Ledger.Recorder.create ~label:"query" () in
  match Exec.run ~device:st.device ~obs:recorder ~env:st.env e with
  | Error m ->
      st.failed <- true;
      printf st "error: %s" m;
      None
  | Ok o ->
      let _, want = Naive.eval st.env e in
      if o.Exec.rows <> want then begin
        (* the differential fuzzer's invariant, surfaced interactively *)
        st.failed <- true;
        printf st "DISCREPANCY: compiled plan disagrees with the oracle";
        printf st "  compiled: %s" (Pretty.rows o.Exec.rows);
        printf st "  oracle:   %s" (Pretty.rows want)
      end;
      (match st.trace with
      | None -> ()
      | Some t ->
          Obs.Trace.emit_ledger t (Obs.Ledger.Recorder.ledger ~n:o.Exec.n recorder);
          Obs.Trace.emit t ~event:"query"
            [
              ("nodes", Obs.Trace.Int o.Exec.plan_nodes);
              ("segments", Obs.Trace.Int o.Exec.segments);
              ("scans", Obs.Trace.Int o.Exec.scans);
              ("audit_ok", Obs.Trace.Bool o.Exec.audit_ok);
            ]);
      Some o

let audit_line st (o : Exec.outcome) =
  let total = List.length o.Exec.nodes in
  let passed =
    List.length (List.filter (fun na -> na.Exec.ok) o.Exec.nodes)
  in
  printf st "  plan: %d nodes, %d segments; N=%d; scans=%d; audit: %s (%d/%d within budget)"
    o.Exec.plan_nodes o.Exec.segments o.Exec.n o.Exec.scans
    (if o.Exec.audit_ok then "PASS" else "FAIL")
    passed total;
  if not o.Exec.audit_ok then begin
    List.iter
      (fun na ->
        if not na.Exec.ok then
          printf st "  over budget: %s used %d scans, allowed %d" na.Exec.label
            na.Exec.scans na.Exec.allowed)
      o.Exec.nodes;
    if st.budget then st.failed <- true
  end

let do_stmt st = function
  | Ast.Bind (x, e) -> (
      match run_expr st e with
      | None -> ()
      | Some o ->
          st.env <- (x, (o.Exec.arity, o.Exec.rows)) :: List.remove_assoc x st.env;
          printf st "%s : rel[%d] = %d tuples" x o.Exec.arity
            (List.length o.Exec.rows);
          audit_line st o)
  | Ast.Eval e -> (
      match run_expr st e with
      | None -> ()
      | Some o ->
          printf st "= %s" (Pretty.rows o.Exec.rows);
          audit_line st o)

let do_program st src =
  match Parser.parse_program src with
  | Error e ->
      st.failed <- true;
      printf st "parse error: %s" (Parser.error_to_string e)
  | Ok stmts -> List.iter (do_stmt st) stmts

let do_directive st line =
  let parts =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [ ":quit" ] | [ ":q" ] -> `Quit
  | [ ":env" ] ->
      if st.env = [] then printf st "(no relations bound)"
      else
        List.iter
          (fun (n, (k, rows)) ->
            printf st "%s : rel[%d] = %d tuples" n k (List.length rows))
          (List.sort compare st.env);
      `Continue
  | [ ":budget"; ("on" | "off") as v ] ->
      st.budget <- v = "on";
      printf st "budget enforcement %s" v;
      `Continue
  | [ ":trace"; "off" ] ->
      close st;
      printf st "trace off";
      `Continue
  | [ ":trace"; file ] ->
      close st;
      st.trace <- Some (Obs.Trace.open_file file);
      printf st "tracing to %s" file;
      `Continue
  | [ ":load"; file ] -> (
      (* a loaded file is one whole program (statements + # comments;
         no directives), so the parser sees it in a single piece *)
      match In_channel.with_open_text file In_channel.input_all with
      | exception Sys_error m ->
          st.failed <- true;
          printf st "error: %s" m;
          `Continue
      | src ->
          do_program st src;
          `Continue)
  | [ ":help" ] ->
      printf st
        "directives: :env  :budget on|off  :trace FILE|off  :load FILE  :quit";
      `Continue
  | d :: _ ->
      st.failed <- true;
      printf st "unknown directive %s (try :help)" d;
      `Continue
  | [] -> `Continue

let do_line st line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then `Continue
  else if trimmed.[0] = ':' then do_directive st trimmed
  else begin
    do_program st trimmed;
    `Continue
  end

let drive st ~echo ~prompt ic =
  let rec loop () =
    if prompt then begin
      print_string "query> ";
      flush stdout
    end;
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        if echo then printf st "query> %s" line;
        (match do_line st line with `Quit -> () | `Continue -> loop ())
  in
  loop ();
  close st
