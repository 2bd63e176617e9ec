(* Checkpoint/resume for the experiment harness.

   Granularity is one journal file per experiment table: the table's
   entire stdout is captured while it runs, stored (with a CRC-32 of
   the text) under [dir/<name>.json], and on resume replayed verbatim -
   so a resumed run is byte-identical to an uninterrupted one by
   construction. A run killed mid-table leaves no journal entry for
   that table (entries are written atomically, tmp + rename, after the
   table completes) and the table is simply recomputed.

   The journal is a tiny flat JSON object written and parsed here by
   hand - no JSON library in the tree, and the format has exactly three
   fields. Anything unparsable, or whose checksum disagrees with its
   payload, is discarded with a warning on stderr and recomputed. *)

type t = { dir : string }

let rec mkdirs d =
  if d = "" || d = "." || d = "/" then ()
  else if Sys.file_exists d then begin
    if not (Sys.is_directory d) then
      invalid_arg (Printf.sprintf "Checkpoint: %s exists and is not a directory" d)
  end
  else begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir dir =
  mkdirs dir;
  { dir }

let path t name = Filename.concat t.dir (name ^ ".json")

(* ---------------- flat JSON encode/decode --------------------------- *)

let encode ~name ~output =
  Printf.sprintf "{\"experiment\":\"%s\",\"crc\":%d,\"output\":\"%s\"}\n"
    (Util.Json.escape name) (Util.Hash.crc32 output) (Util.Json.escape output)

let index_of s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go 0

let int_field s key =
  let pat = "\"" ^ key ^ "\":" in
  match index_of s pat with
  | None -> None
  | Some i ->
      let start = i + String.length pat in
      let j = ref start in
      while
        !j < String.length s
        && match s.[!j] with '0' .. '9' -> true | _ -> false
      do
        incr j
      done;
      if !j = start then None else int_of_string_opt (String.sub s start (!j - start))

let string_field s key =
  let pat = "\"" ^ key ^ "\":\"" in
  match index_of s pat with
  | None -> None
  | Some i ->
      let n = String.length s in
      let b = Buffer.create 256 in
      let rec go j =
        if j >= n then None
        else
          match s.[j] with
          | '"' -> Some (Buffer.contents b)
          | '\\' when j + 1 < n -> (
              match s.[j + 1] with
              | '"' ->
                  Buffer.add_char b '"';
                  go (j + 2)
              | '\\' ->
                  Buffer.add_char b '\\';
                  go (j + 2)
              | 'n' ->
                  Buffer.add_char b '\n';
                  go (j + 2)
              | 'r' ->
                  Buffer.add_char b '\r';
                  go (j + 2)
              | 't' ->
                  Buffer.add_char b '\t';
                  go (j + 2)
              | 'u' when j + 5 < n -> (
                  match int_of_string_opt ("0x" ^ String.sub s (j + 2) 4) with
                  | Some code when code < 256 ->
                      Buffer.add_char b (Char.chr code);
                      go (j + 6)
                  | _ -> None)
              | _ -> None)
          | c ->
              Buffer.add_char b c;
              go (j + 1)
      in
      go (i + String.length pat)

let decode s =
  match (string_field s "output", int_field s "crc") with
  | Some output, Some crc when crc = Util.Hash.crc32 output -> Ok output
  | Some _, Some _ -> Error "checksum mismatch"
  | _ -> Error "unparsable journal entry"

(* ---------------- store / lookup ------------------------------------ *)

let store t ~name ~output =
  let final = path t name in
  let tmp = final ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (encode ~name ~output));
  Sys.rename tmp final;
  Obs.Counters.add_checkpoint_stored 1

let lookup t ~name =
  let file = path t name in
  if not (Sys.file_exists file) then None
  else
    let contents = In_channel.with_open_bin file In_channel.input_all in
    match decode contents with
    | Ok output ->
        Obs.Counters.add_checkpoint_replayed 1;
        Some output
    | Error why ->
        (* A discard is never silent: warn on stderr AND count it, so a
           resumed run that recomputed tables because its journal rotted
           shows up in the observability counters. *)
        Printf.eprintf "checkpoint: discarding corrupt journal %s (%s)\n%!" file
          why;
        Obs.Counters.add_checkpoint_discarded 1;
        (try Sys.remove file with Sys_error _ -> ());
        None

(* ---------------- stdout capture ------------------------------------ *)

(* Redirect fd 1 into a temp file for the extent of [f]. Capture at the
   fd level (dup/dup2), not by swapping OCaml formatters: the tables
   print through [print_string] and their output must be captured
   exactly as a terminal would have seen it. If [f] raises, the partial
   output is re-emitted (nothing is stored) and the exception
   propagates. *)
let with_captured_stdout f =
  flush stdout;
  let tmp = Filename.temp_file "stlb-ckpt" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close fd
  in
  let result = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  restore ();
  let contents = In_channel.with_open_bin tmp In_channel.input_all in
  (try Sys.remove tmp with Sys_error _ -> ());
  match result with
  | Ok v -> (v, contents)
  | Error (e, bt) ->
      print_string contents;
      flush stdout;
      Printexc.raise_with_backtrace e bt

let trace_table ~name ~status =
  Obs.Trace.emit_current ~event:"table"
    [ ("name", Obs.Trace.String name); ("status", Obs.Trace.String status) ]

let run cp ~name f =
  match cp with
  | None ->
      trace_table ~name ~status:"start";
      f ();
      trace_table ~name ~status:"done"
  | Some t -> (
      match lookup t ~name with
      | Some output ->
          Printf.eprintf "checkpoint: replaying %s\n%!" name;
          trace_table ~name ~status:"replayed";
          print_string output;
          flush stdout
      | None ->
          trace_table ~name ~status:"start";
          let (), output = with_captured_stdout f in
          print_string output;
          flush stdout;
          store t ~name ~output;
          trace_table ~name ~status:"done")
