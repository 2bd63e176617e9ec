(* [buf] is allocated once per connection: a 64 KiB chunk per read
   would go straight to the major heap and pace its collections. *)
type t = { fd : Unix.file_descr; buf : Bytes.t; mutable inbuf : string }

(* a write to a peer-closed socket must surface as EPIPE, not kill the
   process with the default SIGPIPE disposition *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let connect ?(retries = 50) path =
  Lazy.force ignore_sigpipe;
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Bytes.create 65536; inbuf = "" }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempt < retries ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        go (attempt + 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go 0

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_raw t s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring t.fd s off (String.length s - off))
  in
  go 0

let read_response t =
  let rec go () =
    match Frame.decode t.inbuf ~pos:0 with
    | Frame.Complete (msg, consumed) ->
        let rest = String.length t.inbuf - consumed in
        t.inbuf <- (if rest = 0 then "" else String.sub t.inbuf consumed rest);
        msg
    | Frame.Broken { message; _ } -> failwith ("undecodable response: " ^ message)
    | Frame.Incomplete -> (
        match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> failwith "connection closed by server"
        | n ->
            let got = Bytes.sub_string t.buf 0 n in
            t.inbuf <- (if t.inbuf = "" then got else t.inbuf ^ got);
            go ())
  in
  go ()

let call t msg =
  send_raw t (Frame.encode msg);
  read_response t

let request t ~id r = call t { Frame.id; payload = Frame.Request r }

let ping t ~id =
  match request t ~id Frame.Ping with
  | { Frame.payload = Frame.Response Frame.Pong; id = rid } -> rid = id
  | _ -> false

let decide t ~id ~problem ~algorithm ~instance =
  match
    request t ~id (Frame.Decide { Frame.problem; algorithm; instance })
  with
  | { Frame.payload = Frame.Response (Frame.Verdict v); _ } -> Ok v
  | { Frame.payload = Frame.Response (Frame.Error { code; message }); _ } ->
      Error (code, message)
  | m -> failwith ("unexpected response: " ^ Frame.describe m)

let batch t ~id items =
  match request t ~id (Frame.Batch items) with
  | { Frame.payload = Frame.Response (Frame.Batch_verdict vs); _ } -> Ok vs
  | { Frame.payload = Frame.Response (Frame.Error { code; message }); _ } ->
      Error (code, message)
  | m -> failwith ("unexpected response: " ^ Frame.describe m)

let stats t ~id =
  match request t ~id Frame.Stats with
  | { Frame.payload = Frame.Response (Frame.Stats_json s); _ } -> s
  | m -> failwith ("unexpected response: " ^ Frame.describe m)

let health t ~id =
  match request t ~id Frame.Health with
  | { Frame.payload = Frame.Response (Frame.Health_json s); _ } -> s
  | m -> failwith ("unexpected response: " ^ Frame.describe m)

let shutdown t ~id =
  match request t ~id Frame.Shutdown with
  | { Frame.payload = Frame.Response Frame.Bye; _ } -> ()
  | m -> failwith ("unexpected response: " ^ Frame.describe m)
