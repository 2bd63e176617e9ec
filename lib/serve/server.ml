(* The stlb/1 server. One select loop on the main domain owns all
   sockets and all response ordering; decide work — the only expensive
   part — fans out over a Parallel.Pool. Determinism contract: a
   verdict is a function of (cfg.seed, request id) alone, so neither
   the worker count nor the coalescing below can change any response
   byte (exp20 and test_serve pin this). *)

module J = Util.Json

type config = {
  socket : string;
  seed : int;
  domains : int;
  device : Tape.Device.spec option;
  max_scans : int option;
  max_frame : int;
  max_batch : int;
  queue_bound : int;
  max_requests : int option;
}

let default ~socket =
  {
    socket;
    seed = 42;
    domains = 1;
    device = None;
    max_scans = None;
    max_frame = Frame.default_max_frame;
    max_batch = 64;
    queue_bound = 128;
    max_requests = None;
  }

(* ---------------------------------------------------------------- *)
(* request execution                                                 *)

type exec_result = {
  outcome : (Frame.verdict, Frame.error_code * string) result;
  obs : (Obs.Ledger.t * Obs.Audit.outcome) option;
      (* ledger + audit of the run, for --trace emission (main domain) *)
}

let fail code msg = { outcome = Error (code, msg); obs = None }

(* One decide, seeded purely by (server seed, request id). Runs on a
   pool worker: no trace emission, no shared mutable state beyond the
   process atomics. *)
let exec cfg ~id (d : Frame.decide_body) : exec_result =
  match Problems.Instance.decode d.Frame.instance with
  | exception Invalid_argument m -> fail Frame.Malformed ("bad instance: " ^ m)
  | inst -> (
      let st = Parallel.Rng.request_state ~server_seed:cfg.seed ~request_id:id in
      let budget =
        Option.map
          (fun s -> { Tape.Group.max_scans = Some s; max_internal = None })
          cfg.max_scans
      in
      let r =
        Obs.Ledger.Recorder.create ~label:(Frame.algorithm_name d.Frame.algorithm) ()
      in
      match
        Decider.run ?budget ?device:cfg.device ~obs:r st d.Frame.problem
          d.Frame.algorithm inst
      with
      | { Decider.verdict; cost = Some c; spec = Some spec; _ } ->
          let l, o = Decider.audit r inst spec in
          let outcome =
            if o.Obs.Audit.ok then
              Ok
                {
                  Frame.verdict;
                  audited = true;
                  scans = c.Decider.scans;
                  internal = c.Decider.internal;
                  tapes = c.Decider.tapes;
                }
            else
              Error
                ( Frame.Audit_failed,
                  Printf.sprintf "run exceeded the %s budget at N=%d"
                    o.Obs.Audit.spec_name o.Obs.Audit.n )
          in
          { outcome; obs = Some (l, o) }
      | { Decider.verdict; _ } ->
          (* reference runs, and NST with no witness: nothing to audit *)
          {
            outcome =
              Ok { Frame.verdict; audited = false; scans = 0; internal = 0; tapes = 0 };
            obs = None;
          }
      | exception Decider.Unsupported m -> fail Frame.Malformed m
      | exception Tape.Budget_exceeded m -> fail Frame.Budget ("budget exceeded: " ^ m)
      | exception Faults.Retry.Gave_up { label; attempts; _ } ->
          fail Frame.Budget
            (Printf.sprintf "gave up after %d attempts in %s" attempts label)
      | exception e -> fail Frame.Internal (Printexc.to_string e))

(* ---------------------------------------------------------------- *)
(* server state                                                      *)

type conn = { fd : Unix.file_descr; mutable inbuf : string }

type stats = {
  mutable frames : int;
  mutable pings : int;
  mutable decides : int;
  mutable batch_frames : int;
  mutable batch_items : int;
  mutable stats_reqs : int;
  mutable health_reqs : int;
  mutable yes : int;
  mutable no : int;
  mutable shed : int;  (* OVERLOADED responses (queue or batch bound) *)
  mutable malformed : int;  (* broken frames answered with an error *)
  mutable audit_failures : int;
  mutable budget_errors : int;
  mutable internal_errors : int;
  mutable pooled_rounds : int;  (* decide groups coalesced onto the pool *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable max_queue : int;
}

let zero_stats () =
  {
    frames = 0;
    pings = 0;
    decides = 0;
    batch_frames = 0;
    batch_items = 0;
    stats_reqs = 0;
    health_reqs = 0;
    yes = 0;
    no = 0;
    shed = 0;
    malformed = 0;
    audit_failures = 0;
    budget_errors = 0;
    internal_errors = 0;
    pooled_rounds = 0;
    bytes_in = 0;
    bytes_out = 0;
    max_queue = 0;
  }

let device_kind = function
  | None | Some Tape.Device.Mem -> "mem"
  | Some (Tape.Device.File _) -> "file"
  | Some (Tape.Device.Shard _) -> "shard"

(* STATS and HEALTH bodies: deterministic single-line JSON, field order
   fixed here *)
let stats_json st ~since =
  let c = Obs.Counters.diff (Obs.Counters.snapshot ()) ~since in
  J.obj
    [
      ("frames", J.Int st.frames);
      ("pings", J.Int st.pings);
      ("decides", J.Int st.decides);
      ("batch_frames", J.Int st.batch_frames);
      ("batch_items", J.Int st.batch_items);
      ("stats", J.Int st.stats_reqs);
      ("health", J.Int st.health_reqs);
      ("yes", J.Int st.yes);
      ("no", J.Int st.no);
      ("shed", J.Int st.shed);
      ("malformed", J.Int st.malformed);
      ("audit_failures", J.Int st.audit_failures);
      ("budget_errors", J.Int st.budget_errors);
      ("internal_errors", J.Int st.internal_errors);
      ("pooled_rounds", J.Int st.pooled_rounds);
      ("bytes_in", J.Int st.bytes_in);
      ("bytes_out", J.Int st.bytes_out);
      ("max_queue", J.Int st.max_queue);
      ( "counters",
        J.Raw
          (J.obj
             (List.map (fun (k, v) -> (k, J.Int v)) (Obs.Counters.to_fields c)))
      );
    ]

let health_json cfg st ~stopping ~queue_depth ~pool =
  let h = Parallel.Pool.health pool in
  J.obj
    [
      ("status", J.String (if stopping then "stopping" else "ok"));
      ("protocol_version", J.Int Frame.version);
      ("seed", J.Int cfg.seed);
      ("domains", J.Int cfg.domains);
      ("device", J.String (device_kind cfg.device));
      ("queue_bound", J.Int cfg.queue_bound);
      ("max_batch", J.Int cfg.max_batch);
      ("queue_depth", J.Int queue_depth);
      ("frames", J.Int st.frames);
      ("shed", J.Int st.shed);
      ( "pool",
        J.Raw
          (J.obj
             [
               ("chunks_retried", J.Int h.Parallel.Pool.chunks_retried);
               ("deadline_overruns", J.Int h.Parallel.Pool.deadline_overruns);
               ("degraded_spawns", J.Int h.Parallel.Pool.degraded_spawns);
             ]) );
    ]

(* ---------------------------------------------------------------- *)
(* the serve loop                                                    *)

type pending = { pconn : conn; pmsg : Frame.msg }

let write_all st conn s =
  let len = String.length s in
  try
    let rec go off =
      if off < len then
        go (off + Unix.write_substring conn.fd s off (len - off))
    in
    go 0;
    st.bytes_out <- st.bytes_out + len;
    true
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let respond st conn ~id response =
  ignore (write_all st conn (Frame.encode { Frame.id; payload = Response response }))

let run ?(on_ready = fun () -> ()) cfg =
  if cfg.domains < 1 then invalid_arg "Server.run: domains must be >= 1";
  (* writes to disconnected clients must raise EPIPE (handled in
     [write_all]), not kill the server with the default SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let pool = Parallel.Pool.create ~domains:cfg.domains () in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 16;
  on_ready ();
  let st = zero_stats () in
  let counters_at_start = Obs.Counters.snapshot () in
  let conns : conn list ref = ref [] in
  let queue : pending Queue.t = Queue.create () in
  let stopping = ref false in
  let close_conn c =
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let frame_seen () =
    st.frames <- st.frames + 1;
    match cfg.max_requests with
    | Some n when st.frames >= n -> stopping := true
    | _ -> ()
  in
  (* Pull every complete frame out of a connection's buffer. Broken
     frames are answered loudly; only an unrecoverable length prefix
     (consumed = 0) loses the connection. *)
  let ingest c =
    let rec go pos =
      match Frame.decode ~max_frame:cfg.max_frame c.inbuf ~pos with
      | Frame.Incomplete ->
          if pos > 0 then begin
            let rest = String.length c.inbuf - pos in
            c.inbuf <- (if rest = 0 then "" else String.sub c.inbuf pos rest)
          end
      | Frame.Complete (msg, consumed) ->
          frame_seen ();
          if Queue.length queue >= cfg.queue_bound then begin
            st.shed <- st.shed + 1;
            respond st c ~id:msg.Frame.id
              (Frame.Error
                 {
                   code = Frame.Overloaded;
                   message =
                     Printf.sprintf "queue full (%d pending)" (Queue.length queue);
                 })
          end
          else begin
            Queue.add { pconn = c; pmsg = msg } queue;
            st.max_queue <- max st.max_queue (Queue.length queue)
          end;
          go (pos + consumed)
      | Frame.Broken { code; message; consumed } ->
          frame_seen ();
          st.malformed <- st.malformed + 1;
          let id = Option.value (Frame.peek_id c.inbuf ~pos) ~default:0 in
          respond st c ~id (Frame.Error { code; message });
          if consumed = 0 then begin
            c.inbuf <- "";
            close_conn c
          end
          else go (pos + consumed)
    in
    go 0
  in
  (* One receive buffer per server, not per connection: the select
     loop reads on this domain only, and an idle client then costs no
     64 KiB. A fresh chunk per read would go straight to the major heap
     and pace its collections. *)
  let buf = Bytes.create 65536 in
  let read_some c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> close_conn c
    | n ->
        st.bytes_in <- st.bytes_in + n;
        let got = Bytes.sub_string buf 0 n in
        c.inbuf <- (if c.inbuf = "" then got else c.inbuf ^ got);
        ingest c
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* Process the drained queue: coalesce every queued decide item —
     singleton DECIDEs and BATCH items alike — into one pool round,
     then write responses in arrival order. *)
  let process_queue () =
    let entries = List.of_seq (Queue.to_seq queue) in
    Queue.clear queue;
    (* mod 2^62: masking with max_id (= 2^62 - 1) also clears the sign
       bit if base + i overflowed the native int *)
    let effective_id base i = (base + i) land Frame.max_id in
    let works = ref [] in
    List.iteri
      (fun ei p ->
        match p.pmsg.Frame.payload with
        | Frame.Request (Frame.Decide d) ->
            works := (ei, 0, p.pmsg.Frame.id, d) :: !works
        | Frame.Request (Frame.Batch items)
          when List.length items <= cfg.max_batch ->
            List.iteri
              (fun i d ->
                works := (ei, i, effective_id p.pmsg.Frame.id i, d) :: !works)
              items
        | _ -> ())
      entries;
    let works = Array.of_list (List.rev !works) in
    let run_one (_, _, id, d) = exec cfg ~id d in
    let results =
      if Array.length works > 1 && cfg.domains > 1 then begin
        st.pooled_rounds <- st.pooled_rounds + 1;
        Parallel.Pool.map pool run_one works
      end
      else Array.map run_one works
    in
    (* ledger/audit trace events: main domain, arrival order *)
    Array.iter
      (fun r ->
        match r.obs with
        | Some (l, o) ->
            Obs.Trace.ledger_current l;
            Obs.Trace.audit_current o
        | None -> ())
      results;
    let by_slot = Hashtbl.create 16 in
    Array.iteri
      (fun k (ei, i, _, _) -> Hashtbl.replace by_slot (ei, i) results.(k))
      works;
    let account r =
      match r.outcome with
      | Ok v ->
          if v.Frame.verdict then st.yes <- st.yes + 1 else st.no <- st.no + 1
      | Error (Frame.Audit_failed, _) -> st.audit_failures <- st.audit_failures + 1
      | Error (Frame.Budget, _) -> st.budget_errors <- st.budget_errors + 1
      | Error (Frame.Internal, _) -> st.internal_errors <- st.internal_errors + 1
      | Error _ -> ()
    in
    List.iteri
      (fun ei p ->
        let id = p.pmsg.Frame.id in
        let reply = respond st p.pconn ~id in
        match p.pmsg.Frame.payload with
        | Frame.Request Frame.Ping ->
            st.pings <- st.pings + 1;
            reply Frame.Pong
        | Frame.Request Frame.Stats ->
            st.stats_reqs <- st.stats_reqs + 1;
            reply (Frame.Stats_json (stats_json st ~since:counters_at_start))
        | Frame.Request Frame.Health ->
            st.health_reqs <- st.health_reqs + 1;
            reply
              (Frame.Health_json
                 (health_json cfg st ~stopping:!stopping
                    ~queue_depth:(Queue.length queue) ~pool))
        | Frame.Request Frame.Shutdown ->
            stopping := true;
            reply Frame.Bye
        | Frame.Request (Frame.Decide _) -> (
            st.decides <- st.decides + 1;
            let r = Hashtbl.find by_slot (ei, 0) in
            account r;
            match r.outcome with
            | Ok v -> reply (Frame.Verdict v)
            | Error (code, message) -> reply (Frame.Error { code; message }))
        | Frame.Request (Frame.Batch items) ->
            st.batch_frames <- st.batch_frames + 1;
            if List.length items > cfg.max_batch then begin
              st.shed <- st.shed + 1;
              reply
                (Frame.Error
                   {
                     code = Frame.Overloaded;
                     message =
                       Printf.sprintf "batch of %d exceeds max %d"
                         (List.length items) cfg.max_batch;
                   })
            end
            else begin
              st.batch_items <- st.batch_items + List.length items;
              let rs = List.mapi (fun i _ -> Hashtbl.find by_slot (ei, i)) items in
              List.iter account rs;
              match
                List.find_map
                  (fun (i, r) ->
                    match r.outcome with
                    | Error (code, m) ->
                        Some (code, Printf.sprintf "item %d: %s" i m)
                    | Ok _ -> None)
                  (List.mapi (fun i r -> (i, r)) rs)
              with
              | Some (code, message) -> reply (Frame.Error { code; message })
              | None ->
                  reply
                    (Frame.Batch_verdict
                       (List.map
                          (fun r ->
                            match r.outcome with
                            | Ok v -> v
                            | Error _ -> assert false)
                          rs))
            end
        | Frame.Response _ ->
            reply
              (Frame.Error
                 {
                   code = Frame.Bad_type;
                   message = "expected a request, got a response frame";
                 }))
      entries
  in
  let rec loop () =
    if !stopping && Queue.is_empty queue then ()
    else begin
      let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
      (match Unix.select fds [] [] 0.5 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd == listen_fd then begin
                let cfd, _ = Unix.accept listen_fd in
                conns := { fd = cfd; inbuf = "" } :: !conns
              end
              else
                match List.find_opt (fun c -> c.fd == fd) !conns with
                | Some c -> read_some c
                | None -> ())
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not (Queue.is_empty queue) then process_queue ();
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket with Unix.Unix_error _ -> ())
    loop
