type value = Util.Json.value =
  | Bool of bool
  | Int of int
  | String of string
  | Raw of string

type t = { oc : out_channel; owns : bool }

let open_file path = { oc = open_out path; owns = true }
let of_channel oc = { oc; owns = false }

let emit t ~event fields =
  Out_channel.output_string t.oc (Util.Json.obj (("event", String event) :: fields));
  Out_channel.output_char t.oc '\n'

let close t =
  flush t.oc;
  if t.owns then close_out t.oc

let ledger_fields (l : Ledger.t) =
  let c = l.Ledger.counters in
  [
    ("label", String l.Ledger.label);
    ("n", Int l.Ledger.n);
    ("scans", Int l.Ledger.scans);
    ("reversals", Int l.Ledger.reversals);
    ("internal_peak", Int l.Ledger.internal_peak);
    ("tapes", Int (Ledger.tape_count l));
    ("head_moves", Int (Ledger.head_moves l));
    ("reads", Int (Ledger.reads l));
    ("writes", Int (Ledger.writes l));
    ("faults", Int l.Ledger.faults_injected);
    ("budget_overruns", Int l.Ledger.budget_overruns);
    ("retry_attempts", Int c.Counters.retry_attempts);
    ("retry_gave_up", Int c.Counters.retry_gave_up);
    ("pool_chunks", Int c.Counters.pool_chunks);
    ("pool_chunk_retries", Int c.Counters.pool_chunk_retries);
    ("checkpoint_discarded", Int c.Counters.checkpoint_discarded);
    ("device_corrupt", Int c.Counters.device_corrupt_detected);
    ("device_rereads", Int c.Counters.device_quarantine_rereads);
    ("device_cleanup_failures", Int c.Counters.device_cleanup_failures);
  ]

let emit_ledger t l = emit t ~event:"ledger" (ledger_fields l)

let audit_fields (o : Audit.outcome) =
  (("spec", String o.Audit.spec_name)
  :: ("n", Int o.Audit.n)
  :: ("ok", Bool o.Audit.ok)
  :: List.concat_map
       (fun c ->
         [
           (c.Audit.resource ^ "_measured", Int c.Audit.measured);
           (c.Audit.resource ^ "_allowed", Int c.Audit.allowed);
         ])
       o.Audit.checks)

let emit_audit t o = emit t ~event:"audit" (audit_fields o)

(* Device stats are deterministic for a fixed program: cache geometry
   and access pattern fix the I/O byte counts, so the event keeps the
   -j 1/2/4 bit-identity the sink promises. *)
let device_fields ~label ~kind (s : Tape.Device.stats) =
  [
    ("label", String label);
    ("kind", String kind);
    ("resident_bytes", Int s.Tape.Device.resident_bytes);
    ("io_read_bytes", Int s.Tape.Device.io_read_bytes);
    ("io_write_bytes", Int s.Tape.Device.io_write_bytes);
    ("backing_files", Int s.Tape.Device.backing_files);
  ]

let emit_device t ~label ~kind s = emit t ~event:"device" (device_fields ~label ~kind s)

(* main-domain only, like the sink itself *)
let current_sink = ref None

let set_current t = current_sink := t
let current () = !current_sink

let emit_current ~event fields =
  match !current_sink with None -> () | Some t -> emit t ~event fields

let ledger_current l =
  match !current_sink with None -> () | Some t -> emit_ledger t l

let audit_current o =
  match !current_sink with None -> () | Some t -> emit_audit t o

let device_current ~label ~kind s =
  match !current_sink with None -> () | Some t -> emit_device t ~label ~kind s

(* Device integrity events flow into whatever sink is current. The
   listener is installed once, at link time; it emits tape names and
   cell offsets (never backing paths, whose names embed pids and
   allocation counters) plus the basename of a leaked file, so traces
   of identically-seeded runs stay byte-identical. *)
let () =
  Tape.Device.on_event (fun e ->
      match e with
      | Tape.Device.Corrupt_detected { device; offset } ->
          emit_current ~event:"storage"
            [
              ("what", String "corrupt"); ("device", String device);
              ("offset", Int offset);
            ]
      | Tape.Device.Quarantine_reread { device; offset } ->
          emit_current ~event:"storage"
            [
              ("what", String "reread"); ("device", String device);
              ("offset", Int offset);
            ]
      | Tape.Device.Cleanup_failed { device; path; error = _ } ->
          emit_current ~event:"storage"
            [
              ("what", String "cleanup-failed"); ("device", String device);
              ("file", String (Filename.basename path));
            ])

let with_sink t f =
  let saved = !current_sink in
  current_sink := Some t;
  Fun.protect
    ~finally:(fun () ->
      current_sink := saved;
      close t)
    f
