module I = Problems.Instance
module N = Numtheory

type params = {
  m : int;
  n : int;
  input_size : int;
  k : int;
  p1 : int;
  p2 : int;
  x : int;
}

type report = { scans : int; internal_bits : int; tapes : int; faults : int }

let bits_of v = max 1 (int_of_float (ceil (log (float_of_int (max 2 v)) /. log 2.0)))

(* Fault plumbing (see [Faults.phase]): both scans are restartable — a
   retry rewinds (scan 1) or re-seeks to the right end (scan 2) through
   ordinary [move] calls, charging honest reversal costs, and rebuilds
   its registers from scratch. *)
let run ?faults ?retry ?obs ?device st inst =
  let retry = Faults.policy faults retry in
  let g = Tape.Group.create ?device () in
  (match obs with None -> () | Some r -> Obs.Ledger.Recorder.observe r g);
  let meter = Tape.Group.meter g in
  let encoded = I.encode inst in
  (* char cells have a byte codec for free, so the input tape follows
     the group's device spec; the preload is device-level (no head
     motion), so the decider still measures exactly two scans at any
     backend — the Theorem 8(a) audit is backend-independent. *)
  let tape =
    Tape.Group.tape g ~name:"input" ~codec:Tape.Device.Codec.tuple_char
      ~blank:'_' ()
  in
  Fun.protect ~finally:(fun () -> Tape.Group.close_all g) @@ fun () ->
  (* the preload is device-level and idempotent, so a below-seam I/O
     fault during the initial spill heals by re-preloading *)
  Faults.phase ?retry ~label:"fp-preload" (fun () ->
      Tape.preload_init tape (String.length encoded) (String.get encoded));
  Option.iter (fun p -> Faults.attach_char p tape) faults;
  (* Under injection a read may return any symbol (a stuck read shows
     the blank); parse leniently then instead of rejecting the input. *)
  let strict = faults = None in
  let len0 = String.length encoded in
  (* ---- scan 1 (forward): determine m, n, N ---- *)
  let hashes = ref 0 and cur = ref 0 and maxlen = ref 0 and total = ref 0 in
  Faults.phase ?retry ~label:"fp-scan1" (fun () ->
      Tape.rewind tape;
      hashes := 0;
      cur := 0;
      maxlen := 0;
      total := 0;
      for _ = 1 to len0 do
        (incr total;
         match Tape.read tape with
         | '#' ->
             incr hashes;
             if !cur > !maxlen then maxlen := !cur;
             cur := 0
         | '0' | '1' -> incr cur
         | _ -> if strict then invalid_arg "Fingerprint.run: bad input symbol");
        Tape.move tape Tape.Right
      done);
  let m = !hashes / 2 in
  let n = max 1 !maxlen in
  let input_size = !total in
  (* charge the scan-1 counters: four numbers bounded by N *)
  Tape.Meter.alloc meter (4 * bits_of (input_size + 2));
  Tape.Meter.free meter (4 * bits_of (input_size + 2));
  (* ---- parameter choice (internal memory only) ---- *)
  let k = max 2 (N.fingerprint_k ~m:(max 1 m) ~n) in
  let p1 = N.random_prime_le st k in
  let p2 = N.bertrand_prime k in
  let x = N.random_unit st p2 in
  (* registers live for the whole second scan: e, pw, sum1, sum2, string
     and marker counters, and the parameters k, p1, p2, x — all
     O(log N)-bit numbers (log k = O(log N) since k is polynomial in N) *)
  let reg_bits = 11 * bits_of (6 * k) in
  let accept =
    Tape.Meter.with_units meter reg_bits (fun () ->
        Faults.phase ?retry ~label:"fp-scan2" (fun () ->
            (* ---- scan 2 (backward): accumulate the two sums ---- *)
            (* The head is one past the last cell after scan 1 (a retry
               re-seeks it there, paying the reversals); strings come in
               reverse order, bits LSB-first: e = Σ b_j·2^j mod p1. *)
            while Tape.position tape < len0 do
              Tape.move tape Tape.Right
            done;
            let sum_y = ref 0 and sum_x = ref 0 in
            let e = ref 0 and pw = ref (1 mod p1) in
            let seen = ref 0 in
            (* strings 2m..m+1 belong to the y-half in backward order *)
            let flush () =
              incr seen;
              let contribution = N.pow_mod x !e p2 in
              if !seen <= m then sum_y := N.add_mod !sum_y contribution p2
              else sum_x := N.add_mod !sum_x contribution p2;
              e := 0;
              pw := 1 mod p1
            in
            (* Walking leftward, each '#' precedes (in reading order) the
               bits of the string it terminates, so a '#' closes the string
               accumulated since the previous marker — except the first
               (rightmost) marker, which opens the very last string. The
               leftmost string is closed at the left end of the tape. *)
            let markers = ref 0 in
            let continue_ = ref (not (Tape.at_left_end tape)) in
            if !continue_ then Tape.move tape Tape.Left;
            while !continue_ do
              (match Tape.read tape with
              | '#' ->
                  incr markers;
                  if !markers > 1 then flush ()
              | '0' -> pw := N.add_mod !pw !pw p1
              | '1' ->
                  e := N.add_mod !e !pw p1;
                  pw := N.add_mod !pw !pw p1
              | _ -> ());
              if Tape.at_left_end tape then begin
                continue_ := false;
                if m > 0 && !seen < 2 * m then flush ()
              end
              else Tape.move tape Tape.Left
            done;
            !sum_x = !sum_y))
  in
  let grp = Tape.Group.report g in
  ( accept,
    {
      scans = grp.Tape.Group.scans_used;
      internal_bits = grp.Tape.Group.internal_peak_units;
      tapes = List.length grp.Tape.Group.tapes;
      faults = Tape.Group.faults_injected g;
    },
    { m; n; input_size; k; p1; p2; x } )

let decide st inst =
  let accept, _, _ = run st inst in
  accept

let amplified st ~rounds inst =
  if rounds < 1 then invalid_arg "Fingerprint.amplified: rounds >= 1";
  let rec go r = if r = 0 then true else decide st inst && go (r - 1) in
  go rounds

(* The Monte Carlo estimators fan their independent trials out over the
   pool. The root seed is drawn from the caller's state (one pull, on
   the calling domain), then each chunk of trials runs on its own
   seed-split [Random.State] - so for a fixed caller state the estimate
   is bit-identical for every worker count. *)

let pool_of = function Some p -> p | None -> Parallel.Pool.default ()

let false_positive_rate ?pool st ~m ~n ~trials =
  let pool = pool_of pool in
  let seed = Parallel.Rng.seed_of_state st in
  let fp =
    Parallel.Pool.monte_carlo_count pool ~trials ~seed (fun st ->
        let inst =
          Problems.Generators.no_instance st Problems.Decide.Multiset_equality
            ~m ~n
        in
        decide st inst)
  in
  float_of_int fp /. float_of_int trials

let residue_collision_rate ?k ?pool st ~m ~n ~trials =
  let k =
    match k with Some k -> max 2 k | None -> max 2 (N.fingerprint_k ~m ~n)
  in
  let pool = pool_of pool in
  let seed = Parallel.Rng.seed_of_state st in
  let collisions =
    Parallel.Pool.monte_carlo_count pool ~trials ~seed (fun st ->
        let inst =
          Problems.Generators.no_instance st Problems.Decide.Multiset_equality
            ~m ~n
        in
        let p = N.random_prime_le st k in
        let residues half =
          Array.map (fun v -> N.mod_of_bits v ~modulus:p) half
          |> Array.to_list
          |> List.sort Int.compare
        in
        let xs = residues (I.xs inst) and ys = residues (I.ys inst) in
        xs = ys)
  in
  float_of_int collisions /. float_of_int trials
