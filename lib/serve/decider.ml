module D = Problems.Decide
module I = Problems.Instance

exception Unsupported of string

type cost = { scans : int; internal : int; tapes : int }

type t = {
  verdict : bool;
  cost : cost option;
  spec : Obs.Audit.spec option;
  drawn : Fingerprint.params option;
}

let reference verdict = { verdict; cost = None; spec = None; drawn = None }

let on_tapes ?drawn spec verdict ~scans ~internal ~tapes =
  { verdict; cost = Some { scans; internal; tapes }; spec = Some spec; drawn }

let run ?budget ?retry ?obs ?device st problem algorithm inst =
  let observe = Option.map Obs.Ledger.Recorder.observe obs in
  match (problem, algorithm) with
  | Frame.Core p, Frame.Reference -> reference (D.decide p inst)
  (* YES iff the halves are equal as sets (Theorem 11(b)) *)
  | Frame.Relalg_symdiff, Frame.Reference -> reference (D.set_equality inst)
  (* YES iff some set1 string is missing from set2 (Theorem 13) *)
  | Frame.Xpath_filter, Frame.Reference ->
      let missing x = not (Array.exists (Util.Bitstring.equal x) (I.ys inst)) in
      reference (Array.exists missing (I.xs inst))
  | Frame.Core p, Frame.Sort ->
      let v, rep = Extsort.decide ?budget ?retry ?obs ?device p inst in
      on_tapes Obs.Audit.mergesort_spec v ~scans:rep.Extsort.scans
        ~internal:rep.Extsort.register_peak ~tapes:rep.Extsort.tapes
  | Frame.Core D.Multiset_equality, Frame.Fingerprint ->
      let v, rep, drawn = Fingerprint.run ?retry ?obs ?device st inst in
      on_tapes ~drawn Obs.Audit.fingerprint_spec v ~scans:rep.Fingerprint.scans
        ~internal:rep.Fingerprint.internal_bits ~tapes:rep.Fingerprint.tapes
  | Frame.Core _, Frame.Fingerprint ->
      raise (Unsupported "fingerprint solves multiset-eq only")
  | Frame.Core p, Frame.Nst -> (
      match Nst.decide_with_prover ?obs p inst with
      | v, Some rp ->
          on_tapes Obs.Audit.nst_spec v ~scans:rp.Nst.scans
            ~internal:rp.Nst.internal_registers ~tapes:rp.Nst.tapes
      | v, None -> { (reference v) with spec = Some Obs.Audit.nst_spec })
  | Frame.Relalg_symdiff, Frame.Sort ->
      let result, rep =
        Relalg.eval_streaming ?device ?observe (Relalg.instance_db inst)
          (Relalg.symmetric_difference "R1" "R2")
      in
      on_tapes Obs.Audit.relalg_symdiff_spec (result.Relalg.tuples = [])
        ~scans:rep.Relalg.scans ~internal:rep.Relalg.registers
        ~tapes:rep.Relalg.tapes
  | Frame.Xpath_filter, Frame.Sort ->
      let stream = Xmlq.Doc.serialize (Xmlq.Doc.of_instance inst) in
      let v, rep = Xmlq.Stream_filter.figure1_filter ?observe stream in
      on_tapes Obs.Audit.xpath_filter_spec v ~scans:rep.Xmlq.Stream_filter.scans
        ~internal:rep.Xmlq.Stream_filter.registers
        ~tapes:rep.Xmlq.Stream_filter.tapes
  | (Frame.Relalg_symdiff | Frame.Xpath_filter), (Frame.Fingerprint | Frame.Nst) ->
      raise
        (Unsupported
           (Frame.problem_name problem
           ^ " accepts only the reference and sort algorithms"))

let audit r inst spec =
  let l = Obs.Ledger.Recorder.ledger ~n:(I.size inst) r in
  (l, Obs.Audit.check spec l)
