(** Streaming companion to the XPath filter (the upper-bound side of
    Theorem 13's tightness).

    Theorem 13 shows Figure 1's filter needs [Ω(log N)] reversals in
    the sublogarithmic-memory regime; by Corollary 7 its decision —
    "is some [set1] string missing from [set2]?" — {e is} computable
    with [O(log N)] reversals and constant internal registers. This
    module implements that: one forward scan of the serialized document
    stream extracts the two string multisets onto tapes, then a
    sort-and-merge subset test decides the filter. *)

type report = { n : int; scans : int; registers : int; tapes : int }

val figure1_filter :
  ?obs:Obs.Ledger.Recorder.t -> string -> bool * report
(** [figure1_filter stream] — does the Figure 1 XPath query select at
    least one node of the document serialized as [stream]? Measured on
    the tape substrate; [n] is the stream length. [obs] observes the
    run's tape group, as the deciders' [?obs] does.
    @raise Invalid_argument if the stream is not a serialized Section 4
    instance document. *)

val theorem12_query :
  ?obs:Obs.Ledger.Recorder.t -> string -> bool * report
(** The Theorem 12 XQuery decision ("the two string sets are equal"),
    streaming: the same extraction scan, then sorted deduplicated
    comparison of the two sides. Also [O(log N)] scans — the
    deterministic counterpart whose optimality Theorem 12 establishes.
    @raise Invalid_argument on malformed streams (as above). *)
