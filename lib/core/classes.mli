(** The ST(r,s,t) complexity-class landscape as data (Section 2, and
    the paper's classification results).

    A {!spec} describes a resource envelope; {!admits} checks a
    measured resource usage against it. {!paper_results} encodes, as
    data, every membership / non-membership the paper proves, with its
    provenance — rendered by experiment E11 and cross-linked from
    EXPERIMENTS.md. *)

type mode =
  | Deterministic  (** ST classes *)
  | Randomized_one_sided  (** RST: no false positives, ≤ 1/2 false negatives *)
  | Co_randomized  (** co-RST: no false negatives, ≤ 1/2 false positives *)
  | Nondeterministic  (** NST *)
  | Las_vegas  (** LasVegas-RST, for function problems *)

type spec = {
  mode : mode;
  r : int -> int;  (** scan bound as a function of [N] *)
  s : int -> int;  (** internal-space bound *)
  t : int option;  (** number of external tapes; [None] = O(1), any *)
  label : string;  (** e.g. ["RST(o(log N), O(N^1/4/log N), O(1))"] *)
}

val make_spec :
  mode:mode -> r:(int -> int) -> s:(int -> int) -> ?t:int -> label:string -> unit -> spec

type usage = { n : int; scans : int; space : int; tapes : int }

val admits : spec -> usage -> bool
(** Whether the measured usage fits inside the envelope. *)

type membership = {
  problem : string;
  class_label : string;
  member : bool;
  provenance : string;  (** theorem / corollary in the paper *)
}

val paper_results : membership list
(** Every classification the paper states for the three decision
    problems, their SHORT versions, sorting, and the three query
    languages. *)
