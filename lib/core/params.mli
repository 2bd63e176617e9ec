(** Parameter arithmetic of the lower bound (Lemma 21 and Lemma 22).

    Lemma 21 needs, for an (r,t)-bounded NLM with [k] states on [2m]
    inputs from [{0,1}^n]:

    {v t ≥ 2,  m ≥ 24·(t+1)^{4r} + 1,  k ≥ 2m + 3,
       n ≥ 1 + (m² + 1)·log2(2k) v}

    Lemma 22 instantiates them against resource functions [r(N)], [s(N)]:
    with [n = m³] and [N = 2m(m³+1)], [m] must satisfy equations (3)
    and (4):

    {v (3)  m  ≥ 24·(t+1)^{4·r(N)} + 1
       (4)  m³ ≥ 1 + d·t²·r(N)·s(N) + 3t·log2 N v}

    which is possible for large [m] exactly when [r(N) = o(log N)] and
    [r(N)·s(N) = o(N^{1/4})] — the tightness frontier of Theorem 6. *)

type lemma21 = {
  min_m : float;  (** [24·(t+1)^{4r} + 1] (overflows int quickly) *)
  min_k : int;  (** [2m + 3] *)
  min_n : float;  (** [1 + (m²+1)·log2(2k)] *)
}

val lemma21_thresholds : t:int -> r:int -> m:int -> k:int -> lemma21
(** The thresholds; [min_n] is computed from the given [m] and [k].
    @raise Invalid_argument if [t < 2]. *)

val lemma21_ok : t:int -> r:int -> m:int -> k:int -> n:int -> bool
(** All four Lemma 21 side conditions hold. *)

val input_size : m:int -> int
(** [N = 2m(m³+1)] — the CHECK-ϕ input size for [n = m³]. *)

val eq3_holds : t:int -> r:(int -> int) -> m:int -> bool
(** Equation (3) at [N = input_size m]. *)

val eq4_holds : t:int -> d:int -> r:(int -> int) -> s:(int -> int) -> m:int -> bool
(** Equation (4) at [N = input_size m], with simulation constant [d]. *)

val find_min_m :
  t:int -> d:int -> r:(int -> int) -> s:(int -> int) -> cap:int -> int option
(** The smallest power-of-two [m ≤ cap] satisfying both equations —
    [None] if no such [m] exists below the cap (as happens when [r]
    grows like [log N], illustrating tightness). *)

(** Stock resource functions for experiments. *)
val r_const : int -> int -> int
(** [r_const c] is [fun _ -> c]. *)

val r_log : ?scale:float -> unit -> int -> int
(** [⌈scale · log2 N⌉], default scale 1. *)

val s_fourth_root : ?scale:float -> unit -> int -> int
(** [⌈scale · N^{1/4} / log2 N⌉] — the internal-memory frontier. *)
