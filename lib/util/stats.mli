(** Small statistics helpers for the experiment harness.

    The experiments fit reversal counts against [a·log2 N + b]
    (Corollary 7 / Theorem 11 upper bounds are O(log N)) and report
    empirical error rates with confidence margins (Theorem 8(a)). *)

val log2_fit : (int * int) array -> float * float * float
(** [log2_fit pts] least-squares fits [y = a·log2 x + b] over [(x, y)]
    pairs; returns [(a, b, r2)] where [r2] is the coefficient of
    determination ([1.0] when the y-variance is zero).
    @raise Invalid_argument with fewer than two points or a single
    distinct [x]. *)

val binomial_ci95 : successes:int -> trials:int -> float * float
(** Normal-approximation 95% confidence interval for a proportion,
    clamped to [\[0,1\]]. [trials] must be positive. *)
