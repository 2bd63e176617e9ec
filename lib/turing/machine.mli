(** Multi-tape nondeterministic Turing machines (Definition 23).

    A machine has [t] external-memory tapes ([ext]) — tape 1 is the
    input tape — and [u] internal-memory tapes ([int_]). All tapes are
    one-sided infinite with 0-based cells (the paper numbers them from
    1; only relative positions matter). The resources of Definition 1
    are tracked per run: [rev(ρ,i)] head-direction changes on each
    external tape and [space(ρ,i)] cells used on each internal tape.

    Nondeterminism follows Definition 17: a run is a deterministic
    function of the input and a sequence of {e choice numbers}; in step
    [i] the machine takes the [(c_i mod |Next(γ)|)]-th enabled
    transition. Uniformly random choice numbers induce exactly the
    randomized semantics of Section 2 (Lemma 18). *)

type move = Left | Stay | Right

type transition = {
  next_state : int;
  writes : string;  (** one written symbol per tape, length [ext + int_] *)
  moves : move array;  (** one move per tape, length [ext + int_] *)
}

type t = private {
  name : string;
  num_states : int;
  state_names : string array;
  start : int;
  final : bool array;  (** [F] *)
  accepting : bool array;  (** [F_acc ⊆ F] *)
  blank : char;
  ext : int;
  int_ : int;
  delta : (int * string, transition list) Hashtbl.t;
      (** keyed by (state, read symbols as a string of length
          [ext + int_]); the list order fixes the numbering used by
          choice numbers. *)
}

val create :
  name:string ->
  state_names:string array ->
  start:int ->
  final:bool array ->
  accepting:bool array ->
  ?blank:char ->
  ext:int ->
  int_:int ->
  (int * string * transition) list ->
  t
(** [create ... transitions] builds and validates a machine: state
    indices in range, [accepting ⊆ final], no transitions out of final
    states, writes/moves arity [ext + int_], [ext ≥ 1].
    @raise Invalid_argument on any violation. *)

val is_normalized : t -> bool
(** Whether every transition moves at most one head (the paper's
    normalization assumption). *)

val normalize : t -> t
(** An equivalent machine moving at most one head per step: each
    transition with [k > 1] moving heads is serialized through [k − 1]
    fresh intermediate states (writes happen in the first sub-step;
    heads then move one per sub-step, external tapes first). Acceptance,
    per-tape reversal counts and per-tape space usage are preserved. *)

(** {1 Configurations and runs} *)

type config
(** A machine configuration: state, tape contents, head positions, plus
    reversal/space accounting accumulated since the initial
    configuration. *)

val initial_config : t -> string -> config
(** Input written on tape 1 from cell 0; all heads at 0. *)

val config_state : config -> int
val is_final : t -> config -> bool
val is_accepting : t -> config -> bool

val head_position : config -> int -> int
(** Head position on tape [i] (0-based tape index, 0-based cell). *)

val head_direction : config -> int -> int
(** Direction ([+1]/[-1]) of the most recent movement of head [i]
    ([+1] initially). *)

val enabled : t -> config -> transition list
(** [Next_T(γ)] as a list; empty for final or stuck configurations. *)

val apply : t -> config -> transition -> config
(** One step; the configuration is copied, accounting updated. *)

type outcome = Accepted | Rejected | Stuck | Out_of_fuel

type run_stats = {
  outcome : outcome;
  steps : int;
  ext_reversals : int array;  (** per external tape *)
  ext_space : int array;  (** cells used per external tape *)
  int_space : int array;  (** cells used per internal tape *)
  final_config : config;
}

val scans : run_stats -> int
(** [1 + Σ_i rev(ρ, i)] over external tapes — the paper's [r(N)]
    usage (footnote 1). *)

val total_int_space : run_stats -> int
(** [Σ_i space(ρ, i)] over internal tapes — the paper's [s(N)] usage. *)

val run : ?fuel:int -> t -> input:string -> choices:(int -> int) -> run_stats
(** [run m ~input ~choices] executes [ρ_T(input, c)] (Definition 17):
    step [i] (0-based) takes the [(choices i mod |Next|)]-th enabled
    transition. [fuel] (default [10_000_000]) bounds the step count;
    exceeding it yields [Out_of_fuel]. *)

val run_deterministic : ?fuel:int -> t -> input:string -> run_stats
(** [run] with all choice numbers 0 — the unique run when the machine is
    deterministic. *)

val tape_contents : t -> config -> int -> string
(** Contents of tape [i] (0-based tape index) up to the last used cell,
    with trailing blanks trimmed. *)
