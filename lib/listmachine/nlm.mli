(** Nondeterministic list machines (Definitions 14 and 24).

    An NLM has [t] lists whose cells store {e strings} over the machine
    alphabet [A = I ∪ C ∪ A ∪ {⟨,⟩}]. The transition function only
    chooses the new state and the head movements; whenever at least one
    head moves or turns, the string

    {v y = a ⟨x_1,p_1⟩ ⟨x_2,p_2⟩ … ⟨x_t,p_t⟩ ⟨c⟩ v}

    (current state, all cells under heads, nondeterministic choice) is
    written behind every head — either overwriting the current cell
    (when the head leaves it) or spliced in as a fresh cell. This forced
    write is what makes information flow trackable: every input value
    ever seen together flows into the same cell.

    Faithfulness notes. Cells store input {e positions} ([In i]), not
    values: the run supplies the value vector, so the same machine can
    be replayed on inputs that differ only at chosen positions — exactly
    what the composition lemma (Lemma 34) and the lower-bound adversary
    need. Head clamping at list ends, the three splice cases, and the
    position update table are implemented verbatim from Definition 24(c).

    Representation. A cell is a hash-consed DAG node, not a flat string:
    a written cell stores [a], {e references} to the component cells
    [x_τ], and [c]. Cell sizes grow like [t^O(r)] (Lemma 30), so the
    flat representation is exponential in the reversal count while the
    DAG write is O(t). Every node memoizes its flattened length, rolling
    content hashes (choice-sensitive and choice-blind), and the set of
    input positions it mentions; functions documented as "flattened
    view" walk the full expansion and cost [cell_size]. *)

type sym =
  | In of int  (** input number by 1-based input position *)
  | Ch of int  (** nondeterministic choice [c ∈ C], 0-based *)
  | St of int  (** abstract state *)
  | Open
  | Close

type cell
(** A cell content — a string over the alphabet, represented as a
    memoized DAG node. Two cells with the same flattened string are
    [cell_equal] regardless of how they were built. *)

val cell_of_syms : sym list -> cell
(** Build a leaf cell from an explicit symbol string. *)

val syms_of_cell : cell -> sym list
(** Flattened view: the full symbol string. Cost [cell_size]. *)

val cell_equal : cell -> cell -> bool
(** Structural equality of the flattened strings. O(1) on physically
    shared nodes and hash-mismatching nodes; memoized descent otherwise. *)

val cell_sk_hash : cell -> int
(** Deterministic rolling hash of the flattened string, choice-blind:
    invariant under replacing any [Ch c] by [Ch c']. Equal cells hash
    equal; independent of construction history, process, domain. *)

val cell_sk_equal_memo : ((int * int), bool) Hashtbl.t -> cell -> cell -> bool
(** Choice-blind equality: like {!cell_equal} but every [Ch _] matches
    every [Ch _] — the cell-level congruence of skeletons
    (Definition 28 wildcards the choices). The caller owns the memo
    table, keyed on ordered cell-uid pairs, so a batch of comparisons
    over structurally shared cells (all the entries of one skeleton
    pair) traverses each DAG node pair once. The table must not be
    shared across domains. *)

val merge_input_positions : int array array -> int array
(** Union of sorted distinct position arrays, sorted distinct, in time
    linear in their total length. An operand that already holds the
    union is returned physically, not copied. *)

val positions_mem : int array -> int -> bool
(** Binary-search membership in a sorted distinct position array. *)

val cell_mentions : cell -> int -> bool
(** [cell_mentions c i] — does input position [i] occur anywhere in the
    flattened string? {!positions_mem} on the memoized position set. *)

val cell_input_positions : cell -> int array
(** Sorted distinct input positions occurring in the cell. The returned
    array is owned by the cell — do not mutate. *)

val cell_prefix_syms : cell -> int -> sym list
(** First [n] symbols of the flattened string, without materializing the
    rest. For bounded rendering. *)

val cell_suffix_syms : cell -> int -> sym list
(** Last [n] symbols of the flattened string, by a mirrored walk. *)

type movement = { dir : int; move : bool }
(** [dir ∈ {-1,+1}]; [move] is the Definition 14 move flag. *)

type transition = { next_state : int; movements : movement array }

type 'v alpha =
  values:'v array -> state:int -> cells:cell array -> choice:int -> transition
(** The transition function [alpha : (A minus B) x (A* )^t x C -> A x Movement^t].
    [values.(i-1)] resolves [In i]; [cells.(τ)] is the cell under head
    [τ+1]. Must be a pure function of the {e resolved} cell contents,
    the state, and the choice — it must not inspect positions beyond
    resolving them to values (the skeleton machinery checks replays for
    consistency). *)

type 'v t = {
  lists : int;  (** [t ≥ 1] *)
  input_length : int;  (** [m] *)
  num_choices : int;  (** [|C| ≥ 1]; 1 = deterministic *)
  state_count : int;  (** declared [|A|] = the [k] of the bound formulas *)
  initial : int;
  is_final : int -> bool;
  is_accepting : int -> bool;
  alpha : 'v alpha;
  name : string;
}

val make :
  name:string -> lists:int -> input_length:int -> num_choices:int ->
  state_count:int -> initial:int -> is_final:(int -> bool) ->
  is_accepting:(int -> bool) -> alpha:'v alpha -> 'v t
(** Validates the scalar parameters. @raise Invalid_argument. *)

(** {1 Configurations} *)

type config = {
  state : int;
  pos : int array;  (** 1-based head positions, per list *)
  head_dir : int array;  (** last head direction, [+1] initially *)
  contents : cell array array;  (** [contents.(τ).(j-1)] = cell [j] of list [τ+1] *)
  revs : int array;  (** direction changes so far, per list *)
  ids : int array array;  (** stable cell identities, parallel to
      [contents]: an overwritten cell keeps its id, a spliced-in cell
      gets a fresh one. Ids are an analysis aid (provenance tracking for
      planners and the adversary); they carry no semantics. *)
  next_id : int;
}

val initial_config : 'v t -> config
(** List 1 holds [⟨v_1⟩,…,⟨v_m⟩] as [⟨In i⟩] cells; other lists hold the
    single cell [⟨⟩]. *)

val current_cells : config -> cell array
(** The [t] cells under the heads. *)

val step : 'v t -> values:'v array -> config -> choice:int -> config * int array
(** One step (Definition 24(c)): applies [α], clamps movements at list
    ends, performs the forced write and splices, updates positions,
    directions and reversal counts. Returns the new configuration and
    the per-list {e cell movement} vector ([-1/0/+1] — whether each head
    ended on the previous / same / next cell, the [moves(ρ)] entry of
    Definition 27). Persistent, hence O(list length): [c] is loaded
    into a {!kernel}, stepped once and snapshotted, sharing the arrays
    the step left unchanged with [c].
    @raise Invalid_argument if the configuration is final or the choice
    is out of range. *)

(** {1 The kernel}

    The one implementation of Definition 24(c), shared by {!step},
    {!run}, {!run_view} and {!Plan}'s pilot. A kernel is a mutable
    configuration minus the state: each list is a ring of doubly-linked
    cells with a cursor, so the splice Definition 24(c) forces under
    every resting head costs O(1) and a step costs O(t), where an array
    representation pays O(list length) per resting list. *)

type kernel

val kernel_create : lists:int -> input_length:int -> kernel
(** The lists, head positions, directions and ids of {!initial_config}. *)

val kernel_step : kernel -> state:int -> choice:int -> movement array -> int array
(** One Definition 24(c) step under the raw (pre-clamp) movements α
    chose in [state] with [choice]: clamps movements at list ends and,
    if some head moves or turns, writes [state⟨x_1⟩…⟨x_t⟩⟨choice⟩]
    under every head — overwriting the cell a moving head leaves,
    splicing a fresh cell (fresh id) behind a resting one. Updates
    positions, directions and reversal counts, and returns the cell
    movement vector, as {!step} does. O(t).
    @raise Invalid_argument on a wrong arity or a direction not [±1]. *)

val kernel_cells : kernel -> cell array
(** The [t] cells under the heads (fresh array). *)

val kernel_position : kernel -> int -> int
(** [kernel_position k τ] — the 1-based position of head [τ+1]. The
    accessors below index lists from 0, like the arrays of {!config}. *)

val kernel_dir : kernel -> int -> int
val kernel_length : kernel -> int -> int

val kernel_reversals : kernel -> int
(** Direction changes so far, summed over the lists. *)

val kernel_id_at : kernel -> int -> index:int -> int
(** [kernel_id_at k τ ~index] — identity of cell [index] (1-based) of
    list [τ+1], walked to from the nearest of the front, the head and
    the back. @raise Invalid_argument if out of range. *)

val kernel_index_of_id : kernel -> int -> int -> int option
(** [kernel_index_of_id k τ id] — 1-based index of the cell with
    identity [id] in list [τ+1]. O(list length). *)

(** {1 Runs} *)

type trace = {
  accepted : bool;
  configs : config array;  (** [ρ_1 … ρ_ℓ] *)
  moves : int array array;
      (** [moves.(i)] = cell-movement vector of step [i+1]; read-only,
          consecutive equal vectors share one array *)
  choices_used : int array;
  total_revs : int;
}

val run : ?fuel:int -> 'v t -> values:'v array -> choices:(int -> int) -> trace
(** [ρ_M(v, c)] (Definition 15). [fuel] (default 100_000) bounds the
    run length; @raise Failure on exhaustion (an (r,t)-bounded NLM has
    finite runs — Lemma 31 gives the bound). *)

val scans : trace -> int
(** [1 + Σ_τ rev(ρ, τ)] — the (r,t)-bound usage. *)

(** {2 View runs}

    {!run} snapshots the full configuration after every step; the
    snapshots are persistent, so each step copies the written lists —
    O(total list length) of fresh major-heap arrays per step, which on
    adversary-sized machines dominates the run cost and makes parallel
    sweeps contend on the shared GC. The skeleton pipeline
    (Definition 27) only consumes the local view of each configuration:
    state, head directions, and the [t] cells under the heads. A view
    run drives the same {!kernel} and records exactly those views,
    allocating O(t) per step. *)

type view = {
  vstate : int;
  vdirs : int array;  (** head directions in this configuration *)
  vcells : cell array;  (** the [t] cells under the heads *)
}

type view_trace = {
  vaccepted : bool;
  views : view array;  (** local views of [ρ_1 … ρ_ℓ] *)
  vmoves : int array array;  (** as {!trace.moves} *)
  vchoices_used : int array;
  vtotal_revs : int;
  final : config;  (** the full final configuration, materialized once *)
  max_total_list_length : int;  (** max over the run of [Σ_τ |list τ|] *)
  max_cell_size : int;  (** max {!cell_size} over all cells of the run *)
}

val run_view : ?fuel:int -> 'v t -> values:'v array -> choices:(int -> int) -> view_trace
(** Same semantics as {!run} — identical states, moves, acceptance, and
    (choice-blind) skeleton — without the per-step configuration
    snapshots. Views are read-only: consecutive views with equal head
    directions share one [vdirs] array (and equal move vectors share,
    as in {!trace.moves}). *)

val accept_probability :
  Random.State.t -> ?samples:int -> ?fuel:int -> 'v t -> values:'v array -> float
(** Monte-Carlo estimate of [Pr(M accepts v)] by sampling uniform choice
    sequences (Lemma 25). Exact for deterministic machines (one
    sample suffices; we still run [samples] of them). *)

val exact_probability : ?fuel:int -> 'v t -> values:'v array -> float
(** Exact [Pr(M accepts v)] by weighted exploration of the choice tree
    (each step branches uniformly over the [num_choices] choices, as in
    the randomized semantics before Definition 15). Exponential in the
    run length — for small machines and tests. [fuel] (default 200_000)
    bounds the number of configurations expanded.
    @raise Failure on fuel exhaustion. *)

(** {1 Cell utilities} *)

val cell_inputs : cell -> int list
(** Input positions occurring in the flattened cell string, in order of
    occurrence, duplicates preserved. Flattened view — cost
    [cell_size]; hot paths should use {!cell_mentions} /
    {!cell_input_positions} instead. *)

val cell_components : cell -> (int * cell list * int) option
(** Decompose a written cell [a⟨x_1⟩…⟨x_t⟩⟨c⟩] into
    [(a, \[x_1;…;x_t\], c)]; [None] for unwritten cells ([⟨v⟩] or
    [⟨⟩]). O(t) on machine-written cells; hand-built [Syms] cells are
    parsed by bracket matching. Machines use this to navigate nested
    payloads. *)

val cell_size : cell -> int
(** Length of the flattened string (number of alphabet symbols) — the
    cell-size measure of Lemma 30(b). O(1); saturates at [max_int]. *)

