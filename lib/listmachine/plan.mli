(** Planner for {e scripted} list machines.

    Useful list machines in this reproduction are {e data-oblivious}:
    their head movements depend only on the input length, never on the
    input values (values influence only accept/reject). Such a machine
    is most naturally constructed by {e piloting} a dry run — the
    planner executes every movement on a pilot configuration (using the
    real Definition 24 semantics, so all forced writes, splices, and
    clamps are accounted for), records the script, and lets the caller
    attach value {e checks} along the way. {!build} then packages the
    script as an {!Nlm.t}: state = step index, one extra rejecting sink
    entered when a check fails at run time.

    The pilot is an {!Nlm.kernel} — the same Definition 24(c) engine
    every run uses, stepped with state 0 and choice 0 — so clamps,
    forced writes, splice placement and id numbering are the run's by
    construction, and a planned step costs O(lists) (long plans grow
    long lists, which an array pilot splices at O(list length) per
    step). A plan-time write differs from the run-time write only in
    those two symbols, so every plan-time observation (input positions
    in the head cells, head positions, list lengths, ids) holds at run
    time; the listmachine test suite checks pilot and runs against a
    naive Definition 24(c) oracle. *)

type 'v check = values:'v array -> cells:Nlm.cell array -> bool
(** A runtime predicate over the resolved values visible in the cells
    under the heads. Contract: it must only use values reachable through
    the [cells] (the planner verifies at plan time that the positions a
    check wants are present). *)

type 'v t

val create : lists:int -> input_length:int -> unit -> 'v t

val cells : 'v t -> Nlm.cell array
(** Pilot cells under the heads (input symbols appear as [In i]). *)

val positions : 'v t -> int array
val dirs : 'v t -> int array
val list_length : 'v t -> int -> int
(** Current pilot length of list [τ] (1-based). *)

val reversals_planned : 'v t -> int

val move : 'v t -> ?check:'v check -> Nlm.movement array -> unit
(** Record one scripted step (with an optional check evaluated on the
    cells {e before} the step's write). *)

val pause : 'v t -> ?check:'v check -> unit -> unit
(** A state-only step: all heads keep their direction, no head moves —
    nothing is written ([f_i = 0] for all [i]); useful to attach a
    check without disturbing the lists. *)

val advance : 'v t -> tau:int -> dir:int -> unit
(** Move head [tau] (1-based) one cell in direction [dir] ([±1]),
    holding the other heads neutral. (If the head must first turn, the
    direction change happens in the same step, as in the model.)
    @raise Invalid_argument if the head is at the list end in that
    direction (the planner refuses silently-clamped moves). *)

val id_at : 'v t -> tau:int -> int
(** Stable identity of the cell under head [tau]. *)

val id_at_index : 'v t -> tau:int -> index:int -> int
(** Identity of the cell at 1-based [index] of list [tau].
    @raise Invalid_argument if out of range. *)

val goto : 'v t -> tau:int -> id:int -> unit
(** Walk head [tau] straight to the cell with the given identity (only
    head [tau] moves, so indices on list [tau] are stable during the
    walk). No-op if already there.
    @raise Failure if no cell of list [tau] has this identity. *)

val check_inputs_equal : 'v t -> eq:('v -> 'v -> bool) -> int -> int -> unit
(** [check_inputs_equal p ~eq i j] attaches (via {!pause}) the runtime
    check "the resolved values of [In i] and [In j] are equal", after
    asserting at plan time that both positions are visible in the
    current head cells.
    @raise Invalid_argument if a position is not visible. *)

val build : 'v t -> name:string -> accept_at_end:bool -> 'v Nlm.t
(** Package the script. The machine runs the recorded steps; a failing
    check diverts to a rejecting sink; reaching the end of the script
    accepts iff [accept_at_end] (otherwise rejects). [state_count] is
    the script length plus the two sinks. *)

val build_choice_dispatch :
  'v t list -> name:string -> accept_at_end:bool -> 'v Nlm.t
(** Package several scripts (planned independently from the initial
    configuration) as one {e nondeterministic} machine: its first step
    consumes the nondeterministic choice — a state-only step, nothing
    written — and the rest of the run follows the chosen script. With
    uniformly random choices the machine thus runs a uniformly random
    script: the shape the adversary's Lemma 26 step has to handle.
    @raise Invalid_argument on an empty list or mismatched
    lists/input_length across planners. *)
