(** Axiomatic (SAT-based) second oracle for the litmus checker.

    {!Litmus.explore} and {!Litmus.enumerate_reference} are both
    {e operational}: they walk interleavings of an explicit
    store-buffer machine, and they share authorship and the state-space
    view, so a common blind spot would go unnoticed. This module answers
    the same question — the exact reachable outcome set of a litmus
    program under a memory mode — from a structurally disjoint angle: it
    compiles the program into a {e declarative} constraint system over
    integer action times and read-from choices, and has a CDCL SAT
    solver ({!Tbtso_sat.Solver}) enumerate the models.

    {2 The encoding}

    The operational model advances a global clock by one tick per action
    (instruction, drain, or idle). The encoding assigns every action a
    time slot in [1..H]:

    - each instruction position gets an {e issue} time [X]; each store
      position additionally gets a {e commit} (drain) time [C] (CAS
      writes memory directly, so its write aliases its issue);
    - [Loadeq] control flow lives {e inside} the formula: one branch
      literal per [Loadeq] (true ⟺ the read matched), executed
      literals [ex(i,k)] defined from them by the control DAG, and
      every program-order, store-buffer and read-from constraint
      guarded by the [ex] of the positions it mentions. Events of
      unexecuted positions are unconstrained phantoms that park in
      leftover slots;
    - all action times are pairwise distinct (one action per tick),
      via order-encoded integers (booleans [T ≤ t] with ladder clauses)
      and reified comparison literals;
    - program order: along every executed control edge,
      [X' ≥ X + 1], and [X' ≥ X + d + 1] after [Wait d];
    - store buffers are FIFO: same-thread commits in program order;
    - mode axioms are {e activation literals} passed as assumptions:
      the base formula is TSO ([C > X]); a grid literal [a(Δ)] adds
      [C ≤ X + Δ] (the paper's temporal drain bound, TBTSO[Δ]), with
      [a(Δ) → a(Δ')] for [Δ < Δ'] chaining the grid; SC is the
      [Δ = 1] point (with one action per tick the commit takes the
      very next slot, which is observationally SC); [cap(S)] adds the
      TSO[S] capacity condition; fence-site selectors [f(i,k)] force
      store [k] to commit before the thread's next instruction;
    - [Fence]/[Cas] require every program-order-earlier same-thread
      store to have committed ([C < X]);
    - each read takes its value from its thread's newest executed
      still-buffered same-address store (forwarding) if one exists,
      else from the co-latest committed write before it, else the
      initial 0 — an exactly-one read-from choice whose side
      conditions are [ex]-guarded;
    - the final value of a register is chosen by dynamic last-writer
      literals (the last {e executed} load/CAS writing it), and final
      memory by co-latest-write literals.

    The idle-tick rule ("idle only while some thread waits") needs no
    clauses: any satisfying time assignment with uncovered gaps
    compresses — by deleting slots not occupied by an executed event
    and not covered by an executed wait — to a valid operational
    execution with the same outcome, and conversely every operational
    execution of length ≤ H embeds directly, with
    H = Σ (instructions + stores) + Σ wait durations.

    {2 Incremental sessions}

    A {!session} owns one solver for the program's single formula and
    serves any number of queries against it: outcome enumeration per
    mode ({!enumerate_session}), and robustness ({!robust}) — is the
    mode's outcome set equal to the SC set? Enumeration solves under
    [mode activation + a fresh query guard] with blocking clauses over
    the observable literals hung off the guard; when the query ends
    the guard is retired (unit + {!Tbtso_sat.Solver.simplify}), so
    mode-independent learned clauses survive into the next query while
    query-local clauses are reclaimed. Robustness needs no second
    enumeration: the SC set is enumerated once behind a persistent
    guard, and a single [solve] under [mode activation + SC guard]
    decides containment (SC ⊆ mode holds by construction for every
    mode the grid can express) — a model is a witness outcome beyond
    SC. This is what makes Δ-sweeps and minimal-Δ binary searches
    (see {!Adviser}) cheap: one formula, retained learned clauses,
    O(log H) incremental queries.

    The module deliberately shares no exploration code with
    {!Litmus}: it reuses only the instruction AST and the
    {!Litmus.outcome} type, so the two oracles can disagree — which is
    exactly what [tbtso-litmus check --oracle both] tests for. *)

type stats = {
  paths : int;
      (** Loadeq path combinations covered by the (single) formula. *)
  vars : int;  (** SAT variables in the session's solver. *)
  clauses : int;  (** Problem clauses currently live. *)
  solves : int;  (** Solver calls (≥ outcomes + 1 per enumeration). *)
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;  (** Learned clauses currently retained. *)
  restarts : int;
  outcomes : int;  (** Distinct outcomes found. *)
  elapsed : float;  (** CPU seconds spent encoding + solving. *)
}

type result = {
  outcomes : Litmus.outcome list;  (** Deduplicated and sorted. *)
  complete : bool;
      (** [false] when [max_outcomes] was reached, or when the
          formula was too large to build (see {!session}): [outcomes]
          is then a sound but possibly incomplete set. *)
  stats : stats;
}

val default_max_outcomes : int
(** 65536 outcomes. *)

(** {1 Incremental session API} *)

type session
(** One program, one formula, one long-lived solver. *)

val session :
  ?addrs:int -> ?regs:int -> ?profiler:Tbtso_obs.Span.t ->
  Litmus.instr list list -> session
(** Compile the program once. [addrs] and [regs] default to 4 and size
    the outcome arrays exactly like {!Litmus.explore}.

    [profiler] (default disabled) accumulates the formula build into
    the [sat.encode] phase (items = clauses) and is attached to the
    underlying solver ({!Tbtso_sat.Solver.set_profiler}), so queries
    fill the [sat.propagate] / [sat.analyze] / [sat.simplify] phases —
    their item counts are propagations, conflicts and reclaimed
    clauses, giving per-second rates directly from the phase totals.

    A program whose formula would exceed 4·10{^6} units of
    events² × (H − 1), the measure its memory grows with (~150 bytes
    per unit), gets no formula: every {!enumerate_session} on it
    returns [complete = false] with no outcomes, and {!sc_outcomes} and
    {!robust} raise [Failure]. A wait of 10{^7} racing a load is
    1.6·10{^8} units; the largest formula of the corpus, the tests and
    the benchmark workloads is ~10{^5}.
    @raise Invalid_argument on negative [Wait] durations or negative
    [Loadeq] skips (the operational model deadlocks or loops on these;
    no litmus file or generator produces them). *)

val horizon : session -> int
(** The time horizon [H]. [M_tbtso Δ] with [Δ ≥ H] is indistinguishable
    from TSO, so [H] bounds every meaningful Δ query. *)

val path_combinations : session -> int
(** Number of Loadeq path combinations the formula covers (the
    [paths] stats field). *)

val fence_sites : session -> (int * int) list
(** [(thread, position)] of every store that has a program-order-later
    instruction — the candidate sites for {!enumerate_session}'s and
    {!robust}'s [?fences]. *)

val enumerate_session :
  session ->
  ?fences:(int * int) list ->
  ?max_outcomes:int ->
  Litmus.mode ->
  result
(** All reachable outcomes under the mode (and the given fences),
    by incremental SAT enumeration. Blocking clauses are hung off a
    per-query guard and reclaimed when the query ends; learned clauses
    that do not depend on them are retained for later queries.
    @raise Invalid_argument if a fence pair is not in
    {!fence_sites}. *)

val sc_outcomes : session -> Litmus.outcome list
(** The SC outcome set (enumerated on first use, then cached — its
    blocking clauses persist behind a guard for {!robust}). *)

val robust :
  session ->
  ?fences:(int * int) list ->
  Litmus.mode ->
  [ `Robust | `Witness of Litmus.outcome ]
(** Is the mode's outcome set (with the given fences) equal to the SC
    set? Decided by one incremental containment solve against the SC
    baseline's retained blocking clauses — no second enumeration.
    [`Witness o] is an outcome reachable under the mode but not under
    SC. Robustness is antitone in Δ: [`Robust] for [M_tbtso Δ] implies
    [`Robust] for every smaller Δ. *)

val session_stats : session -> stats
(** Cumulative over the session: [outcomes] sums every query's distinct
    outcomes, [conflicts]/[decisions]/… are the solver's lifetime
    counters (difference two snapshots for per-query numbers). *)

(** {1 One-shot API} *)

val explore :
  mode:Litmus.mode ->
  ?addrs:int ->
  ?regs:int ->
  ?max_outcomes:int ->
  ?profiler:Tbtso_obs.Span.t ->
  Litmus.instr list list ->
  result
(** All reachable outcomes of the program under [mode]: a fresh
    {!session} and one {!enumerate_session} query. The outcome lists
    are directly comparable to {!Litmus.explore}'s
    ([List.sort compare] order included).
    @raise Invalid_argument as {!session}. *)

val enumerate :
  mode:Litmus.mode ->
  ?addrs:int ->
  ?regs:int ->
  ?max_outcomes:int ->
  Litmus.instr list list ->
  Litmus.outcome list
(** [(explore ...).outcomes], for callers that only want the set.
    @raise Failure if the outcome budget was exhausted. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering of solver statistics. *)

val stats_json : stats -> Tbtso_obs.Json.t
(** Flat object with every {!stats} field. *)

val record_stats : Tbtso_obs.Metrics.t -> stats -> unit
(** Accumulate one oracle run into a registry: counters [sat.paths],
    [sat.vars], [sat.clauses], [sat.solves], [sat.conflicts],
    [sat.decisions], [sat.propagations], [sat.learned], [sat.restarts],
    [sat.outcomes] and [sat.explorations] sum across calls; gauge
    [sat.elapsed_s] sums solver CPU time. *)
