(** Monotonic-clock span profiler with per-domain buffers.

    Two complementary instruments share one profiler value:

    - {b Timeline spans} ({!with_span}, {!count}): nested, labelled
      intervals buffered per domain and exported as Chrome
      [trace_event] records ({!to_chrome}), so a whole
      [tbtso-litmus check --profile] run loads in Perfetto. Per-span
      counters attach to the innermost open span of the calling domain.
    - {b Phase accumulators} ({!phase}, {!start}, {!stop}, {!items}):
      pre-looked-up handles (the {!Metrics} idiom) aggregating total
      wall time, call count and item count per phase label. These are
      what the hot loops use — an explorer expanding half a million
      states per second cannot afford one buffered record per state,
      but two clock reads per phase section are fine.

    Buffers and phase tables are per-domain, created on first use
    through [Domain.DLS] and registered with the profiler, so worker
    domains of [lib/par]'s pool record without locks and the profiler
    merges everything at read time ({!spans}, {!phase_totals}) — the
    buffers outlive the domains that filled them.

    A {!disabled} profiler reduces every operation to one load and one
    branch; instrumented code paths take [?profiler] defaulting to
    {!disabled} so uninstrumented callers pay near-zero overhead.

    Thread-safety: each domain writes only its own buffer. Reading
    ({!spans}, {!phase_totals}, {!to_chrome}) is meant for after the
    instrumented work has quiesced; concurrent readers see a consistent
    registry but possibly in-flight spans. Phase handles are
    domain-local — acquire them on the domain that uses them. *)

type t
(** A profiler. *)

val disabled : t
(** The shared no-op profiler: every operation is one branch. *)

val create : unit -> t
(** A fresh recording profiler. *)

val enabled : t -> bool

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds (C stub; the only monotonic clock
    in the tree). Meaningful only as differences. *)

(** {1 Timeline spans} *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f ()] inside a span labelled [name] on
    the calling domain. Spans nest; the record survives exceptions
    (closed on the way out). Disabled: tail-calls [f]. *)

val count : t -> string -> int -> unit
(** Add [n] to the named counter of the calling domain's innermost
    open span; silently dropped when no span is open (or disabled). *)

type span = {
  sp_name : string;
  sp_domain : int;  (** [Domain.id] of the recording domain. *)
  sp_start_ns : int;  (** {!now_ns} at entry. *)
  sp_dur_ns : int;  (** -1 for a span still open at read time. *)
  sp_depth : int;  (** Nesting depth on its domain, outermost = 0. *)
  sp_counters : (string * int) list;  (** Sorted by name. *)
}

val spans : t -> span list
(** All spans from every domain, completed ones first ordered by start
    time, then still-open ones. Empty for a disabled profiler. *)

(** {1 Phase accumulators} *)

type phase
(** A handle to one phase label's accumulator on one domain. *)

val phase : t -> string -> phase
(** Find-or-create the calling domain's accumulator for [name]. Look
    handles up once per loop, not per iteration. *)

val start : phase -> unit
(** Open a timed section. Sections of one handle must not nest. *)

val stop : phase -> unit
(** Close the section opened by the matching {!start}, adding its
    duration to the phase total and bumping the call count. *)

val items : phase -> int -> unit
(** Add [n] to the phase's item count (states expanded, clauses
    simplified, ...), from which per-second rates are derived. *)

type phase_total = {
  pt_name : string;
  pt_ns : int;  (** Total wall time across calls and domains. *)
  pt_calls : int;
  pt_items : int;
}

val phase_totals : t -> phase_total list
(** Per-label totals merged across domains, sorted by descending
    [pt_ns]. Empty for a disabled profiler. *)

(** {1 Output} *)

val reset : t -> unit
(** Drop all recorded spans and phase totals (buffers stay
    registered). Open spans and open phase sections are dropped too —
    only call between instrumented regions. *)

val pp_phase_table : Format.formatter -> t -> unit
(** Aligned per-phase table: label, total ms, calls, items, items/s. *)

val to_chrome : t -> pid:int -> Chrome.writer -> unit
(** Export every span as a complete (["X"]) event — one record with
    [dur] — on a per-domain track ([tid] = domain id, named via
    thread-name metadata), timestamps rebased to the earliest span.
    Spans still open at export time are emitted as ["B"]
    duration-begin events so Perfetto shows them as unterminated. *)
