(** Per-thread FIFO store buffer.

    Models the abstract store buffer of x86-TSO: stores enter at the tail
    with their enqueue time; the memory subsystem dequeues from the head.
    A load first consults the buffer and, if several entries match the
    address, must see the newest one (store-to-load forwarding).

    Forwarding is O(1) whatever the buffer length: the buffer keeps an
    index from address to its newest entry. Under TBTSO[Δ] at paper
    scale (Δ = 50,000 ticks) a buffer holds thousands of entries. *)

type entry = {
  addr : int;
  value : int;
  enqueued_at : int;  (** Global-clock time of the store instruction. *)
  ready_at : int;  (** Scheduler-sampled earliest voluntary drain time. *)
  mutable rfo_until : int;
      (** Read-for-ownership completion time when the target line was
          read by another core (machine-managed; 0 initially). *)
}

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val enqueue : t -> entry -> unit

val sentinel : entry
(** Distinguished empty-result entry ([addr = -1]; real addresses are
    non-negative, so no buffered entry ever aliases it). Returned by
    {!oldest} and {!newest_for} — test with physical equality. *)

val oldest : t -> entry
(** Head (oldest) entry, or {!sentinel} when the buffer is empty. The
    allocation-free counterpart of {!peek_oldest}: the simulator probes
    the head on every drain, read and deadline check, and this accessor
    never boxes the result. *)

val peek_oldest : t -> entry option

val dequeue_oldest : t -> entry
(** @raise Invalid_argument if empty. *)

val newest_for : t -> int -> entry
(** [newest_for t addr] is the newest buffered store to [addr], or
    {!sentinel} when none is buffered. The allocation-free counterpart
    of {!newest_value} for the store-to-load forwarding path; O(1),
    through the address index. *)

val newest_value : t -> int -> int option
(** [newest_value t addr] is the value of the newest buffered store to
    [addr], if any: the value a same-thread load must observe. *)

val oldest_enqueue_time : t -> int option
(** Enqueue time of the head entry (the TBTSO[Δ] deadline anchor). *)

val iter_oldest_first : t -> (entry -> unit) -> unit

val clear : t -> unit
