(** Simulated shared memory.

    A flat word-addressed array with per-line version counters used by the
    coherence cost model, per-word poison flags used for use-after-free
    detection, and a bump allocator for global (never-freed) variables.
    Dynamic allocation with reclamation lives in {!Heap}, layered on top.

    The size given to {!create} ([Config.mem_words]) is a bound, not a
    footprint: the backing arrays start small and grow geometrically, up
    to that bound, as words beyond them are written. A word never
    written reads 0, its line has version 0, no owner and no reader, and
    it is not poisoned. Every address in [\[0, words)] is valid whatever
    the backing; any other address raises
    [Invalid_argument "index out of bounds"]. *)

type t

exception Use_after_free of { addr : int; tid : int; at : int; write : bool }
(** Raised (when enabled) by {!Machine} on an access to a poisoned word;
    this is the safety oracle for the SMR experiments. *)

exception Out_of_memory of { requested : int; available : int }

val line_shift : int
(** log2 of words per cache line (3, i.e. 8-word / 64-byte lines). *)

val create : words:int -> t

val words : t -> int
(** The bound given to {!create}, not the words allocated so far. *)

val read : t -> int -> int

val write : t -> tid:int -> at:int -> int -> int -> unit
(** [write t ~tid ~at addr v] commits [v] to [addr], recording writer
    [tid] at time [at] and bumping the line version (which invalidates
    other threads' cached copies in the cost model). *)

val line_of : int -> int

val line_version : t -> int -> int
(** Current version of the line containing the given address. *)

val line_owner : t -> int -> int
(** Tid of the last committed writer to the line, or -1. *)

val note_reader : t -> int -> tid:int -> unit
(** Record that [tid] loaded from the line (ignored when [tid] already
    owns it). Feeds the RFO cost model: a later committed store to a
    line some other core has read must first regain exclusive ownership. *)

val foreign_reader : t -> int -> tid:int -> bool
(** Did a thread other than [tid] read this line since the last write? *)

val clear_reader : t -> int -> unit

val is_poisoned : t -> int -> bool

val poison : t -> int -> len:int -> unit
(** Mark [len] words starting at [addr] as freed. Reads/writes raise
    {!Use_after_free} until {!unpoison}ed. *)

val unpoison : t -> int -> len:int -> unit

val alloc_global : t -> int -> int
(** [alloc_global t n] reserves [n] words of never-freed memory, zeroed,
    line-aligned to avoid false sharing between unrelated globals.
    @raise Out_of_memory when the arena is exhausted. *)

val globals_end : t -> int
(** First word beyond the global arena; heap space starts here. *)
