(** A single set-associative cache level with LRU replacement.

    The cache tracks only the {e presence} of 64-byte (configurable) lines of
    the simulated physical address space; actual data contents live in
    ordinary OCaml values elsewhere. This is all the paper's evaluation
    needs: hit/miss placement per level drives every reported metric. *)

type t

(** [create ~name ~size_bytes ~assoc ~line_bytes] builds an empty cache.
    [size_bytes] must equal [nsets * assoc * line_bytes] with [nsets] and
    [line_bytes] powers of two.
    @raise Invalid_argument on malformed geometry. *)
val create : name:string -> size_bytes:int -> assoc:int -> line_bytes:int -> t

val name : t -> string
val line_bytes : t -> int
val nsets : t -> int
val assoc : t -> int
val capacity_bytes : t -> int

(** Line number of a byte address. *)
val line_of_addr : t -> int -> int

(** [access t addr] performs a tag check; on hit, recency is refreshed and
    the result is [true]. Updates hit/miss counters. *)
val access : t -> int -> bool

(** As [access], keyed directly by line number. *)
val access_line : t -> int -> bool

(** Fused miss-path probe: identical to [access_line] in counters and
    recency effects, but returns [1] on hit and [-(valid_ways + 1)] on miss
    so a following [fill_line] can install without re-scanning the set. *)
val probe_line : t -> int -> int

(** Side-effect-free probe: the way holding the line, or
    [-(valid_ways + 1)] when it is absent, so a following [fill_line] can
    install without re-scanning the set. Touches neither recency nor
    counters. *)
val lookup_line : t -> int -> int

(** [fill_line t line valid_ways] installs [line] into the set a
    [probe_line] or [lookup_line] just missed with [valid_ways] valid
    entries (no intervening operation on [t]). Same eviction decision and
    return as [install_line]. *)
val fill_line : t -> int -> int -> int option

(** As [fill_line], returning the evicted line or [-1]: the allocation-free
    form the hierarchy's line path calls. *)
val fill_victim : t -> int -> int -> int

(** Presence test without touching LRU state or counters. *)
val contains : t -> int -> bool

val contains_line : t -> int -> bool

(** [install t addr] brings the line of [addr] in, evicting the LRU way of
    its set when full. Returns the evicted line number, if any. Installing a
    present line only refreshes recency. *)
val install : t -> int -> int option

val install_line : t -> int -> int option

(** As [install_line], returning the evicted line or [-1]. *)
val install_victim : t -> int -> int

val invalidate : t -> int -> unit
val invalidate_line : t -> int -> unit

(** Drop all lines (counters preserved). *)
val clear : t -> unit

val reset_stats : t -> unit
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val installs : t -> int

(** Number of currently valid lines. *)
val resident_lines : t -> int

val pp : Format.formatter -> t -> unit
