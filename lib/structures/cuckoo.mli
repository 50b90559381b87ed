(** Cuckoo hash table over simulated memory — the match-state structure of
    the flow classifier (Fig 6(b), Listing 1).

    CuckooSwitch-style geometry: two candidate buckets per key, four slots
    per bucket, one bucket per cache line (fingerprints + value indices),
    with full keys in a separate key-store line per bucket. The table logic
    is real; cache behaviour comes from callers charging reads of
    {!bucket_addr} / {!key_addr} to the memory hierarchy, one action per
    probe step.

    The host-side table is three flat arrays of one entry per slot, 24 bytes
    per slot and no per-entry heap block: full keys in a [Bytes] of 8
    little-endian bytes per slot, one int word per slot packing the
    insertion stamp above the 16-bit fingerprint
    ([stamp lsl 16 lor fingerprint]), and the value index (negative for an
    empty slot). Stamps count insert calls and order {!Evict_lru}'s
    victims; the packed word stays a non-negative int for 2{^46} inserts
    into one table. *)

type t

val slots_per_bucket : int
val bucket_bytes : int

(** Max displacement-walk length before an insert reports the table full. *)
val max_kicks : int

(** Sized for ~80% max load factor over [capacity] entries.
    @raise Invalid_argument when [capacity <= 0]. *)
val create : Memsim.Layout.t -> label:string -> capacity:int -> unit -> t

val nbuckets : t -> int
val population : t -> int
val load_factor : t -> float

(** Primary / alternate bucket of a key. *)
val hash1 : t -> int64 -> int

val hash2 : t -> int64 -> int

(** Simulated address of a bucket's line / of its out-of-line key store. *)
val bucket_addr : t -> int -> int

val key_addr : t -> int -> int

(** 16-bit key fingerprint as stored in bucket lines. *)
val fingerprint : int64 -> int

(** Some slot of [bucket] has a matching fingerprint — decidable from the
    bucket line alone (the bucket_check action). Allocates nothing. *)
val has_candidate : t -> bucket:int -> key:int64 -> bool

(** The slots of [bucket] whose fingerprint matches, in slot order. *)
val candidates : t -> bucket:int -> key:int64 -> int list

(** Full-key comparison within one bucket (the key_check action): the
    key's value, or [-1] when the bucket does not hold it. Allocates
    nothing. *)
val find_value : t -> bucket:int -> key:int64 -> int

(** As [find_value], as an option. *)
val find_in_bucket : t -> bucket:int -> key:int64 -> int option

(** Two-bucket lookup (pure table logic; RTC and tests). *)
val lookup : t -> int64 -> int option

(** Insert or update; random-walk displacement on conflicts. [false] means
    the walk exceeded {!max_kicks} (no entry is lost). *)
val insert : t -> key:int64 -> value:int -> bool

val delete : t -> int64 -> bool

(** What a state structure does when an insert finds the table full.
    [Drop_new] rejects the new entry (legacy behaviour, minus the crash);
    [Evict_lru] displaces the stalest resident of the key's two candidate
    buckets to make room; [Shed_flow] rejects and asks the caller to
    quarantine the offending flow (the caller raises a contained fault). *)
type overflow_policy = Drop_new | Evict_lru | Shed_flow

val policy_to_string : overflow_policy -> string
val policy_of_string : string -> overflow_policy option

(** Outcome of {!insert_policy}. [Evicted] carries the displaced resident so
    the caller can release any out-of-table resources tied to it. *)
type insert_result =
  | Inserted
  | Updated
  | Evicted of { victim_key : int64; victim_value : int }
  | Rejected

(** Like {!insert} but overflow resolves per [policy] instead of just
    reporting [false]. Deterministic: LRU order comes from the insertion
    stamps packed beside each slot's fingerprint, which every insert and
    update writes whatever its policy, so policies may be mixed on one
    table; ties break on scan order. *)
val insert_policy :
  t -> policy:overflow_policy -> key:int64 -> value:int -> insert_result
