(* Cuckoo hash table over simulated memory — the paper's match-state
   structure (Fig 6(b), Listing 1).

   Geometry mirrors CuckooSwitch-style tables: two candidate buckets per
   key, four slots per bucket, and one bucket occupies exactly one cache
   line (4 x (8-byte key + 8-byte value) = 64 bytes). The table logic
   (lookup, displacement insert) is real; the cache behaviour comes from
   callers charging reads of {!bucket_addr} to the memory hierarchy, one
   action per bucket probe, exactly as the granular decomposition splits
   them (get_key / hash_1 / check_1 / hash_2 / check_2). *)

let slots_per_bucket = 4
let bucket_bytes = 64
let max_kicks = 500

type overflow_policy = Drop_new | Evict_lru | Shed_flow

let policy_to_string = function
  | Drop_new -> "drop-new"
  | Evict_lru -> "evict-lru"
  | Shed_flow -> "shed-flow"

let policy_of_string = function
  | "drop-new" -> Some Drop_new
  | "evict-lru" -> Some Evict_lru
  | "shed-flow" -> Some Shed_flow
  | _ -> None

type insert_result =
  | Inserted
  | Updated
  | Evicted of { victim_key : int64; victim_value : int }
  | Rejected

(* Three flat arrays of [nbuckets * slots] entries, 24 bytes per slot and
   no per-entry boxes: resident tables are the bulk of a run's heap. *)
type t = {
  mask : int;  (* nbuckets - 1 *)
  keys : Bytes.t;  (* 8 bytes per slot, little-endian; slot empty when vals.(i) < 0 *)
  fps : int array;  (* [stamp lsl 16 lor fingerprint]; valid where vals.(i) >= 0 *)
  vals : int array;
  base_addr : int;  (* bucket array: fingerprints + value indices *)
  key_base : int;  (* out-of-line full-key store, one line per bucket *)
  seed1 : int64;
  seed2 : int64;
  rng : Memsim.Rng.t;
  mutable population : int;
  mutable tick : int;
}

let next_pow2 n =
  let rec go v = if v >= n then v else go (v * 2) in
  go 1

let create layout ~label ~capacity () =
  if capacity <= 0 then invalid_arg "Cuckoo.create: capacity must be positive";
  (* Size for ~80% max load factor. *)
  let nbuckets = next_pow2 ((capacity * 5 / 4 / slots_per_bucket) + 1) in
  let nslots = nbuckets * slots_per_bucket in
  let base_addr =
    Memsim.Layout.alloc_array layout ~align:64 ~label ~stride:bucket_bytes
      ~count:nbuckets ()
  in
  let key_base =
    Memsim.Layout.alloc_array layout ~align:64 ~label:(label ^ ".keys")
      ~stride:bucket_bytes ~count:nbuckets ()
  in
  {
    mask = nbuckets - 1;
    keys = Bytes.make (nslots * 8) '\000';
    fps = Array.make nslots 0;
    vals = Array.make nslots (-1);
    base_addr;
    key_base;
    seed1 = 0x9E3779B97F4A7C15L;
    seed2 = 0xC2B2AE3D27D4EB4FL;
    rng = Memsim.Rng.create 97;
    population = 0;
    tick = 0;
  }

let nbuckets t = t.mask + 1
let population t = t.population

(* [hash1]/[hash2] are the finalizer of splitmix64 flattened into a single arithmetic chain so
   the native compiler keeps every Int64 intermediate unboxed — these run on
   every table probe of every packet. *)
let hash1 t key =
  let open Int64 in
  let z = mul (logxor key t.seed1) 0xFF51AFD7ED558CCDL in
  let z = logxor z (shift_right_logical z 33) in
  let z = mul z 0xC4CEB9FE1A85EC53L in
  to_int (logxor z (shift_right_logical z 33)) land t.mask

(* Partial-key style alternate bucket: derived from the key so that it can
   be recomputed from either bucket. *)
let hash2 t key =
  let open Int64 in
  let z = mul (logxor key t.seed2) 0xFF51AFD7ED558CCDL in
  let z = logxor z (shift_right_logical z 33) in
  let z = mul z 0xC4CEB9FE1A85EC53L in
  to_int (logxor z (shift_right_logical z 33)) land t.mask

let bucket_addr t bucket = t.base_addr + (bucket * bucket_bytes)

(* Address of the bucket's out-of-line full-key line (CuckooSwitch-style:
   the bucket line carries fingerprints and value indices; full keys live in
   a second line that is only read when a fingerprint matches — the
   key_check_1/key_check_2 steps of Listing 1). *)
let key_addr t bucket = t.key_base + (bucket * bucket_bytes)

(* 16-bit fingerprint derived from the key. *)
let fingerprint key =
  let open Int64 in
  to_int (shift_right_logical (mul key 0x2545F4914F6CDD1DL) 48) land 0xFFFF

let slot_base bucket = bucket * slots_per_bucket

(* The fps word of a slot packs its insertion stamp (LRU order for
   [Evict_lru]) above its 16-bit fingerprint. Stamps count inserts, so the
   word stays a non-negative int for 2^46 of them. *)
let fp_bits = 16
let fp_mask = (1 lsl fp_bits) - 1
let fp_word ~stamp key = (stamp lsl fp_bits) lor fingerprint key
let stamp_of t slot = t.fps.(slot) lsr fp_bits
let key_at t slot = Bytes.get_int64_le t.keys (slot * 8)

let write_slot t slot ~key ~value ~word =
  Bytes.set_int64_le t.keys (slot * 8) key;
  t.fps.(slot) <- word;
  t.vals.(slot) <- value

let holds t slot key = t.vals.(slot) >= 0 && Int64.equal (key_at t slot) key

(* The probes run on every bucket_check/key_check action of every packet,
   so their loops are top-level functions over explicit arguments (a local
   [let rec] capturing [t] would allocate a closure per call) and they
   answer with a bool or a [-1] sentinel; the list and option forms are
   built on them. *)

(* Slot [b + i] is occupied with fingerprint [fp]. Resident fingerprints
   come from the [fps] cache maintained at every key write, so a probe does
   one multiply instead of one per occupied slot. *)
let fp_hit t b fp i = t.vals.(b + i) >= 0 && t.fps.(b + i) land fp_mask = fp

let rec any_fp_from t b fp i =
  i < slots_per_bucket && (fp_hit t b fp i || any_fp_from t b fp (i + 1))

(* Some slot of [bucket] holds [key]'s fingerprint — what the bucket_check
   action can decide from the bucket line alone. *)
let has_candidate t ~bucket ~key = any_fp_from t (slot_base bucket) (fingerprint key) 0

let rec fp_slots_from t b fp i acc =
  if i < 0 then acc
  else fp_slots_from t b fp (i - 1) (if fp_hit t b fp i then i :: acc else acc)

let candidates t ~bucket ~key =
  fp_slots_from t (slot_base bucket) (fingerprint key) (slots_per_bucket - 1) []

let rec value_from t b key i =
  if i = slots_per_bucket then -1
  else if holds t (b + i) key then t.vals.(b + i)
  else value_from t b key (i + 1)

(* Search one bucket for [key]: its value, or -1 (stored values are
   non-negative). Pure table logic, no memory charging. *)
let find_value t ~bucket ~key = value_from t (slot_base bucket) key 0

let find_in_bucket t ~bucket ~key =
  match find_value t ~bucket ~key with -1 -> None | v -> Some v

let lookup t key =
  match find_value t ~bucket:(hash1 t key) ~key with
  | -1 -> find_in_bucket t ~bucket:(hash2 t key) ~key
  | v -> Some v

let empty_slot_in t bucket =
  let b = slot_base bucket in
  let rec go i =
    if i = slots_per_bucket then None
    else if t.vals.(b + i) < 0 then Some (b + i)
    else go (i + 1)
  in
  go 0

let try_place t ~key ~value bucket =
  match empty_slot_in t bucket with
  | Some slot ->
      write_slot t slot ~key ~value ~word:(fp_word ~stamp:t.tick key);
      true
  | None -> false

let update_existing t ~key ~value =
  let set bucket =
    let b = slot_base bucket in
    let rec go i =
      if i = slots_per_bucket then false
      else if holds t (b + i) key then begin
        t.vals.(b + i) <- value;
        t.fps.(b + i) <- (t.tick lsl fp_bits) lor (t.fps.(b + i) land fp_mask);
        true
      end
      else go (i + 1)
    in
    go 0
  in
  set (hash1 t key) || set (hash2 t key)

(* Place [key] into [bucket] or displace a random resident into its
   alternate bucket, carrying each entry's fps word along the walk (a
   displaced resident keeps its original stamp). A failed walk is unwound
   slot by slot — most recent swap first — so the table is bit-identical to
   before the call: overflow must be a *typed, recoverable* outcome, never the
   silent loss of whichever resident the walk happened to be carrying when
   it ran out of kicks. *)
let walk_place t ~key ~value ~bucket =
  let undo = ref [] in
  let rec go ~key ~value ~word ~bucket kicks =
    (match empty_slot_in t bucket with
    | Some slot ->
        write_slot t slot ~key ~value ~word;
        true
    | None -> false)
    || kicks < max_kicks
       && begin
            (* Evict a random resident of this bucket and re-insert it into
               its alternate bucket. *)
            let victim = slot_base bucket + Memsim.Rng.int t.rng slots_per_bucket in
            let vkey = key_at t victim and vval = t.vals.(victim) in
            let vword = t.fps.(victim) in
            undo := (victim, vkey, vval, vword) :: !undo;
            write_slot t victim ~key ~value ~word;
            let alt =
              let h1 = hash1 t vkey in
              if h1 = bucket then hash2 t vkey else h1
            in
            go ~key:vkey ~value:vval ~word:vword ~bucket:alt (kicks + 1)
          end
  in
  let placed = go ~key ~value ~word:(fp_word ~stamp:t.tick key) ~bucket 0 in
  if not placed then
    List.iter (fun (slot, key, value, word) -> write_slot t slot ~key ~value ~word) !undo;
  placed

(* Insert a key known to be absent; true population bump on success. *)
let insert_fresh t ~key ~value =
  let placed =
    try_place t ~key ~value (hash1 t key)
    || try_place t ~key ~value (hash2 t key)
    || walk_place t ~key ~value ~bucket:(hash1 t key)
  in
  if placed then t.population <- t.population + 1;
  placed

(* Random-walk cuckoo insert. Returns [false] when the walk exceeds
   [max_kicks] (table effectively full); the failed walk is fully unwound,
   so no entry is ever lost or moved by a rejected insert. *)
let insert t ~key ~value =
  t.tick <- t.tick + 1;
  update_existing t ~key ~value || insert_fresh t ~key ~value

(* Stalest slot among the key's two candidate buckets (lowest stamp;
   first-in-scan-order tie-break — fully deterministic). *)
let stalest_slot t key =
  let best = ref (-1) in
  let scan bucket =
    let b = slot_base bucket in
    for i = 0 to slots_per_bucket - 1 do
      let s = b + i in
      if t.vals.(s) >= 0 && (!best < 0 || stamp_of t s < stamp_of t !best) then
        best := s
    done
  in
  scan (hash1 t key);
  (let b2 = hash2 t key in
   if b2 <> hash1 t key then scan b2);
  !best

let insert_policy t ~policy ~key ~value =
  t.tick <- t.tick + 1;
  if update_existing t ~key ~value then Updated
  else if insert_fresh t ~key ~value then Inserted
  else
    match policy with
    | Drop_new | Shed_flow -> Rejected
    | Evict_lru -> (
        match stalest_slot t key with
        | -1 -> Rejected (* both candidate buckets empty yet walk failed: impossible *)
        | slot ->
            let victim_key = key_at t slot and victim_value = t.vals.(slot) in
            write_slot t slot ~key ~value ~word:(fp_word ~stamp:t.tick key);
            (* one out, one in: population unchanged *)
            Evicted { victim_key; victim_value })

let delete t key =
  let del bucket =
    let b = slot_base bucket in
    let rec go i =
      if i = slots_per_bucket then false
      else if holds t (b + i) key then begin
        t.vals.(b + i) <- -1;
        true
      end
      else go (i + 1)
    in
    go 0
  in
  let removed = del (hash1 t key) || del (hash2 t key) in
  if removed then t.population <- t.population - 1;
  removed

let load_factor t =
  float_of_int t.population /. float_of_int (nbuckets t * slots_per_bucket)
