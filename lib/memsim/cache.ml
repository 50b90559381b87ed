(* A single set-associative cache level with LRU replacement.

   The cache tracks line *presence* only; data contents live on the OCaml
   side of the simulation. Addresses are byte addresses in the simulated
   physical address space; internally everything is keyed by line number
   (addr lsr line_bits).

   Recency is represented by physical order within the set: each set's ways
   are kept sorted MRU-first, with invalid slots compacted at the tail. A
   hit rotates the line to the front; the eviction victim is always the last
   valid way. This is observably identical to timestamp LRU (the tail valid
   way is exactly the least recently touched one) while keeping the metadata
   footprint to a single int array — for a 33 MiB LLC that is the difference
   between the tag store fitting in the host's cache or not, and it is the
   simulator's hottest data. *)

type t = {
  name : string;
  line_bits : int;
  nsets : int;
  set_mask : int;  (* nsets - 1 when nsets is a power of two, else -1 *)
  assoc : int;
  tags : int array;  (* nsets * assoc; per set MRU -> LRU, -1 (invalid) at the tail *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable installs : int;
}

let log2_exact name n =
  if n <= 0 then invalid_arg (name ^ ": must be positive");
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  let b = go 0 n in
  if 1 lsl b <> n then invalid_arg (name ^ ": must be a power of two");
  b

let create ~name ~size_bytes ~assoc ~line_bytes =
  let line_bits = log2_exact "line_bytes" line_bytes in
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line_bytes";
  let nsets = size_bytes / (assoc * line_bytes) in
  if nsets <= 0 then invalid_arg "Cache.create: zero sets";
  {
    name;
    line_bits;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    assoc;
    tags = Array.make (nsets * assoc) (-1);
    hits = 0;
    misses = 0;
    evictions = 0;
    installs = 0;
  }

let name t = t.name
let line_bytes t = 1 lsl t.line_bits
let nsets t = t.nsets
let assoc t = t.assoc
let capacity_bytes t = nsets t * t.assoc * line_bytes t

let line_of_addr t addr = addr lsr t.line_bits

(* [mod] by a power of two is a [land]; [nsets] is a power of two for every
   realistic geometry, so the division almost never runs. This is the
   simulator's innermost loop — every probe of every level goes through
   here. *)
let set_of_line t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets

let base t line = set_of_line t line * t.assoc

(* Every per-line kernel below is a top-level loop over explicit
   arguments. The compiler has no flambda, so a local [let rec] that
   captured [t], [line] or the set base would allocate a closure on every
   call, and these run for every level of every line access. *)

(* First way at or after [w] in the set at [b] that holds [line] or is
   invalid (-1), else [assoc]. *)
let rec scan (tags : int array) b assoc line w =
  if w = assoc then w
  else
    let tag = tags.(b + w) in
    if tag = line || tag = -1 then w else scan tags b assoc line (w + 1)

(* The way holding [line] in its set, or [-(valid_ways + 1)] when absent,
   with no effect on recency or counters. Invalid slots sit at the tail, so
   the scan stops at the first -1, which is also the valid-way count a
   following {!fill_line} needs. *)
let lookup_line t line =
  let b = base t line in
  let w = scan t.tags b t.assoc line 0 in
  if w < t.assoc && t.tags.(b + w) = line then w else -(w + 1)

let contains_line t line = lookup_line t line >= 0

let contains t addr = contains_line t (line_of_addr t addr)

(* Rotate [line] (currently at way [i], an absolute index) to the front of
   its set at [b]: everything in [b, i) shifts down one way. This is the
   move-to-front "touch". An int loop, not [Array.blit]: on a major-heap
   array the blit runs the write barrier for every moved way. *)
let promote tags b i line =
  for k = i downto b + 1 do
    tags.(k) <- tags.(k - 1)
  done;
  tags.(b) <- line

(* Fused miss-path probe for the hierarchy's demand loop: behaves exactly
   like {!access_line} (same counter updates, same recency refresh on hit)
   but on a miss also reports how many valid ways the set holds, so the
   subsequent {!fill_line} can install without re-scanning the set. Returns
   [1] on hit and [-(valid_ways + 1)] on miss. *)
let probe_line t line =
  let b = base t line in
  let tags = t.tags in
  if tags.(b) = line then begin
    t.hits <- t.hits + 1;
    1
  end
  else begin
    (* Way 0 holds another line or is invalid (then the set is empty). *)
    let w = if tags.(b) = -1 then 0 else scan tags b t.assoc line 1 in
    if w < t.assoc && tags.(b + w) = line then begin
      promote tags b (b + w) line;
      t.hits <- t.hits + 1;
      1
    end
    else begin
      t.misses <- t.misses + 1;
      -(w + 1)
    end
  end

(* [access_line] performs a tag check and updates recency on hit. *)
let access_line t line = probe_line t line > 0

let access t addr = access_line t (line_of_addr t addr)

(* Install [line] into a set that {!probe_line} or {!lookup_line} just
   missed with [valid_ways] valid entries, with no intervening operation on
   this cache.
   Identical decision to {!install_line}: a free way if one exists,
   otherwise evict the LRU (tail) way. Returns the evicted line, or -1. *)
let fill_victim t line valid_ways =
  let b = base t line in
  let tags = t.tags in
  t.installs <- t.installs + 1;
  if valid_ways < t.assoc then begin
    promote tags b (b + valid_ways) line;
    -1
  end
  else begin
    let victim = tags.(b + t.assoc - 1) in
    t.evictions <- t.evictions + 1;
    promote tags b (b + t.assoc - 1) line;
    victim
  end

let victim_opt = function -1 -> None | v -> Some v

let fill_line t line valid_ways = victim_opt (fill_victim t line valid_ways)

(* Install a line, evicting the LRU way if the set is full. Returns the line
   number of the victim, or -1 when no valid line was evicted. Installing a
   present line only refreshes recency. *)
let install_victim t line =
  let b = base t line in
  let tags = t.tags in
  if tags.(b) = line then -1 (* already MRU; recency refresh is a no-op *)
  else begin
    (* Find the line, or the end of the valid prefix if absent. *)
    let w = scan tags b t.assoc line 1 in
    if w < t.assoc && tags.(b + w) = line then begin
      promote tags b (b + w) line;
      -1
    end
    else fill_victim t line w
  end

let install_line t line = victim_opt (install_victim t line)

let install t addr = install_line t (line_of_addr t addr)

(* Drop the line and compact the valid suffix so invalid slots stay at the
   tail (hole position is unobservable: victim choice depends only on the
   recency order of valid ways, which compaction preserves). *)
let invalidate_line t line =
  let b = base t line in
  let tags = t.tags in
  let w = scan tags b t.assoc line 0 in
  if w < t.assoc && tags.(b + w) = line then begin
    (* The valid ways after [w] move up one; the last of them becomes -1. *)
    let last = b + scan tags b t.assoc (-1) (w + 1) - 1 in
    for k = b + w to last - 1 do
      tags.(k) <- tags.(k + 1)
    done;
    tags.(last) <- -1
  end

let invalidate t addr = invalidate_line t (line_of_addr t addr)

let clear t = Array.fill t.tags 0 (Array.length t.tags) (-1)

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.installs <- 0

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let installs t = t.installs

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags

let pp ppf t =
  Fmt.pf ppf "%s: %d sets x %d ways x %dB (%d KiB), hits=%d misses=%d evict=%d"
    t.name (nsets t) t.assoc (line_bytes t)
    (capacity_bytes t / 1024)
    t.hits t.misses t.evictions
