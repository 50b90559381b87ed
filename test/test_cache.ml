(* Set-associative cache level. *)

open Memsim

let mk ?(size = 1024) ?(assoc = 2) ?(line = 64) () =
  Cache.create ~name:"t" ~size_bytes:size ~assoc ~line_bytes:line

let test_geometry () =
  let c = mk () in
  Alcotest.(check int) "nsets" 8 (Cache.nsets c);
  Alcotest.(check int) "assoc" 2 (Cache.assoc c);
  Alcotest.(check int) "line bytes" 64 (Cache.line_bytes c);
  Alcotest.(check int) "capacity" 1024 (Cache.capacity_bytes c)

let test_geometry_validation () =
  Alcotest.check_raises "line not power of two"
    (Invalid_argument "line_bytes: must be a power of two") (fun () ->
      ignore (Cache.create ~name:"x" ~size_bytes:960 ~assoc:2 ~line_bytes:48));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Cache.create: size not divisible by assoc * line_bytes") (fun () ->
      ignore (Cache.create ~name:"x" ~size_bytes:1000 ~assoc:2 ~line_bytes:64))

let test_non_pow2_sets () =
  (* 33 MiB 11-way LLC: 49152 sets, modulo indexing. *)
  let c =
    Cache.create ~name:"llc" ~size_bytes:(33 * 1024 * 1024) ~assoc:11 ~line_bytes:64
  in
  Alcotest.(check int) "nsets" 49152 (Cache.nsets c);
  ignore (Cache.install c 0x12340);
  Alcotest.(check bool) "installed line present" true (Cache.contains c 0x12340)

let test_miss_then_hit () =
  let c = mk () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  ignore (Cache.install c 0x1000);
  Alcotest.(check bool) "hit after install" true (Cache.access c 0x1000);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_same_line_different_offsets () =
  let c = mk () in
  ignore (Cache.install c 0x1000);
  Alcotest.(check bool) "offset within same line hits" true (Cache.access c 0x103F)

let test_lru_eviction () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  (* 2 sets; lines mapping to set 0: line numbers 0, 2, 4... addr = line*64 *)
  ignore (Cache.install c 0);
  (* line 0, set 0 *)
  ignore (Cache.install c (2 * 64));
  (* line 2, set 0; set full *)
  ignore (Cache.access c 0);
  (* make line 0 the MRU *)
  let evicted = Cache.install c (4 * 64) in
  Alcotest.(check (option int)) "LRU victim is line 2" (Some 2) evicted;
  Alcotest.(check bool) "line 0 survives" true (Cache.contains c 0);
  Alcotest.(check bool) "line 2 gone" false (Cache.contains c (2 * 64));
  Alcotest.(check bool) "line 4 present" true (Cache.contains c (4 * 64))

let test_install_refreshes_recency () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  ignore (Cache.install c 0);
  ignore (Cache.install c (2 * 64));
  (* re-install line 0: now MRU; victim should be line 2 *)
  Alcotest.(check (option int)) "reinstall returns no victim" None (Cache.install c 0);
  Alcotest.(check (option int)) "line 2 is LRU" (Some 2) (Cache.install c (4 * 64))

let test_invalid_way_preferred () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  ignore (Cache.install c 0);
  Alcotest.(check (option int)) "no eviction while invalid way exists" None
    (Cache.install c (2 * 64))

let test_sets_isolated () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  (* Fill set 0 beyond capacity: set 1 must be untouched. *)
  ignore (Cache.install c (1 * 64));
  (* set 1 *)
  ignore (Cache.install c 0);
  ignore (Cache.install c (2 * 64));
  ignore (Cache.install c (4 * 64));
  Alcotest.(check bool) "set-1 resident survives set-0 thrash" true (Cache.contains c (1 * 64))

let test_invalidate () =
  let c = mk () in
  ignore (Cache.install c 0x2000);
  Cache.invalidate c 0x2000;
  Alcotest.(check bool) "gone after invalidate" false (Cache.contains c 0x2000)

let test_clear () =
  let c = mk () in
  ignore (Cache.install c 0x2000);
  ignore (Cache.install c 0x4000);
  Cache.clear c;
  Alcotest.(check int) "no resident lines" 0 (Cache.resident_lines c);
  Alcotest.(check bool) "counters preserved" true (Cache.installs c = 2)

let test_resident_lines () =
  let c = mk () in
  ignore (Cache.install c 0);
  ignore (Cache.install c 64);
  ignore (Cache.install c 64);
  (* duplicate *)
  Alcotest.(check int) "two distinct lines" 2 (Cache.resident_lines c)

let test_contains_no_stats () =
  let c = mk () in
  ignore (Cache.install c 0);
  ignore (Cache.contains c 0);
  ignore (Cache.contains c 0x9999);
  Alcotest.(check int) "contains does not count hits" 0 (Cache.hits c);
  Alcotest.(check int) "contains does not count misses" 0 (Cache.misses c)

let qcheck_capacity_bound =
  QCheck.Test.make ~name:"resident lines never exceed capacity" ~count:100
    QCheck.(list_of_size (Gen.return 200) (int_bound 10_000))
    (fun addrs ->
      let c = mk ~size:512 ~assoc:2 ~line:64 () in
      List.iter (fun a -> ignore (Cache.install c (a * 8))) addrs;
      Cache.resident_lines c <= 8)

let qcheck_install_then_contains =
  QCheck.Test.make ~name:"freshly installed line is resident" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let c = mk () in
      ignore (Cache.install c addr);
      Cache.contains c addr)

(* Equivalence pin: a seeded random stream of every line operation,
   digested over every return value, each touched set's way order as seen
   through [lookup_line] (the way of every tag the stream can draw for
   that set, or the absent code), and the counters. Lines are
   [tag * nsets + j], so each [j] names one set; [tags] exceeds the
   associativity, so sets fill and evict, and a skewed tag draw keeps some
   lines hot. A [fill_line] always follows the miss that reported its
   valid-way count. The second geometry has a non-power-of-two set count.
   The digests were recorded before the way shift became an int loop. *)
let op_stream_digest ~size ~assoc ~tags ~ops =
  let c = mk ~size ~assoc ~line:64 () in
  let nsets = Cache.nsets c in
  let rng = Rng.create 1717 in
  let buf = Buffer.create (ops * 32) in
  let opt = function Some v -> string_of_int v | None -> "-" in
  let counters () =
    Printf.bprintf buf "|%d,%d,%d,%d,%d;" (Cache.hits c) (Cache.misses c) (Cache.evictions c)
      (Cache.installs c) (Cache.resident_lines c)
  in
  for i = 1 to ops do
    let j = Rng.int rng 4 in
    let line = (Rng.int rng (1 + Rng.int rng tags) * nsets) + j in
    let op = Rng.int rng 100 in
    if op < 20 then Printf.bprintf buf "p%d" (Cache.probe_line c line)
    else if op < 32 then Printf.bprintf buf "l%d" (Cache.lookup_line c line)
    else if op < 52 then begin
      let w = if Rng.bool rng then Cache.lookup_line c line else Cache.probe_line c line in
      Printf.bprintf buf "f%d" w;
      if w < 0 then Printf.bprintf buf ",%s" (opt (Cache.fill_line c line (-w - 1)))
    end
    else if op < 70 then Printf.bprintf buf "i%s" (opt (Cache.install_line c line))
    else if op < 80 then begin
      Cache.invalidate_line c line;
      Buffer.add_char buf 'v'
    end
    else if op < 95 then
      Printf.bprintf buf "a%b" (Cache.access c ((line * 64) + Rng.int rng 64))
    else if op < 99 then Printf.bprintf buf "n%d" (Cache.resident_lines c)
    else begin
      Cache.clear c;
      Buffer.add_char buf 'c'
    end;
    Buffer.add_char buf '[';
    for tag = 0 to tags do
      Printf.bprintf buf "%d," (Cache.lookup_line c ((tag * nsets) + j))
    done;
    Buffer.add_string buf "];";
    if i mod 1000 = 0 then counters ()
  done;
  counters ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_op_stream_pin name ~size ~assoc ~tags ~expected () =
  Alcotest.(check string) name expected (op_stream_digest ~size ~assoc ~tags ~ops:20_000)

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "non-power-of-two sets" `Quick test_non_pow2_sets;
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "same line offsets" `Quick test_same_line_different_offsets;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "install refreshes recency" `Quick test_install_refreshes_recency;
    Alcotest.test_case "invalid way preferred" `Quick test_invalid_way_preferred;
    Alcotest.test_case "sets isolated" `Quick test_sets_isolated;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "resident lines" `Quick test_resident_lines;
    Alcotest.test_case "contains is stat-free" `Quick test_contains_no_stats;
    Alcotest.test_case "op stream pin, 8 sets x 4 ways" `Quick
      (test_op_stream_pin "pow2" ~size:2048 ~assoc:4 ~tags:9
         ~expected:"680014b9b4afb7cb39092a4aeba20b2b");
    Alcotest.test_case "op stream pin, 12 sets x 5 ways" `Quick
      (test_op_stream_pin "non-pow2" ~size:3840 ~assoc:5 ~tags:11
         ~expected:"55917b2acb3c258407c7f36e892563d1");
    Helpers.qcheck qcheck_capacity_bound;
    Helpers.qcheck qcheck_install_then_contains;
  ]
