(* Cuckoo hash, MDI tree, state arenas, data packing. *)

open Structures

let layout () = Memsim.Layout.create ()

(* ----- cuckoo ----- *)

let test_cuckoo_insert_lookup () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:100 () in
  for i = 0 to 99 do
    Alcotest.(check bool) "insert ok" true (Cuckoo.insert t ~key:(Int64.of_int (i * 7)) ~value:i)
  done;
  for i = 0 to 99 do
    Alcotest.(check (option int)) "lookup" (Some i) (Cuckoo.lookup t (Int64.of_int (i * 7)))
  done;
  Alcotest.(check (option int)) "absent key" None (Cuckoo.lookup t 999999L)

let test_cuckoo_update () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:10 () in
  ignore (Cuckoo.insert t ~key:5L ~value:1);
  ignore (Cuckoo.insert t ~key:5L ~value:2);
  Alcotest.(check (option int)) "updated in place" (Some 2) (Cuckoo.lookup t 5L);
  Alcotest.(check int) "population unchanged" 1 (Cuckoo.population t)

let test_cuckoo_delete () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:10 () in
  ignore (Cuckoo.insert t ~key:5L ~value:1);
  Alcotest.(check bool) "delete present" true (Cuckoo.delete t 5L);
  Alcotest.(check (option int)) "gone" None (Cuckoo.lookup t 5L);
  Alcotest.(check bool) "delete absent" false (Cuckoo.delete t 5L);
  Alcotest.(check int) "population zero" 0 (Cuckoo.population t)

let test_cuckoo_displacement () =
  (* Fill to ~high load: displacement (kick) paths must engage and all
     entries remain findable. *)
  let n = 10_000 in
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:n () in
  for i = 0 to n - 1 do
    let ok = Cuckoo.insert t ~key:(Int64.of_int (0x9E3779B9 * (i + 1))) ~value:i in
    Alcotest.(check bool) "insert under load" true ok
  done;
  Alcotest.(check bool) "load factor reasonable" true (Cuckoo.load_factor t > 0.5);
  for i = 0 to n - 1 do
    Alcotest.(check (option int)) "find after kicks" (Some i)
      (Cuckoo.lookup t (Int64.of_int (0x9E3779B9 * (i + 1))))
  done

let test_cuckoo_addrs_distinct_regions () =
  let l = layout () in
  let t = Cuckoo.create l ~label:"c" ~capacity:100 () in
  let b0 = Cuckoo.bucket_addr t 0 in
  let k0 = Cuckoo.key_addr t 0 in
  Alcotest.(check bool) "bucket and key lines differ" true (b0 / 64 <> k0 / 64);
  Alcotest.(check (option string)) "bucket region" (Some "c") (Memsim.Layout.region_of l b0);
  Alcotest.(check (option string)) "key region" (Some "c.keys") (Memsim.Layout.region_of l k0)

let test_cuckoo_candidates_superset () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:1000 () in
  for i = 0 to 999 do
    ignore (Cuckoo.insert t ~key:(Int64.of_int (i + 1)) ~value:i)
  done;
  for i = 0 to 999 do
    let key = Int64.of_int (i + 1) in
    let b1 = Cuckoo.hash1 t key and b2 = Cuckoo.hash2 t key in
    let in_b1 = Cuckoo.find_in_bucket t ~bucket:b1 ~key in
    let in_b2 = Cuckoo.find_in_bucket t ~bucket:b2 ~key in
    let bucket = if in_b1 <> None then b1 else b2 in
    Alcotest.(check bool) "stored in one of its two buckets" true
      (in_b1 <> None || in_b2 <> None);
    (* The fingerprint scan must flag the bucket holding the key. *)
    Alcotest.(check bool) "candidates include the match" true
      (Cuckoo.candidates t ~bucket ~key <> [])
  done

let test_cuckoo_full_table () =
  (* A tiny table eventually refuses inserts instead of looping forever. *)
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:4 () in
  let ok = ref 0 in
  for i = 1 to 64 do
    if Cuckoo.insert t ~key:(Int64.of_int i) ~value:i then incr ok
  done;
  Alcotest.(check bool) "some inserts rejected at saturation" true (!ok < 64);
  (* Every accepted key must still be present. *)
  Alcotest.(check int) "population equals accepted" !ok (Cuckoo.population t)

(* The table is flat: filling it allocates no per-entry heap block, and the
   whole table costs at most three words per slot plus a constant. *)
let test_cuckoo_flat_footprint () =
  let n = 4096 in
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:n () in
  let words () = Obj.reachable_words (Obj.repr t) in
  let empty = words () in
  for i = 0 to n - 1 do
    ignore (Cuckoo.insert t ~key:(Int64.of_int ((i * 7919) + 1)) ~value:i)
  done;
  Alcotest.(check int) "all resident" n (Cuckoo.population t);
  Alcotest.(check int) "populating adds no heap words" empty (words ());
  let nslots = Cuckoo.nbuckets t * Cuckoo.slots_per_bucket in
  Alcotest.(check bool) "at most 3 words per slot" true (words () <= (3 * nslots) + 64)

let qcheck_cuckoo_model =
  QCheck.Test.make ~name:"cuckoo agrees with Hashtbl model" ~count:60
    QCheck.(list_of_size (Gen.return 300) (pair (int_range 1 500) (int_bound 1000)))
    (fun ops ->
      let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:600 () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let key = Int64.of_int k in
          if v mod 5 = 0 then begin
            ignore (Cuckoo.delete t key);
            Hashtbl.remove model key
          end
          else if Cuckoo.insert t ~key ~value:v then Hashtbl.replace model key v)
        ops;
      Hashtbl.fold (fun k v acc -> acc && Cuckoo.lookup t k = Some v) model true)

(* Stepwise model agreement: after EVERY operation the table answers like
   the Hashtbl reference — present keys, never-inserted keys (misses),
   delete's return value, and the population count. *)
let qcheck_cuckoo_model_stepwise =
  QCheck.Test.make ~name:"cuckoo agrees with Hashtbl after every op" ~count:40
    QCheck.(list_of_size (Gen.return 200) (pair (int_range 1 400) (int_bound 1000)))
    (fun ops ->
      let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:600 () in
      let model = Hashtbl.create 64 in
      List.for_all
        (fun (k, v) ->
          let key = Int64.of_int k in
          let op_ok =
            if v mod 5 = 0 then begin
              let in_model = Hashtbl.mem model key in
              let deleted = Cuckoo.delete t key in
              Hashtbl.remove model key;
              deleted = in_model
            end
            else begin
              if Cuckoo.insert t ~key ~value:v then Hashtbl.replace model key v;
              true
            end
          in
          op_ok
          && Cuckoo.lookup t key = Hashtbl.find_opt model key
          && Cuckoo.lookup t (Int64.of_int (k + 1000)) = None
          && Cuckoo.population t = Hashtbl.length model)
        ops)

(* Equivalence pin: a seeded random stream of every table operation over a
   key pool of full-range 64-bit keys, digested over every return value,
   the population after each op, and the primary/alternate bucket of each
   op's key with both of their simulated addresses. Pools exceed capacity,
   so tables saturate: displacement walks run, some fail and unwind, and
   [insert_policy] mixes all three policies on one table, which pins the
   exact LRU order [Evict_lru] sees. The digests were recorded on the
   boxed-key table with a separate stamp array. *)
let cuckoo_op_stream_digest ~capacity ~pool ~ops =
  let rng = Memsim.Rng.create 2025 in
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity () in
  let keys = Array.init pool (fun _ -> Memsim.Rng.next_int64 rng) in
  let buf = Buffer.create (ops * 24) in
  let opt = function None -> "-" | Some v -> string_of_int v in
  let policies = [| Cuckoo.Drop_new; Cuckoo.Evict_lru; Cuckoo.Shed_flow |] in
  for _ = 1 to ops do
    (* Skewed draw: low pool indices recur, so updates, hits and deletes of
       residents are common. *)
    let key = keys.(Memsim.Rng.int rng (1 + Memsim.Rng.int rng pool)) in
    let b1 = Cuckoo.hash1 t key and b2 = Cuckoo.hash2 t key in
    Printf.bprintf buf "k%d,%d,%d,%d,%d,%d:" b1 b2 (Cuckoo.bucket_addr t b1)
      (Cuckoo.key_addr t b1) (Cuckoo.bucket_addr t b2) (Cuckoo.key_addr t b2);
    let op = Memsim.Rng.int rng 100 in
    if op < 25 then
      Printf.bprintf buf "i%b" (Cuckoo.insert t ~key ~value:(Memsim.Rng.int rng 1_000_000))
    else if op < 50 then begin
      let policy = policies.(Memsim.Rng.int rng 3) in
      Printf.bprintf buf "p%s," (Cuckoo.policy_to_string policy);
      match Cuckoo.insert_policy t ~policy ~key ~value:(Memsim.Rng.int rng 1_000_000) with
      | Cuckoo.Inserted -> Buffer.add_string buf "I"
      | Cuckoo.Updated -> Buffer.add_string buf "U"
      | Cuckoo.Rejected -> Buffer.add_string buf "R"
      | Cuckoo.Evicted { victim_key; victim_value } ->
          Printf.bprintf buf "E%Ld,%d" victim_key victim_value
    end
    else if op < 65 then Printf.bprintf buf "l%s" (opt (Cuckoo.lookup t key))
    else if op < 80 then begin
      let bucket = if Memsim.Rng.bool rng then b1 else b2 in
      Printf.bprintf buf "f%s" (opt (Cuckoo.find_in_bucket t ~bucket ~key));
      List.iter (Printf.bprintf buf ",%d") (Cuckoo.candidates t ~bucket ~key)
    end
    else if op < 92 then Printf.bprintf buf "d%b" (Cuckoo.delete t key)
    else begin
      (* Fingerprint scan of an arbitrary bucket, mostly not the key's own. *)
      let bucket = Memsim.Rng.int rng (Cuckoo.nbuckets t) in
      Printf.bprintf buf "c%d,%d,%d" bucket (Cuckoo.bucket_addr t bucket)
        (Cuckoo.key_addr t bucket);
      List.iter (Printf.bprintf buf ",%d") (Cuckoo.candidates t ~bucket ~key)
    end;
    Printf.bprintf buf "#%d;" (Cuckoo.population t)
  done;
  Array.iter (fun key -> Printf.bprintf buf "%s;" (opt (Cuckoo.lookup t key))) keys;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_cuckoo_op_stream_pin name ~capacity ~pool ~expected () =
  Alcotest.(check string) name expected (cuckoo_op_stream_digest ~capacity ~pool ~ops:20_000)

(* ----- MDI tree ----- *)

let mk_rules n =
  List.init n (fun j ->
      {
        Mdi_tree.src_ip = Mdi_tree.full_range;
        src_port = Mdi_tree.range ~lo:(j * 100) ~hi:((j * 100) + 99);
        dst_port = Mdi_tree.full_range;
        proto = Mdi_tree.range ~lo:17 ~hi:17;
        value = j;
      })

let key ?(proto = 17) port =
  { Mdi_tree.k_src_ip = 1; k_src_port = port; k_dst_port = 80; k_proto = proto }

let test_mdi_lookup_all () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 16) () in
  for j = 0 to 15 do
    Alcotest.(check (option int)) "lo edge" (Some j) (Mdi_tree.lookup t (key (j * 100)));
    Alcotest.(check (option int)) "hi edge" (Some j) (Mdi_tree.lookup t (key ((j * 100) + 99)))
  done

let test_mdi_miss () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 4) () in
  Alcotest.(check (option int)) "above all ranges" None (Mdi_tree.lookup t (key 5000));
  Alcotest.(check (option int)) "wrong proto" None (Mdi_tree.lookup t (key ~proto:6 50))

let test_mdi_overlap_rejected () =
  let overlapping =
    [
      { Mdi_tree.src_ip = Mdi_tree.full_range; src_port = Mdi_tree.range ~lo:0 ~hi:10;
        dst_port = Mdi_tree.full_range; proto = Mdi_tree.full_range; value = 0 };
      { Mdi_tree.src_ip = Mdi_tree.full_range; src_port = Mdi_tree.range ~lo:5 ~hi:15;
        dst_port = Mdi_tree.full_range; proto = Mdi_tree.full_range; value = 1 };
    ]
  in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Mdi_tree.create: rules overlap on the discriminating dimension")
    (fun () -> ignore (Mdi_tree.create (layout ()) ~label:"m" ~rules:overlapping ()))

let test_mdi_depth_logarithmic () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 128) () in
  Alcotest.(check bool) "balanced depth" true (Mdi_tree.depth t <= 8);
  Alcotest.(check int) "size" 128 (Mdi_tree.size t)

let test_mdi_path_is_pointer_chase () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 64) () in
  let v, path = Mdi_tree.lookup_path t (key 3210) in
  Alcotest.(check (option int)) "found" (Some 32) v;
  Alcotest.(check bool) "path no longer than depth" true
    (List.length path <= Mdi_tree.depth t);
  (* Node addresses along the path are distinct cache lines. *)
  let lines = List.map (fun idx -> Mdi_tree.node_addr t idx / 64) path in
  Alcotest.(check int) "distinct lines" (List.length lines)
    (List.length (List.sort_uniq compare lines))

let test_mdi_step_semantics () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 8) () in
  match Mdi_tree.root t with
  | None -> Alcotest.fail "non-empty tree has a root"
  | Some root ->
      let rec walk node steps =
        Alcotest.(check bool) "bounded walk" true (steps < 10);
        match Mdi_tree.step t ~node (key 701) with
        | Mdi_tree.Found v -> v
        | Mdi_tree.Descend next -> walk next (steps + 1)
        | Mdi_tree.Miss -> Alcotest.fail "unexpected miss"
      in
      Alcotest.(check int) "step walk finds rule 7" 7 (walk root 0)

let test_mdi_empty () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:[] () in
  Alcotest.(check (option int)) "no root" None (Mdi_tree.root t);
  Alcotest.(check (option int)) "lookup misses" None (Mdi_tree.lookup t (key 5))

let test_mdi_forest_distinct_members () =
  let f = Mdi_tree.Forest.create (layout ()) ~label:"f" ~rules:(mk_rules 4) ~members:10 () in
  let shape = Mdi_tree.Forest.shape f in
  (match Mdi_tree.root shape with
  | None -> Alcotest.fail "root expected"
  | Some root ->
      let addrs = List.init 10 (fun m -> Mdi_tree.Forest.node_addr f ~member:m root) in
      Alcotest.(check int) "per-member root lines distinct" 10
        (List.length (List.sort_uniq compare (List.map (fun a -> a / 64) addrs))));
  Alcotest.(check int) "members" 10 (Mdi_tree.Forest.members f)

let qcheck_mdi_vs_linear_scan =
  QCheck.Test.make ~name:"MDI lookup == linear rule scan" ~count:200
    QCheck.(pair (int_range 1 64) (int_bound 8000))
    (fun (n_rules, port) ->
      let rules = mk_rules n_rules in
      let t = Mdi_tree.create (layout ()) ~label:"m" ~rules () in
      let linear =
        List.find_opt
          (fun r ->
            port >= r.Mdi_tree.src_port.Mdi_tree.lo && port <= r.Mdi_tree.src_port.Mdi_tree.hi)
          rules
        |> Option.map (fun r -> r.Mdi_tree.value)
      in
      Mdi_tree.lookup t (key port) = linear)

(* ----- state arena ----- *)

let test_arena_addr_stride () =
  let a = State_arena.create (layout ()) ~label:"a" ~entry_bytes:8 ~count:10 () in
  Alcotest.(check int) "stride rounded to line" 64 (State_arena.stride a);
  Alcotest.(check int) "entry addresses stride apart" 64
    (State_arena.addr a 1 - State_arena.addr a 0);
  Alcotest.(check int) "one line per entry" 1 (State_arena.lines_per_entry a)

let test_arena_bounds () =
  let a = State_arena.create (layout ()) ~label:"a" ~entry_bytes:8 ~count:10 () in
  Alcotest.check_raises "negative index"
    (Invalid_argument "State_arena.addr: index out of range") (fun () ->
      ignore (State_arena.addr a (-1)));
  Alcotest.check_raises "index = count"
    (Invalid_argument "State_arena.addr: index out of range") (fun () ->
      ignore (State_arena.addr a 10))

let test_arena_record_fields () =
  let a =
    State_arena.create_record (layout ()) ~label:"r"
      ~field_offsets:[ ("x", 0); ("y", 16) ] ~record_bytes:32 ~count:4 ()
  in
  Alcotest.(check int) "field offset applied" 16
    (State_arena.field_addr a 0 "y" - State_arena.addr a 0);
  Alcotest.check_raises "unknown field"
    (Invalid_argument "State_arena.field_addr: unknown field z") (fun () ->
      ignore (State_arena.field_addr a 0 "z"))

let test_group_packing () =
  let g =
    State_arena.create_group (layout ()) ~label:"g"
      ~members:[ ("nat", 8); ("lb", 8); ("fw", 16); ("nm", 16) ] ~count:100 ()
  in
  let arena = State_arena.group_arena g in
  (* 48 bytes of state pack into one line per flow. *)
  Alcotest.(check int) "one line per flow" 64 (State_arena.stride arena);
  (* All members of flow 7 share that flow's line. *)
  let lines =
    List.map (fun m -> State_arena.group_addr g 7 m / 64) [ "nat"; "lb"; "fw"; "nm" ]
  in
  Alcotest.(check int) "single line" 1 (List.length (List.sort_uniq compare lines));
  Alcotest.(check int) "member size" 16 (State_arena.group_member_bytes g "fw")

let test_group_views () =
  let g =
    State_arena.create_group (layout ()) ~label:"g" ~members:[ ("a", 8); ("b", 8) ]
      ~count:10 ()
  in
  let va = State_arena.view g ~member:"a" in
  let vb = State_arena.view g ~member:"b" in
  Alcotest.(check int) "view addr = group addr" (State_arena.group_addr g 3 "a")
    (State_arena.addr va 3);
  Alcotest.(check int) "views offset by member" 8 (State_arena.addr vb 0 - State_arena.addr va 0);
  Alcotest.(check int) "view entry bytes" 8 (State_arena.entry_bytes vb);
  Alcotest.(check string) "view label derived" "g.a" (State_arena.label va)

(* ----- packing ----- *)

let fields =
  [
    { Packing.name = "a"; bytes = 16 };
    { Packing.name = "b"; bytes = 16 };
    { Packing.name = "c"; bytes = 16 };
    { Packing.name = "d"; bytes = 16 };
    { Packing.name = "e"; bytes = 16 };
    { Packing.name = "f"; bytes = 16 };
  ]

(* Two actions with disjoint field sets, interleaved in declaration
   order: sequential layout spreads each access over two lines; packing
   should give one line each. *)
let accesses =
  [
    { Packing.fields = [ "a"; "c"; "e" ]; weight = 1.0 };
    { Packing.fields = [ "b"; "d"; "f" ]; weight = 1.0 };
  ]

let no_overlap offsets sized =
  let spans =
    List.map (fun (n, off) -> (off, off + List.assoc n sized)) offsets
    |> List.sort compare
  in
  let rec ok = function
    | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && ok rest
    | _ -> true
  in
  ok spans

let sized = List.map (fun f -> (f.Packing.name, f.Packing.bytes)) fields

let test_sequential_layout () =
  let offsets, total = Packing.sequential fields in
  Alcotest.(check int) "all fields placed" 6 (List.length offsets);
  Alcotest.(check int) "dense total" 96 total;
  Alcotest.(check bool) "no overlap" true (no_overlap offsets sized)

let test_pack_reduces_lines () =
  let seq_offsets, _ = Packing.sequential fields in
  let packed_offsets, _ = Packing.pack ~line_bytes:64 fields accesses in
  Alcotest.(check bool) "packed has no overlap" true (no_overlap packed_offsets sized);
  Alcotest.(check int) "all fields placed" 6 (List.length packed_offsets);
  let cost layout = Packing.cost ~line_bytes:64 fields layout accesses in
  Alcotest.(check bool) "packing lowers expected lines" true
    (cost packed_offsets < cost seq_offsets);
  (* Each access fits in one 64-byte line after packing (3 x 16 = 48). *)
  List.iter
    (fun a ->
      Alcotest.(check int) "one line per access" 1
        (Packing.lines_touched ~line_bytes:64 fields packed_offsets a))
    accesses

let test_lines_touched () =
  let offsets = [ ("a", 0); ("b", 60) ] in
  let fs = [ { Packing.name = "a"; bytes = 8 }; { Packing.name = "b"; bytes = 8 } ] in
  (* a occupies line 0; b straddles lines 0 and 1 -> union {0, 1}. *)
  Alcotest.(check int) "field straddling a boundary counts both lines" 2
    (Packing.lines_touched ~line_bytes:64 fs offsets
       { Packing.fields = [ "a"; "b" ]; weight = 1.0 });
  Alcotest.(check int) "single in-line field is one line" 1
    (Packing.lines_touched ~line_bytes:64 fs offsets
       { Packing.fields = [ "a" ]; weight = 1.0 })

let qcheck_pack_no_overlap =
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 12) (int_range 1 64) >>= fun sizes ->
        return (List.mapi (fun i b -> { Packing.name = Printf.sprintf "f%d" i; bytes = b }) sizes))
  in
  QCheck.Test.make ~name:"pack never overlaps fields and keeps them all" ~count:200 gen
    (fun fs ->
      let accesses =
        [ { Packing.fields = List.filteri (fun i _ -> i mod 2 = 0) (List.map (fun f -> f.Packing.name) fs); weight = 1.0 } ]
      in
      let offsets, total = Packing.pack ~line_bytes:64 fs accesses in
      let sized = List.map (fun f -> (f.Packing.name, f.Packing.bytes)) fs in
      List.length offsets = List.length fs
      && no_overlap offsets sized
      && List.for_all (fun (n, off) -> off + List.assoc n sized <= total) offsets)

let suite =
  [
    Alcotest.test_case "cuckoo insert/lookup" `Quick test_cuckoo_insert_lookup;
    Alcotest.test_case "cuckoo update" `Quick test_cuckoo_update;
    Alcotest.test_case "cuckoo delete" `Quick test_cuckoo_delete;
    Alcotest.test_case "cuckoo displacement" `Quick test_cuckoo_displacement;
    Alcotest.test_case "cuckoo address regions" `Quick test_cuckoo_addrs_distinct_regions;
    Alcotest.test_case "cuckoo candidates" `Quick test_cuckoo_candidates_superset;
    Alcotest.test_case "cuckoo full table" `Quick test_cuckoo_full_table;
    Alcotest.test_case "cuckoo flat footprint" `Quick test_cuckoo_flat_footprint;
    Alcotest.test_case "cuckoo op stream pin, tiny table" `Quick
      (test_cuckoo_op_stream_pin "tiny" ~capacity:12 ~pool:48
         ~expected:"b725d3428065838b308b40f8ac482138");
    Alcotest.test_case "cuckoo op stream pin, small table" `Quick
      (test_cuckoo_op_stream_pin "small" ~capacity:200 ~pool:400
         ~expected:"c130fee2d19b7366ab3934c51d085f63");
    Helpers.qcheck qcheck_cuckoo_model;
    Helpers.qcheck qcheck_cuckoo_model_stepwise;
    Alcotest.test_case "mdi lookup all" `Quick test_mdi_lookup_all;
    Alcotest.test_case "mdi miss" `Quick test_mdi_miss;
    Alcotest.test_case "mdi overlap rejected" `Quick test_mdi_overlap_rejected;
    Alcotest.test_case "mdi depth" `Quick test_mdi_depth_logarithmic;
    Alcotest.test_case "mdi path pointer chase" `Quick test_mdi_path_is_pointer_chase;
    Alcotest.test_case "mdi step semantics" `Quick test_mdi_step_semantics;
    Alcotest.test_case "mdi empty" `Quick test_mdi_empty;
    Alcotest.test_case "mdi forest members" `Quick test_mdi_forest_distinct_members;
    Helpers.qcheck qcheck_mdi_vs_linear_scan;
    Alcotest.test_case "arena addr/stride" `Quick test_arena_addr_stride;
    Alcotest.test_case "arena bounds" `Quick test_arena_bounds;
    Alcotest.test_case "arena record fields" `Quick test_arena_record_fields;
    Alcotest.test_case "group packing" `Quick test_group_packing;
    Alcotest.test_case "group views" `Quick test_group_views;
    Alcotest.test_case "sequential layout" `Quick test_sequential_layout;
    Alcotest.test_case "pack reduces lines" `Quick test_pack_reduces_lines;
    Alcotest.test_case "lines_touched" `Quick test_lines_touched;
    Helpers.qcheck qcheck_pack_no_overlap;
  ]
