(* The stateful flow classifier module (Listing 1, Fig 6(b)): a cuckoo-hash
   match module decomposed into get_key / hash_1 / bucket_check_1 /
   key_check_1 / hash_2 / bucket_check_2 / key_check_2 NFActions, exactly
   as in the paper's specification. Bucket lines hold fingerprints and
   value indices; full keys live in a separate key-store line, so each
   probe is two dependent cache-line reads — each its own action whose line
   address is resolved (and hence prefetchable) one step ahead. *)

open Gunfu
open Structures

let spec_text =
  {|
module: flow_classifier
category: StatefulClassifier
parameters:
- header_type
- capacity
transitions:
- Start,packet->get_key
- get_key,get_key_done->hash_1
- hash_1,hash_done->bucket_check_1
- bucket_check_1,bucket_hit->key_check_1
- bucket_check_1,check_failure->hash_2
- key_check_1,MATCH_SUCCESS->End
- key_check_1,check_failure->hash_2
- hash_2,sec_hash_done->bucket_check_2
- bucket_check_2,bucket_hit->key_check_2
- bucket_check_2,MATCH_FAIL->End
- key_check_2,MATCH_SUCCESS->End
- key_check_2,MATCH_FAIL->End
fetching:
  get_key:
  - header
  bucket_check_1:
  - bucket
  key_check_1:
  - key_store
  bucket_check_2:
  - bucket
  key_check_2:
  - key_store
states:
  header: packet
  bucket: match
  key_store: match
|}

let spec = lazy (Spec.module_spec_of_string spec_text)

type t = {
  name : string;
  table : Cuckoo.t;
  key_kind : string;
  key_fn : Nftask.t -> int64;
  header_bytes : int;
}

(* Key extractors. The canonical flow identity is used (rewrites earlier in
   an SFC do not change a flow's identity), which is also what makes
   redundant-matching removal sound: every classifier with the same
   [key_kind] computes the same index for a given flow. *)
let five_tuple_key (task : Nftask.t) =
  Netcore.Flow.key64 (Nftask.packet_exn task).Netcore.Packet.flow

let dst_ip_key (task : Nftask.t) =
  Int64.logand
    (Int64.of_int32 (Nftask.packet_exn task).Netcore.Packet.flow.Netcore.Flow.dst_ip)
    0xFFFFFFFFL

let create layout ~name ~key_kind ~key_fn ~capacity () =
  {
    name;
    table = Cuckoo.create layout ~label:(name ^ ".match") ~capacity ();
    key_kind;
    key_fn;
    header_bytes = 64;
  }

let table t = t.table

(* Insert [key_of i -> i] for every [i < count], in index order. Overflow
   rejects the new entry rather than crashing: the returned count is the
   number of entries that are not resident — 0 means every entry is. *)
let populate t ~count key_of =
  let shed = ref 0 in
  for i = 0 to count - 1 do
    if not (Cuckoo.insert t.table ~key:(key_of i) ~value:i) then incr shed
  done;
  !shed

(* ----- NFActions ----- *)

let read_match_addrs ctx (task : Nftask.t) =
  Exec_ctx.read_blocks ctx ~cls:Sref.Match_state task.Nftask.match_addrs

let get_key_action t =
  Action.make ~kind:Action.Match_action ~base_cycles:12 ~base_instrs:14
    ~name:(t.name ^ ".get_key")
    (fun ctx task ->
      Nf_common.packet_read ctx task ~bytes:t.header_bytes;
      task.Nftask.temps.Nftask.key <- t.key_fn task;
      Event.User "get_key_done")

let hash_action t ~primary =
  let name = if primary then ".hash_1" else ".hash_2" in
  (* Built once: an [Event.User] of a non-literal string allocates. *)
  let event = Event.User (if primary then "hash_done" else "sec_hash_done") in
  Action.make ~kind:Action.Match_action ~base_cycles:22 ~base_instrs:20
    ~invalidates:[ `Match_addrs ] ~name:(t.name ^ name)
    (fun _ctx task ->
      let key = task.Nftask.temps.Nftask.key in
      let bucket = if primary then Cuckoo.hash1 t.table key else Cuckoo.hash2 t.table key in
      if primary then task.Nftask.temps.Nftask.h1 <- bucket
      else task.Nftask.temps.Nftask.h2 <- bucket;
      task.Nftask.match_addrs <- [ (Cuckoo.bucket_addr t.table bucket, Cuckoo.bucket_bytes) ];
      event)

(* Fingerprint scan over the bucket line; on a hit, resolves the key-store
   line for the key_check step. *)
let bucket_check_action t ~primary =
  let name = if primary then ".bucket_check_1" else ".bucket_check_2" in
  Action.make ~kind:Action.Match_action ~base_cycles:10 ~base_instrs:12
    ~invalidates:[ `Match_addrs ] ~name:(t.name ^ name)
    (fun ctx task ->
      read_match_addrs ctx task;
      let bucket =
        if primary then task.Nftask.temps.Nftask.h1 else task.Nftask.temps.Nftask.h2
      in
      if Cuckoo.has_candidate t.table ~bucket ~key:task.Nftask.temps.Nftask.key then begin
        task.Nftask.match_addrs <- [ (Cuckoo.key_addr t.table bucket, Cuckoo.bucket_bytes) ];
        Event.User "bucket_hit"
      end
      else if primary then Event.User "check_failure"
      else Event.Match_fail)

(* Full-key comparison against the key-store line. *)
let key_check_action t ~primary =
  let name = if primary then ".key_check_1" else ".key_check_2" in
  Action.make ~kind:Action.Match_action ~base_cycles:10 ~base_instrs:12
    ~invalidates:[ `Per_flow; `Sub_flow; `Match_addrs ] ~name:(t.name ^ name)
    (fun ctx task ->
      read_match_addrs ctx task;
      let bucket =
        if primary then task.Nftask.temps.Nftask.h1 else task.Nftask.temps.Nftask.h2
      in
      let idx = Cuckoo.find_value t.table ~bucket ~key:task.Nftask.temps.Nftask.key in
      if idx >= 0 then begin
        task.Nftask.matched <- idx;
        Event.Match_success
      end
      else if primary then Event.User "check_failure"
      else Event.Match_fail)

let instance t : Compiler.instance =
  {
    Compiler.i_name = t.name;
    i_spec = Lazy.force spec;
    i_actions =
      [
        ("get_key", get_key_action t);
        ("hash_1", hash_action t ~primary:true);
        ("bucket_check_1", bucket_check_action t ~primary:true);
        ("key_check_1", key_check_action t ~primary:true);
        ("hash_2", hash_action t ~primary:false);
        ("bucket_check_2", bucket_check_action t ~primary:false);
        ("key_check_2", key_check_action t ~primary:false);
      ];
    i_bindings =
      [
        ("header", Prefetch.Packet_header t.header_bytes);
        ("bucket", Prefetch.Match_addrs);
        ("key_store", Prefetch.Match_addrs);
      ];
    i_key_kind = Some t.key_kind;
  }
