(* Network address translator (Fig 6(e)): flow classifier + flow mapper.
   The mapper NFAction is written in NF-C (Listings 2 and 4) and rewrites
   the source IP/port from the per-flow mapping — genuinely, on the packet's
   header bytes, with incremental checksum update. *)

open Gunfu
open Structures

let mapper_spec_text =
  {|
module: flow_mapper
category: StatefulNF
parameters:
- ip_pool
- port_base
transitions:
- Start,MATCH_SUCCESS->flow_mapper
- flow_mapper,packet->End
fetching:
  flow_mapper:
  - mapping
  - header
states:
  mapping: per_flow
  header: packet
nfc:
  flow_mapper: NFAction(flow_mapper) { Packet.src_ip = PerFlowState.ip; Packet.src_port = PerFlowState.port; Emit(Event_Packet); }
|}

let mapper_spec = lazy (Spec.module_spec_of_string mapper_spec_text)

(* Miss path: unknown flows allocate a fresh mapping at runtime — a config
   action touching the NAT's control state (the allocator), then inserting
   into the match state. The scheduler's per-flow ordering guarantees a
   flow is never learned twice concurrently. *)
let learner_spec_text =
  {|
module: nat_learner
category: StatefulNF
parameters:
- pool_size
transitions:
- Start,MATCH_FAIL->learn
- learn,MATCH_SUCCESS->End
- learn,DROP->End
fetching:
  learn:
  - allocator
states:
  allocator: control
|}

let learner_spec = lazy (Spec.module_spec_of_string learner_spec_text)

(* Listing 4, extended with the port rewrite. *)
let mapper_source =
  {|
NFAction(flow_mapper) {
  Packet.src_ip = PerFlowState.ip;
  Packet.src_port = PerFlowState.port;
  Emit(Event_Packet);
}
|}

type t = {
  name : string;
  classifier : Classifier.t;
  arena : State_arena.t;
  map_ip : int32 array;  (* translated source address per flow *)
  map_port : int array;  (* translated source port per flow *)
  allocator_sref : Sref.t;  (* control state of the dynamic learner *)
  mutable next_free : int;  (* first never-allocated mapping slot *)
  mutable learned : int;  (* mappings created by the miss path *)
  keys : int64 array;  (* installed flow key per slot; 0 = slot unused *)
  last_seen : int array;  (* cycle of the slot's last data-path use *)
  mutable free_slots : int list;  (* recycled by the idle-expiry sweep *)
  overflow : Cuckoo.overflow_policy;  (* match-table pressure policy (learner) *)
}

let state_bytes = 8 (* 4B ip + 2B port, padded *)

let public_ip i = Int32.of_int (0xCB007100 lor (i mod 64)) (* 203.0.113.x *)
let public_port i = 20000 + (i mod 40000)

let create layout ~name ?arena ?(overflow = Cuckoo.Drop_new) ~n_flows () =
  let classifier =
    Classifier.create layout ~name:(name ^ "_cls") ~key_kind:"five_tuple"
      ~key_fn:Classifier.five_tuple_key ~capacity:n_flows ()
  in
  let arena =
    match arena with
    | Some a -> a
    | None ->
        State_arena.create layout ~label:(name ^ ".per_flow") ~entry_bytes:state_bytes
          ~count:n_flows ()
  in
  let allocator_addr =
    Memsim.Layout.alloc layout ~align:64 ~label:(name ^ ".control") ~bytes:64 ()
  in
  {
    name;
    classifier;
    arena;
    map_ip = Array.make n_flows 0l;
    map_port = Array.make n_flows 0;
    allocator_sref = Sref.make ~cls:Sref.Control_state ~addr:allocator_addr ~bytes:64;
    next_free = 0;
    learned = 0;
    keys = Array.make n_flows 0L;
    last_seen = Array.make n_flows 0;
    free_slots = [];
    overflow;
  }

(* Install the NAT mapping for every flow: the public address pool is
   cycled, ports allocated sequentially — the BESS NAT example's policy. *)
let populate t flows =
  Array.iteri
    (fun i flow ->
      t.map_ip.(i) <- public_ip i;
      t.map_port.(i) <- public_port i;
      t.keys.(i) <- Netcore.Flow.key64 flow)
    flows;
  t.next_free <- Array.length flows;
  let (_shed : int) =
    Classifier.populate t.classifier
      ~count:(Array.length flows) (fun i -> Netcore.Flow.key64 flows.(i))
  in
  ()

(* NF-C binding: the only state the mapper can reach. Packet field writes
   rewrite the real header bytes. *)
let mapper_binding t : Nfc.binding =
  let read_field ctx task scope field =
    match (scope, field) with
    | Nfc.Per_flow, "ip" ->
        let idx = Nf_common.per_flow_read ctx task t.arena ~name:t.name in
        t.last_seen.(idx) <- ctx.Exec_ctx.clock;
        Int32.to_int t.map_ip.(idx) land 0xFFFFFFFF
    | Nfc.Per_flow, "port" ->
        let idx = Nf_common.per_flow_read ctx task t.arena ~name:t.name in
        t.map_port.(idx)
    | Nfc.Packet, "src_port" ->
        let p = Nftask.packet_exn task in
        Nf_common.packet_read ctx task ~bytes:4;
        Netcore.L4.src_port p.Netcore.Packet.buf ~off:p.Netcore.Packet.l4_off
    | _ -> raise (Nfc.Nfc_error (t.name ^ ": read outside NFTask references"))
  in
  let write_field ctx task scope field v =
    match (scope, field) with
    | Nfc.Packet, "src_ip" ->
        let p = Nftask.packet_exn task in
        Netcore.Ipv4.rewrite_src p.Netcore.Packet.buf ~off:p.Netcore.Packet.l3_off
          ~src:(Int32.of_int v);
        Nf_common.packet_write ctx task ~bytes:4
    | Nfc.Packet, "src_port" ->
        let p = Nftask.packet_exn task in
        Netcore.L4.rewrite_src_port p.Netcore.Packet.buf ~off:p.Netcore.Packet.l4_off
          ~port:v;
        Nf_common.packet_write ctx task ~bytes:2
    | _ -> raise (Nfc.Nfc_error (t.name ^ ": write outside NFTask references"))
  in
  { Nfc.read_field; write_field }

let mapper_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_map";
    i_spec = Lazy.force mapper_spec;
    i_actions = [ ("flow_mapper", Nfc.compile ~binding:(mapper_binding t) mapper_source) ];
    i_bindings =
      [
        ("mapping", Prefetch.Per_flow (t.arena, []));
        ("header", Prefetch.Packet_header 64);
      ];
    i_key_kind = None;
  }

(* ----- dynamic learning (miss path) ----- *)

let learn_action t =
  Action.make ~kind:Action.Config_action ~base_cycles:120 ~base_instrs:90
    ~invalidates:[ `Per_flow ] ~name:(t.name ^ ".learn")
    (fun ctx task ->
      (* Read/update the allocator control state (always cache-hot). *)
      Exec_ctx.read_sref ctx t.allocator_sref;
      let slot =
        match t.free_slots with
        | idx :: rest ->
            t.free_slots <- rest;
            Some idx
        | [] ->
            if t.next_free >= Array.length t.map_ip then None
            else begin
              let idx = t.next_free in
              t.next_free <- idx + 1;
              Some idx
            end
      in
      match slot with
      | None -> Event.Drop_packet
      | Some idx -> begin
        t.learned <- t.learned + 1;
        t.map_ip.(idx) <- public_ip idx;
        t.map_port.(idx) <- public_port idx;
        t.keys.(idx) <- task.Nftask.temps.Nftask.key;
        t.last_seen.(idx) <- ctx.Exec_ctx.clock;
        Exec_ctx.write ctx ~cls:Sref.Control_state ~addr:t.allocator_sref.Sref.addr
          ~bytes:8;
        (* Install the match-state entry: a real cuckoo insert, charged as
           writes of the touched bucket lines. Overflow resolves per the
           NAT's policy: reject the new flow (Drop_new), displace the
           stalest resident and recycle its mapping slot (Evict_lru), or
           quarantine the flow via a contained fault (Shed_flow). *)
        let key = task.Nftask.temps.Nftask.key in
        let installed =
          match
            Structures.Cuckoo.insert_policy (Classifier.table t.classifier)
              ~policy:t.overflow ~key ~value:idx
          with
          | Structures.Cuckoo.Inserted | Structures.Cuckoo.Updated -> true
          | Structures.Cuckoo.Evicted { victim_value; _ } ->
              if victim_value >= 0 && victim_value < Array.length t.keys
                 && victim_value <> idx
              then begin
                t.keys.(victim_value) <- 0L;
                t.free_slots <- t.free_slots @ [ victim_value ]
              end;
              true
          | Structures.Cuckoo.Rejected ->
              if t.overflow = Structures.Cuckoo.Shed_flow then
                raise (Fault.Fault (Fault.Table_overflow, t.name));
              false
        in
        if not installed then Event.Drop_packet
        else begin
          let table = Classifier.table t.classifier in
          let bucket =
            let h1 = Structures.Cuckoo.hash1 table key in
            if Structures.Cuckoo.find_value table ~bucket:h1 ~key >= 0 then h1
            else Structures.Cuckoo.hash2 table key
          in
          Exec_ctx.write ctx ~cls:Sref.Match_state
            ~addr:(Structures.Cuckoo.bucket_addr table bucket)
            ~bytes:Structures.Cuckoo.bucket_bytes;
          Exec_ctx.write ctx ~cls:Sref.Match_state
            ~addr:(Structures.Cuckoo.key_addr table bucket)
            ~bytes:Structures.Cuckoo.bucket_bytes;
          (* Write the fresh per-flow mapping. *)
          task.Nftask.matched <- idx;
          Exec_ctx.write ctx ~cls:Sref.Per_flow ~addr:(State_arena.addr t.arena idx)
            ~bytes:state_bytes;
          Event.Match_success
        end
      end)

let learner_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_lrn";
    i_spec = Lazy.force learner_spec;
    i_actions = [ ("learn", learn_action t) ];
    i_bindings = [ ("allocator", Prefetch.Fixed t.allocator_sref) ];
    i_key_kind = None;
  }

let unit t =
  Nf_unit.classified
    ~classifier:(Classifier.instance t.classifier)
    ~data_instance:(mapper_instance t)

(* A unit whose classifier miss path learns new flows instead of dropping
   them: classifier --MATCH_FAIL--> learner --MATCH_SUCCESS--> mapper. *)
let dynamic_unit t =
  let base = unit t in
  {
    base with
    Nf_unit.instances = base.Nf_unit.instances @ [ learner_instance t ];
    internal =
      base.Nf_unit.internal
      @ [
          {
            Spec.src = t.classifier.Classifier.name;
            event = "MATCH_FAIL";
            dst = t.name ^ "_lrn";
          };
          { Spec.src = t.name ^ "_lrn"; event = "MATCH_SUCCESS"; dst = t.name ^ "_map" };
        ];
  }

(* Standalone NAT program. *)
let program ?(opts = Compiler.default_opts) t = Nf_unit.compile ~opts ~name:t.name [ unit t ]

(* NAT with the dynamic miss path enabled. *)
let dynamic_program ?(opts = Compiler.default_opts) t =
  Nf_unit.compile ~opts ~name:(t.name ^ "_dyn") [ dynamic_unit t ]

(* Idle-timeout sweep (a management-plane operation): evict mappings not
   used for [idle_cycles], freeing their slots for the learner to recycle.
   Returns the number of mappings expired. *)
let expire t ~now ~idle_cycles =
  let expired = ref 0 in
  for idx = 0 to t.next_free - 1 do
    if (not (Int64.equal t.keys.(idx) 0L)) && now - t.last_seen.(idx) > idle_cycles then begin
      ignore (Structures.Cuckoo.delete (Classifier.table t.classifier) t.keys.(idx));
      t.keys.(idx) <- 0L;
      t.free_slots <- idx :: t.free_slots;
      incr expired
    end
  done;
  !expired
