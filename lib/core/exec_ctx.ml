(* Per-core execution context: the simulated memory hierarchy plus the
   core's cycle and instruction counters. NFAction bodies charge all their
   memory traffic and computation here; the executors (interleaved
   scheduler / RTC) add their own overheads on top. *)

type t = {
  mem : Memsim.Hierarchy.t;
  layout : Memsim.Layout.t;
  mutable clock : int;   (* cycles *)
  mutable instrs : int;  (* retired instructions, for IPC *)
  cycles_by_class : int array;  (* memory cycles per Sref.state_class *)
  mutable trace : Trace.t option;  (* telemetry plane, None = inert *)
}

let class_index = function
  | Sref.Match_state -> 0
  | Sref.Per_flow -> 1
  | Sref.Sub_flow -> 2
  | Sref.Packet_state -> 3
  | Sref.Control_state -> 4
  | Sref.Temp_state -> 5

let n_classes = 6

let class_of_index = function
  | 0 -> Sref.Match_state
  | 1 -> Sref.Per_flow
  | 2 -> Sref.Sub_flow
  | 3 -> Sref.Packet_state
  | 4 -> Sref.Control_state
  | _ -> Sref.Temp_state

let create ?(mem_cfg = Memsim.Hierarchy.default_config) () =
  {
    mem = Memsim.Hierarchy.create ~cfg:mem_cfg ();
    layout = Memsim.Layout.create ();
    clock = 0;
    instrs = 0;
    cycles_by_class = Array.make n_classes 0;
    trace = None;
  }

(* Attach the telemetry plane: record it and tap the memory hierarchy so
   every demand line access reports its serving level. Detach before the
   worker is reused — executors pair these under [Fun.protect] so a raising
   run cannot leak the tap into a later one. *)
let attach_trace t tr =
  t.trace <- Some tr;
  Memsim.Hierarchy.set_tap t.mem
    (Some
       (fun ~now ~line:_ ~served ~cycles ->
         let level =
           match served with
           | Memsim.Hierarchy.Served_l1 -> Trace.L1
           | Memsim.Hierarchy.Served_l2 -> Trace.L2
           | Memsim.Hierarchy.Served_llc -> Trace.Llc
           | Memsim.Hierarchy.Served_dram -> Trace.Dram
           | Memsim.Hierarchy.Served_inflight -> Trace.Inflight
         in
         Trace.on_mem tr ~ts:now ~cycles ~level))

let detach_trace t =
  t.trace <- None;
  Memsim.Hierarchy.set_tap t.mem None

(* Pure computation: advances the clock without memory traffic. *)
let compute t ~cycles ~instrs =
  t.clock <- t.clock + cycles;
  t.instrs <- t.instrs + instrs

let charge_class t cls cycles =
  t.cycles_by_class.(class_index cls) <- t.cycles_by_class.(class_index cls) + cycles

(* A demand load of [bytes] at [addr], classified as [cls] state. The
   hierarchy tap fires during the access, so the class is published to the
   trace first (a no-op without a plane). *)
let read t ~cls ~addr ~bytes =
  (match t.trace with Some tr -> Trace.set_cls tr (Some cls) | None -> ());
  let lat = Memsim.Hierarchy.read t.mem ~now:t.clock ~addr ~bytes in
  t.clock <- t.clock + lat;
  t.instrs <- t.instrs + 1;
  charge_class t cls lat

let write t ~cls ~addr ~bytes =
  (match t.trace with Some tr -> Trace.set_cls tr (Some cls) | None -> ());
  let lat = Memsim.Hierarchy.write t.mem ~now:t.clock ~addr ~bytes in
  t.clock <- t.clock + lat;
  t.instrs <- t.instrs + 1;
  charge_class t cls lat

let read_sref t (s : Sref.t) = read t ~cls:s.Sref.cls ~addr:s.Sref.addr ~bytes:s.Sref.bytes

(* Issue a software prefetch; costs one instruction and a cycle per issued
   line, never blocks. Returns the number of fills actually issued. *)
let prefetch t ~addr ~bytes =
  let start = t.clock in
  let issued = Memsim.Hierarchy.prefetch t.mem ~now:t.clock ~addr ~bytes in
  if issued > 0 then begin
    t.clock <- t.clock + issued;
    t.instrs <- t.instrs + issued;
    match t.trace with
    | Some tr -> Trace.on_prefetch tr ~ts:start ~dur:issued ~lines:issued
    | None -> ()
  end;
  issued

let ready t ~addr ~bytes = Memsim.Hierarchy.ready t.mem ~now:t.clock ~addr ~bytes

(* The block-list forms of [read], [prefetch] and [ready], for actions and
   the executors' Fetch and readiness checks; top-level recursion, so a
   call allocates no closure. *)
let rec read_blocks t ~cls = function
  | [] -> ()
  | (addr, bytes) :: rest ->
      read t ~cls ~addr ~bytes;
      read_blocks t ~cls rest

let rec prefetch_blocks t = function
  | [] -> ()
  | (addr, bytes) :: rest ->
      ignore (prefetch t ~addr ~bytes);
      prefetch_blocks t rest

let rec blocks_ready t = function
  | [] -> true
  | (addr, bytes) :: rest -> ready t ~addr ~bytes && blocks_ready t rest

let counters t = Memsim.Hierarchy.counters t.mem

let state_access_cycles t cls = t.cycles_by_class.(class_index cls)
