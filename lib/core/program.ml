(* A compiled network function: the flattened control-logic FSM plus, for
   every control state, the fetching function's output — which NFAction to
   run and which NFState targets to prefetch (§IV-A's F, realised by the
   director compiler of §VI-A). *)

type cs_info = {
  qname : string;  (* "instance.control_state" *)
  inst : string;
  action : Action.t option;  (* None for pseudo states (__start/__done) *)
  mutable prefetch : Prefetch.target list;
}

(* Optimization passes attach compiled artifacts (e.g. the specializer's
   dense dispatch tables) here without this module depending on them. *)
type payload = ..

type t = {
  p_name : string;
  fsm : Fsm.t;
  info : cs_info array;
  start : int;
  done_cs : int;
  mutable payload : payload option;
}

let name t = t.p_name
let n_states t = Array.length t.info
let info t cs = t.info.(cs)
let start t = t.start
let is_done t cs = cs = t.done_cs

let cs_by_name t qname =
  match Fsm.index t.fsm qname with
  | Some i -> i
  | None -> invalid_arg ("Program.cs_by_name: unknown control state " ^ qname)

(* Δ with a hard failure on undefined transitions: a spec/compiler bug, not
   a runtime condition. *)
let step t cs event =
  let next = Fsm.step t.fsm cs event in
  if next >= 0 then next
  else
    invalid_arg
      (Printf.sprintf "Program %s: no transition from %s on event %s" t.p_name
         t.info.(cs).qname (Event.to_key event))

let pp ppf t =
  Fmt.pf ppf "program %s (%d control states)@." t.p_name (Array.length t.info);
  Array.iteri
    (fun i ci ->
      Fmt.pf ppf "  [%d] %s action=%s prefetch=[%a]@." i ci.qname
        (match ci.action with Some a -> a.Action.name | None -> "-")
        Fmt.(list ~sep:comma Prefetch.pp_target)
        ci.prefetch)
    t.info
