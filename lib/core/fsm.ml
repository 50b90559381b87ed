(* Control-logic FSM (§IV-A, "Formalizing Execution Model as FSM"):
   CS is the set of control states, Δ : CS × E → CS the transition
   function. The fetching function F lives in {!Program} as per-state
   action/prefetch info; this module is the bare state graph. *)

type t = {
  names : string array;
  index : (string, int) Hashtbl.t;
  outs : (string * int) list array;  (* cs -> (event key, cs'), in insertion order *)
}

module Builder = struct
  type b = {
    mutable b_names : string list;  (* reversed *)
    b_index : (string, int) Hashtbl.t;
    mutable b_edges : (int * string * int) list;
  }

  let create () = { b_names = []; b_index = Hashtbl.create 64; b_edges = [] }

  let add_state b name =
    match Hashtbl.find_opt b.b_index name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length b.b_index in
        Hashtbl.add b.b_index name i;
        b.b_names <- name :: b.b_names;
        i

  let state b name = Hashtbl.find_opt b.b_index name

  (* Adding a duplicate (src, event) with a different destination is a spec
     error: Δ must be a function. *)
  let add_edge b ~src ~event ~dst =
    List.iter
      (fun (s, e, d) ->
        if s = src && String.equal e event && d <> dst then
          invalid_arg
            (Printf.sprintf "Fsm: non-deterministic transition from state %d on %s" src event))
      b.b_edges;
    if not (List.exists (fun (s, e, d) -> s = src && String.equal e event && d = dst) b.b_edges)
    then b.b_edges <- (src, event, dst) :: b.b_edges

  (* [b_edges] is newest first, so prepending leaves each state's
     out-edges in insertion order — the order {!successors} reports and
     the scheduler issues prefetches in. *)
  let build b =
    let names = Array.of_list (List.rev b.b_names) in
    let outs = Array.make (Array.length names) [] in
    List.iter (fun (s, e, d) -> outs.(s) <- (e, d) :: outs.(s)) b.b_edges;
    { names; index = Hashtbl.copy b.b_index; outs }
end

let n_states t = Array.length t.names
let name t i = t.names.(i)
let index t name = Hashtbl.find_opt t.index name

let step t cs event =
  match t.outs.(cs) with
  | [] -> None
  | outs ->
      let key = Event.to_key event in
      List.find_map (fun (e, d) -> if String.equal e key then Some d else None) outs

let successors t cs = List.map snd t.outs.(cs)

let edges t =
  let acc = ref [] in
  for src = n_states t - 1 downto 0 do
    acc := List.fold_right (fun (e, d) acc -> (src, e, d) :: acc) t.outs.(src) !acc
  done;
  !acc

let predecessors t cs =
  let acc = ref [] in
  for src = n_states t - 1 downto 0 do
    List.iter (fun (_, d) -> if d = cs then acc := src :: !acc) t.outs.(src)
  done;
  !acc

(* States with no outgoing edges are terminal. *)
let is_terminal t cs = match t.outs.(cs) with [] -> true | _ :: _ -> false
