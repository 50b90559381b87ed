(* Translation validation for the compiler's observation-rewriting passes
   (the ROADMAP's "prove it statically" item): each compiled program is
   checked against its pre-pass form.

   - match-removal: every deleted classifier repeats an earlier surviving
     classifier's key kind (so the retained match verdict is the one the
     deleted instance would have computed), and the transition rewiring is
     exactly the MATCH_SUCCESS resolution — recomputed here independently.
   - prefetch-dedup: every stripped target is available on ALL paths in
     the program as shipped (an inductive argument over the surviving
     prefetches only), cross-checked against the compiler's own
     {!Compiler.prefetch_availability} fixpoint.
   - specialize: the dense Δ table agrees cell-by-cell with the
     interpreted {!Program.step} (both directions: no stale and no
     phantom cells), Faulted events are never interned, and each NF-C
     action's symbolic exits are total over the control logic — every
     event a path can emit has a transition, and the fused dispatch sends
     it where the interpreter would.

   Verdicts: a refutation is an [Error] finding with a path witness
   naming the control state and the diverging write; an [Unknown] (the
   symbolic engine out of its fragment) is a [Warning] finding — the
   dynamic oracle still covers that program. *)

open Gunfu

type result = {
  findings : Report.finding list;
  proved : string list;  (* passes that ran and verified cleanly *)
  unknowns : int;  (* Unknown verdicts (subset of Warning findings) *)
}

let finding ?(severity = Report.Error) ~rule ~subject ~qname ?(witness = []) detail =
  { Report.rule; severity; subject; qname; detail; witness }

let path_names fsm ids = List.map (Fsm.name fsm) ids

let fsm_witness fsm ~start target =
  match Dataflow.witness fsm ~entry:start ~target with
  | Some ids -> path_names fsm ids
  | None -> []

(* ----- pass A: match removal ----- *)

(* Independently recompute what match removal is allowed to do from the
   pre-pass spec, then demand the post-pass spec is exactly that. *)
let check_match_removal (vi : Compiler.verify_input) add =
  let rule = "verifyeq-match-removal" in
  let subject = vi.Compiler.vi_name in
  let orig_nf = vi.Compiler.vi_orig_nf in
  let orig_names = List.map fst orig_nf.Spec.n_modules in
  let post_names = List.map fst vi.Compiler.vi_nf.Spec.n_modules in
  let removed = List.filter (fun n -> not (List.mem n post_names)) orig_names in
  let kind_of name =
    match
      List.find_opt (fun i -> i.Compiler.i_name = name) vi.Compiler.vi_orig_instances
    with
    | Some i -> i.Compiler.i_key_kind
    | None -> None
  in
  if not vi.Compiler.vi_opts.Compiler.match_removal then begin
    if removed <> [] then
      add
        (finding ~rule ~subject ~qname:(String.concat "," removed)
           (Fmt.str
              "match removal disabled but instance%s %s missing from the compiled chain"
              (if List.length removed = 1 then "" else "s")
              (String.concat ", " removed)));
    removed = []
  end
  else begin
    (* The set the pass may delete: classifiers whose key kind appeared
       earlier in chain order. *)
    let expected_removed =
      let seen = ref [] in
      List.filter
        (fun name ->
          match kind_of name with
          | None -> false
          | Some k ->
              if List.mem k !seen then true
              else begin
                seen := k :: !seen;
                false
              end)
        orig_names
    in
    let ok = ref true in
    List.iter
      (fun name ->
        if not (List.mem name expected_removed) then begin
          ok := false;
          add
            (finding ~rule ~subject ~qname:name
               (Fmt.str
                  "instance %s was deleted but no earlier surviving classifier matches on key kind %s — its match verdict is not reusable"
                  name
                  (match kind_of name with Some k -> k | None -> "<none>")))
        end)
      removed;
    List.iter
      (fun name ->
        if not (List.mem name removed) then begin
          ok := false;
          add
            (finding ~rule ~subject ~qname:name
               (Fmt.str "instance %s repeats an earlier key kind but survived the pass"
                  name))
        end)
      expected_removed;
    (* Rewiring: recompute the MATCH_SUCCESS resolution and compare the
       transition sets. *)
    if !ok && expected_removed <> [] then begin
      let success_target name =
        match
          List.find_opt
            (fun t -> t.Spec.src = name && t.Spec.event = "MATCH_SUCCESS")
            orig_nf.Spec.n_transitions
        with
        | Some t -> Some t.Spec.dst
        | None -> None
      in
      let rec resolve seen dst =
        if List.mem dst seen then None
        else if List.mem dst expected_removed then
          match success_target dst with
          | Some d -> resolve (dst :: seen) d
          | None -> None
        else Some dst
      in
      let expected =
        List.filter_map
          (fun t ->
            if List.mem t.Spec.src expected_removed then None
            else
              match resolve [] t.Spec.dst with
              | Some dst -> Some (t.Spec.src, t.Spec.event, dst)
              | None -> Some (t.Spec.src, t.Spec.event, "<unresolvable>"))
          orig_nf.Spec.n_transitions
        |> List.sort compare
      in
      let actual =
        List.map
          (fun t -> (t.Spec.src, t.Spec.event, t.Spec.dst))
          vi.Compiler.vi_nf.Spec.n_transitions
        |> List.sort compare
      in
      if expected <> actual then begin
        ok := false;
        let diff =
          List.filter (fun t -> not (List.mem t actual)) expected
          @ List.filter (fun t -> not (List.mem t expected)) actual
        in
        add
          (finding ~rule ~subject ~qname:subject
             (Fmt.str "transition rewiring diverges from MATCH_SUCCESS resolution: %a"
                Fmt.(
                  list ~sep:(any ", ") (fun ppf (s, e, d) ->
                      Fmt.pf ppf "%s,%s->%s" s e d))
                diff))
      end
    end;
    !ok
  end

(* ----- pass B: prefetch dedup ----- *)

let survives kills target =
  not
    (List.exists
       (fun k ->
         match (k, Prefetch.class_of target) with
         | `Match_addrs, `Match_addrs -> true
         | `Per_flow, `Per_flow -> true
         | `Sub_flow, `Sub_flow -> true
         | `Packet, `Packet -> true
         | _ -> false)
       kills)

(* Must-availability over the program AS SHIPPED (surviving prefetches
   only) — the inductive soundness argument: a stripped target proven
   available here is genuinely in flight on every path, with no circular
   reliance on other stripped fetches. *)
let shipped_availability (program : Program.t) =
  let info = program.Program.info in
  let eq = Prefetch.equal_target in
  let universe =
    Array.to_list info
    |> List.concat_map (fun ci -> ci.Program.prefetch)
    |> List.fold_left (fun acc t -> Dataflow.Set_ops.union ~equal:eq acc [ t ]) []
  in
  let kills i =
    match info.(i).Program.action with
    | None -> []
    | Some a -> a.Action.invalidates
  in
  let transfer i avail_in =
    List.filter (survives (kills i))
      (Dataflow.Set_ops.union ~equal:eq avail_in info.(i).Program.prefetch)
  in
  Dataflow.forward program.Program.fsm ~entry:program.Program.start ~entry_out:[]
    ~init:universe ~no_pred:[]
    ~join:(Dataflow.Set_ops.inter ~equal:eq)
    ~equal:(Dataflow.Set_ops.set_equal ~equal:eq)
    ~transfer

(* A path along which [target] is NOT available at [state]'s entry:
   breadth-first search over the (state, target-in-flight) product graph.
   This is the refutation witness — the concrete packet walk on which the
   stripped prefetch is missed. *)
let miss_witness (program : Program.t) ~state target =
  let fsm = program.Program.fsm in
  let info = program.Program.info in
  let start = program.Program.start in
  let n = Fsm.n_states fsm in
  let avail_after s arrived =
    let here =
      arrived
      || List.exists (Prefetch.equal_target target) info.(s).Program.prefetch
    in
    let kills =
      match info.(s).Program.action with
      | None -> []
      | Some a -> a.Action.invalidates
    in
    here && survives kills target
  in
  let seen = Array.make (2 * n) false in
  let prev = Array.make (2 * n) (-1) in
  let idx s a = (2 * s) + if a then 1 else 0 in
  let q = Queue.create () in
  let start_a = avail_after start false in
  seen.(idx start start_a) <- true;
  Queue.add (start, start_a) q;
  let rec reconstruct acc i =
    let acc = (i / 2) :: acc in
    if prev.(i) < 0 then acc else reconstruct acc prev.(i)
  in
  let result = ref None in
  while !result = None && not (Queue.is_empty q) do
    let s, a = Queue.take q in
    if (not a) && List.mem state (Fsm.successors fsm s) then
      result := Some (reconstruct [ state ] (idx s a))
    else
      List.iter
        (fun s' ->
          let a' = avail_after s' a in
          if not seen.(idx s' a') then begin
            seen.(idx s' a') <- true;
            prev.(idx s' a') <- idx s a;
            Queue.add (s', a') q
          end)
        (Fsm.successors fsm s)
  done;
  match !result with
  | Some ids -> path_names fsm ids
  | None -> fsm_witness fsm ~start state

let check_prefetch (vi : Compiler.verify_input) add =
  let rule = "verifyeq-prefetch" in
  let subject = vi.Compiler.vi_name in
  let program = vi.Compiler.vi_program in
  let info = program.Program.info in
  let eq = Prefetch.equal_target in
  let dedup_on =
    vi.Compiler.vi_opts.Compiler.prefetch_dedup
    && vi.Compiler.vi_opts.Compiler.prefetching
  in
  let ok = ref true in
  let stripped_any = ref false in
  let avail = lazy (shipped_availability program) in
  Array.iteri
    (fun i pre ->
      let post = info.(i).Program.prefetch in
      (* The pass may only delete targets, never invent them. *)
      if not (Dataflow.Set_ops.subset ~equal:eq post pre) then begin
        ok := false;
        add
          (finding ~rule ~subject ~qname:info.(i).Program.qname
             (Fmt.str "control state %s gained prefetch targets the spec never declared"
                info.(i).Program.qname))
      end;
      let stripped = List.filter (fun t -> not (Dataflow.Set_ops.mem ~equal:eq t post)) pre in
      List.iter
        (fun t ->
          stripped_any := true;
          if not dedup_on then begin
            ok := false;
            add
              (finding ~rule ~subject ~qname:info.(i).Program.qname
                 (Fmt.str "prefetch of %a stripped at %s but dedup was disabled"
                    Prefetch.pp_target t info.(i).Program.qname))
          end
          else if
            not (Dataflow.Set_ops.mem ~equal:eq t (Lazy.force avail).Dataflow.ins.(i))
          then begin
            ok := false;
            add
              (finding ~rule ~subject ~qname:info.(i).Program.qname
                 ~witness:(miss_witness program ~state:i t)
                 (Fmt.str
                    "prefetch of %a stripped at %s, but on the witnessed path it is not in flight on entry — the access would go cold"
                    Prefetch.pp_target t info.(i).Program.qname))
          end)
        stripped)
    vi.Compiler.vi_pre_dedup;
  (* Cross-check our fixpoint against the compiler's own analysis — the
     two are maintained independently and must agree on the shipped
     policy. *)
  if dedup_on && !stripped_any then begin
    let ours = Lazy.force avail in
    let theirs =
      Compiler.prefetch_availability info program.Program.fsm
        ~start:program.Program.start
    in
    Array.iteri
      (fun i mine ->
        if not (Dataflow.Set_ops.set_equal ~equal:eq mine theirs.Dataflow.ins.(i))
        then begin
          ok := false;
          add
            (finding ~rule ~subject ~qname:info.(i).Program.qname
               (Fmt.str
                  "availability fixpoints disagree at %s (checker vs compiler) — analysis drift"
                  info.(i).Program.qname))
        end)
      ours.Dataflow.ins
  end;
  !ok

(* ----- pass C: specialize ----- *)

let builtin_event_of_class = function
  | 0 -> Some Event.Packet_arrival
  | 1 -> Some Event.Match_success
  | 2 -> Some Event.Match_fail
  | 3 -> Some Event.Emit_packet
  | 4 -> Some Event.Drop_packet
  | _ -> None

(* The NF-C source a control state's action was compiled from, when the
   spec declares one. *)
let nfc_of_state (vi : Compiler.verify_input) i =
  let ci = vi.Compiler.vi_program.Program.info.(i) in
  if ci.Program.inst = "" then None
  else
    match
      List.find_opt
        (fun inst -> inst.Compiler.i_name = ci.Program.inst)
        vi.Compiler.vi_instances
    with
    | None -> None
    | Some inst ->
        let prefix = ci.Program.inst ^ "." in
        let plen = String.length prefix in
        if
          String.length ci.Program.qname > plen
          && String.sub ci.Program.qname 0 plen = prefix
        then
          let cs = String.sub ci.Program.qname plen (String.length ci.Program.qname - plen) in
          List.assoc_opt cs inst.Compiler.i_spec.Spec.m_nfc
        else None

let check_specialize (vi : Compiler.verify_input) add count_unknown =
  let rule = "verifyeq-specialize" in
  let subject = vi.Compiler.vi_name in
  let program = vi.Compiler.vi_program in
  let fsm = program.Program.fsm in
  let start = program.Program.start in
  let name_of i = if i < 0 then "<none>" else Fsm.name fsm i in
  match Specialize.get program with
  | None ->
      if vi.Compiler.vi_opts.Compiler.specialize then begin
        add
          (finding ~rule ~subject ~qname:subject
             "specialization requested but no hot path is installed");
        false
      end
      else true
  | Some sp ->
      let ok = ref true in
      (* Faulted events must never be interned: quarantine always defers
         to the interpreter (and from there to the executor's containment
         path). *)
      List.iter
        (fun (key, cls) ->
          if String.length key >= 6 && String.sub key 0 6 = "FAULT[" then begin
            ok := false;
            add
              (finding ~rule ~subject ~qname:subject
                 (Fmt.str "fault containment key %S interned as dense class %d" key cls))
          end)
        (Specialize.user_classes sp);
      (* Dispatch parity on every declared edge, through the real entry
         point (jump table or interpreter fallback). *)
      List.iter
        (fun (src, key, dst) ->
          let via_sp = Specialize.step sp src (Event.of_key key) in
          if via_sp <> dst then begin
            ok := false;
            add
              (finding ~rule ~subject ~qname:(Fsm.name fsm src)
                 ~witness:(fsm_witness fsm ~start src)
                 (Fmt.str
                    "edge %s --%s--> %s: specialized dispatch goes to %s instead"
                    (Fsm.name fsm src) key (name_of dst) (name_of via_sp)))
          end)
        (Fsm.edges fsm);
      (* Cell-by-cell table audit, both directions: a live cell must match
         the interpreted Δ, and an undefined transition must be a dead
         cell (phantom cells would invent transitions the spec never
         declared). *)
      let n_classes = Specialize.n_classes sp in
      let table = Specialize.next_table sp in
      let user = Specialize.user_classes sp in
      for s = 0 to Fsm.n_states fsm - 1 do
        for cls = 0 to n_classes - 1 do
          let ev =
            match builtin_event_of_class cls with
            | Some ev -> Some ev
            | None -> (
                match List.find_opt (fun (_, c) -> c = cls) user with
                | Some (key, _) -> Some (Event.User key)
                | None -> None)
          in
          match ev with
          | None -> ()
          | Some ev ->
              let expected = Fsm.step fsm s ev in
              let cell = table.((s * n_classes) + cls) in
              if cell <> expected then begin
                ok := false;
                add
                  (finding ~rule ~subject ~qname:(Fsm.name fsm s)
                     ~witness:(fsm_witness fsm ~start s)
                     (Fmt.str
                        "jump table cell (%s, %s) sends the task to %s; the interpreted \xce\x94 says %s"
                        (Fsm.name fsm s) (Event.to_key ev) (name_of cell)
                        (name_of expected)))
              end
        done
      done;
      (* Symbolic totality of each NF-C action over the control logic:
         every event a feasible path can emit must have a transition, and
         the fused dispatch must send it where the interpreter would. *)
      for s = 0 to Fsm.n_states fsm - 1 do
        match nfc_of_state vi s with
        | None -> ()
        | Some src -> (
            match Nfc.parse src with
            | exception Nfc.Nfc_error msg ->
                count_unknown ();
                add
                  (finding ~severity:Report.Warning ~rule ~subject
                     ~qname:(Fsm.name fsm s)
                     (Fmt.str "declared NF-C for %s does not parse (%s) — falling back to the dynamic oracle"
                        (Fsm.name fsm s) msg))
            | prog ->
                let summary = Sym.summarize prog in
                let weight_ok =
                  match program.Program.info.(s).Program.action with
                  | Some a -> a.Action.base_cycles = 4 + (2 * summary.Sym.s_weight)
                  | None -> false
                in
                if summary.Sym.s_truncated then begin
                  count_unknown ();
                  add
                    (finding ~severity:Report.Warning ~rule ~subject
                       ~qname:(Fsm.name fsm s)
                       (Fmt.str
                          "action at %s exceeds the symbolic path budget (%d) — falling back to the dynamic oracle"
                          (Fsm.name fsm s) Sym.max_paths))
                end
                else if not weight_ok then begin
                  (* The installed action does not carry the declared
                     NF-C's cost model: it may not originate from this
                     source, so a symbolic refutation would be unsound.
                     Defer to the oracle. *)
                  count_unknown ();
                  add
                    (finding ~severity:Report.Warning ~rule ~subject
                       ~qname:(Fsm.name fsm s)
                       (Fmt.str
                          "action at %s does not match the declared NF-C's cycle model (4 + 2*weight) — it may be hand-written; falling back to the dynamic oracle"
                          (Fsm.name fsm s)))
                end
                else
                  List.iter
                    (fun p ->
                      let key =
                        match p.Sym.p_exit with
                        | Sym.Exit_emit k -> Some k
                        | Sym.Exit_drop -> Some (Event.to_key Event.Drop_packet)
                        | Sym.Exit_raise -> None  (* contained by the fault plane *)
                        | Sym.Exit_fall -> None  (* checked below *)
                      in
                      match key with
                      | None ->
                          if p.Sym.p_exit = Sym.Exit_fall then begin
                            (* The fall-through event is a compile-time
                               parameter we cannot see from the spec. *)
                            count_unknown ();
                            add
                              (finding ~severity:Report.Warning ~rule ~subject
                                 ~qname:(Fsm.name fsm s)
                                 (Fmt.str
                                    "action at %s can fall through (path %a) — default event unknown statically; falling back to the dynamic oracle"
                                    (Fsm.name fsm s) Sym.pp_pc p.Sym.p_pc))
                          end
                      | Some key -> (
                          let ev = Event.of_key key in
                          match Fsm.step fsm s ev with
                          | -1 ->
                              ok := false;
                              add
                                (finding ~rule ~subject ~qname:(Fsm.name fsm s)
                                   ~witness:
                                     (fsm_witness fsm ~start s
                                     @ [ Fmt.str "[%a] %a => emit %S" Sym.pp_pc
                                           p.Sym.p_pc Sym.pp_writes p.Sym.p_writes key
                                       ])
                                   (Fmt.str
                                      "action at %s emits %S on a feasible path but the control logic has no transition for it"
                                      (Fsm.name fsm s) key))
                          | dst ->
                              let via_sp = Specialize.step sp s ev in
                              if via_sp <> dst then begin
                                ok := false;
                                add
                                  (finding ~rule ~subject ~qname:(Fsm.name fsm s)
                                     ~witness:
                                       (fsm_witness fsm ~start s
                                       @ [ Fmt.str "[%a] %a => emit %S" Sym.pp_pc
                                             p.Sym.p_pc Sym.pp_writes p.Sym.p_writes
                                             key
                                         ])
                                     (Fmt.str
                                        "on emit %S at %s the fused dispatch reaches %s; the interpreter reaches %s"
                                        key (Fsm.name fsm s) (name_of via_sp)
                                        (name_of dst)))
                              end))
                    summary.Sym.s_paths)
      done;
      !ok

(* ----- entry point ----- *)

let check (vi : Compiler.verify_input) =
  let acc = ref [] in
  let unknowns = ref 0 in
  let add f = acc := f :: !acc in
  let count_unknown () = incr unknowns in
  let proved = ref [] in
  let prove name ok = if ok then proved := name :: !proved in
  prove "match_removal" (check_match_removal vi add);
  prove "prefetch_dedup" (check_prefetch vi add);
  prove "specialize" (check_specialize vi add count_unknown);
  { findings = Report.sort !acc; proved = List.rev !proved; unknowns = !unknowns }
