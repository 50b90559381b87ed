(* Prefetch policy (§V, "Cache Management"): the compiler attaches to every
   control state a list of symbolic targets describing the NFState the
   state's action will access. At the scheduler's Fetch step the targets
   resolve — via the NFTask's references — to concrete (address, size)
   blocks that the software prefetcher pushes towards L1/L2.

   Targets are symbolic (not closures) so the redundant-prefetch-removal
   pass can compare them across control states. *)

open Structures

type target =
  | Packet_header of int
      (* first [n] bytes of the packet buffer (headers) *)
  | Match_addrs
      (* whatever (addr, bytes) list the previous match step resolved *)
  | Per_flow of State_arena.t * (string * int) list
      (* per-flow entry of this module's arena at index [task.matched];
         with a non-empty field list, only those (field, bytes) slices *)
  | Sub_flow of State_arena.t * (string * int) list
      (* as Per_flow, at index [task.sub_matched] *)
  | Fixed of Sref.t
      (* a fixed region, e.g. control state *)

let class_of = function
  | Packet_header _ -> `Packet
  | Match_addrs -> `Match_addrs
  | Per_flow _ -> `Per_flow
  | Sub_flow _ -> `Sub_flow
  | Fixed _ -> `Fixed

(* Structural equality; arenas compare by label (unique per instance). *)
let equal_target a b =
  match (a, b) with
  | Packet_header x, Packet_header y -> x = y
  | Match_addrs, Match_addrs -> true
  | Per_flow (ar1, f1), Per_flow (ar2, f2) | Sub_flow (ar1, f1), Sub_flow (ar2, f2) ->
      String.equal (State_arena.label ar1) (State_arena.label ar2) && f1 = f2
  | Fixed s1, Fixed s2 -> s1 = s2
  | _ -> false

let arena_blocks arena idx fields =
  if idx < 0 then []
  else
    match fields with
    | [] -> [ (State_arena.addr arena idx, State_arena.entry_bytes arena) ]
    | fields ->
        List.map
          (fun (name, bytes) -> (State_arena.field_addr arena idx name, bytes))
          fields

(* Resolve a target against a task. Unresolvable targets (e.g. no match
   result yet) resolve to [] — the action will simply demand-fetch. *)
let resolve target (task : Nftask.t) =
  match target with
  | Packet_header n -> (
      match task.Nftask.packet with
      | Some p when p.Netcore.Packet.sim_addr >= 0 -> [ (p.Netcore.Packet.sim_addr, n) ]
      | Some _ | None -> [])
  | Match_addrs -> task.Nftask.match_addrs
  | Per_flow (arena, fields) -> arena_blocks arena task.Nftask.matched fields
  | Sub_flow (arena, fields) -> arena_blocks arena task.Nftask.sub_matched fields
  | Fixed s -> [ (s.Sref.addr, s.Sref.bytes) ]

(* Runs at every Fetch step; most states have one target, whose list is
   returned as it is. *)
let rec resolve_all targets task =
  match targets with
  | [] -> []
  | [ t ] -> resolve t task
  | t :: rest -> resolve t task @ resolve_all rest task

let pp_target ppf = function
  | Packet_header n -> Fmt.pf ppf "packet[0..%d]" n
  | Match_addrs -> Fmt.string ppf "match_addrs"
  | Per_flow (a, []) -> Fmt.pf ppf "per_flow(%s)" (State_arena.label a)
  | Per_flow (a, fs) ->
      Fmt.pf ppf "per_flow(%s){%a}" (State_arena.label a)
        Fmt.(list ~sep:comma string)
        (List.map fst fs)
  | Sub_flow (a, []) -> Fmt.pf ppf "sub_flow(%s)" (State_arena.label a)
  | Sub_flow (a, fs) ->
      Fmt.pf ppf "sub_flow(%s){%a}" (State_arena.label a)
        Fmt.(list ~sep:comma string)
        (List.map fst fs)
  | Fixed s -> Sref.pp ppf s
