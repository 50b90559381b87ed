(** Control-logic FSM (§IV-A): CS is the control-state set, Δ : CS × E → CS
    the transition function. The fetching function F lives in {!Program} as
    per-state action/prefetch info. *)

type t

module Builder : sig
  type b

  val create : unit -> b

  (** Idempotent: re-adding a name returns its existing id. *)
  val add_state : b -> string -> int

  val state : b -> string -> int option

  (** @raise Invalid_argument when a conflicting (src, event) edge exists —
      Δ must be a function. Duplicate identical edges are ignored. *)
  val add_edge : b -> src:int -> event:string -> dst:int -> unit

  val build : b -> t
end

val n_states : t -> int
val name : t -> int -> string
val index : t -> string -> int option

(** Δ: the successor on an event, if defined. *)
val step : t -> int -> Event.t -> int option

(** Successors in the order their edges were added. *)
val successors : t -> int -> int list

val predecessors : t -> int -> int list

(** [(src, event key, dst)] by ascending [src], each state's edges in the
    order they were added. *)
val edges : t -> (int * string * int) list

(** No outgoing edges. *)
val is_terminal : t -> int -> bool
