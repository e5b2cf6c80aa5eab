(** Binary min-heaps over integer priorities.

    {!Int_pq} is the A* router's open list: non-negative int values, with
    priority and insertion stamp packed into one key word — no allocation
    per push. Smallest priority first; ties are broken by insertion order
    (FIFO), which keeps A* expansions deterministic across runs. *)

module Int_pq : sig
  type t

  val create : ?capacity:int -> unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> priority:int -> int -> unit
  (** Raises [Invalid_argument] if [priority] is negative or exceeds
      [2^31 - 1], or after [2^31] pushes without a {!clear}. *)

  val pop_min : t -> int
  (** Remove and return the minimum, or [-1] when empty (values are node
      ids, never negative). *)

  val clear : t -> unit
end
