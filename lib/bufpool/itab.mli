(** Int-keyed open-addressing hash table with two int value columns: the
    page index of every replacement policy.

    Keys are non-negative ints. Capacity doubles at half load, so it is
    sized by the number of live keys, never by their magnitude. A key's
    {e slot} is valid until the next {!add} or {!remove}. *)

type t

val create : unit -> t
val length : t -> int

(** [slot t k] is the slot holding [k], or [-1] when [k] is absent. *)
val slot : t -> int -> int

(** [add t k] inserts an absent key with both values [0] and returns its
    slot. Raises [Invalid_argument] on a negative key. *)
val add : t -> int -> int

(** [remove t k] deletes [k]; a no-op when absent. *)
val remove : t -> int -> unit

val a : t -> int -> int
val b : t -> int -> int
val set_a : t -> int -> int -> unit
val set_b : t -> int -> int -> unit
