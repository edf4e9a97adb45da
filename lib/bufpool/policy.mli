(** Page replacement policies.

    A page is one non-negative int: the table id in the high bits and the
    page number in the low 40 (see {!page_id}). Three classic
    policies are provided; the buffer pool takes the choice as a parameter
    (ablated in the benchmarks: the paper's effect is robust to the
    replacement policy, it is the pool's {e size} that matters). Each
    indexes its resident pages in one {!Itab}, sized by the resident set,
    and keeps its order in three int columns (a ring for LRU and CLOCK, a
    heap for LRU-2): no call allocates. *)

type page = int

(** Largest table id that packs: [2{^22} - 1]. *)
val max_table : int

(** Largest page number that packs: [2{^40} - 1]. *)
val max_page_no : int

(** [page_id ~table ~page] packs a page's id. Raises [Invalid_argument]
    when either part is negative or above its maximum, so two distinct
    pages never share an id. *)
val page_id : table:int -> page:int -> page

type kind = Lru | Clock | Lru2

type t

val create : kind -> t

(** [insert t p] makes [p] resident (must not already be). Raises
    [Invalid_argument] on a negative id. *)
val insert : t -> page -> unit

(** [touch t p] records a hit on a resident page (no-op if absent). *)
val touch : t -> page -> unit

(** [mem t p] — residency test. *)
val mem : t -> page -> bool

(** [evict t] removes and returns the policy's victim; [-1] when no page
    is resident. *)
val evict : t -> page

val size : t -> int

(** Internal bookkeeping entries currently held (ring/heap length,
    including lazily-cleaned stale ones). Kept within a constant factor
    of {!size} by periodic compaction — exposed so tests can pin that
    bound. *)
val backlog : t -> int

val kind : t -> kind
