type page = int
type kind = Lru | Clock | Lru2

let page_bits = 40
let max_table = (1 lsl (Sys.int_size - 1 - page_bits)) - 1
let max_page_no = (1 lsl page_bits) - 1

let page_id ~table ~page =
  if table < 0 || table > max_table then invalid_arg "Policy.page_id: table";
  if page < 0 || page > max_page_no then invalid_arg "Policy.page_id: page";
  (table lsl page_bits) lor page

(* [idx] maps each resident page to two ints [a] and [b]: LRU keeps its
   current stamp in [a], CLOCK its reference bit, LRU-2 its last access
   t1 in [a] and the one before, t2, in [b] (-1 until the second).

   The order lives in three int columns of (t2, t1, page) entries: a
   FIFO ring from [head] for LRU and CLOCK, a binary min-heap on
   (t2, t1) for LRU-2, whose [head] stays 0. LRU pushes (0, stamp) on
   every access and LRU-2 (t2, t1), so both sync lazily: an entry is
   live iff it still equals its page's (b, a), and eviction skips stale
   ones. CLOCK pushes (0, 0) on insert only. *)
type t = {
  kind : kind;
  idx : Itab.t;
  mutable c2 : int array;
  mutable c1 : int array;
  mutable cp : int array;
  mutable head : int;
  mutable len : int;
  mutable clock : int;
}

let create kind =
  {
    kind;
    idx = Itab.create ();
    c2 = Array.make 16 0;
    c1 = Array.make 16 0;
    cp = Array.make 16 0;
    head = 0;
    len = 0;
    clock = 0;
  }

let live t p t2 t1 =
  let s = Itab.slot t.idx p in
  s >= 0 && Itab.a t.idx s = t1 && Itab.b t.idx s = t2

let set t i t2 t1 p =
  t.c2.(i) <- t2;
  t.c1.(i) <- t1;
  t.cp.(i) <- p

let move t ~src ~dst = set t dst t.c2.(src) t.c1.(src) t.cp.(src)

(* Entry [i] comes before (t2, t1). t1 is a fresh clock value per push,
   so the order is total and no heap layout can change the pop order. *)
let before t i t2 t1 = t.c2.(i) < t2 || (t.c2.(i) = t2 && t.c1.(i) < t1)

(* Hole-based sift-down of the entry (t2, t1, p) from heap slot [i]. *)
let sift_down t i t2 t1 p =
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < t.len && before t (l + 1) t.c2.(l) t.c1.(l) then l + 1 else l
    in
    if c < t.len && before t c t2 t1 then begin
      move t ~src:c ~dst:!i;
      i := c
    end
    else moving := false
  done;
  set t !i t2 t1 p

(* Every access pushes an entry and only [evict] drops stale ones, so a
   touch-heavy, eviction-free workload would grow the columns without
   bound. Once stale entries outnumber live pages, filter the live ones
   in place, in FIFO order, and re-heapify for LRU-2; the [max _ 32]
   keeps tiny pools from compacting on every touch. *)
let maybe_compact t =
  let n = Itab.length t.idx in
  if t.len - n > max n 32 then begin
    let mask = Array.length t.cp - 1 and w = ref 0 in
    for i = 0 to t.len - 1 do
      let src = (t.head + i) land mask in
      if live t t.cp.(src) t.c2.(src) t.c1.(src) then begin
        move t ~src ~dst:((t.head + !w) land mask);
        incr w
      end
    done;
    t.len <- !w;
    if t.kind = Lru2 then
      for i = (t.len / 2) - 1 downto 0 do
        sift_down t i t.c2.(i) t.c1.(i) t.cp.(i)
      done
  end

let push t p t2 t1 =
  let cap = Array.length t.cp in
  if t.len = cap then begin
    let c2 = t.c2 and c1 = t.c1 and cp = t.cp in
    t.c2 <- Array.make (2 * cap) 0;
    t.c1 <- Array.make (2 * cap) 0;
    t.cp <- Array.make (2 * cap) 0;
    for i = 0 to t.len - 1 do
      let j = (t.head + i) land (cap - 1) in
      set t i c2.(j) c1.(j) cp.(j)
    done;
    t.head <- 0
  end;
  if t.kind = Lru2 then begin
    let i = ref t.len in
    while !i > 0 && not (before t ((!i - 1) / 2) t2 t1) do
      move t ~src:((!i - 1) / 2) ~dst:!i;
      i := (!i - 1) / 2
    done;
    set t !i t2 t1 p
  end
  else set t ((t.head + t.len) land (Array.length t.cp - 1)) t2 t1 p;
  t.len <- t.len + 1;
  maybe_compact t

(* Drop the first entry: the heap root, or the ring's head. *)
let pop t =
  t.len <- t.len - 1;
  if t.kind = Lru2 then begin
    if t.len > 0 then sift_down t 0 t.c2.(t.len) t.c1.(t.len) t.cp.(t.len)
  end
  else t.head <- (t.head + 1) land (Array.length t.cp - 1)

(* Record an access to the page at index slot [s]. *)
let access t s p ~first =
  match t.kind with
  | Clock -> if first then push t p 0 0 else Itab.set_a t.idx s 1
  | Lru ->
      t.clock <- t.clock + 1;
      Itab.set_a t.idx s t.clock;
      push t p 0 t.clock
  | Lru2 ->
      t.clock <- t.clock + 1;
      Itab.set_b t.idx s (if first then -1 else Itab.a t.idx s);
      Itab.set_a t.idx s t.clock;
      push t p (Itab.b t.idx s) t.clock

let insert t p = access t (Itab.add t.idx p) p ~first:true

let touch t p =
  let s = Itab.slot t.idx p in
  if s >= 0 then access t s p ~first:false

let mem t p = Itab.slot t.idx p >= 0

let evict t =
  let victim = ref (-1) in
  while !victim < 0 && t.len > 0 do
    let h = t.head in
    let t2 = t.c2.(h) and t1 = t.c1.(h) and p = t.cp.(h) in
    pop t;
    let s = Itab.slot t.idx p in
    if t.kind = Clock && s >= 0 && Itab.a t.idx s = 1 then begin
      (* Second chance: clear the bit and requeue. *)
      Itab.set_a t.idx s 0;
      push t p 0 0
    end
    else if live t p t2 t1 then begin
      Itab.remove t.idx p;
      victim := p
    end
  done;
  !victim

let size t = Itab.length t.idx
let backlog t = t.len
let kind t = t.kind
