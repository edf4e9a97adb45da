(* Linear probing over a power-of-two key column, [-1] marking an empty
   slot. Deletion shifts later members of the probe run back into the
   hole, so there are no tombstones and a lookup stops at the first
   empty slot. Every probe is a [while] loop over local refs: a local
   recursive function capturing the table would allocate a closure on
   each call. *)

type t = {
  mutable keys : int array;
  mutable a : int array;
  mutable b : int array;
  mutable count : int;
  mutable bits : int;
}

let create () =
  let bits = 4 in
  {
    keys = Array.make (1 lsl bits) (-1);
    a = Array.make (1 lsl bits) 0;
    b = Array.make (1 lsl bits) 0;
    count = 0;
    bits;
  }

let length t = t.count

(* Fibonacci hashing: the top [bits] bits of the product. *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - t.bits)

let slot t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while keys.(!i) <> k && keys.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = k then !i else -1

let place t k va vb =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while keys.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- k;
  t.a.(!i) <- va;
  t.b.(!i) <- vb;
  !i

(* Doubles at half load: the capacity follows the live keys, whatever
   their magnitude. *)
let grow t =
  let keys = t.keys and a = t.a and b = t.b in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) (-1);
  t.a <- Array.make (1 lsl t.bits) 0;
  t.b <- Array.make (1 lsl t.bits) 0;
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> -1 then ignore (place t keys.(i) a.(i) b.(i))
  done

let add t k =
  if k < 0 then invalid_arg "Itab.add: negative key";
  if 2 * (t.count + 1) > Array.length t.keys then grow t;
  t.count <- t.count + 1;
  place t k 0 0

let remove t k =
  let i = slot t k in
  if i >= 0 then begin
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> -1 do
      (* The member at [j] may fill the hole unless its home lies
         cyclically in (hole, j]. *)
      let h = home t keys.(!j) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- keys.(!j);
        t.a.(!hole) <- t.a.(!j);
        t.b.(!hole) <- t.b.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- -1;
    t.count <- t.count - 1
  end

let a t i = t.a.(i)
let b t i = t.b.(i)
let set_a t i v = t.a.(i) <- v
let set_b t i v = t.b.(i) <- v
