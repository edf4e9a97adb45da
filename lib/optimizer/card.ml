type t = {
  cat : Catalog.t;
  q : Query.t;
  tables : Catalog.table array;
  base : float array;
  widths : int array;
  pred_mask : Relset.t array;  (* both endpoints of each join predicate *)
  pred_sel : float array;  (* its selectivity, in predicate-list order *)
  memo : (Relset.t, float) Hashtbl.t;
}

let create cat q =
  let n = Query.n_rels q in
  let tables =
    Array.init n (fun i -> Catalog.find_table cat q.Query.rels.(i).Query.rtable)
  in
  let base =
    Array.init n (fun i ->
        Float.max 1.0 (tables.(i).Catalog.rows *. Query.filter_sel q i))
  in
  let widths = Array.map Catalog.row_width tables in
  let preds = Array.of_list q.Query.preds in
  {
    cat;
    q;
    tables;
    base;
    widths;
    pred_mask =
      Array.map
        (fun (p : Query.join_pred) ->
          Relset.add p.Query.jleft (Relset.singleton p.Query.jright))
        preds;
    pred_sel = Array.map (fun (p : Query.join_pred) -> p.Query.jsel) preds;
    memo = Hashtbl.create 256;
  }

let query t = t.q
let table_of t i = t.tables.(i)
let base_rows t i = t.base.(i)

(* Multiplies in ascending relation index, then predicate-list order:
   the QCheck property [card estimate = reference fold] pins the products
   bit for bit. Loops with local float refs keep the floats unboxed, so
   only the memo entry allocates. *)
let card t s =
  match Hashtbl.find t.memo s with
  | c -> c
  | exception Not_found ->
      let rows = ref 1.0 and rest = ref s in
      while !rest <> 0 do
        let low = !rest land - !rest in
        rest := !rest lxor low;
        rows := !rows *. t.base.(Relset.ctz low)
      done;
      let sel = ref 1.0 in
      for k = 0 to Array.length t.pred_mask - 1 do
        if Relset.subset t.pred_mask.(k) s then sel := !sel *. t.pred_sel.(k)
      done;
      let c = Float.max 1.0 (!rows *. !sel) in
      Hashtbl.replace t.memo s c;
      c

let group_card t group_by ~input =
  let distinct_product =
    List.fold_left
      (fun acc (rel, col_name) ->
        let col = Catalog.column t.tables.(rel) col_name in
        acc *. Float.max 1.0 col.Catalog.distinct)
      1.0 group_by
  in
  Float.max 1.0 (Float.min input distinct_product)

let width t s =
  let w = ref 0 and rest = ref s in
  while !rest <> 0 do
    let low = !rest land - !rest in
    rest := !rest lxor low;
    w := !w + t.widths.(Relset.ctz low)
  done;
  !w

let memo_size t = Hashtbl.length t.memo
