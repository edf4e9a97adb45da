(* The measurement core of bench/perf.ml, a library so the test suite
   can pin its exactness. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type bench = {
  name : string;
  iters : int;
  wall_s : float;
  per_op_ns : float;
  alloc_bytes_per_op : float;
}

let time_bench ~name ~iters f =
  (* One warm-up call keeps first-use effects (catalog build, heap
     growth) out of the measurement. A minor collection before each
     allocation reading makes the count exact: bytes/op repeats to the
     byte on unchanged code instead of drifting with wherever the minor
     heap happened to stand. *)
  ignore (f ());
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let (), wall_s = wall (fun () -> for _ = 1 to iters do ignore (f ()) done) in
  Gc.minor ();
  let alloc = Gc.allocated_bytes () -. a0 in
  {
    name;
    iters;
    wall_s;
    per_op_ns = wall_s *. 1e9 /. float_of_int iters;
    alloc_bytes_per_op = alloc /. float_of_int iters;
  }

(* A bench whose every iteration ran [n] operations, normalised to
   per-operation numbers. *)
let per_op n b =
  {
    b with
    iters = b.iters * n;
    per_op_ns = b.per_op_ns /. float_of_int n;
    alloc_bytes_per_op = b.alloc_bytes_per_op /. float_of_int n;
  }
