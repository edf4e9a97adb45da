(** Wall-clock and allocation measurement for bench/perf.ml. *)

(** [wall f] runs [f] and returns its result with the elapsed seconds. *)
val wall : (unit -> 'a) -> 'a * float

type bench = {
  name : string;
  iters : int;
  wall_s : float;
  per_op_ns : float;
  alloc_bytes_per_op : float;
}

(** [time_bench ~name ~iters f] calls [f] once to warm up, then [iters]
    times under measurement. Allocation is read after a minor
    collection on both sides, so a deterministic [f] reports the same
    [alloc_bytes_per_op] on every call. *)
val time_bench : name:string -> iters:int -> (unit -> 'a) -> bench

(** [per_op n b] divides [b]'s per-iteration numbers by the [n]
    operations each iteration ran, and multiplies [iters] by [n]. *)
val per_op : int -> bench -> bench
