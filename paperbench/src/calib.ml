(* Machine speed. On a shared machine the speed a process gets drifts,
   by up to 2.2x within minutes on a 2-vCPU VM, so host times are also
   reported scaled to a reference speed. The scale comes from a fixed
   kernel of the simulator's kind of work (minor-heap allocation,
   hashing, pointer chasing, float compares) that uses no code of the
   program, timed in the same process just before and just after each
   measurement. *)

(* Its live data, a few megabytes, stays below any workload's peak heap
   but is large enough to feel the cache and memory contention that
   slows the simulator: a 1 MB version under-corrected a 2.2x slowdown
   to 1.8x, this one tracked a 1.58x slowdown as 1.55x. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  let l = ref [] in
  for i = 0 to 199_999 do
    let k = i * 7919 land 65535 in
    (match Hashtbl.find_opt h k with
    | Some v -> acc := !acc +. v
    | None -> Hashtbl.replace h k (float_of_int i *. 0.5));
    l := (i, float_of_int k) :: !l;
    if i land 1023 = 0 then l := []
  done;
  let a = Array.init 100_000 (fun i -> float_of_int ((i * 48271) land 0xffff)) in
  Array.sort compare a;
  !acc +. a.(500)

(* CPU seconds of one kernel pass, the fastest of five: interference
   only ever adds time, so the minimum is the steadiest reading of the
   machine's current speed. *)
let seconds () =
  let one () =
    let c0 = Sys.time () in
    ignore (Sys.opaque_identity (kernel ()));
    Sys.time () -. c0
  in
  List.fold_left Float.min Float.infinity (List.init 5 (fun _ -> one ()))

(* The kernel's CPU time on the reference machine (one vCPU of a 2-vCPU
   Intel Xeon VM with no noisy neighbour): a run that took [s] CPU
   seconds while the kernel took [kernel_s] would have taken
   [s *. reference_s /. kernel_s] there. *)
let reference_s = 0.052
let at_reference ~kernel_s s = s *. reference_s /. kernel_s
