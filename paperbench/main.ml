(* paperbench: one workload, one seed, one run of the benchmark.

     main.exe --workload adhoc_paper --seed 42 --seconds 30 --trace 0

   prints every check by name, every metric with its unit, and as its
   last line one JSON object. Any failed check exits 1. [--workload all]
   runs the three workloads in turn, each ending in its own JSON line. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <adhoc_paper|cached_mixed|storm_invalidation|all> \
     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workloads =
    match get "workload" with
    | "all" -> Paperbench.Workloads.all
    | name -> (
        match Paperbench.Workloads.of_string name with
        | Some w -> [ w ]
        | None -> usage ())
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let out = Option.value ~default:"paperbench/out" (List.assoc_opt "out" opts) in
  let scale = Paperbench.Workloads.full in
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let one w =
    let r =
      if trace = 0 then Paperbench.Bench.untraced ~scale ~seed ~seconds w
      else Paperbench.Bench.traced ~scale ~seed ~out w
    in
    let tag = Paperbench.Workloads.to_string w in
    List.iter
      (fun (n, ok) ->
        Printf.printf "%s check %-48s %s\n" tag n (if ok then "ok" else "FAIL"))
      r.checks;
    List.iter
      (fun (n, v) ->
        Printf.printf "%s metric %-34s %.6g %s\n" tag n v
          (Paperbench.Spec.find n).unit_)
      r.metrics;
    let correct = List.for_all snd r.checks && r.failed_runs = 0 in
    print_endline (Paperbench.Bench.json_line ~correct r);
    correct
  in
  (* Every workload runs even after one fails its checks. *)
  let results = List.map one workloads in
  if not (List.for_all Fun.id results) then exit 1
