(* The benchmark's own tests, on short runs of the real workloads. *)

open Paperbench

let scale = Workloads.smoke

(* A minimal JSON reader, enough for BENCHMARK.json. *)
type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Lit of string

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \t\r\n" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "json: expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (members ())
    | '[' ->
        incr pos;
        Arr (elements ())
    | '"' -> Str (str ())
    | _ ->
        let start = !pos in
        while !pos < String.length s && not (String.contains ",]} \t\r\n" (peek ())) do
          incr pos
        done;
        let tok = String.sub s start (!pos - start) in
        (match float_of_string_opt tok with Some f -> Num f | None -> Lit tok)
  and members () =
    ws ();
    if peek () = '}' then (incr pos; [])
    else
      let k = str () in
      expect ':';
      let v = value () in
      ws ();
      if peek () = ',' then (incr pos; (k, v) :: members ())
      else (expect '}'; [ (k, v) ])
  and elements () =
    ws ();
    if peek () = ']' then (incr pos; [])
    else
      let v = value () in
      ws ();
      if peek () = ',' then (incr pos; v :: elements ())
      else (expect ']'; [ v ])
  in
  value ()

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_json s

let field k = function
  | Obj kv -> (match List.assoc_opt k kv with Some v -> v | None -> Alcotest.failf "no key %s" k)
  | _ -> Alcotest.fail "not an object"

(* Index of [needle] in [hay] at or after [from]. *)
let find ?(from = 0) hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go from

let str = function Str s -> s | _ -> Alcotest.fail "not a string"
let arr = function Arr l -> l | _ -> Alcotest.fail "not an array"

(* ------------------------------------------------------------------ *)

let test_adhoc_matches_experiment () =
  let seed = 11 in
  let o = Workloads.adhoc_run ~scale ~seed () in
  let r =
    Server.Experiment.run ~seed ~clients:Workloads.adhoc_clients
      ~warmup:scale.adhoc_warmup ~measure:scale.adhoc_measure
      ~slice:Workloads.slice ()
  in
  Alcotest.(check int) "completions" r.Server.Experiment.total_completed o.completed;
  Alcotest.(check int) "errors" r.total_errors o.failed;
  Alcotest.(check (array (pair (float 0.) (float 0.)))) "slices" r.slices o.slices;
  Alcotest.(check int) "requests" r.client_stats.Workload.Client.submitted o.requests

let test_seed_changes_sim () =
  List.iter
    (fun w ->
      let sim seed = Bench.sim_metrics (Bench.run ~scale ~seed w) in
      if sim 1 = sim 2 then
        Alcotest.failf "%s: seeds 1 and 2 gave the same sim_* metrics"
          (Workloads.to_string w))
    Workloads.all

(* Every metric BENCHMARK.json names is printed, with its unit, on the
   result line of the matching mode; and BENCHMARK.json agrees with the
   metric table on units and direction. *)
let test_every_metric_printed () =
  let bench = benchmark_json () in
  let declared key =
    List.map
      (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m)))
      (arr (field key bench))
  in
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun (name, unit_, better) ->
      let s = Spec.find name in
      Alcotest.(check string) (name ^ " unit") s.unit_ unit_;
      Alcotest.(check string) (name ^ " better") (Spec.better_name s.better) better)
    (e2e @ layers);
  let names l = List.sort compare (List.map (fun (n, _, _) -> n) l) in
  let spec l = List.sort compare (List.map (fun (s : Spec.t) -> s.name) l) in
  Alcotest.(check (list string)) "end_to_end = Spec" (spec Spec.end_to_end) (names e2e);
  Alcotest.(check (list string)) "per_layer = Spec" (spec Spec.per_layer) (names layers);
  let printed line (name, unit_, _) =
    let needle = Printf.sprintf "\"%s\": {\"value\": " name in
    let unit_tag = Printf.sprintf "\"unit\": \"%s\"}" unit_ in
    match find line needle with
    | None -> Alcotest.failf "%s not printed" name
    | Some i -> (
        match find ~from:i line "\"unit\": " with
        | Some j
          when j + String.length unit_tag <= String.length line
               && String.sub line j (String.length unit_tag) = unit_tag ->
            ()
        | _ -> Alcotest.failf "%s printed without unit %s" name unit_)
  in
  let w = Workloads.Adhoc_paper in
  let untraced = Bench.untraced ~scale ~seed:3 ~seconds:0. w in
  List.iter (printed (Bench.json_line ~correct:true untraced)) e2e;
  let traced = Bench.traced ~scale ~seed:3 ~out:"out" w in
  List.iter (printed (Bench.json_line ~correct:true traced)) layers;
  List.iter
    (fun (n, ok) -> if not ok then Alcotest.failf "traced check %s failed" n)
    traced.checks

let () =
  Alcotest.run "paperbench"
    [
      ( "paperbench",
        [
          Alcotest.test_case "adhoc run = Experiment.run" `Quick
            test_adhoc_matches_experiment;
          Alcotest.test_case "seed changes sim_* outputs" `Quick
            test_seed_changes_sim;
          Alcotest.test_case "every BENCHMARK.json metric printed with unit"
            `Quick test_every_metric_printed;
        ] );
    ]
