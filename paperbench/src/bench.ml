(* One benchmark run: the untraced measurement (end-to-end metrics) or
   the traced run (per-layer metrics), the named correctness checks, and
   the result line. *)

open Workloads

let mb = Layers.mb
let word_bytes = float_of_int (Sys.word_size / 8)
let median xs = Layers.quantile (Array.of_list xs) 0.5

let run ?trace ?capture ~scale ~seed = function
  | Adhoc_paper -> adhoc_run ?trace ?capture ~scale ~seed ()
  | Cached_mixed -> cached_run ?trace ~scale ~seed ()
  | Storm_invalidation -> storm_run ?trace ~scale ~seed ()

(* The simulated metrics: a pure function of the workload and seed. *)
let sim_metrics o =
  [
    ("sim_throughput_qpm", float_of_int o.completed /. (o.window_s /. 60.));
    ( "sim_success_rate",
      float_of_int (o.attempts - o.failed) /. float_of_int (max 1 o.attempts) );
    ("sim_latency_p99_s", o.p99_s);
  ]

(* ------------------------------------------------------------------ *)
(* Host spans: wall-clock intervals around the benchmark's own calls
   into the program, kept in memory and written out at the end. *)

type span = { s_name : string; s_start : float; s_stop : float }

let spans : span list ref = ref []
let origin = Unix.gettimeofday ()

let on_span ~name ~start ~stop =
  spans := { s_name = name; s_start = start; s_stop = stop } :: !spans

(* Host cost is process CPU time: the process runs one domain and does
   no I/O, so this is its wall time minus the time other tenants of a
   shared machine took the core away. Spans keep wall-clock endpoints
   for the timeline. *)
let timed name f =
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  let r = f () in
  let c1 = Sys.time () and t1 = Unix.gettimeofday () in
  on_span ~name ~start:t0 ~stop:t1;
  (r, c1 -. c0)

(* Each span becomes a begin/end pair of custom events on its own track,
   so the existing Chrome exporter can lower it. *)
let write_spans path =
  let spans = List.rev !spans in
  let sink = Obs.Trace.create ~capacity:(max 1 (2 * List.length spans)) () in
  List.iter
    (fun s ->
      let dur_ms = (s.s_stop -. s.s_start) *. 1000. in
      let ev phase =
        Obs.Event.Custom
          {
            cat = "host";
            name = s.s_name ^ ":" ^ phase;
            args = [ ("dur_ms", Obs.Event.F dur_ms) ];
          }
      in
      Obs.Trace.emit sink ~time:(s.s_start -. origin) ~qid:s.s_name (ev "begin");
      Obs.Trace.emit sink ~time:(s.s_stop -. origin) ~qid:s.s_name (ev "end"))
    spans;
  Obs.Export.chrome_to_file path (Obs.Trace.records sink)

(* ------------------------------------------------------------------ *)
(* Untraced measurement. *)

(* Host times are also kept at the reference machine speed
   ([Calib.at_reference], with the kernel timed just before and just
   after the run). *)
type measured = {
  outcome : outcome;
  host_s : float;  (** CPU time at the reference speed *)
  raw_s : float;  (** CPU time as measured *)
  kernel_s : float;  (** calibration kernel around this run *)
  alloc_bytes : float;
  gc : (string * float) list;  (** GC activity during the run *)
}

let measure_once ~scale ~seed w =
  Gc.full_major ();
  let k0 = Calib.seconds () in
  let g0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let outcome, raw_s = timed "run.untraced" (fun () -> run ~scale ~seed w) in
  let alloc_bytes = Gc.allocated_bytes () -. a0 and g1 = Gc.quick_stat () in
  let gc =
    [
      ( "gc.minor_collections",
        float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
      ("gc.promoted_mb", mb ((g1.Gc.promoted_words -. g0.Gc.promoted_words) *. word_bytes));
    ]
  in
  let k1 = Calib.seconds () in
  let kernel_s = (k0 +. k1) /. 2. in
  let host_s = Calib.at_reference ~kernel_s raw_s in
  Printf.eprintf "run: %.3f s cpu, kernel %.1f/%.1f ms, %.3f s at reference\n%!"
    raw_s (k0 *. 1000.) (k1 *. 1000.) host_s;
  { outcome; host_s; raw_s; kernel_s; alloc_bytes; gc }

(* One set-up takes from a tenth of a millisecond to a few, so set-ups
   are timed in 25 batches of about 40 ms and the median batch reported. *)
let setup_seconds ~seed w =
  let batch n =
    let c0 = Sys.time () in
    for _ = 1 to n do
      setup w ~seed
    done;
    (Sys.time () -. c0) /. float_of_int n
  in
  let k0 = Calib.seconds () in
  let per_batch = max 1 (int_of_float (0.04 /. batch 1)) in
  let times, _ =
    timed "setup" (fun () -> List.init 25 (fun _ -> batch per_batch))
  in
  let kernel_s = (k0 +. Calib.seconds ()) /. 2. in
  Calib.at_reference ~kernel_s (median times)

type result = {
  checks : (string * bool) list;
  metrics : (string * float) list;
  runs : int;
  failed_runs : int;
}

let per_query m f = f m /. float_of_int (max 1 m.outcome.requests)

(* Runs the workload back to back for [seconds] (at least twice), and
   reports medians over the runs. Starting another run that would end
   past the budget is skipped. *)
let untraced ~scale ~seed ~seconds w =
  let setup_s = setup_seconds ~seed w in
  let start = Unix.gettimeofday () in
  let rec loop acc =
    let m = measure_once ~scale ~seed w in
    let acc = m :: acc in
    let n = List.length acc in
    let elapsed = Unix.gettimeofday () -. start in
    if n < 2 || elapsed *. float_of_int (n + 1) /. float_of_int n <= seconds
    then loop acc
    else List.rev acc
  in
  let ms = loop [] in
  let first = List.hd ms in
  let sim = sim_metrics first.outcome in
  let identical =
    List.for_all (fun m -> sim_metrics m.outcome = sim) ms
  in
  let run_ok m = List.for_all snd m.outcome.checks in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  {
    checks =
      first.outcome.checks
      @ [
          ("repeat.sim_identical", identical);
          ("window.completed>=1000", first.outcome.completed >= 1000);
        ];
    metrics =
      [
        ("setup_s", setup_s);
        ( "host_ms_per_query",
          median (List.map (fun m -> per_query m (fun m -> m.host_s *. 1000.)) ms) );
        ( "alloc_mb_per_query",
          median (List.map (fun m -> per_query m (fun m -> mb m.alloc_bytes)) ms) );
        ("peak_heap_mb", mb (float_of_int heap_words *. word_bytes));
      ]
      @ sim;
    runs = List.length ms;
    failed_runs = List.length (List.filter (fun m -> not (run_ok m)) ms);
  }

(* ------------------------------------------------------------------ *)
(* Traced run. *)

(* Twice the largest record count seen (adhoc_paper, about 4.2 M at
   seed 42; the default ring of 262,144 would keep the last 6%). Slots
   materialise on first use, so spare capacity costs one pointer each. *)
let ring_capacity = 1 lsl 23

let slots_of (cfg : Server.Config.t) =
  let levels = cfg.Server.Config.throttle.Qcore.Throttle_config.levels in
  fun gate ->
    match
      List.find_opt (fun l -> l.Qcore.Throttle_config.lname = gate) levels
    with
    | Some l ->
        Qcore.Throttle_config.slot_count l.Qcore.Throttle_config.slots
          ~cpus:cfg.Server.Config.cpus
    | None -> 0

let traced ~scale ~seed ~out w =
  spans := [];
  let name = to_string w in
  let base = measure_once ~scale ~seed w in
  let capture = Hashtbl.create 4096 in
  (* Only the record array outlives this binding: the ring's slots are
     garbage before the analyses allocate. *)
  let records, o, traced_s, dropped =
    let trace = Obs.Trace.create ~capacity:ring_capacity () in
    Gc.full_major ();
    let o, traced_s =
      timed "run.traced" (fun () -> run ~trace ~capture ~scale ~seed w)
    in
    let records, _ =
      timed "trace.records" (fun () -> Obs.Trace.records trace)
    in
    (records, o, traced_s, Obs.Trace.dropped trace)
  in
  let from_trace, _ = timed "analyze" (fun () -> Layers.of_trace records) in
  let cfg = Server.Config.default () in
  let servers =
    match w with
    | Storm_invalidation -> Server.Storms.default_config.s_shards
    | Adhoc_paper | Cached_mixed -> 1
  in
  let admission_checked = w = Adhoc_paper in
  let holders, admission =
    Layers.gateway_violations ~servers ~admission:admission_checked records
      ~slots:(slots_of cfg)
  in
  let replay =
    match w with
    | Adhoc_paper ->
        Some
          (Layers.replay ~cfg ~catalog:(Workload.Sales.catalog ())
             ~queries:capture ~timed records)
    | Cached_mixed | Storm_invalidation -> None
  in
  let compiles = List.assoc "optimizer.compiles" from_trace in
  let optimizer =
    match replay with
    | None -> []
    | Some r ->
        let host_ms = Array.fold_left ( +. ) 0. r.Layers.r_ms in
        let host_share = host_ms /. (base.raw_s *. 1000.) in
        let at_reference = Calib.at_reference ~kernel_s:base.kernel_s in
        [
          ("optimizer.replay_ms_p50", at_reference (Layers.quantile r.r_ms 0.5));
          ("optimizer.replay_ms_p99", at_reference (Layers.quantile r.r_ms 0.99));
          ("optimizer.replay_alloc_mb", mb r.r_alloc_bytes);
          ("optimizer.tasks_per_compile", Layers.mean r.r_tasks);
          ("optimizer.host_share", host_share);
          ("optimizer.alloc_share", r.r_alloc_bytes /. base.alloc_bytes);
          ("optimizer.replay_match", Layers.ratio r.r_matched r.r_count);
          ("unattributed_host_share", 1. -. host_share);
        ]
  in
  let attempts = float_of_int (max 1 o.attempts) in
  let metrics =
    from_trace @ o.layer @ optimizer @ base.gc
    @ [
        ("optimizer.compiles_per_request", compiles /. float_of_int (max 1 o.requests));
        ("client.failure_rate", float_of_int o.failed /. attempts);
        ("client.latency_p50_s", o.p50_s);
        ("obs.records", float_of_int (Array.length records));
        ("obs.dropped", float_of_int dropped);
        ("obs.traced_overhead", traced_s /. base.raw_s);
        ("host.kernel_ms", base.kernel_s *. 1000.);
        ("host.raw_ms_per_query", per_query base (fun m -> m.raw_s *. 1000.));
      ]
  in
  (* Every per-layer metric is printed; one a workload cannot reach
     reads 0 (Spec.not_measured lists them). *)
  let metrics =
    List.map
      (fun (s : Spec.t) ->
        (s.name, Option.value ~default:0. (List.assoc_opt s.name metrics)))
      Spec.per_layer
  in
  let replay_checks =
    match replay with
    | None -> []
    | Some r ->
        let host_share = List.assoc "optimizer.host_share" metrics in
        [
          ("optimizer.replay_match=1", r.Layers.r_matched = r.r_count);
          ("optimizer.replayed_every_compile",
            r.r_count = int_of_float compiles && r.r_count > 0);
          ("ledger.optimizer_host<=run_total", host_share <= 1.);
          ("ledger.optimizer_alloc<=run_total",
            r.r_alloc_bytes <= base.alloc_bytes);
        ]
  in
  let checks =
    o.checks
    @ [
        ("traced.sim=untraced.sim", sim_metrics o = sim_metrics base.outcome);
        ("obs.dropped=0", dropped = 0);
        ("trace.holder_violations=0", holders = 0);
      ]
    @ (if admission_checked then
         [ ("trace.admission_violations=0", admission = 0) ]
       else [])
    @ replay_checks
  in
  (* Artifacts: the per-layer table (with each metric's layer and
     prediction) and the host spans as a Chrome trace. *)
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let stem = Filename.concat out (Printf.sprintf "%s-seed%d" name seed) in
  let oc = open_out (stem ^ ".layers.json") in
  output_string oc "[\n";
  List.iteri
    (fun i (n, v) ->
      let s = Spec.find n in
      Printf.fprintf oc
        "%s  {\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", \"layer\": \"%s\", \"measured\": %b, \"moves\": \"%s\"}"
        (if i = 0 then "" else ",\n")
        n v s.unit_ s.layer
        (not (List.mem n (Spec.not_measured name)))
        (Obs.Export.json_escape s.moves))
    metrics;
  output_string oc "\n]\n";
  close_out oc;
  write_spans (stem ^ ".spans.json");
  {
    checks;
    metrics;
    runs = 2;
    failed_runs =
      List.length
        (List.filter (fun b -> not b)
           [ List.for_all snd base.outcome.checks; List.for_all snd o.checks ]);
  }

(* ------------------------------------------------------------------ *)
(* The result line. *)

let json_line ~correct r =
  let metric (n, v) =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n v
      (Spec.find n).unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.runs r.failed_runs
    (String.concat ", " (List.map metric r.metrics))
