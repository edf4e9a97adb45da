(* The benchmark's three closed-loop workloads, each driven through the
   server's public API. Every workload returns the same [outcome] shape, so
   the end-to-end metrics are computed one way for all of them. *)

type name = Adhoc_paper | Cached_mixed | Storm_invalidation

let all = [ Adhoc_paper; Cached_mixed; Storm_invalidation ]

let to_string = function
  | Adhoc_paper -> "adhoc_paper"
  | Cached_mixed -> "cached_mixed"
  | Storm_invalidation -> "storm_invalidation"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Run lengths. [full] is what the benchmark measures: every measured
   window holds well over 1000 requests, so at least ten fall beyond the
   p99. [smoke] is a short version of the same runs for the tests. *)
type scale = {
  adhoc_warmup : float;
  adhoc_measure : float;
  cached_warmup : float;
  cached_measure : float;
  storm_warmup : float;
  storm_measure : float;
}

let full =
  {
    adhoc_warmup = 600.;
    adhoc_measure = 9000.;
    cached_warmup = 200.;
    cached_measure = 14400.;
    storm_warmup = 600.;
    storm_measure = 900.;
  }

let smoke =
  {
    adhoc_warmup = 120.;
    adhoc_measure = 300.;
    cached_warmup = 60.;
    cached_measure = 240.;
    storm_warmup = 60.;
    storm_measure = 120.;
  }

let adhoc_clients = 30
let seconds_of_us us = float_of_int us /. 1e6
let slice = 60.

type outcome = {
  requests : int;  (** distinct client queries issued over the whole run *)
  attempts : int;  (** submissions, retries included *)
  failed : int;  (** attempts that failed, were shed or were rejected *)
  completed : int;  (** successes inside the measured window *)
  window_s : float;  (** simulated length of the measured window *)
  slices : (float * float) array;  (** completions per slice, window only *)
  p50_s : float;  (** client-observed response time of successes *)
  p99_s : float;
  checks : (string * bool) list;  (** conservation, by name *)
  layer : (string * float) list;  (** per-layer numbers only this workload reaches *)
}

(* ------------------------------------------------------------------ *)
(* adhoc_paper: the paper's regime, driven by hand so the benchmark can
   wrap the submit callback (latency, failures, queries to replay). The
   construction order and RNG splits are those of [Experiment.run], so
   the two agree on every simulated number. *)

type adhoc = {
  eng : Sim.Engine.t;
  dbms : Server.Dbms.t;
  templates : Workload.Template.t list;
}

let adhoc_setup ?trace ~seed () =
  let cfg = { (Server.Config.default ()) with Server.Config.seed } in
  let cat = Workload.Sales.catalog () in
  let templates = Workload.Sales.templates () in
  let eng = Sim.Engine.create ~seed () in
  let dbms = Server.Dbms.create ?trace eng cfg cat in
  Server.Dbms.start dbms;
  { eng; dbms; templates }

(* Per-query bookkeeping of the wrapped submit: a query is open from its
   first attempt until it succeeds or the client gives up on it. *)
let adhoc_run ?trace ?capture ~scale ~seed () =
  let { eng; dbms; templates } = adhoc_setup ?trace ~seed () in
  let warmup = scale.adhoc_warmup in
  let stop = warmup +. scale.adhoc_measure in
  let client_config = Workload.Client.default_config in
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let attempts = ref 0 and failed = ref 0 and ok = ref 0 in
  let open_queries = Hashtbl.create 64 in
  let latency_us = Obs.Hist.create () in
  let submit q =
    let qid = q.Optimizer.Query.qid in
    incr attempts;
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt open_queries qid) in
    Hashtbl.replace open_queries qid n;
    Option.iter (fun tbl -> Hashtbl.replace tbl qid q) capture;
    let t0 = Sim.Engine.now eng in
    let r = Server.Dbms.submit_catch dbms q in
    let now = Sim.Engine.now eng in
    (match r with
    | Ok () ->
        incr ok;
        Hashtbl.remove open_queries qid;
        if now >= warmup then
          Obs.Hist.add latency_us (int_of_float (Float.round ((now -. t0) *. 1e6)))
    | Error _ ->
        incr failed;
        if n >= client_config.Workload.Client.max_attempts then
          Hashtbl.remove open_queries qid);
    r
  in
  ignore (Server.Dbms.install_faults dbms);
  let client_rng = Sim.Rng.split (Sim.Engine.rng eng) in
  for i = 1 to adhoc_clients do
    Workload.Client.spawn eng client_rng
      ~name:(Printf.sprintf "client-%d" i)
      ~templates ~submit ~config:client_config ~stats ~ids ~until:stop
  done;
  Sim.Engine.run eng ~until:stop;
  let metrics = Server.Dbms.metrics dbms in
  let in_flight = Hashtbl.length open_queries in
  let pool = Server.Dbms.pool dbms in
  let sf = Server.Dbms.singleflight dbms in
  let s = stats in
  {
    requests = s.Workload.Client.submitted;
    attempts = !attempts;
    failed = !failed;
    completed = Server.Metrics.total_completions metrics ~since:warmup ();
    window_s = scale.adhoc_measure;
    slices = Server.Metrics.throughput metrics ~start:warmup ~stop ~width:slice;
    p50_s = seconds_of_us (Obs.Hist.percentile latency_us 50.);
    p99_s = seconds_of_us (Obs.Hist.percentile latency_us 99.);
    checks =
      [
        ("no_process_failures", Sim.Engine.failures eng = []);
        ( "client.submitted=succeeded+abandoned+in_flight",
          s.submitted = s.succeeded + s.abandoned + in_flight );
        ("client.attempts=observed_attempts", s.attempts = !attempts);
        ("client.succeeded=observed_ok", s.succeeded = !ok);
        ("server.errors=observed_failures",
          Server.Metrics.total_errors metrics = !failed);
        ("closed_loop.in_flight<=clients", in_flight <= adhoc_clients);
      ];
    layer =
      [
        ("bufpool.hit_rate", Bufpool.Pool.hit_rate pool);
        ("bufpool.evictions", float_of_int (Bufpool.Pool.evictions pool));
        ( "singleflight.dup_compiles",
          float_of_int
            (Plancache.Singleflight.duplicates sf
            - Plancache.Singleflight.coalesced sf) );
        ("client.retries", float_of_int (s.attempts - s.submitted));
        ("client.abandoned", float_of_int s.abandoned);
        ("sim.events", float_of_int (Sim.Engine.events_executed eng));
        ( "sim.events_per_request",
          float_of_int (Sim.Engine.events_executed eng)
          /. float_of_int (max 1 s.submitted) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* cached_mixed: mostly parameterized traffic behind the brokered
   mid-tier cache, with writers invalidating it. *)

let cached_config ~scale ~seed =
  {
    Server.Cached.default_config with
    Server.Cached.k_mode = Server.Cached.Cache_brokered;
    k_clients = 16;
    k_ratio = 0.9;
    k_variants = 32;
    k_writers = 2;
    k_warmup = scale.cached_warmup;
    k_measure = scale.cached_measure;
    k_slice = slice;
    k_seed = seed;
  }

let cached_run ?trace ~scale ~seed () =
  let cfg = cached_config ~scale ~seed in
  let o = Server.Cached.run ?trace cfg in
  let open Server.Cached in
  let in_flight = o.cl_submitted - o.cl_succeeded - o.cl_abandoned in
  (* Every request is an attempt that succeeded, failed, or is still in
     flight when the books are read. *)
  let failed = o.requests - o.cl_succeeded - in_flight in
  {
    requests = o.cl_submitted;
    attempts = o.requests;
    failed;
    completed = o.completed;
    window_s = cfg.k_measure;
    slices = o.slices;
    p50_s = o.p50_ms /. 1000.;
    p99_s = o.p99_ms /. 1000.;
    checks =
      [
        ("cache.requests=hits+misses+bypasses",
          o.requests = o.hits + o.misses + o.bypasses);
        ("client.in_flight>=0", in_flight >= 0);
        ("closed_loop.in_flight<=clients", in_flight <= cfg.k_clients);
        ("failed_attempts>=0", failed >= 0);
      ];
    layer =
      [
        ("midcache.hit_rate", o.cache_hit_rate);
        ("midcache.invalidated", float_of_int o.invalidated);
        ("midcache.evictions", float_of_int o.evictions);
        ("midcache.shrinks", float_of_int o.shrink_events);
        ("client.retries", float_of_int (o.requests - o.cl_submitted));
        ("client.abandoned", float_of_int o.cl_abandoned);
      ];
  }

(* ------------------------------------------------------------------ *)
(* storm_invalidation: the defended storm experiment's defaults — three
   shards, every plan cache flushed a quarter into the window. *)

let storm_config ~scale ~seed =
  {
    Server.Storms.default_config with
    Server.Storms.s_warmup = scale.storm_warmup;
    s_measure = scale.storm_measure;
    s_seed = seed;
  }

let storm_one ?trace ~scale ~seed () =
  let cfg = storm_config ~scale ~seed in
  let o = Server.Storms.run ?trace cfg in
  let open Server.Storms in
  let in_flight = o.cl_submitted - o.cl_succeeded - o.cl_abandoned in
  let window_after = cfg.s_warmup +. cfg.s_measure -. fault_at cfg in
  {
    requests = o.cl_submitted;
    attempts = o.submitted;
    failed = o.failed;
    completed = int_of_float (Array.fold_left (fun a (_, v) -> a +. v) 0. o.slices);
    window_s = cfg.s_measure;
    slices = o.slices;
    p50_s = o.p50_ms /. 1000.;
    p99_s = o.p99_ms /. 1000.;
    checks =
      [
        ("router.submitted=ok+failed+in_flight",
          o.submitted = o.ok + o.failed + o.in_flight_at_stop);
        ("router.rejected<=failed", o.rejected <= o.failed);
        ("client.in_flight>=0", in_flight >= 0);
        ("closed_loop.in_flight<=clients", in_flight <= cfg.s_clients);
        (* Nothing is left open when the next replica starts, so the
           traced replicas' spans pair up within their own run. *)
        ("router.drained", o.in_flight_at_stop = 0);
      ];
    layer =
      [
        ("router.retry_amp", o.retry_amp);
        (* An arm that never recovers reports the whole post-trigger
           window: a lower bound on its recovery time. *)
        ("storm.recovery_s", if o.recovered then o.recovery_s else window_after);
        ("singleflight.dup_compiles", float_of_int o.dup_compiles);
        ("client.retries", float_of_int o.retries);
        ("client.abandoned", float_of_int o.cl_abandoned);
      ];
  }

(* How hard one flush bites depends on the seed (which statements are
   hot, what their recompiles cost), so one storm's p99 moved by 17%
   between seeds. A run therefore replays the storm on [storm_replicas]
   seeds derived from [seed] and reports their sums, and the mean of
   their latency percentiles and per-storm layer ratios. *)
let storm_replicas = 4

let storm_run ?trace ~scale ~seed () =
  let rs =
    List.init storm_replicas (fun i ->
        storm_one ?trace ~scale ~seed:((seed * storm_replicas) + i) ())
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let mean f =
    List.fold_left (fun a r -> a +. f r) 0. rs /. float_of_int storm_replicas
  in
  let first = List.hd rs in
  let by_name f = List.map (fun (n, _) -> (n, f n)) in
  {
    requests = sum (fun r -> r.requests);
    attempts = sum (fun r -> r.attempts);
    failed = sum (fun r -> r.failed);
    completed = sum (fun r -> r.completed);
    window_s = List.fold_left (fun a r -> a +. r.window_s) 0. rs;
    slices = Array.concat (List.map (fun r -> r.slices) rs);
    p50_s = mean (fun r -> r.p50_s);
    p99_s = mean (fun r -> r.p99_s);
    checks =
      by_name (fun n -> List.for_all (fun r -> List.assoc n r.checks) rs) first.checks;
    layer =
      by_name
        (fun n ->
          let total = mean (fun r -> List.assoc n r.layer) in
          match n with
          | "router.retry_amp" | "storm.recovery_s" -> total
          | _ -> total *. float_of_int storm_replicas)
        first.layer;
  }

(* ------------------------------------------------------------------ *)
(* Set-up cost: the catalog, templates, config and server(s) each
   workload runs on, before any simulated event. adhoc_paper's is its
   own set-up. The scenarios build theirs inside [Cached.run] and
   [Storms.run], so the same pieces are built here from the public API,
   with the scenario's memory split and defenses. *)

let setup w ~seed =
  match w with
  | Adhoc_paper -> ignore (Sys.opaque_identity (adhoc_setup ~seed ()))
  | Cached_mixed ->
      let cfg = cached_config ~scale:full ~seed in
      Server.Cached.validate cfg;
      let eng = Sim.Engine.create ~seed () in
      let server_cfg =
        {
          (Server.Config.default ()) with
          Server.Config.memory_bytes = cfg.Server.Cached.k_memory;
          seed;
        }
      in
      let dbms = Server.Dbms.create eng server_cfg (Workload.Sales.catalog ()) in
      Server.Dbms.start dbms;
      let templates =
        Workload.Mix.mixed_templates ~ratio:cfg.k_ratio ~variants:cfg.k_variants ()
      in
      ignore (Sys.opaque_identity (dbms, templates))
  | Storm_invalidation ->
      let cfg = storm_config ~scale:full ~seed in
      Server.Storms.validate cfg;
      let eng = Sim.Engine.create ~seed () in
      let shard_cfg =
        {
          (Server.Config.default ()) with
          Server.Config.memory_bytes = cfg.Server.Storms.s_total / cfg.s_shards;
          seed;
          defense = Server.Storms.defense_of cfg;
        }
      in
      let shards =
        Array.init cfg.s_shards (fun i ->
            Server.Shard.create eng ~index:i ~name:(Printf.sprintf "shard%d" i)
              shard_cfg (Workload.Sales.catalog ()))
      in
      let router = Server.Router.create eng shards in
      let templates =
        Workload.Sales.parameterized_templates ~variants:cfg.s_variants ()
      in
      ignore (Sys.opaque_identity (router, templates))
