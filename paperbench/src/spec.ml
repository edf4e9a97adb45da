(* Every metric the benchmark prints: its unit, which way is better, the
   layer it belongs to, and what it should move on which workload. The
   names and units here are the ones in BENCHMARK.json (a test holds the
   two together); the layer and prediction columns live here because
   BENCHMARK.json's entries take no extra keys. *)

type better = Higher | Lower

type t = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;
  moves : string;  (** end-to-end metric(s) it should move, and where *)
}

let m name unit_ better layer moves = { name; unit_; better; layer; moves }

(* Measured with tracing off. *)
let end_to_end =
  [
    m "setup_s" "s" Lower "server"
      "catalog, templates, config and server built before the first event";
    m "host_ms_per_query" "ms" Lower "all"
      "host CPU time per client request, at the reference machine speed";
    m "alloc_mb_per_query" "MB" Lower "all" "Gc.allocated_bytes per request";
    m "peak_heap_mb" "MB" Lower "all" "top_heap_words at the end of the runs";
    m "sim_throughput_qpm" "qpm" Higher "all"
      "completions per simulated minute in the measured window";
    m "sim_success_rate" "ratio" Higher "all"
      "attempts that succeeded / attempts";
    m "sim_latency_p99_s" "s" Lower "all"
      "p99 client-observed response time in the window";
  ]

(* From the traced run. *)
let per_layer =
  let opt = "optimizer" and q = "qcore" and ex = "execsim" in
  let host_adhoc =
    "host_ms_per_query, alloc_mb_per_query, peak_heap_mb on adhoc_paper; \
     no change on cached_mixed, storm_invalidation"
  in
  let sim_adhoc = "sim_* on adhoc_paper; identical under host-only changes" in
  let lat_adhoc = "sim_latency_p99_s, sim_throughput_qpm on adhoc_paper" in
  let fail_all = "sim_success_rate on every workload" in
  let storm_fail = "sim_success_rate, sim_latency_p99_s on storm_invalidation" in
  let cache_lat =
    "sim_latency_p99_s, sim_throughput_qpm on storm_invalidation and \
     cached_mixed"
  in
  let host_all = "host_ms_per_query, alloc_mb_per_query on every workload" in
  [
    m "optimizer.compiles" "count" Lower opt sim_adhoc;
    m "optimizer.compiles_per_request" "ratio" Lower opt sim_adhoc;
    m "optimizer.replay_ms_p50" "ms" Lower opt host_adhoc;
    m "optimizer.replay_ms_p99" "ms" Lower opt host_adhoc;
    m "optimizer.replay_alloc_mb" "MB" Lower opt host_adhoc;
    m "optimizer.tasks_per_compile" "count" Lower opt sim_adhoc;
    m "optimizer.host_share" "ratio" Lower opt host_adhoc;
    m "optimizer.alloc_share" "ratio" Lower opt host_adhoc;
    m "optimizer.replay_match" "ratio" Higher opt
      "must be 1.0 on adhoc_paper (replay reproduces every traced compile)";
    m "optimizer.metered_mb_p50" "MB" Lower opt sim_adhoc;
    m "optimizer.metered_mb_max" "MB" Lower opt sim_adhoc;
    m "optimizer.sim_compile_s_p50" "s" Lower opt sim_adhoc;
    m "gateway.acquires" "count" Higher q lat_adhoc;
    m "gateway.timeouts" "count" Lower q lat_adhoc;
    m "gateway.wait_s_p50" "s" Lower q lat_adhoc;
    m "gateway.wait_s_p99" "s" Lower q lat_adhoc;
    m "broker.ticks" "count" Higher q lat_adhoc;
    m "broker.pressure_ticks" "count" Lower q lat_adhoc;
    m "broker.shrink_verdicts" "count" Lower q lat_adhoc;
    m "arbiter.ticks" "count" Higher q
      "sim_latency_p99_s, sim_throughput_qpm on storm_invalidation";
    m "arbiter.reclaimed_mb" "MB" Lower q
      "sim_latency_p99_s, sim_throughput_qpm on storm_invalidation";
    m "dbmem.oom_events" "count" Lower "dbmem" fail_all;
    m "dbmem.reclaim_freed_mb" "MB" Lower "dbmem" fail_all;
    m "grant.wait_s_p50" "s" Lower ex "sim_latency_p99_s on adhoc_paper";
    m "grant.wait_s_p99" "s" Lower ex "sim_latency_p99_s on adhoc_paper";
    m "grant.timeouts" "count" Lower ex "sim_latency_p99_s on adhoc_paper";
    m "exec.sim_s_p50" "s" Lower ex "sim_latency_p99_s on adhoc_paper";
    m "exec.spills" "count" Lower ex "sim_latency_p99_s on adhoc_paper";
    m "exec.pages_per_query" "count" Lower ex "sim_latency_p99_s on adhoc_paper";
    m "bufpool.hit_rate" "ratio" Higher "bufpool"
      "sim_latency_p99_s on adhoc_paper";
    m "bufpool.evictions" "count" Lower "bufpool"
      "sim_latency_p99_s on adhoc_paper";
    m "plancache.hit_rate" "ratio" Higher "plancache" cache_lat;
    m "singleflight.coalesced" "count" Higher "plancache" cache_lat;
    m "singleflight.dup_compiles" "count" Lower "plancache" cache_lat;
    m "midcache.hit_rate" "ratio" Higher "midcache"
      "client.latency_p50_s, sim_throughput_qpm on cached_mixed";
    m "midcache.invalidated" "count" Lower "midcache"
      "client.latency_p50_s, sim_throughput_qpm on cached_mixed";
    m "midcache.evictions" "count" Lower "midcache"
      "client.latency_p50_s, sim_throughput_qpm on cached_mixed";
    m "midcache.shrinks" "count" Lower "midcache"
      "client.latency_p50_s, sim_throughput_qpm on cached_mixed";
    m "client.retries" "count" Lower "workload" storm_fail;
    m "client.abandoned" "count" Lower "workload" storm_fail;
    m "client.failure_rate" "ratio" Lower "workload"
      "failed, shed or rejected attempts / attempts; 1 - sim_success_rate";
    m "client.latency_p50_s" "s" Lower "workload"
      "median client-observed response time in the window";
    m "router.retry_amp" "ratio" Lower "server" storm_fail;
    m "storm.recovery_s" "s" Lower "health" storm_fail;
    m "sim.events" "count" Lower "sim"
      "host_ms_per_query on storm_invalidation and cached_mixed";
    m "sim.events_per_request" "count" Lower "sim"
      "host_ms_per_query on storm_invalidation and cached_mixed";
    m "gc.minor_collections" "count" Lower "ocaml-runtime" host_all;
    m "gc.major_collections" "count" Lower "ocaml-runtime" host_all;
    m "gc.promoted_mb" "MB" Lower "ocaml-runtime" host_all;
    m "obs.records" "count" Lower "obs" "none; bounds the traced run's distortion";
    m "obs.dropped" "count" Lower "obs" "must be 0 on every traced run";
    m "obs.traced_overhead" "ratio" Lower "obs"
      "none; traced / untraced host time of the same run";
    m "host.kernel_ms" "ms" Lower "host"
      "none; the calibration kernel's CPU time around the run: machine speed";
    m "host.raw_ms_per_query" "ms" Lower "host"
      "host_ms_per_query before scaling to the reference speed";
    m "unattributed_host_share" "ratio" Lower "ledger"
      "1 - optimizer.host_share: host time no layer ledger explains yet";
  ]

(* Per-layer metrics a workload cannot reach through the public API: its
   scenario builds the engine (or the component) inside its own run. They
   print 0 there. No workload runs the tenant arbiter (the storm scenario
   shards one engine without it), so its counters are listed everywhere
   and read 0 until one does. *)
let not_measured w =
  [ "arbiter.ticks"; "arbiter.reclaimed_mb" ]
  @
  match w with
  | "adhoc_paper" ->
      [ "midcache.hit_rate"; "midcache.invalidated"; "midcache.evictions";
        "midcache.shrinks"; "router.retry_amp"; "storm.recovery_s" ]
  | "cached_mixed" ->
      [ "optimizer.replay_ms_p50"; "optimizer.replay_ms_p99";
        "optimizer.replay_alloc_mb"; "optimizer.tasks_per_compile";
        "optimizer.host_share"; "optimizer.alloc_share";
        "optimizer.replay_match"; "unattributed_host_share";
        "bufpool.hit_rate"; "bufpool.evictions"; "singleflight.dup_compiles";
        "router.retry_amp"; "storm.recovery_s"; "sim.events";
        "sim.events_per_request" ]
  | _ ->
      [ "optimizer.replay_ms_p50"; "optimizer.replay_ms_p99";
        "optimizer.replay_alloc_mb"; "optimizer.tasks_per_compile";
        "optimizer.host_share"; "optimizer.alloc_share";
        "optimizer.replay_match"; "unattributed_host_share";
        "bufpool.hit_rate"; "bufpool.evictions"; "midcache.hit_rate";
        "midcache.invalidated"; "midcache.evictions"; "midcache.shrinks";
        "sim.events"; "sim.events_per_request" ]

let find name =
  List.find (fun s -> s.name = name) (end_to_end @ per_layer)

let better_name = function Higher -> "higher" | Lower -> "lower"
