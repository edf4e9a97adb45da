(* The ballast: 12 GiB ramping in 240 steps of 2.5 s from t = 100 s. *)
let ballast_bytes = 12 * Dbmem.Units.gib 1
let at = 100.
let ramp_steps = 240
let step_s = 2.5

let chaos_faults ?(glitch = 0.15) () =
  let window = float_of_int ramp_steps *. step_s in
  Faultsim.Fault.pressure_spike ~ramp_steps ~step_s ~at ~bytes:ballast_bytes
    ~hold:0. ()
  @
  if glitch > 0. then
    [
      Faultsim.Fault.Alloc_glitch
        { at; duration = window; fail_prob = glitch; clerks = [ "compile" ] };
    ]
  else []

type outcome = {
  dbms : Dbms.t;
  report : Health.Report.t;
  completed : int;
  faults : Faultsim.Fault.spec list;
  client_stats : Workload.Client.stats;
}

let run_chaos ?(config = Config.supervised ()) ?faults ?seed ?(clients = 35)
    ?(warmup = 60.) ?(measure = 1000.) ?(drain = 900.) ?(think_mean = 100.)
    ?(trace = Obs.Trace.null) () =
  let faults = match faults with Some f -> f | None -> chaos_faults () in
  let cfg = { config with Config.faults } in
  let cfg =
    match seed with Some s -> { cfg with Config.seed = s } | None -> cfg
  in
  let stop = warmup +. measure in
  (* Clients stop submitting at [stop]; the drain window lets in-flight
     queries finish so a session still watched at the end really is stuck,
     not merely truncated by the clock. *)
  let { Experiment.dbms; client_stats; _ } =
    Experiment.closed_loop ~trace cfg
      { Workload.Client.default_config with Workload.Client.think_mean }
      (Workload.Sales.catalog ()) (Workload.Sales.templates ()) ~clients ~stop
      ~until:(stop +. drain)
  in
  {
    dbms;
    report = Dbms.health_report dbms ~since:warmup ();
    completed = Metrics.total_completions (Dbms.metrics dbms) ~since:warmup ();
    faults;
    client_stats;
  }
