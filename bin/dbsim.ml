(* Command-line driver for the simulated DBMS: run single experiments,
   throttled-vs-unthrottled comparisons, and client sweeps. The full
   paper-reproduction harness lives in bench/main.exe. *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let error_line msg = Printf.sprintf "dbsim: error: %s (try 'dbsim --help')" msg

(* Bad input found after parsing (conflicting flags, a config a scenario
   rejects) exits like a cmdliner parse error: one structured stderr
   line, exit 124, before any simulation starts. *)
let cli_error msg =
  prerr_endline (error_line msg);
  exit Cmd.Exit.cli_error

(* A library check's [Invalid_argument] is bad input, reported through
   [cli_error]. *)
let checked f x = try f x with Invalid_argument msg -> cli_error msg

let check_clients = checked Server.Experiment.check_clients

(* [conv] restricted to values [ok] accepts: an out-of-range value is a
   parse error, just like a malformed one. *)
let restricted ~ok ~expected conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let positive_int =
  restricted ~ok:(fun v -> v > 0) ~expected:"a positive integer" Arg.int

let positive_float =
  restricted ~ok:(fun v -> v > 0.) ~expected:"a positive number" Arg.float

let non_negative_float =
  restricted ~ok:(fun v -> v >= 0.) ~expected:"a non-negative number" Arg.float

(* Flags several commands share, each with its own default. *)

let clients_arg ?(doc = "Number of concurrent clients.") default =
  Arg.(value & opt int default & info [ "clients"; "c" ] ~doc)

let warmup_arg ?(doc = "Warm-up seconds (excluded from results).") default =
  Arg.(value & opt non_negative_float default & info [ "warmup" ] ~doc)

let measure_arg ?(doc = "Measured window, seconds.") default =
  Arg.(value & opt positive_float default & info [ "measure" ] ~doc)

let slice_arg default =
  Arg.(
    value & opt positive_float default
    & info [ "slice" ] ~doc:"Time-slice width for throughput, seconds.")

let think_arg ?(doc = "Client think time, seconds (mean).") default =
  Arg.(value & opt float default & info [ "think" ] ~doc)

let variants_arg
    ?(doc = "Parameterized (cacheable) query templates in the workload.")
    default =
  Arg.(value & opt int default & info [ "variants" ] ~doc)

let shards_arg default =
  Arg.(
    value & opt int default
    & info [ "shards" ] ~doc:"Number of shards (failure domains).")

(* Machine memory: GiB on the command line, bytes in the configs. *)
let gib_arg name ~doc default_bytes =
  Arg.(
    value
    & opt positive_float (Dbmem.Units.to_gib default_bytes)
    & info [ name ] ~doc)

let bytes_of_gib g = int_of_float (g *. float_of_int (Dbmem.Units.gib 1))

let throttle_arg =
  Arg.(value & opt bool true & info [ "throttle" ] ~doc:"Enable compilation throttling.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt positive_int 1
    & info [ "jobs"; "j" ]
        ~env:(Cmd.Env.info "DBSIM_JOBS")
        ~doc:
          "Domains to fan independent runs across (1 = sequential). Each \
           run is deterministic given its seed, so the output is the same \
           at any job count.")

let workload_arg =
  Arg.(
    value
    & opt (enum [ ("sales", `Sales); ("snowflake", `Snowflake); ("tpch", `Tpch) ]) `Sales
    & info [ "workload" ] ~doc:"Workload: sales, snowflake or tpch.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PREFIX"
        ~doc:"Also write results as CSV files named PREFIX-*.csv.")

(* Every file the CLI writes goes through here and is announced on
   stdout. *)
let write_file path f =
  let oc = open_out path in
  f oc;
  close_out oc;
  Printf.printf "wrote %s\n" path

let write_csv path header rows =
  write_file path (fun oc ->
      List.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        (header :: rows))

let csv_of_slices path slices =
  write_csv path [ "slice_start_s"; "completions" ]
    (Array.to_list
       (Array.map
          (fun (t, v) -> [ Printf.sprintf "%.0f" t; Printf.sprintf "%.0f" v ])
          slices))

let csv_of_memory path series =
  (* One row per sample time, one column per clerk. *)
  match series with
  | [] -> ()
  | (_, first) :: _ ->
      let names = List.map fst series in
      let n = Sim.Series.length first in
      let rows =
        List.init n (fun k ->
            let t, _ = Sim.Series.nth first k in
            Printf.sprintf "%.0f" t
            :: List.map
                 (fun (_, s) ->
                   if Sim.Series.length s > k then
                     Printf.sprintf "%.0f" (snd (Sim.Series.nth s k))
                   else "")
                 series)
      in
      write_csv path ("time_s" :: List.map (fun n -> n ^ "_bytes") names) rows

let config ~throttle ~seed =
  let base = if throttle then Server.Config.default () else Server.Config.unthrottled () in
  { base with Server.Config.seed }

let run_one ~clients ~throttle ~warmup ~measure ~slice ~seed =
  Server.Experiment.run
    ~config:(config ~throttle ~seed)
    ~clients ~warmup ~measure ~slice ()

(* Detailed single run that keeps the server around for resource stats. *)
let run_verbose ~clients ~throttle ~warmup ~measure ~seed =
  let stop = warmup +. measure in
  let { Server.Experiment.dbms; _ } =
    Server.Experiment.closed_loop ~trace:Obs.Trace.null
      (config ~throttle ~seed) Workload.Client.default_config
      (Workload.Sales.catalog ()) (Workload.Sales.templates ()) ~clients ~stop
      ~until:stop
  in
  let m = Server.Dbms.metrics dbms in
  let grants = Server.Dbms.grants dbms in
  let disk = Server.Dbms.disk dbms in
  Printf.printf "completions=%d errors=%d\n"
    (Server.Metrics.total_completions m ~since:warmup ())
    (Server.Metrics.total_errors m);
  Format.printf "grant waits: %a timeouts=%d in_use=%s of %s@."
    Sim.Stats.Online.pp (Execsim.Grant.wait_stats grants)
    (Execsim.Grant.timeouts grants)
    (Dbmem.Units.bytes_to_string (Execsim.Grant.in_use grants))
    (Dbmem.Units.bytes_to_string (Execsim.Grant.total grants));
  Printf.printf "disk: read %.1f GB, written %.1f GB, util %.2f\n"
    (float_of_int (Bufpool.Disk.bytes_read disk) /. 1e9)
    (float_of_int (Bufpool.Disk.bytes_written disk) /. 1e9)
    ((float_of_int (Bufpool.Disk.bytes_read disk + Bufpool.Disk.bytes_written disk)
      /. (320. *. 1024. *. 1024.)) /. stop);
  Format.printf "disk queue: %a@." Sim.Stats.Online.pp (Bufpool.Disk.queue_wait disk);
  Format.printf "pool: %a@." Bufpool.Pool.pp (Server.Dbms.pool dbms);
  Format.printf "cache: %a@." Plancache.Cache.pp (Server.Dbms.plan_cache dbms);
  Printf.printf "cpu util=%.2f queued=%d\n"
    (Execsim.Cpu.utilization (Server.Dbms.cpu dbms))
    (Execsim.Cpu.queued (Server.Dbms.cpu dbms));
  Format.printf "%a@." Dbmem.Manager.pp (Server.Dbms.manager dbms);
  Format.printf "%a@." Qcore.Broker.pp (Server.Dbms.broker dbms);
  Format.printf "%a@." Qcore.Compile_gov.pp (Server.Dbms.governor dbms);
  Format.printf "compile: %a@.exec: %a@."
    Sim.Stats.Online.pp (Server.Metrics.compile_time m)
    Sim.Stats.Online.pp (Server.Metrics.exec_time m)


let verbose_cmd =
  (* --slice is accepted for symmetry with run; verbose prints no slices. *)
  let action clients throttle warmup measure _slice seed =
    check_clients clients;
    run_verbose ~clients ~throttle ~warmup ~measure ~seed
  in
  Cmd.v (Cmd.info "verbose" ~doc:"Single run with resource diagnostics.")
    Term.(
      const action $ clients_arg 30 $ throttle_arg $ warmup_arg 600.
      $ measure_arg 1800. $ slice_arg 60. $ seed_arg)

let run_cmd =
  let action clients throttle warmup measure slice seed csv =
    check_clients clients;
    let r = run_one ~clients ~throttle ~warmup ~measure ~slice ~seed in
    Format.printf "%a@." Server.Experiment.pp_summary r;
    List.iter
      (fun (k, n) -> if n > 0 then Printf.printf "  error %s: %d\n" k n)
      r.Server.Experiment.errors;
    Printf.printf "  client: submitted %d attempts %d succeeded %d abandoned %d\n"
      r.Server.Experiment.client_stats.Workload.Client.submitted
      r.Server.Experiment.client_stats.Workload.Client.attempts
      r.Server.Experiment.client_stats.Workload.Client.succeeded
      r.Server.Experiment.client_stats.Workload.Client.abandoned;
    Server.Report.table ~header:[ "slice start (s)"; "completions" ]
      (Array.to_list
         (Array.map
            (fun (t, v) -> [ Printf.sprintf "%.0f" t; Printf.sprintf "%.0f" v ])
            r.Server.Experiment.slices));
    print_endline ("  " ^ Server.Report.sparkline (Array.map snd r.Server.Experiment.slices));
    match csv with
    | None -> ()
    | Some prefix ->
        csv_of_slices (prefix ^ "-slices.csv") r.Server.Experiment.slices;
        csv_of_memory (prefix ^ "-memory.csv") r.Server.Experiment.memory_series
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the SALES benchmark once.")
    Term.(
      const action $ clients_arg 30 $ throttle_arg $ warmup_arg 600.
      $ measure_arg 1800. $ slice_arg 60. $ seed_arg $ csv_arg)

let compare_cmd =
  let action clients warmup measure slice seed csv jobs =
    check_clients clients;
    let run throttle = run_one ~clients ~throttle ~warmup ~measure ~slice ~seed in
    let on, off =
      match Parallel.Pool.run ~jobs run [ true; false ] with
      | [ on; off ] -> (on, off)
      | _ -> assert false
    in
    Server.Report.figure_series
      ~title:(Printf.sprintf "Throughput, %d clients (completions per %.0fs slice)" clients slice)
      ~throttled:on.Server.Experiment.slices
      ~unthrottled:off.Server.Experiment.slices;
    Server.Report.table ~header:Server.Report.result_header
      [ Server.Report.result_row on; Server.Report.result_row off ];
    match csv with
    | None -> ()
    | Some prefix ->
        csv_of_slices (prefix ^ "-throttled.csv") on.Server.Experiment.slices;
        csv_of_slices (prefix ^ "-unthrottled.csv") off.Server.Experiment.slices;
        csv_of_memory (prefix ^ "-memory-throttled.csv") on.Server.Experiment.memory_series;
        csv_of_memory (prefix ^ "-memory-unthrottled.csv") off.Server.Experiment.memory_series
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Throttled vs unthrottled at one client count (Figures 3-5).")
    Term.(
      const action $ clients_arg 30 $ warmup_arg 600. $ measure_arg 1800.
      $ slice_arg 60. $ seed_arg $ csv_arg $ jobs_arg)

let sweep_cmd =
  let list_arg =
    Arg.(
      value
      & opt (list int) [ 10; 20; 30; 35; 40 ]
      & info [ "list" ] ~doc:"Client counts to sweep.")
  in
  let action counts throttle warmup measure slice seed jobs =
    List.iter check_clients counts;
    let rows =
      List.map Server.Report.result_row
        (Parallel.Pool.run ~jobs
           (fun clients -> run_one ~clients ~throttle ~warmup ~measure ~slice ~seed)
           counts)
    in
    Server.Report.table ~header:Server.Report.result_header rows
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Sweep client counts (peak-throughput claim).")
    Term.(
      const action $ list_arg $ throttle_arg $ warmup_arg 600.
      $ measure_arg 1800. $ slice_arg 60. $ seed_arg $ jobs_arg)

let sql_cmd =
  let count_arg =
    Arg.(value & opt int 2 & info [ "count"; "n" ] ~doc:"Number of instances to print.")
  in
  let action count workload seed =
    let templates =
      match workload with
      | `Sales -> Workload.Sales.templates ()
      | `Snowflake -> Workload.Snowflake.templates ()
      | `Tpch -> Workload.Tpch.templates ()
    in
    let rng = Sim.Rng.create seed in
    for i = 1 to count do
      let t = Workload.Template.pick rng templates in
      print_endline (Optimizer.Query.to_sql (Workload.Template.instance rng t ~id:i));
      print_newline ()
    done
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Print uniquified query instances as SQL text.")
    Term.(const action $ count_arg $ workload_arg $ seed_arg)

let chaos_cmd =
  let ballast_gib =
    Arg.(
      value
      & opt float 12.
      & info [ "ballast-gib" ]
          ~doc:"Ballast appetite, GiB (0 disables). May exceed physical \
                memory: the ramp then absorbs whatever other components \
                release, like a runaway external process.")
  in
  let ballast_at =
    Arg.(value & opt float 100. & info [ "ballast-at" ] ~doc:"Ballast spike start, seconds of sim time.")
  in
  let ballast_hold =
    Arg.(value & opt float 0. & info [ "ballast-hold" ] ~doc:"Seconds the ballast holds after its ramp.")
  in
  let ballast_steps =
    Arg.(value & opt int 240 & info [ "ballast-steps" ] ~doc:"Ballast ramp increments.")
  in
  let ballast_step_s =
    Arg.(value & opt float 2.5 & info [ "ballast-step-s" ] ~doc:"Seconds between ballast increments.")
  in
  let storm_arg =
    Arg.(value & flag & info [ "disk-storm" ] ~doc:"Also degrade the disk during the spike window.")
  in
  let burst_arg =
    Arg.(value & opt int 0 & info [ "burst" ] ~doc:"Extra burst clients during the spike window (0 = none).")
  in
  let glitch_arg =
    Arg.(
      value
      & opt float 0.
      & info [ "glitch" ]
          ~doc:"Transient allocation-failure probability during the spike window (0 = none).")
  in
  let action clients warmup measure slice seed ballast_gib ballast_at
      ballast_hold ballast_steps ballast_step_s storm burst glitch think
      workload jobs =
    check_clients clients;
    if burst < 0 then cli_error "chaos: burst < 0";
    if think < 0. then cli_error "chaos: think < 0";
    let catalog, templates =
      match workload with
      | `Sales -> (Workload.Sales.catalog (), Workload.Sales.templates ())
      | `Snowflake -> (Workload.Snowflake.catalog (), Workload.Snowflake.templates ())
      | `Tpch -> (Workload.Tpch.catalog (), Workload.Tpch.templates ())
    in
    let at = ballast_at and hold = ballast_hold in
    let ramp = float_of_int ballast_steps *. ballast_step_s in
    let window = ramp +. hold in
    let faults =
      (if ballast_gib > 0. then
         Faultsim.Fault.pressure_spike ~ramp_steps:ballast_steps
           ~step_s:ballast_step_s ~at ~bytes:(bytes_of_gib ballast_gib) ~hold ()
       else [])
      @ (if storm then
           [ Faultsim.Fault.Disk_storm
               { at; duration = window; throughput_factor = 0.5; extra_seek_s = 0.004 } ]
         else [])
      @ (if burst > 0 then
           [ Faultsim.Fault.Client_burst
               { at; duration = window; clients = burst; think_mean = 10. } ]
         else [])
      @
      if glitch > 0. then
        [ Faultsim.Fault.Alloc_glitch
            { at; duration = window; fail_prob = glitch; clerks = [ "compile" ] } ]
      else []
    in
    List.iter (checked Faultsim.Fault.validate) faults;
    let run resilient =
      let base =
        if resilient then Server.Config.resilient () else Server.Config.default ()
      in
      let cfg = { base with Server.Config.seed; faults } in
      (* The shared catalog/templates are read-only during runs, so the
         two runs may execute on different domains. *)
      Server.Experiment.run ~config:cfg ~catalog ~templates
        ~client_config:
          { Workload.Client.default_config with Workload.Client.think_mean = think }
        ~clients ~warmup ~measure ~slice ()
    in
    let on, off =
      match Parallel.Pool.run ~jobs run [ true; false ] with
      | [ on; off ] -> (on, off)
      | _ -> assert false
    in
    Printf.printf "Chaos schedule (%d clients, seed %d):\n" clients seed;
    List.iter (fun f -> Printf.printf "  %s\n" (Faultsim.Fault.label f)) faults;
    print_newline ();
    Format.printf "%a@.@." Server.Experiment.pp_summary on;
    Format.printf "%a@.@." Server.Experiment.pp_summary off;
    Server.Report.table ~header:Server.Report.result_header
      [ Server.Report.result_row on; Server.Report.result_row off ];
    Server.Report.resilience_section [ on; off ];
    print_newline ();
    Printf.printf "  resilient   %s\n" (Server.Report.sparkline (Array.map snd on.Server.Experiment.slices));
    Printf.printf "  unprotected %s\n" (Server.Report.sparkline (Array.map snd off.Server.Experiment.slices));
    let up = 100. *. Server.Experiment.uplift on off in
    Printf.printf
      "\n  completions uplift with resilience: %+.0f%% (%d vs %d); hard errors %d vs %d\n"
      up on.Server.Experiment.total_completed off.Server.Experiment.total_completed
      on.Server.Experiment.hard_errors off.Server.Experiment.hard_errors
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a fault schedule with resilience on vs off (graceful-degradation demo).")
    Term.(
      const action $ clients_arg 35 $ warmup_arg 60. $ measure_arg 1000.
      $ slice_arg 60. $ seed_arg $ ballast_gib $ ballast_at $ ballast_hold
      $ ballast_steps $ ballast_step_s $ storm_arg $ burst_arg $ glitch_arg
      $ think_arg ~doc:"Client mean think time, seconds." 100.
      $ workload_arg $ jobs_arg)

let trace_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt (enum [ ("server", `Server); ("figure2", `Figure2) ]) `Server
      & info [ "scenario" ]
          ~doc:
            "What to trace: $(b,server) (a short SALES run on the full \
             server) or $(b,figure2) (the paper's three-query throttling \
             example).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "trace"
      & info [ "out"; "o" ] ~docv:"PREFIX"
          ~doc:"Write PREFIX.json (Chrome trace-event) and PREFIX.jsonl.")
  in
  let action scenario out clients measure seed =
    let trace = Obs.Trace.create () in
    (match scenario with
    | `Figure2 ->
        let r = Server.Figure2.run ~trace () in
        if r.Server.Figure2.failures > 0 then
          Printf.printf "!! %d process failures\n" r.Server.Figure2.failures
    | `Server ->
        check_clients clients;
        let cfg = { (Server.Config.default ()) with Server.Config.seed } in
        ignore
          (Server.Experiment.run ~config:cfg ~trace ~clients ~warmup:0.
             ~measure ~slice:60. ()));
    let records = Obs.Trace.records trace in
    Printf.printf "captured %d trace events (%d dropped)\n"
      (Array.length records) (Obs.Trace.dropped trace);
    (* Per-category counts. *)
    let cats = Hashtbl.create 8 in
    Array.iter
      (fun (r : Obs.Trace.record) ->
        let c = Obs.Event.category r.Obs.Trace.event in
        Hashtbl.replace cats c
          (1 + Option.value ~default:0 (Hashtbl.find_opt cats c)))
      records;
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) cats []
    |> List.sort compare
    |> List.iter (fun (c, n) -> Printf.printf "  %-12s %d\n" c n);
    (* Gateway wait percentiles, from the trace. *)
    List.iter
      (fun (gate, h) ->
        Format.printf "gateway %-10s waits: %a@." gate Obs.Hist.pp_summary h)
      (Obs.Analyze.wait_histograms records);
    List.iter
      (fun (gate, peak) ->
        Printf.printf "gateway %-10s peak concurrent holders: %d\n" gate peak)
      (Obs.Analyze.max_holders records);
    let violations = Obs.Analyze.admission_violations records in
    Printf.printf "admission-order violations: %d\n" (List.length violations);
    let chrome = out ^ ".json" and jsonl = out ^ ".jsonl" in
    Obs.Export.chrome_to_file chrome records;
    Obs.Export.jsonl_to_file jsonl records;
    Printf.printf "wrote %s (load in chrome://tracing or https://ui.perfetto.dev) and %s\n"
      chrome jsonl
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a query-lifecycle trace and export it as Chrome \
          trace-event JSON + JSONL.")
    Term.(
      const action $ scenario_arg $ out_arg
      $ clients_arg ~doc:"Concurrent clients (server scenario only)." 12
      $ measure_arg ~doc:"Simulated seconds (server scenario only)." 240.
      $ seed_arg)

(* ------------------------------------------------------------------ *)
(* Scenario commands: health, tenants, shards, storm and cache all run
   a few configurations ("arms") per seed, print each seed's comparison,
   and can write a per-seed report and a Chrome trace of one cell. The
   flags and the fan-out for that live here once; each command is a
   spec of its arms, printer and report. *)

type fan = {
  seeds : int list;
  jobs : int;
  out : string option;  (** report FILE *)
  trace : string option;  (** Chrome trace PREFIX *)
}

(* A repeated seed in --seeds would make two runs race to the same
   per-seed report file, one silently overwriting the other; reject the
   list up front, before any simulation. *)
let check_duplicate_seeds seeds =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s then
        cli_error (Printf.sprintf "duplicate seed %d in --seeds" s);
      Hashtbl.add seen s ())
    seeds

(* --seed/--seeds, --jobs, --out and (when [traced] describes the traced
   cell and what its trace shows) --trace. [runs] and [report] fill in
   the help text. The seed list is checked as the flags are evaluated,
   so a duplicate is reported before any command-specific conflict. *)
let fan_term ~runs ~report ?traced () =
  let seeds =
    Arg.(
      value
      & opt (list int) []
      & info [ "seeds" ]
          ~doc:
            (Printf.sprintf
               "Run %s at each of these seeds (overrides --seed); the \
                independent runs fan out across --jobs domains."
               runs))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Also write %s to FILE (CI artifact). With several \
                $(b,--seeds), -seedN is inserted before the extension."
               report))
  in
  let trace =
    match traced with
    | None -> Term.const None
    | Some (cell, shows) ->
        Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"PREFIX"
              ~doc:
                (Printf.sprintf
                   "Additionally re-run %s with tracing and write \
                    PREFIX-seedN.json Chrome traces (%s)."
                   cell shows))
  in
  let make seed seeds jobs out trace =
    check_duplicate_seeds seeds;
    { seeds = (if seeds = [] then [ seed ] else seeds); jobs; out; trace }
  in
  Term.(const make $ seed_arg $ seeds $ jobs_arg $ out $ trace)

(* FILE as given for a single-seed run, FILE-seedN.ext otherwise. *)
let seed_out_path ~multi out seed =
  match out with
  | None -> None
  | Some path when not multi -> Some path
  | Some path -> (
      match Filename.extension path with
      | "" -> Some (Printf.sprintf "%s-seed%d" path seed)
      | ext ->
          Some
            (Printf.sprintf "%s-seed%d%s"
               (Filename.remove_extension path) seed ext))

(* Run [arms seed] for every seed and return all outcomes in seed order.
   Every cell (the traced ones included) passes [validate] before any
   simulation starts; an [Invalid_argument] from it is bad input and
   exits through [cli_error]. Errors from [run] propagate untouched.
   Cells fan out over --jobs domains; per seed, in order, [print] shows
   the seed's outcomes, [report] writes them to the --out file, and the
   cell [traced seed] is re-run with tracing into PREFIX-seedN.json. *)
let fan_out fan ~arms ?(validate = ignore)
    ~(run : ?trace:Obs.Trace.t -> 'c -> 'o) ~print ~report ?traced () =
  let traced =
    match (fan.trace, traced) with
    | Some prefix, Some pick -> Some (prefix, pick)
    | _ -> None
  in
  let cells =
    List.concat_map
      (fun seed -> List.map (fun c -> (seed, c)) (arms seed))
      fan.seeds
  in
  let picked =
    match traced with Some (_, pick) -> List.map pick fan.seeds | None -> []
  in
  List.iter (checked validate) (List.map snd cells @ picked);
  let outcomes =
    Parallel.Pool.run ~jobs:fan.jobs (fun (seed, c) -> (seed, run c)) cells
  in
  let multi = List.length fan.seeds > 1 in
  List.concat_map
    (fun seed ->
      (* Seeds are unique, so a seed's outcomes are those tagged with it. *)
      let mine =
        List.filter_map
          (fun (s, o) -> if s = seed then Some o else None)
          outcomes
      in
      print seed mine;
      Option.iter
        (fun path -> write_file path (fun oc -> report oc seed mine))
        (seed_out_path ~multi fan.out seed);
      Option.iter
        (fun (prefix, pick) ->
          let trace = Obs.Trace.create () in
          ignore (run ~trace (pick seed));
          let path = Printf.sprintf "%s-seed%d.json" prefix seed in
          Obs.Export.chrome_to_file path (Obs.Trace.records trace);
          Printf.printf "wrote %s\n" path)
        traced;
      mine)
    fan.seeds

let health_cmd =
  let drain_arg =
    Arg.(
      value & opt non_negative_float 900.
      & info [ "drain" ]
          ~doc:"Extra seconds after clients stop, so in-flight queries can \
                finish; anything still watched after the drain is stuck.")
  in
  let resilience_arg =
    Arg.(
      value & opt bool true
      & info [ "resilience" ]
          ~doc:"Keep the retry/degrade/shed ladder on underneath the \
                supervision layer (false = supervision alone).")
  in
  let glitch_arg =
    Arg.(
      value & opt float 0.15
      & info [ "glitch" ]
          ~doc:"Allocation-failure probability on the compile clerk during \
                the spike window (0 = ballast only).")
  in
  let action clients warmup measure drain resilience glitch fan =
    let config =
      if resilience then Server.Config.supervised ()
      else { (Server.Config.default ()) with Server.Config.supervision = true }
    in
    let faults = Server.Scenario.chaos_faults ~glitch () in
    let run ?trace seed =
      Server.Scenario.run_chaos ~config ~faults ~seed ~clients ~warmup
        ~measure ~drain ?trace ()
    in
    let print seed =
      List.iter (fun (o : Server.Scenario.outcome) ->
          Printf.printf "Chaos schedule (%d clients, seed %d, %s):\n" clients seed
            (if resilience then "supervision + resilience"
             else "supervision only");
          List.iter (fun f -> Printf.printf "  %s\n" (Faultsim.Fault.label f)) o.faults;
          print_newline ();
          Format.printf "%a@." Health.Report.pp o.report;
          let stuck = Health.Report.stuck o.report in
          Printf.printf "\n  stuck queries: %d%s\n" stuck
            (if stuck = 0 then "" else "  <-- SUPERVISION FAILURE"))
    in
    let report oc _ =
      List.iter (fun (o : Server.Scenario.outcome) ->
          Format.fprintf (Format.formatter_of_out_channel oc) "%a@."
            Health.Report.pp o.report)
    in
    let outcomes =
      fan_out fan ~arms:(fun seed -> [ seed ])
        ~validate:(fun _ -> Server.Experiment.check_clients clients)
        ~run ~print ~report ()
    in
    let stuck =
      List.fold_left
        (fun acc o -> acc + Health.Report.stuck o.Server.Scenario.report)
        0 outcomes
    in
    if List.length fan.seeds > 1 then
      Printf.printf "\n%d seeds run, %d stuck queries total\n"
        (List.length fan.seeds) stuck;
    if stuck > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run the canonical chaos schedule under the supervision layer and \
          print the health report with the error-budget table.")
    Term.(
      const action $ clients_arg 35
      $ warmup_arg ~doc:"Warm-up seconds (excluded from the report)." 60.
      $ measure_arg 1000. $ drain_arg $ resilience_arg $ glitch_arg
      $ fan_term ~runs:"the schedule" ~report:"the health report" ())

let tenants_cmd =
  let action warmup measure slice total_gib fan =
    let open Server.Tenants in
    let total_bytes = bytes_of_gib total_gib in
    (* Three configurations per seed — the victim alone at its pool size,
       the cast under the guaranteed arbiter, and the cast under
       demand-chasing arbitration with no guarantees — each an
       independent deterministic run, fanned over the domains. *)
    let run_cell ?trace (seed, kind) =
      match kind with
      | `Solo ->
          solo ?trace ~victim:"victim" ~total_bytes ~seed ~warmup ~measure
            ~slice ()
      | `Isolated ->
          run ?trace ~mode:Isolated ~total_bytes ~seed ~warmup ~measure ~slice ()
      | `Free ->
          run ?trace ~mode:Free_for_all ~total_bytes ~seed ~warmup ~measure
            ~slice ()
    in
    let retentions = function
      | [ o_solo; o_iso; o_free ] ->
          let victim o = find_tenant o "victim" in
          let r o = retention ~shared:(victim o) ~solo:(victim o_solo) in
          (r o_iso, r o_free)
      | _ -> assert false
    in
    let print seed outcomes =
      Printf.printf "\nNoisy neighbour, seed %d (machine %s):\n" seed
        (Dbmem.Units.bytes_to_string total_bytes);
      List.iter Server.Report.tenants_section outcomes;
      let r_iso, r_free = retentions outcomes in
      Printf.printf
        "\n  victim retention vs solo: isolated %.0f%%, free-for-all %.0f%%\n"
        (100. *. r_iso) (100. *. r_free)
    in
    let report oc seed outcomes =
      let pr fmt = Printf.fprintf oc fmt in
      pr "noisy-neighbour report, seed %d, machine %s\n" seed
        (Dbmem.Units.bytes_to_string total_bytes);
      List.iter
        (fun (o : outcome) ->
          pr "[%s]\n" (mode_name o.omode);
          pr
            "pool,workload,clients,compl_per_slice,total,budget_start,\
             budget_end,floor,pool_hit,cache_hit,errors,abandoned\n";
          List.iter
            (fun (r : tenant_result) ->
              pr "%s,%s,%d,%.2f,%d,%d,%d,%d,%.3f,%.3f,%d,%d\n" r.rname
                (workload_name r.rworkload)
                r.rclients r.mean_per_slice r.completed r.budget_start
                r.budget_end r.floor r.pool_hit_rate r.cache_hit_rate
                r.errors r.abandoned)
            o.tenants;
          if o.omode <> Static then
            pr "arbiter ticks=%d rebalances=%d moved=%d reclaimed=%d scarce=%b\n"
              o.arb_ticks o.arb_rebalances o.arb_moved o.arb_reclaimed
              o.arb_scarce)
        outcomes;
      let r_iso, r_free = retentions outcomes in
      pr "victim_retention isolated=%.3f free_for_all=%.3f\n" r_iso r_free
    in
    fan_out fan
      ~arms:(fun seed -> List.map (fun k -> (seed, k)) [ `Solo; `Isolated; `Free ])
      ~run:run_cell ~print ~report ()
    |> ignore
  in
  Cmd.v
    (Cmd.info "tenants"
       ~doc:
         "Multi-tenant noisy-neighbour experiment: victim solo vs shared \
          with arbiter isolation vs shared free-for-all.")
    Term.(
      const action $ warmup_arg 400. $ measure_arg 1200. $ slice_arg 60.
      $ gib_arg "total-gib" (Dbmem.Units.gib 4)
          ~doc:"Machine memory split across the tenant pools, GiB."
      $ fan_term ~runs:"the experiment" ~report:"a per-seed tenant report" ())

let shards_cmd =
  let d = Server.Shards.default_config in
  let hedge_arg =
    Arg.(
      value & flag
      & info [ "hedge" ]
          ~doc:"Hedge submissions whose home shard is browned out.")
  in
  let rolling_arg =
    Arg.(
      value & flag
      & info [ "rolling" ]
          ~doc:"Also run the staggered rolling-restart schedule.")
  in
  let action shards clients variants think warmup measure slice total_gib hedge
      rolling fan =
    let open Server.Shards in
    let total_bytes = bytes_of_gib total_gib in
    let cfg_of ~seed (schedule, gateways) =
      {
        c_shards = shards;
        c_clients = clients;
        c_variants = variants;
        c_think = think;
        c_warmup = warmup;
        c_measure = measure;
        c_slice = slice;
        c_total = total_bytes;
        c_gateways = gateways;
        c_hedge = hedge;
        c_seed = seed;
        c_schedule = schedule;
      }
    in
    (* Per seed: the healthy baseline, then crash-failover with gateways
       on and off — the off cell shows what the recompilation storm costs
       without compile throttling. *)
    let kinds =
      [ (No_fault, true); (Crash_failover, true); (Crash_failover, false) ]
      @ (if rolling then [ (Rolling_restart, true) ] else [])
      @ if hedge then [ (Brownout, true) ] else []
    in
    let print seed outcomes =
      let baseline = List.hd outcomes in
      Printf.printf "\nSharded failover, seed %d (machine %s, %d shards):\n"
        seed
        (Dbmem.Units.bytes_to_string total_bytes)
        shards;
      List.iter
        (fun o ->
          if o.o_config.c_schedule = No_fault then Server.Report.shards_section o
          else Server.Report.shards_section ~baseline o)
        outcomes;
      let find schedule gateways =
        List.find_opt
          (fun o ->
            o.o_config.c_schedule = schedule && o.o_config.c_gateways = gateways)
          outcomes
      in
      let ret o = 100. *. retention ~fault:o ~no_fault:baseline in
      match (find Crash_failover true, find Crash_failover false) with
      | Some on, Some off ->
          Printf.printf
            "\n  crash-failover retention vs no-fault: gateways on %.0f%%, \
             off %.0f%%\n"
            (ret on) (ret off)
      | _ -> ()
    in
    let report oc seed outcomes =
      let baseline = List.hd outcomes in
      let pr fmt = Printf.fprintf oc fmt in
      pr "sharded-failover report, seed %d, machine %s, %d shards\n" seed
        (Dbmem.Units.bytes_to_string total_bytes)
        shards;
      List.iter
        (fun o ->
          pr "[%s gateways=%b hedge=%b]\n"
            (schedule_name o.o_config.c_schedule)
            o.o_config.c_gateways o.o_config.c_hedge;
          pr
            "shard,state,crashes,accepted,finished,lost,refused,\
             recompiles,cache_hit,budget_end\n";
          List.iter
            (fun (r : shard_result) ->
              pr "%s,%s,%d,%d,%d,%d,%d,%d,%.3f,%d\n" r.sh_name
                r.sh_final_state r.sh_crashes r.sh_accepted r.sh_finished
                r.sh_lost r.sh_refused r.sh_recompiles r.sh_cache_hit_rate
                r.sh_budget_end)
            o.shard_results;
          pr
            "router submitted=%d ok=%d failed=%d rejected=%d spills=%d \
             hedges=%d hedge_wins=%d retries=%d p50_ms=%.1f p99_ms=%.1f\n"
            o.submitted o.ok o.failed o.rejected o.spills o.hedges
            o.hedge_wins o.retries o.p50_ms o.p99_ms;
          pr
            "arbiter ticks=%d rebalances=%d moved=%d reclaimed=%d \
             max_budget_sum=%d\n"
            o.arb_ticks o.arb_rebalances o.arb_moved o.arb_reclaimed
            o.max_budget_sum;
          if o.o_config.c_schedule <> No_fault then
            pr "retention=%.3f\n" (retention ~fault:o ~no_fault:baseline))
        outcomes
    in
    fan_out fan
      ~arms:(fun seed -> List.map (cfg_of ~seed) kinds)
      ~validate ~run ~print ~report
      ~traced:(fun seed -> cfg_of ~seed (Crash_failover, true))
      ()
    |> ignore
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:
         "Sharded scale-out experiment: health-aware routing over N failure \
          domains, crash-failover with cold-cache recompilation storms, \
          with and without compile gateways.")
    Term.(
      const action $ shards_arg d.c_shards
      $ clients_arg ~doc:"Concurrent clients across the router." d.c_clients
      $ variants_arg d.c_variants $ think_arg d.c_think
      $ warmup_arg d.c_warmup $ measure_arg d.c_measure $ slice_arg d.c_slice
      $ gib_arg "total-gib" d.c_total
          ~doc:"Machine memory split across the shards, GiB."
      $ hedge_arg $ rolling_arg
      $ fan_term ~runs:"every cell" ~report:"a per-seed shard report"
          ~traced:
            ( "the crash-failover gateways-on cell",
              "per-shard lifecycle + budget counters, gateway waits" )
          ())

let storm_cmd =
  let d = Server.Storms.default_config in
  let defenses_arg =
    Arg.(
      value
      & opt (enum [ ("on", `On); ("off", `Off); ("both", `Both) ]) `Both
      & info [ "defenses" ]
          ~doc:
            "Defense stack: $(b,on), $(b,off), or $(b,both) (the A/B \
             comparison). Tuning flags require the defended arm.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("crash", `Crash); ("invalidation", `Invalidation); ("both", `Both) ])
          `Invalidation
      & info [ "schedule" ]
          ~doc:
            "Storm trigger: $(b,crash) (shard 1 rejoins cold), \
             $(b,invalidation) (every plan cache flushed in place), or \
             $(b,both).")
  in
  let tuning kind name doc =
    Arg.(
      value
      & opt (some kind) None
      & info [ name ] ~doc:(doc ^ " Conflicts with $(b,--defenses off)."))
  in
  let sf_wait_arg =
    tuning Arg.float "sf-wait"
      "Singleflight follower wait, seconds, before compiling solo."
  in
  let budget_tokens_arg =
    tuning Arg.float "budget-tokens" "Initial retry-budget tokens per client."
  in
  let lifo_after_arg =
    tuning Arg.float "lifo-after"
      "Seconds of sustained gateway standing before the FIFO->LIFO flip."
  in
  let warm_prime_arg =
    tuning Arg.int "warm-prime" "Hottest templates warm-primed on shard rejoin."
  in
  let action shards clients variants think warmup measure slice total_gib
      defenses schedule sf_wait budget_tokens lifo_after warm_prime fan =
    let open Server.Storms in
    (* Structured conflicts, caught before any simulation runs: every
       tuning flag parameterizes a defense, so with the defended arm
       excluded there is nothing for it to tune. *)
    (if defenses = `Off then
       let conflict name = function
         | Some _ ->
             cli_error
               (Printf.sprintf
                  "--%s conflicts with --defenses off (it tunes a defense \
                   that arm never runs)"
                  name)
         | None -> ()
       in
       conflict "sf-wait" sf_wait;
       conflict "budget-tokens" budget_tokens;
       conflict "lifo-after" lifo_after;
       conflict "warm-prime" (Option.map float_of_int warm_prime));
    let total_bytes = bytes_of_gib total_gib in
    let cfg_of ~seed (schedule, defenses) =
      {
        s_shards = shards;
        s_clients = clients;
        s_variants = variants;
        s_think = think;
        s_warmup = warmup;
        s_measure = measure;
        s_slice = slice;
        s_total = total_bytes;
        s_defenses = defenses;
        s_sf_wait = (if defenses then sf_wait else None);
        s_budget_tokens = (if defenses then budget_tokens else None);
        s_lifo_after = (if defenses then lifo_after else None);
        s_warm_prime = (if defenses then warm_prime else None);
        s_seed = seed;
        s_schedule = schedule;
      }
    in
    let schedules =
      match schedule with
      | `Crash -> [ Cold_crash ]
      | `Invalidation -> [ Mass_invalidation ]
      | `Both -> [ Cold_crash; Mass_invalidation ]
    in
    let arms =
      match defenses with
      | `On -> [ true ]
      | `Off -> [ false ]
      | `Both -> [ true; false ]
    in
    let kinds =
      List.concat_map (fun sch -> List.map (fun d -> (sch, d)) arms) schedules
    in
    (* The defended/undefended pair of each schedule, when both ran. *)
    let pairs outcomes =
      List.filter_map
        (fun sch ->
          let find d =
            List.find_opt
              (fun o -> o.o_config.s_schedule = sch && o.o_config.s_defenses = d)
              outcomes
          in
          match (find true, find false) with
          | Some defended, Some undefended -> Some (sch, defended, undefended)
          | _ -> None)
        schedules
    in
    let print seed outcomes =
      Printf.printf
        "\nCold-cache storm, seed %d (machine %s, %d shards, %d clients):\n"
        seed
        (Dbmem.Units.bytes_to_string total_bytes)
        shards clients;
      List.iter Server.Report.storms_section outcomes;
      List.iter
        (fun (sch, defended, undefended) ->
          Printf.printf "\n  [%s]" (schedule_name sch);
          Server.Report.storms_verdict ~defended ~undefended)
        (pairs outcomes)
    in
    let report oc seed outcomes =
      let pr fmt = Printf.fprintf oc fmt in
      pr "storm report, seed %d, machine %s, %d shards, %d clients\n" seed
        (Dbmem.Units.bytes_to_string total_bytes)
        shards clients;
      pr
        "schedule,defenses,pre_rate,post_rate,recovery_s,recovered,\
         retry_amp,dup_compiles,coalesced,storms,primed,lifo_shifts,\
         deadline_sheds,budget_denials,submitted,ok,failed,rejected,\
         retries,p50_ms,p99_ms,abandoned\n";
      List.iter
        (fun o ->
          pr
            "%s,%b,%.2f,%.2f,%s,%b,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,\
             %d,%d,%.1f,%.1f,%d\n"
            (schedule_name o.o_config.s_schedule)
            o.o_config.s_defenses o.pre_rate o.post_rate
            (if o.recovered then Printf.sprintf "%.1f" o.recovery_s else "inf")
            o.recovered o.retry_amp o.dup_compiles o.coalesced
            o.storms_detected o.primed o.lifo_shifts o.deadline_sheds
            o.budget_denials o.submitted o.ok o.failed o.rejected
            o.retries o.p50_ms o.p99_ms o.cl_abandoned)
        outcomes;
      List.iter
        (fun (sch, defended, undefended) ->
          pr "%s defense_win=%b\n" (schedule_name sch)
            (faster_recovery ~defended ~undefended))
        (pairs outcomes)
    in
    fan_out fan
      ~arms:(fun seed -> List.map (cfg_of ~seed) kinds)
      ~validate ~run ~print ~report
      ~traced:(fun seed -> cfg_of ~seed (List.hd schedules, true))
      ()
    |> ignore
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "Metastable-failure experiment: cold-cache storms (crash-failover \
          or mass invalidation) with the defense stack — singleflight, \
          retry budgets, adaptive queues, warm-priming — on vs off.")
    Term.(
      const action $ shards_arg d.s_shards
      $ clients_arg ~doc:"Concurrent clients across the router." d.s_clients
      $ variants_arg d.s_variants $ think_arg d.s_think
      $ warmup_arg d.s_warmup $ measure_arg d.s_measure $ slice_arg d.s_slice
      $ gib_arg "total-gib" d.s_total
          ~doc:"Machine memory split across the shards, GiB."
      $ defenses_arg $ schedule_arg $ sf_wait_arg $ budget_tokens_arg
      $ lifo_after_arg $ warm_prime_arg
      $ fan_term ~runs:"every cell" ~report:"a per-seed storm report"
          ~traced:
            ( "the defended first-schedule cell",
              "storm begin/end instants, singleflight coalesces, \
               queue-discipline shifts, gateway waits" )
          ())

let cache_cmd =
  let d = Server.Cached.default_config in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("all", `All); ("off", `Off); ("fixed", `Fixed); ("brokered", `Brokered) ]) `All
      & info [ "mode" ]
          ~doc:
            "Cache mode to run: $(b,off), $(b,fixed), $(b,brokered), or \
             $(b,all) (the three-way comparison).")
  in
  let ratio_arg =
    Arg.(
      value & opt float d.k_ratio
      & info [ "param-ratio" ]
          ~doc:
            "Fraction of traffic replaying parameterized (cacheable) \
             statements; the rest is uniquified ad-hoc.")
  in
  let writers_arg =
    Arg.(
      value & opt int d.k_writers
      & info [ "writers" ]
          ~doc:"Writer sessions invalidating cached results by relation.")
  in
  let cache_mib_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-mib" ]
          ~doc:
            (Printf.sprintf
               "Cache byte budget, MiB (fixed mode) / broker cap (brokered \
                mode). Default %.0f. Conflicts with $(b,--mode off)."
               (Dbmem.Units.to_mib d.k_cache_bytes)))
  in
  let ttl_arg =
    Arg.(
      value & opt float d.k_ttl
      & info [ "ttl" ] ~doc:"Cached-entry lifetime, seconds (0 = no expiry).")
  in
  let ballast_gib_arg =
    Arg.(
      value & opt float d.k_ballast_gib
      & info [ "ballast-gib" ]
          ~doc:
            "Inject a memory ballast mid-window (GiB): the pressure under \
             which a brokered cache shrinks and a fixed one squeezes the \
             engine.")
  in
  let flash_arg =
    Arg.(
      value & opt int 0
      & info [ "flash" ]
          ~doc:
            "Flash crowd: this many extra clients appear halfway through \
             the measure window for a fifth of it (0 = none).")
  in
  let peak_load_arg =
    Arg.(
      value & opt float 1.
      & info [ "peak-load" ]
          ~doc:
            "Diurnal curve: load swings sinusoidally up to this multiple \
             of the baseline over one measure-length cycle (1 = flat).")
  in
  let action mode clients think ratio variants writers warmup measure slice
      memory_gib cache_mib ttl ballast_gib flash peak_load fan =
    let open Server.Cached in
    (* Structured conflicts, caught before any simulation runs. The
       diurnal and flash-crowd flags are checked here because the
       configs below only carry them when they are active. *)
    (match (mode, cache_mib) with
    | `Off, Some _ ->
        cli_error "--cache-mib conflicts with --mode off (cache-off runs no cache)"
    | _ -> ());
    if peak_load < 1. then cli_error "--peak-load below 1";
    if flash < 0 then cli_error "--flash below 0";
    let modes =
      match mode with
      | `All -> [ Cache_off; Cache_fixed; Cache_brokered ]
      | `Off -> [ Cache_off ]
      | `Fixed -> [ Cache_fixed ]
      | `Brokered -> [ Cache_brokered ]
    in
    let cfg_of ~seed mode =
      {
        d with
        k_mode = mode;
        k_clients = clients;
        k_think = think;
        k_ratio = ratio;
        k_variants = variants;
        k_writers = writers;
        k_warmup = warmup;
        k_measure = measure;
        k_slice = slice;
        k_memory = bytes_of_gib memory_gib;
        k_cache_bytes =
          Option.fold ~none:d.k_cache_bytes ~some:Dbmem.Units.mib cache_mib;
        k_ttl = ttl;
        k_ballast_gib = ballast_gib;
        k_diurnal =
          (if peak_load > 1. then
             Some { Workload.Mix.period = measure; peak_load }
           else None);
        k_flash =
          (if flash > 0 then
             [
               {
                 Workload.Mix.at = warmup +. (0.5 *. measure);
                 duration = 0.2 *. measure;
                 clients = flash;
                 think = think /. 4.;
               };
             ]
           else []);
        k_seed = seed;
      }
    in
    let find mode outcomes =
      List.find_opt (fun o -> o.o_config.k_mode = mode) outcomes
    in
    let print seed outcomes =
      let baseline = find Cache_off outcomes in
      Printf.printf
        "\nMid-tier cache, seed %d (machine %.0f GiB, %.0f%% parameterized):\n"
        seed memory_gib (100. *. ratio);
      List.iter
        (fun o ->
          match baseline with
          | Some b when o.o_config.k_mode <> Cache_off ->
              Server.Report.cached_section ~baseline:b o
          | _ -> Server.Report.cached_section o)
        outcomes;
      if List.length outcomes > 1 then Server.Report.cached_comparison outcomes
    in
    let report oc seed outcomes =
      let pr fmt = Printf.fprintf oc fmt in
      pr "mid-tier cache report, seed %d, machine %.0f GiB\n" seed memory_gib;
      pr
        "mode,compl_per_slice,completed,requests,hits,misses,bypasses,\
         hit_rate,stores,refused,evictions,expired,invalidated,\
         shrink_events,shrink_freed,resident_end,resident_peak,\
         budget_end,gw_acquires,gw_timeouts,gw_wait_mean_s,compiles,\
         plan_hits,compile_peak_max,ooms,p50_ms,p99_ms,abandoned\n";
      List.iter
        (fun o ->
          pr
            "%s,%.2f,%d,%d,%d,%d,%d,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,\
             %d,%d,%d,%.3f,%d,%d,%.0f,%d,%.1f,%.1f,%d\n"
            (mode_name o.o_config.k_mode)
            o.mean_per_slice o.completed o.requests o.hits o.misses
            o.bypasses o.cache_hit_rate o.stores o.refused o.evictions
            o.expired o.invalidated o.shrink_events o.shrink_freed
            o.resident_end o.resident_peak o.budget_end o.gw_acquires
            o.gw_timeouts o.gw_wait_mean_s o.compiles o.plan_hits
            o.compile_peak_max o.ooms o.p50_ms o.p99_ms o.cl_abandoned)
        outcomes;
      match (find Cache_off outcomes, find Cache_brokered outcomes) with
      | Some off, Some brokered ->
          pr "brokered_uplift=%.3f gw_drop=%d\n"
            (uplift brokered ~over:off)
            (off.gw_acquires - brokered.gw_acquires)
      | _ -> ()
    in
    fan_out fan
      ~arms:(fun seed -> List.map (cfg_of ~seed) modes)
      ~validate ~run ~print ~report
      ~traced:(fun seed -> cfg_of ~seed Cache_brokered)
      ()
    |> ignore
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Mid-tier statement/result cache under mixed parameterized/ad-hoc \
          traffic: cache-off vs fixed vs broker-governed, with optional \
          memory ballast, diurnal curve and flash crowds.")
    Term.(
      const action $ mode_arg $ clients_arg d.k_clients $ think_arg d.k_think
      $ ratio_arg
      $ variants_arg ~doc:"Distinct parameterized statements." d.k_variants
      $ writers_arg $ warmup_arg d.k_warmup $ measure_arg d.k_measure
      $ slice_arg d.k_slice
      $ gib_arg "memory-gib" d.k_memory ~doc:"Machine memory, GiB."
      $ cache_mib_arg $ ttl_arg $ ballast_gib_arg $ flash_arg $ peak_load_arg
      $ fan_term ~runs:"every cell" ~report:"a per-seed cache report"
          ~traced:
            ( "the brokered cell",
              "cache residency/hit-rate counters, \
               lookup/store/invalidate/shrink instants, gateway waits" )
          ())

let info_cmd =
  let action () =
    let cfg = Server.Config.default () in
    Format.printf "%a@.@." Server.Config.pp cfg;
    Format.printf "%a@." Optimizer.Catalog.pp (Workload.Sales.catalog ())
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the server configuration and SALES catalog.")
    Term.(const action $ const ())

(* Condense cmdliner's multi-line complaint (message + usage dump + help
   hint) into one structured stderr line, so scripts and CI logs get a
   single greppable "dbsim: error: ..." instead of a wrapped paragraph. *)
let one_line_error raw =
  let lines = String.split_on_char '\n' raw in
  let is_noise l =
    let l = String.trim l in
    String.length l = 0
    || (String.length l >= 6 && String.sub l 0 6 = "Usage:")
    || (String.length l >= 4 && String.sub l 0 4 = "Try ")
  in
  let msg =
    List.filter (fun l -> not (is_noise l)) lines
    |> List.map String.trim |> String.concat " "
  in
  let msg =
    let p = "dbsim: " in
    if
      String.length msg >= String.length p
      && String.sub msg 0 (String.length p) = p
    then String.sub msg (String.length p) (String.length msg - String.length p)
    else msg
  in
  error_line msg

let () =
  setup_logs (Some Logs.Warning);
  let doc = "Simulated DBMS reproducing CIDR'07 query-compilation throttling" in
  let group =
    Cmd.group (Cmd.info "dbsim" ~doc)
      [ run_cmd; compare_cmd; sweep_cmd; chaos_cmd; health_cmd; tenants_cmd;
        shards_cmd; cache_cmd; storm_cmd; trace_cmd; info_cmd; verbose_cmd;
        sql_cmd ]
  in
  let errbuf = Buffer.create 256 in
  let err = Format.formatter_of_buffer errbuf in
  let code = Cmd.eval ~err group in
  Format.pp_print_flush err ();
  if Buffer.length errbuf > 0 then
    if code = Cmd.Exit.cli_error then
      prerr_endline (one_line_error (Buffer.contents errbuf))
    else prerr_string (Buffer.contents errbuf);
  exit code
