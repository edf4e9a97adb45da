(* Per-layer numbers from a traced run: simulated-time figures re-derived
   from the [Obs.Trace] record stream, and the optimizer's host cost
   measured by replaying every traced compile outside the simulation. *)

let mb bytes = bytes /. 1048576.

(* Exact quantile of an unsorted sample; [0.] when empty. *)
let quantile xs q = if Array.length xs = 0 then 0. else Sim.Stats.percentile xs q

let mean xs =
  if Array.length xs = 0 then 0. else Sim.Stats.mean xs

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Simulated-time layer metrics. Spans are paired per query id: a
   begin record opens an interval that the matching end record closes. *)

let of_trace (records : Obs.Trace.record array) =
  let compile_begin = Hashtbl.create 1024 in
  let exec_begin = Hashtbl.create 1024 in
  let grant_wait = Hashtbl.create 1024 in
  let compile_s = Obs.Vec.create () and peaks = Obs.Vec.create () in
  let exec_s = Obs.Vec.create () and grant_s = Obs.Vec.create () in
  let compiles = ref 0 and cache_hits = ref 0 and coalesced = ref 0 in
  let broker_ticks = ref 0 and pressure_ticks = ref 0 and shrinks = ref 0 in
  let arbiter_ticks = ref 0 and arbiter_freed = ref 0 in
  let ooms = ref 0 and reclaim_freed = ref 0 in
  let grant_timeouts = ref 0 and spills = ref 0 in
  let execs = ref 0 and pages = ref 0 in
  (* Parameterized workloads run one statement id in several sessions
     at once; their spans pair first-in, first-out. *)
  let open_ tbl qid t =
    match Hashtbl.find_opt tbl qid with
    | Some q -> Queue.push t q
    | None ->
        let q = Queue.create () in
        Queue.push t q;
        Hashtbl.add tbl qid q
  in
  let close tbl qid t vec =
    match Hashtbl.find_opt tbl qid with
    | Some q when not (Queue.is_empty q) -> Obs.Vec.push vec (t -. Queue.pop q)
    | _ -> ()
  in
  let waiting tbl qid =
    match Hashtbl.find_opt tbl qid with
    | Some q -> not (Queue.is_empty q)
    | None -> false
  in
  Array.iter
    (fun (r : Obs.Trace.record) ->
      let t = r.time and qid = r.qid in
      match r.event with
      | Obs.Event.Compile_begin -> open_ compile_begin qid t
      | Compile_end { peak } ->
          incr compiles;
          Obs.Vec.push peaks (float_of_int peak);
          close compile_begin qid t compile_s
      | Cache_hit -> incr cache_hits
      | Singleflight_coalesce _ -> incr coalesced
      | Broker_tick { pressure; components; _ } ->
          incr broker_ticks;
          if pressure then incr pressure_ticks;
          List.iter
            (fun (c : Obs.Event.component_sample) ->
              if c.verdict = Obs.Event.Shrink then incr shrinks)
            components
      | Arbiter_tick _ -> incr arbiter_ticks
      | Arbiter_reclaim { freed; _ } -> arbiter_freed := !arbiter_freed + freed
      | Oom _ -> incr ooms
      | Reclaim { freed; _ } -> reclaim_freed := !reclaim_freed + freed
      | Grant { phase = Wait; _ } -> open_ grant_wait qid t
      | Grant { phase = Acquired; _ } ->
          (* A grant that cleared at once records no wait. *)
          if waiting grant_wait qid then close grant_wait qid t grant_s
          else Obs.Vec.push grant_s 0.
      | Grant { phase = Timeout; _ } ->
          incr grant_timeouts;
          close grant_wait qid t grant_s
      | Exec_begin -> open_ exec_begin qid t
      | Exec_end { spilled; pages = p; _ } ->
          incr execs;
          pages := !pages + p;
          if spilled then incr spills;
          close exec_begin qid t exec_s
      | _ -> ())
    records;
  let gw_acquires = ref 0 and gw_timeouts = ref 0 in
  let gw_wait = Obs.Vec.create () in
  List.iter
    (fun (w : Obs.Analyze.wait) ->
      match w.outcome with
      | `Acquired ->
          incr gw_acquires;
          Obs.Vec.push gw_wait (w.finish -. w.start)
      | `Timeout ->
          incr gw_timeouts;
          Obs.Vec.push gw_wait (w.finish -. w.start)
      | `Open -> ())
    (Obs.Analyze.gateway_waits records);
  let a = Obs.Vec.to_array in
  let peaks = a peaks and gw_wait = a gw_wait and grant_s = a grant_s in
  [
    ("optimizer.compiles", float_of_int !compiles);
    ("optimizer.metered_mb_p50", mb (quantile peaks 0.5));
    ("optimizer.metered_mb_max", mb (Array.fold_left Float.max 0. peaks));
    ("optimizer.sim_compile_s_p50", quantile (a compile_s) 0.5);
    ("gateway.acquires", float_of_int !gw_acquires);
    ("gateway.timeouts", float_of_int !gw_timeouts);
    ("gateway.wait_s_p50", quantile gw_wait 0.5);
    ("gateway.wait_s_p99", quantile gw_wait 0.99);
    ("broker.ticks", float_of_int !broker_ticks);
    ("broker.pressure_ticks", float_of_int !pressure_ticks);
    ("broker.shrink_verdicts", float_of_int !shrinks);
    ("arbiter.ticks", float_of_int !arbiter_ticks);
    ("arbiter.reclaimed_mb", mb (float_of_int !arbiter_freed));
    ("dbmem.oom_events", float_of_int !ooms);
    ("dbmem.reclaim_freed_mb", mb (float_of_int !reclaim_freed));
    ("grant.wait_s_p50", quantile grant_s 0.5);
    ("grant.wait_s_p99", quantile grant_s 0.99);
    ("grant.timeouts", float_of_int !grant_timeouts);
    ("exec.sim_s_p50", quantile (a exec_s) 0.5);
    ("exec.spills", float_of_int !spills);
    ("exec.pages_per_query", ratio !pages !execs);
    ("plancache.hit_rate", ratio !cache_hits (!cache_hits + !compiles));
    ("singleflight.coalesced", float_of_int !coalesced);
  ]

(* ------------------------------------------------------------------ *)
(* Gateway invariants from the trace. The holder count is a sum of
   Acquired/Release deltas per gate name, so it holds however queries are
   named; where [servers] engines share gate names (the storm's shards,
   between which the router may spill a query) it is held to [servers]
   times the slots. The admission-order check pairs each Wait with its
   Acquired by query id, which needs one id per session: parameterized
   workloads replay one statement under one id from many clients at
   once, so it is made only where every instance is unique. *)

let gateway_violations ~servers ~admission records ~slots =
  let holders =
    Obs.Analyze.holder_violations records ~slots:(fun g -> servers * slots g)
  in
  ( List.length holders,
    if admission then List.length (Obs.Analyze.admission_violations records)
    else 0 )

(* ------------------------------------------------------------------ *)
(* Optimizer replay. Each traced compile is re-run through
   [Cascades.optimize] with the server's parameters and cost model. The
   replay env meters bytes and calls the search off once it reaches the
   peak the compile reached in the simulation; an allocation that would
   pass that peak aborts, as the gateway or memory refusal did in situ.
   The replay matches when its metered bytes equal the traced peak. *)

type replay = {
  r_count : int;
  r_matched : int;
  r_ms : float array;  (** host CPU time per replayed compile *)
  r_alloc_bytes : float;  (** host allocation over all replays *)
  r_tasks : float array;  (** search tasks of the replays that finished *)
}

let replay ~(cfg : Server.Config.t) ~catalog ~queries ~timed records =
  let arena = Optimizer.Cascades.create_arena () in
  let ms = Obs.Vec.create () and tasks = Obs.Vec.create () in
  let matched = ref 0 and count = ref 0 and alloc = ref 0. in
  Array.iter
    (fun (r : Obs.Trace.record) ->
      match r.event with
      | Obs.Event.Compile_end { peak } ->
          incr count;
          let q =
            match Hashtbl.find_opt queries r.qid with
            | Some q -> q
            | None -> failwith ("replay: compile of unknown query " ^ r.qid)
          in
          let metered = ref 0 in
          let env =
            {
              Optimizer.Env.alloc =
                (fun n ->
                  if !metered + n > peak then
                    raise (Optimizer.Env.Aborted Optimizer.Env.Cancelled);
                  metered := !metered + n);
              cpu = (fun _ -> ());
              should_stop = (fun () -> !metered >= peak);
            }
          in
          let a0 = Gc.allocated_bytes () in
          let result, cpu_s =
            timed "optimizer.replay" (fun () ->
                Optimizer.Cascades.optimize
                  ~params:cfg.Server.Config.optimizer_params ~arena ~env
                  cfg.Server.Config.cost_model catalog q)
          in
          alloc := !alloc +. (Gc.allocated_bytes () -. a0);
          Obs.Vec.push ms (cpu_s *. 1000.);
          if !metered = peak then incr matched;
          (match result with
          | Ok res ->
              Obs.Vec.push tasks
                (float_of_int res.Optimizer.Cascades.stats.Optimizer.Cascades.tasks)
          | Error _ -> ())
      | _ -> ())
    records;
  {
    r_count = !count;
    r_matched = !matched;
    r_ms = Obs.Vec.to_array ms;
    r_alloc_bytes = !alloc;
    r_tasks = Obs.Vec.to_array tasks;
  }
