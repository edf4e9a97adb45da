(* Machine constants of the simulated server, the same in every
   configuration. *)
let disk_seek_s = 0.008

(* Fraction of memory the execution-grant semaphore manages. *)
let workspace_frac = 0.45

let grant_max_query_frac = 0.08
let grant_timeout = 600.

(* Memory sampling period of the metrics watcher, seconds. *)
let metrics_interval = 5.0

(* Broker insistence under supervision: a component that ignores this
   many consecutive shrink verdicts is shrunk by force. *)
let supervised_insist_after = 5

(* The supervision trio, created only when [Config.supervision] is
   on. None of its mechanisms consume randomness, so a supervised
   run that never intervenes is event-for-event identical to the
   unsupervised one. *)
type supervisor = {
  wdog : Health.Watchdog.t;
  starv : Health.Starvation.t;
  breakers : Health.Breaker.t;
}

type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  cfg : Config.t;
  cat : Optimizer.Catalog.t;
  manager : Dbmem.Manager.t;
  broker : Qcore.Broker.t;
  gov : Qcore.Compile_gov.t;
  pool : Bufpool.Pool.t;
  disk : Bufpool.Disk.t;
  cache : Plancache.Cache.t;
  grants : Execsim.Grant.t;
  cpu : Execsim.Cpu.t;
  metrics : Metrics.t;
  exec_resources : Execsim.Runner.resources;
  clerk_list : (string * Dbmem.Manager.clerk) list;
  ballast : Dbmem.Manager.clerk option;
      (* phantom external consumer, present only when faults are scheduled *)
  retry_rng : Sim.Rng.t option;
      (* jitter stream, split only when resilience is on so the disabled
         configuration replays the seed byte for byte *)
  super : supervisor option;
  sflight : Plancache.Singleflight.t;
      (* always present: Observe mode costs nothing and blocks nobody, it
         only counts the duplicate compiles coalescing would have saved,
         so a defenses-off run can report its duplication factor *)
  storm : Health.Storm.t;
  prime_reps : (string, Optimizer.Query.t) Hashtbl.t;
      (* one representative query per template, for warm-priming *)
  template_counts : (string, int) Hashtbl.t;
      (* submissions per template: the popularity order priming follows *)
  mutable primed : int;
  mutable arenas : Optimizer.Cascades.arena list;
      (* free pool of memo arenas, one per concurrent compile: compiles
         suspend at governor gateways, so in-flight searches cannot share
         storage. Steady state settles at the compile-concurrency
         high-water mark and every compile reuses grown memo structures *)
}

let acquire_arena t =
  match t.arenas with
  | a :: rest ->
      t.arenas <- rest;
      a
  | [] -> Optimizer.Cascades.create_arena ()

let release_arena t a =
  (* Eager reset so a parked arena does not keep the memo hashtable
     entries of the query it just compiled alive. *)
  Optimizer.Cascades.reset_arena a;
  t.arenas <- a :: t.arenas

(* Queries are named "<template>#<serial>"; the breaker keys on the
   template so a poison shape trips without condemning its siblings. *)
let template_of_qid qid =
  match String.index_opt qid '#' with
  | Some i -> String.sub qid 0 i
  | None -> qid

let create ?(trace = Obs.Trace.null) eng cfg cat =
  let manager = Dbmem.Manager.create ~total:cfg.Config.memory_bytes () in
  if Obs.Trace.enabled trace then
    Dbmem.Manager.set_trace manager ~now:(fun () -> Sim.Engine.now eng) trace;
  let pool_clerk = Dbmem.Manager.create_clerk manager "bufpool" in
  let cache_clerk = Dbmem.Manager.create_clerk manager "plancache" in
  let compile_clerk = Dbmem.Manager.create_clerk manager "compile" in
  let exec_clerk = Dbmem.Manager.create_clerk manager "execution" in
  let disk =
    Bufpool.Disk.create eng ~spindles:cfg.Config.disk_spindles
      ~seek_s:disk_seek_s
      ~throughput_bytes_per_s:cfg.Config.disk_throughput
  in
  let pool =
    Bufpool.Pool.create eng manager ~clerk:pool_clerk ~disk
      ~page_bytes:Config.page_bytes ~policy:cfg.Config.pool_policy
  in
  let cache = Plancache.Cache.create manager ~clerk:cache_clerk in
  let workspace =
    int_of_float (workspace_frac *. float_of_int cfg.Config.memory_bytes)
  in
  let grants =
    Execsim.Grant.create eng manager ~trace ~clerk:exec_clerk ~total:workspace
      ~max_query_frac:grant_max_query_frac ~timeout:grant_timeout ()
  in
  let cpu = Execsim.Cpu.create eng ~cores:cfg.Config.cpus () in
  let gov =
    Qcore.Compile_gov.create eng manager ~trace ~clerk:compile_clerk
      ~cpus:cfg.Config.cpus ~config:cfg.Config.throttle
      ~enabled:cfg.Config.throttle_enabled ()
  in
  (* Caches donate under manager pressure: plan cache first, pool second.
     The configured floor shields a small warm set from the donor walk —
     with the default floor of 0 the cache donates everything, exactly the
     original behaviour. *)
  let cache_floor = cfg.Config.plan_cache_floor_bytes in
  Dbmem.Manager.register_donor manager ~clerk:cache_clerk ~priority:0
    ~shrink:(fun n ->
      let spare = max 0 (Plancache.Cache.bytes cache - cache_floor) in
      if spare = 0 then 0 else Plancache.Cache.shrink cache (min n spare));
  Dbmem.Manager.register_donor manager ~clerk:pool_clerk ~priority:1
    ~shrink:(fun n -> Bufpool.Pool.shrink pool n);
  (* Broker components and their reactions to verdicts. With supervision
     on, the broker also insists: a component with a reclaim hook that
     ignores [supervised_insist_after] consecutive shrink verdicts is
     shrunk by force — the paper's "broker insists". *)
  let sup = cfg.Config.supervision in
  let broker =
    Qcore.Broker.create ~trace
      ~insist_after:(if sup then supervised_insist_after else 0)
      eng manager
  in
  let _pool_comp =
    Qcore.Broker.register broker ~name:"bufpool" ~clerk:pool_clerk ~weight:1.5
      ~min_bytes:cfg.Config.min_pool_bytes
      ~demand:(fun () -> Bufpool.Pool.demand_hint pool)
      ~notify:(fun n ->
        match n.Qcore.Broker.verdict with
        | Qcore.Broker.Must_shrink ->
            ignore (Bufpool.Pool.shrink_to pool n.Qcore.Broker.target)
        | Qcore.Broker.Hold_rate | Qcore.Broker.Can_grow -> ())
      ~reclaim:(fun n -> Bufpool.Pool.shrink pool n)
      ()
  in
  let _cache_comp =
    (* With a protected floor the cache also reports real demand (resident
       plus eviction churn) so the broker's split sees the warm set; at
       floor 0 the registration is identical to the seed's. *)
    Qcore.Broker.register broker ~name:"plancache" ~clerk:cache_clerk ~weight:0.3
      ~min_bytes:cache_floor
      ?demand:
        (if cache_floor > 0 then
           Some (fun () -> Plancache.Cache.demand_hint cache)
         else None)
      ~notify:(fun n ->
        match n.Qcore.Broker.verdict with
        | Qcore.Broker.Must_shrink ->
            let keep = max n.Qcore.Broker.target cache_floor in
            let excess = Plancache.Cache.bytes cache - keep in
            if excess > 0 then ignore (Plancache.Cache.shrink cache excess)
        | Qcore.Broker.Hold_rate | Qcore.Broker.Can_grow -> ())
      ~reclaim:(fun n -> Plancache.Cache.shrink cache n)
      ()
  in
  let _compile_comp =
    Qcore.Broker.register broker ~name:"compile" ~clerk:compile_clerk ~weight:0.6
      ~min_bytes:(Dbmem.Units.mib 512)
      ~notify:(fun n -> Qcore.Compile_gov.on_notification gov n)
      ()
  in
  (* Execution memory is registered for accounting and target computation,
     but the resource semaphore keeps its static size: shrinking it under a
     queued large request would strand the queue head (grants are trimmed
     per query and spill instead). *)
  let _exec_comp =
    Qcore.Broker.register broker ~name:"execution" ~clerk:exec_clerk ~weight:1.2
      ~min_bytes:cfg.Config.min_workspace_bytes ()
  in
  let metrics = Metrics.create eng in
  let exec_resources =
    {
      Execsim.Runner.eng;
      cpu;
      pool;
      disk;
      grants;
      rng = Sim.Rng.split (Sim.Engine.rng eng);
    }
  in
  (* The ballast clerk models an external memory consumer (faultsim's
     phantom process). It is registered with the broker so the spike shows
     up in predictions and squeezes everyone else's target — but it
     ignores its verdicts, exactly like a process outside the DBMS. Only
     created when a fault schedule exists, so benign configurations keep
     the seed's broker arithmetic untouched. *)
  let ballast =
    match cfg.Config.faults with
    | [] -> None
    | _ :: _ ->
        let clerk = Dbmem.Manager.create_clerk manager "ballast" in
        ignore
          (Qcore.Broker.register broker ~name:"ballast" ~clerk ~weight:1.0 ());
        Some clerk
  in
  (* Split whenever resilience OR faults are configured — not just
     resilience — so a chaos A/B pair (same faults, resilience on vs off)
     consumes the engine's rng stream identically and sees the very same
     client workload. The plain seed config (no faults, no resilience)
     splits nothing, preserving seed behaviour exactly. *)
  let retry_rng =
    if cfg.Config.resilience.Resilience.enabled || cfg.Config.faults <> []
    then Some (Sim.Rng.split (Sim.Engine.rng eng))
    else None
  in
  let super =
    if not sup then None
    else begin
      let wdog =
        Health.Watchdog.create ~trace eng Health.Watchdog.default_config
      in
      let starv =
        Health.Starvation.create ~trace eng Health.Starvation.default_config
      in
      (* The audited gates are the compile gateways; the grant queue is
         byte-denominated and already trims per query, so widening it is
         the broker's job, not the auditor's. *)
      Array.iter
        (fun m ->
          Health.Starvation.add_gate starv ~name:(Qcore.Monitor.name m)
            ~queued:(fun () -> Qcore.Monitor.queued m)
            ~admitted:(fun () -> Qcore.Monitor.acquires m)
            ~slots:(fun () -> Qcore.Monitor.slots m)
            ~set_slots:(fun n -> Qcore.Monitor.set_slots m n))
        (Qcore.Compile_gov.monitors gov);
      let breakers =
        Health.Breaker.create ~trace eng Health.Breaker.default_config
      in
      Some { wdog; starv; breakers }
    end
  in
  let defense = cfg.Config.defense in
  let sflight =
    Plancache.Singleflight.create
      ~mode:
        (if defense.Config.d_enabled then Plancache.Singleflight.Coalesce
         else Plancache.Singleflight.Observe)
      eng
  in
  (if Obs.Trace.enabled trace then
     Plancache.Singleflight.set_on_coalesce sflight (fun ~key ~waiters ->
         let template =
           match String.index_opt key '|' with
           | Some i -> String.sub key 0 i
           | None -> key
         in
         Obs.Trace.emit trace ~time:(Sim.Engine.now eng) ~qid:template
           (Obs.Event.Singleflight_coalesce { template; waiters })));
  let storm =
    Health.Storm.create ~trace eng
      (if defense.Config.d_enabled then Health.Storm.default_config
       else Health.Storm.disabled)
  in
  if defense.Config.d_enabled then
    Qcore.Compile_gov.set_defense gov
      ~lifo_after_s:defense.Config.d_lifo_after_s;
  {
    eng;
    trace;
    cfg;
    cat;
    manager;
    broker;
    gov;
    pool;
    disk;
    cache;
    grants;
    cpu;
    metrics;
    exec_resources;
    clerk_list =
      ([
         ("bufpool", pool_clerk);
         ("plancache", cache_clerk);
         ("compile", compile_clerk);
         ("execution", exec_clerk);
       ]
      @ match ballast with Some c -> [ ("ballast", c) ] | None -> []);
    ballast;
    retry_rng;
    super;
    sflight;
    storm;
    prime_reps = Hashtbl.create 16;
    template_counts = Hashtbl.create 16;
    primed = 0;
    arenas = [];
  }

let start t =
  Qcore.Broker.start t.broker;
  Metrics.watch_memory ~trace:t.trace t.metrics
    ~interval:metrics_interval t.clerk_list;
  match t.super with
  | None -> ()
  | Some s ->
      Health.Watchdog.start s.wdog;
      Health.Starvation.start s.starv

let emit t ~qid ev =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid ev

(* Governed compilation: the Cascades environment reports allocations to
   the governor (which may block at gateways or fail), burns CPU on the
   shared pool, and asks the governor whether the broker predicts compile-
   memory exhaustion. [deadline], when set, is the per-query deadline: a
   compilation past it is cancelled at its next allocation rather than
   holding gateways for work that can no longer matter. [watch], when
   set, is the query's watchdog session: every allocation beats it, a
   softened session forces best-plan-so-far, and a cancel request aborts
   at the next allocation ([by_watchdog] distinguishes that abort from a
   deadline when mapping to the error taxonomy — the optimizer's abort
   vocabulary stays supervision-free). *)
let compile t ?deadline ?watch ~by_watchdog ~gov_shed q =
  let session =
    (* The session's deadline feeds the governor's deadline-aware shed:
       with that defense on, a gateway wait is capped at the deadline and
       a hopeless waiter is refused before it enqueues. *)
    Qcore.Compile_gov.begin_compile ~qid:q.Optimizer.Query.qid ?deadline t.gov
  in
  let check_deadline () =
    match deadline with
    | Some d when Sim.Engine.now t.eng > d ->
        raise (Optimizer.Env.Aborted Optimizer.Env.Cancelled)
    | _ -> ()
  in
  let check_watchdog () =
    match watch with
    | Some wd ->
        Health.Watchdog.beat wd;
        if Health.Watchdog.cancel_requested wd then begin
          by_watchdog := true;
          raise (Optimizer.Env.Aborted Optimizer.Env.Cancelled)
        end
    | None -> ()
  in
  let env =
    {
      Optimizer.Env.alloc =
        (fun n ->
          check_watchdog ();
          check_deadline ();
          match Qcore.Compile_gov.alloc session n with
          | Ok () -> ()
          | Error { Health.Error.code = Health.Error.Memory_wait_timeout; detail }
            ->
              raise
                (Optimizer.Env.Aborted (Optimizer.Env.Gateway_timeout detail))
          | Error ({ Health.Error.code = Health.Error.Deadline_exceeded; _ } as e)
            ->
              (* The governor's deadline shed refused or cut short a
                 gateway wait. Keep the structured error (its detail names
                 the shedding gate) and abort through the optimizer's
                 cancel vocabulary. *)
              gov_shed := Some e;
              raise (Optimizer.Env.Aborted Optimizer.Env.Cancelled)
          | Error _ ->
              raise (Optimizer.Env.Aborted Optimizer.Env.Out_of_memory));
      cpu = (fun s -> Execsim.Cpu.busy t.cpu s);
      should_stop =
        (fun () ->
          Qcore.Compile_gov.should_stop_early t.gov
          || match watch with
             | Some wd -> Health.Watchdog.softened wd
             | None -> false);
    }
  in
  let started = Sim.Engine.now t.eng in
  let arena = acquire_arena t in
  let result =
    Fun.protect
      ~finally:(fun () ->
        release_arena t arena;
        Metrics.record_compile_peak t.metrics (Qcore.Compile_gov.peak session);
        Qcore.Compile_gov.end_compile session)
      (fun () ->
        Optimizer.Cascades.optimize ~params:t.cfg.Config.optimizer_params
          ~arena ~env t.cfg.Config.cost_model t.cat q)
  in
  match result with
  | Ok r ->
      let elapsed = Sim.Engine.now t.eng -. started in
      Ok (r, elapsed)
  | Error reason -> Error reason

(* Bottom rung of the degradation ladder: skip the memo search entirely and
   emit the greedy left-deep plan. Still governed — the (tiny) footprint is
   metered so accounting stays honest — but it passes under the first
   gateway threshold and cannot meaningfully contribute to compile-memory
   pressure. *)
let compile_degraded t q =
  emit t ~qid:q.Optimizer.Query.qid (Obs.Event.Degrade { rung = "greedy" });
  let session =
    Qcore.Compile_gov.begin_compile ~qid:q.Optimizer.Query.qid t.gov
  in
  let started = Sim.Engine.now t.eng in
  Fun.protect
    ~finally:(fun () ->
      Metrics.record_compile_peak t.metrics (Qcore.Compile_gov.peak session);
      Qcore.Compile_gov.end_compile session)
    (fun () ->
      let params = t.cfg.Config.optimizer_params in
      let n = Optimizer.Query.n_rels q in
      match
        Qcore.Compile_gov.alloc session
          (Optimizer.Cascades.phys_bytes * n)
      with
      | Error e -> Error e
      | Ok () ->
          (* Greedy is ~n^2 candidate evaluations. *)
          Execsim.Cpu.busy t.cpu
            (params.Optimizer.Cascades.task_cpu *. float_of_int (n * n));
          let card = Optimizer.Card.create t.cat q in
          let plan = Optimizer.Greedy.plan t.cfg.Config.cost_model card in
          Ok (plan, Sim.Engine.now t.eng -. started))

(* Admission control: with [in_flight] compilations already holding or
   chasing compile memory and each expected to peak near the observed
   mean, admitting another would push predicted demand past
   [shed_factor * broker target]. Only engages under broker pressure — or
   during an active miss storm, when the detector's recovery mode
   tightens admission without waiting for memory pressure to confirm what
   the arrival trend already shows — so a benign system never sheds. *)
let should_shed t =
  let r = t.cfg.Config.resilience in
  r.Resilience.enabled
  && (Qcore.Compile_gov.pressure t.gov <> Qcore.Compile_gov.Calm
     || Health.Storm.active t.storm)
  &&
  let target = Qcore.Compile_gov.broker_target t.gov in
  target > 0
  &&
  let peaks = Metrics.compile_peak t.metrics in
  let predicted_per_query =
    if Sim.Stats.Online.count peaks > 0 then Sim.Stats.Online.mean peaks
    else float_of_int (Dbmem.Units.mib 32)
  in
  let in_flight = Qcore.Compile_gov.active_sessions t.gov + 1 in
  float_of_int in_flight *. predicted_per_query
  > Resilience.shed_factor *. float_of_int target

let abort_to_error ~by_watchdog = function
  | Optimizer.Env.Out_of_memory ->
      Health.Error.make ~detail:"compile" Health.Error.Insufficient_memory
  | Optimizer.Env.Gateway_timeout m ->
      Health.Error.make ~detail:m Health.Error.Memory_wait_timeout
  | Optimizer.Env.Cancelled ->
      if by_watchdog then
        Health.Error.make ~detail:"compile" Health.Error.Watchdog_cancelled
      else Health.Error.make ~detail:"compile" Health.Error.Deadline_exceeded

(* The full Cascades search, inserted into the plan cache on success. *)
let compile_full t ~deadline ~watch q =
  let by_watchdog = ref false in
  let gov_shed = ref None in
  match compile t ?deadline ?watch ~by_watchdog ~gov_shed q with
  | Ok (r, elapsed) ->
      let compile_cost =
        float_of_int r.Optimizer.Cascades.stats.Optimizer.Cascades.tasks
        *. t.cfg.Config.optimizer_params.Optimizer.Cascades.task_cpu
      in
      Plancache.Cache.insert t.cache ~key:q.Optimizer.Query.qid
        ~plan:r.Optimizer.Cascades.plan ~compile_cost;
      Ok (r.Optimizer.Cascades.plan, elapsed, false)
  | Error reason -> (
      match !gov_shed with
      | Some e -> Error e
      | None -> Error (abort_to_error ~by_watchdog:!by_watchdog reason))

(* One compile attempt, choosing the ladder rung. Cached plans bypass
   everything: they cost no compile memory. Degraded plans are *not*
   cached — a repeat of the same query in calmer weather deserves the real
   optimizer. Full compiles go through singleflight, keyed on the
   canonical statement (Midcache.Frontend keying, so parameterized
   replays of one template share a key): the first miss leads and
   compiles, concurrent misses of the same statement coalesce onto it and
   re-probe the cache when it lands — a cold cache costs one compile per
   template, not one per client. [sf_depth] bounds the re-probe
   recursion: a follower woken by a failed (or evicted) leader re-enters
   at most twice, then compiles solo rather than chasing races. *)
let rec plan_for t ~degraded ~deadline ~watch ?(sf_depth = 0) q =
  match Plancache.Cache.lookup t.cache q.Optimizer.Query.qid with
  | Some plan ->
      Metrics.record_cache_hit t.metrics;
      emit t ~qid:q.Optimizer.Query.qid Obs.Event.Cache_hit;
      Ok (plan, 0., false)
  | None when degraded -> (
      Health.Storm.note_compile t.storm
        ~template:(template_of_qid q.Optimizer.Query.qid);
      match compile_degraded t q with
      | Ok (plan, elapsed) -> Ok (plan, elapsed, true)
      | Error e -> Error e)
  | None -> (
      Health.Storm.note_compile t.storm
        ~template:(template_of_qid q.Optimizer.Query.qid);
      let key = Midcache.Frontend.key_of_query q in
      match
        Plancache.Singleflight.enter t.sflight ~key
          ~max_wait:t.cfg.Config.defense.Config.d_sf_wait_s ()
      with
      | `Leader tok ->
          Fun.protect
            ~finally:(fun () -> Plancache.Singleflight.exit t.sflight tok)
            (fun () -> compile_full t ~deadline ~watch q)
      | `Duplicate ->
          (* Observe mode: the duplicate is counted, nobody blocks. *)
          compile_full t ~deadline ~watch q
      | `Coalesced when sf_depth < 2 ->
          (* The leader finished (or failed); the shared plan, if any, is
             in the cache under this query's own qid-aliased key. *)
          plan_for t ~degraded ~deadline ~watch ~sf_depth:(sf_depth + 1) q
      | `Coalesced | `Timed_out -> compile_full t ~deadline ~watch q)

let submit t q =
  let r = t.cfg.Config.resilience in
  let deadline =
    if r.Resilience.enabled then
      Some (Sim.Engine.now t.eng +. Resilience.deadline_s)
    else None
  in
  let past_deadline () =
    match deadline with
    | Some d -> Sim.Engine.now t.eng > d
    | None -> false
  in
  let qid = q.Optimizer.Query.qid in
  let template = template_of_qid qid in
  (* Popularity book for warm-priming: which templates this server is
     asked for, and one representative query per template to prime from.
     Only kept when priming is configured, so other runs stay lean. *)
  if t.cfg.Config.defense.Config.d_warm_prime > 0 then begin
    Hashtbl.replace t.template_counts template
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.template_counts template));
    if not (Hashtbl.mem t.prime_reps template) then
      Hashtbl.add t.prime_reps template q
  end;
  let fail (e : Health.Error.t) =
    Metrics.record_error t.metrics e.Health.Error.code;
    emit t ~qid
      (Obs.Event.Query_error { kind = Health.Error.code_name e.Health.Error.code });
    (* Hard failures feed the template's breaker; back-pressure results
       (sheds, breaker refusals) must not, or an open breaker would keep
       itself open with its own rejections. *)
    (match t.super with
    | Some s when Metrics.is_hard_error e.Health.Error.code ->
        Health.Breaker.record_failure s.breakers ~template
    | _ -> ());
    Error e
  in
  (* Breaker admission first — the cheapest gate: a poison template is
     refused before it can burn a gateway slot or a grant wait. *)
  match
    match t.super with
    | Some s -> Health.Breaker.admit s.breakers ~template
    | None -> Ok ()
  with
  | Error e -> fail e
  | Ok () when should_shed t ->
      emit t ~qid Obs.Event.Shed;
      (* If this arrival was a half-open breaker's probe, hand the probe
         slot back: the shed is our own back-pressure, not evidence about
         the template, and a phantom in-flight probe would wedge the
         breaker half-open. *)
      (match t.super with
      | Some s -> Health.Breaker.release_probe s.breakers ~template
      | None -> ());
      fail (Health.Error.make ~detail:"admission" Health.Error.Admission_shed)
  | Ok () ->
      let watch =
        match t.super with
        | Some s -> Some (Health.Watchdog.watch s.wdog ~qid)
        | None -> None
      in
      let beat () =
        match watch with Some wd -> Health.Watchdog.beat wd | None -> ()
      in
      let cancelled () =
        match watch with
        | Some wd -> Health.Watchdog.cancel_requested wd
        | None -> false
      in
      let finally () =
        match (t.super, watch) with
        | Some s, Some wd -> Health.Watchdog.unwatch s.wdog wd
        | _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      (* Retry ladder: [attempt] is 1-based; [degraded] sticks once
         entered. Transient codes (memory-wait timeouts at gateways or the
         grant queue, low-memory grant failures — all symptoms of a
         passing memory or load transient) back off and retry; compile
         insufficient-memory falls one rung down the ladder and retries
         immediately with the greedy plan; everything else is final. *)
      let rec attempt n ~degraded =
        (* Under any broker pressure the full search would queue at
           shrunken gateways (and likely OOM); go straight to the cheap
           rung instead of burning a long gateway wait first. *)
        let degraded =
          degraded
          || r.Resilience.enabled
             && Qcore.Compile_gov.pressure t.gov <> Qcore.Compile_gov.Calm
        in
        match plan_for t ~degraded ~deadline ~watch q with
        | Error { Health.Error.code = Health.Error.Insufficient_memory; _ }
          when r.Resilience.enabled && not degraded ->
            (* The full search could not get memory; the greedy plan needs
               almost none. Fall down the ladder without burning a retry. *)
            attempt n ~degraded:true
        | Error ({ Health.Error.code = Health.Error.Memory_wait_timeout; _ } as e)
          ->
            retry n ~degraded e
        | Error e -> fail e
        | Ok (plan, compile_s, was_degraded) ->
            if cancelled () then
              fail
                (Health.Error.make ~detail:"exec"
                   Health.Error.Watchdog_cancelled)
            else if past_deadline () then
              fail
                (Health.Error.make ~detail:"exec"
                   Health.Error.Deadline_exceeded)
            else (
              beat ();
              let finish ~reduced outcome =
                beat ();
                Metrics.record_completion t.metrics ~compile_s
                  ~exec_s:outcome.Execsim.Runner.duration;
                if was_degraded || reduced then
                  Metrics.record_degraded t.metrics;
                Ok ()
              in
              match Execsim.Runner.run ~qid t.exec_resources plan with
              | Ok outcome -> finish ~reduced:false outcome
              | Error { Health.Error.code = Health.Error.Low_memory_condition; _ }
                when r.Resilience.enabled -> (
                  (* The exec rung of the ladder: the plan's ideal
                     workspace is not physically available, so immediately
                     rerun asking for the grant floor and spill the
                     shortfall to disk — slower, but it completes while
                     the full-size run cannot. *)
                  match
                    Execsim.Runner.run
                      ~grant_cap:(Execsim.Grant.min_grant t.grants)
                      ~qid t.exec_resources plan
                  with
                  | Ok outcome -> finish ~reduced:true outcome
                  | Error e -> retry n ~degraded e)
              | Error e -> retry n ~degraded e)
      and retry n ~degraded (e : Health.Error.t) =
        match t.retry_rng with
        | Some rng when r.Resilience.enabled && n <= r.Resilience.max_retries
          ->
            let pause = Resilience.backoff r ~attempt:n ~rng in
            if
              match deadline with
              | Some d -> Sim.Engine.now t.eng +. pause > d
              | None -> false
            then fail e
            else begin
              Metrics.record_retry t.metrics;
              emit t ~qid
                (Obs.Event.Retry
                   { attempt = n; pause_s = pause;
                     kind = Health.Error.code_name e.Health.Error.code });
              (* Under broker pressure the failure is storm-induced: park,
                 and cut the backoff short (after a minimum base pause) as
                 soon as the broker calms, so queries stranded behind a
                 pressure spike retry at the release instead of a full
                 exponential later. In calm weather keep the plain
                 exponential pause — sliced when supervised so the
                 heartbeat stays fresh (a parked query is waiting, not
                 stuck). *)
              let parked =
                Qcore.Compile_gov.pressure t.gov <> Qcore.Compile_gov.Calm
              in
              (if not parked then
                 match watch with
                 | None -> Sim.Engine.sleep pause
                 | Some wd ->
                     let slice = 15.0 in
                     let rec nap slept =
                       if slept < pause then begin
                         let step = Float.min slice (pause -. slept) in
                         Sim.Engine.sleep step;
                         Health.Watchdog.beat wd;
                         nap (slept +. step)
                       end
                     in
                     nap 0.
               else begin
                 let slice = 5.0 in
                 let minimum = Float.min pause r.Resilience.backoff_base_s in
                 let rec nap slept =
                   if slept < pause then begin
                     let step = Float.min slice (pause -. slept) in
                     Sim.Engine.sleep step;
                     beat ();
                     let slept = slept +. step in
                     if
                       slept < minimum
                       || Qcore.Compile_gov.pressure t.gov
                          <> Qcore.Compile_gov.Calm
                     then nap slept
                   end
                 in
                 nap 0.
               end);
              if cancelled () then
                fail
                  (Health.Error.make ~detail:"retry"
                     Health.Error.Watchdog_cancelled)
              else attempt (n + 1) ~degraded
            end
        | _ -> fail e
      in
      let result = attempt 1 ~degraded:false in
      (match (result, t.super) with
      | Ok (), Some s -> Health.Breaker.record_success s.breakers ~template
      | _ -> ());
      result

let submit_catch t q =
  match submit t q with
  | Ok () -> Ok ()
  | Error e -> Error (Health.Error.to_string e)

(* Compile [q] into the plan cache without executing it — the warm-prime
   path. Goes through [plan_for], so a priming compile takes the gateways
   like any other and, with singleflight on, becomes the leader that
   storming clients coalesce onto: the prime pays the compile once and
   the whole queue shares it. *)
let prime t q =
  match plan_for t ~degraded:false ~deadline:None ~watch:None q with
  | Ok (_plan, elapsed, _) ->
      if elapsed > 0. then t.primed <- t.primed + 1;
      Ok ()
  | Error e -> Error e

(* Prime the hottest templates by observed submission count (ties broken
   by name, so the order is deterministic). Runs in the caller's process
   and blocks at the gateways; spawn it. *)
let warm_prime t =
  let k = t.cfg.Config.defense.Config.d_warm_prime in
  if k > 0 then
    Hashtbl.fold (fun tpl count acc -> (tpl, count) :: acc) t.template_counts []
    |> List.sort (fun (ta, ca) (tb, cb) ->
           if ca <> cb then compare cb ca else compare ta tb)
    |> List.filteri (fun i _ -> i < k)
    |> List.iter (fun (tpl, _) ->
           match Hashtbl.find_opt t.prime_reps tpl with
           | Some q -> ignore (prime t q)
           | None -> ())

(* Wire the configured fault schedule into this server's attack surface.
   [spawn_burst] is supplied by whoever owns the workload (Experiment, the
   chaos driver); without it, Client_burst specs are inert. *)
let install_faults ?spawn_burst t =
  match t.cfg.Config.faults with
  | [] -> None
  | specs ->
      let ballast_clerk =
        match t.ballast with
        | Some c -> c
        | None -> assert false (* created whenever faults <> [] *)
      in
      let hooks =
        {
          Faultsim.Injector.ballast_grab =
            (fun n ->
              match Dbmem.Manager.alloc ballast_clerk n with
              | Ok () -> true
              | Error `Out_of_memory -> false);
          ballast_release =
            (fun n ->
              Dbmem.Manager.free ballast_clerk
                (min n (Dbmem.Manager.clerk_used ballast_clerk)));
          disk_set =
            (fun ~throughput_factor ~extra_seek_s ->
              Bufpool.Disk.set_degradation t.disk ~throughput_factor
                ~extra_seek_s);
          disk_clear = (fun () -> Bufpool.Disk.clear_degradation t.disk);
          alloc_fault_set =
            (fun f -> Dbmem.Manager.set_alloc_fault t.manager (Some f));
          alloc_fault_clear =
            (fun () -> Dbmem.Manager.set_alloc_fault t.manager None);
          burst_clients =
            (match spawn_burst with
            | Some f -> f
            | None -> fun ~clients:_ ~think_mean:_ ~until:_ -> ());
          (* Shard faults only mean something one level up, where a router
             owns several engines; a single server has no shard to kill. *)
          shard_crash = (fun ~shard:_ ~restart_delay:_ -> ());
          shard_stall = (fun ~shard:_ ~duration:_ ~slow_factor:_ -> ());
        }
      in
      Some
        (Faultsim.Injector.install t.eng
           ~rng:(Sim.Rng.split (Sim.Engine.rng t.eng))
           ~hooks specs)

(* [demand] frees until [available >= goal]; aiming at current available
   plus [n] frees ~[n] bytes even while the manager is over-committed
   (available negative) after an arbiter budget cut. *)
let reclaim t n =
  if n <= 0 then 0
  else
    Dbmem.Manager.demand t.manager (Dbmem.Manager.available t.manager + n)

(* The pool's demand signal is its broker's aggregate prediction, scaled
   back up by the reserved fraction the broker holds out — so the arbiter
   sizes the whole pool, not just its brokered part. *)
let join_arbiter t arb ~name ~weight ~min_share ~max_share =
  let reserved = Qcore.Broker.reserved_fraction in
  let demand () =
    int_of_float
      (float_of_int (Qcore.Broker.predicted_total t.broker) /. (1. -. reserved))
  in
  Qcore.Arbiter.register arb ~name ~weight ~min_share ~max_share
    ~budget:t.cfg.Config.memory_bytes
    ~used:(fun () -> Dbmem.Manager.used t.manager)
    ~demand
    ~set_budget:(fun b -> Dbmem.Manager.set_total t.manager b)
    ~reclaim:(fun n -> reclaim t n)
    ()

(* Snapshot of what the supervision layer saw and did. Meaningful for an
   unsupervised server too: the error budget and completion counts come
   from the metrics, with all supervision counters at zero. *)
let health_report t ?(since = 0.) () =
  {
    Health.Report.duration_s = Sim.Engine.now t.eng -. since;
    completed = Metrics.total_completions t.metrics ~since ();
    errors = Metrics.errors t.metrics;
    watchdog_watched =
      (match t.super with Some s -> Health.Watchdog.watched s.wdog | None -> 0);
    watchdog_stale =
      (match t.super with
      | Some s -> Health.Watchdog.stale_total s.wdog
      | None -> 0);
    watchdog_cancels =
      (match t.super with
      | Some s -> Health.Watchdog.cancel_total s.wdog
      | None -> 0);
    breaker_opens =
      (match t.super with
      | Some s -> Health.Breaker.opened_total s.breakers
      | None -> 0);
    breaker_closes =
      (match t.super with
      | Some s -> Health.Breaker.closed_total s.breakers
      | None -> 0);
    breakers_open =
      (match t.super with
      | Some s -> Health.Breaker.states s.breakers
      | None -> []);
    gate_widens =
      (match t.super with
      | Some s -> Health.Starvation.widen_total s.starv
      | None -> 0);
    gates_widened =
      (match t.super with
      | Some s -> Health.Starvation.widened_now s.starv
      | None -> []);
    forced_reclaims = Qcore.Broker.forced_reclaims t.broker;
  }

let engine t = t.eng
let trace t = t.trace
let config t = t.cfg
let metrics t = t.metrics
let manager t = t.manager
let broker t = t.broker
let governor t = t.gov
let pool t = t.pool
let disk t = t.disk
let plan_cache t = t.cache
let grants t = t.grants
let cpu t = t.cpu
let catalog t = t.cat
let clerks t = t.clerk_list
let ballast_clerk t = t.ballast
let singleflight t = t.sflight
let storm_detector t = t.storm
let primed_total t = t.primed
