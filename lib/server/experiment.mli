(** End-to-end experiment runner: build a server, load it with concurrent
    clients for a warm-up plus a measured window, and collect the series
    and summary numbers the paper's figures report. The warm-up period is
    excluded from all results, as in §5.2. *)

type result = {
  clients : int;
  throttled : bool;
  resilient : bool;
  warmup : float;
  measure : float;
  slice : float;
  slices : (float * float) array;  (** completions per time slice *)
  mean_per_slice : float;
  total_completed : int;  (** within the measured window *)
  total_errors : int;
  hard_errors : int;  (** errors excluding admission sheds *)
  retries : int;  (** server-side retries of transient errors *)
  sheds : int;  (** queries refused by admission control *)
  degraded : int;  (** completions via the greedy fallback ladder *)
  errors : (string * int) list;
  faults_started : int;  (** fault episodes that began before [stop] *)
  faults_finished : int;
  ballast_peak : int;  (** most ballast held at once, bytes *)
  ballast_refused : int;  (** ballast grab attempts the manager refused *)
  client_stats : Workload.Client.stats;
  compile_mean_s : float;
  compile_max_s : float;
  exec_mean_s : float;
  exec_max_s : float;
  compile_peak_mean : float;  (** bytes *)
  compile_peak_max : float;
  pool_hit_rate : float;
  cache_hit_rate : float;
  cpu_utilization : float;
  memory_series : (string * Sim.Series.t) list;
}

(** A SALES closed loop on one server, after its engine ran: the live
    server (every component still inspectable), the clients' stats and
    the fault injector ([None] without a fault schedule). *)
type loop = {
  dbms : Dbms.t;
  client_stats : Workload.Client.stats;
  injector : Faultsim.Injector.t option;
}

(** Raises [Invalid_argument "Experiment: clients < 1"] unless
    [clients >= 1]: the client-count check of {!closed_loop}, callable
    before any run. *)
val check_clients : int -> unit

(** [closed_loop ~trace cfg client_config cat templates ~clients ~stop
    ~until] checks [clients] ({!check_clients}), then builds a server from [cfg] on a fresh engine seeded with
    [cfg.seed], installs [cfg.faults] (burst clients share the workload's
    templates and stats), starts [clients] closed-loop clients that
    submit until [stop], and runs the engine to [until] ([until > stop]
    leaves a drain in which in-flight queries finish). Raises [Failure]
    if any simulation process died (model bug). *)
val closed_loop :
  trace:Obs.Trace.t ->
  Config.t ->
  Workload.Client.config ->
  Optimizer.Catalog.t ->
  Workload.Template.t list ->
  clients:int ->
  stop:float ->
  until:float ->
  loop

(** [run ?config ?client_config ?catalog ?templates ?seed ~clients ~warmup
    ~measure ~slice ()] is {!closed_loop} to [warmup + measure], read
    into a result — defaults: the SALES benchmark on the paper's server.
    Each call builds its own engine, RNG, server, metrics and client
    stats, so independent runs can fan out over a {!Parallel.Pool} as
    [unit -> result] thunks; the results, and any output rendered from
    them, are then the same at any job count. A catalog or template list
    shared between such runs must be treated as read-only. Raises
    [Failure] if any simulation process died (model bug). *)
val run :
  ?config:Config.t ->
  ?client_config:Workload.Client.config ->
  ?catalog:Optimizer.Catalog.t ->
  ?templates:Workload.Template.t list ->
  ?seed:int ->
  ?trace:Obs.Trace.t ->
  clients:int ->
  warmup:float ->
  measure:float ->
  slice:float ->
  unit ->
  result

(** Relative throughput uplift of [a] over [b] (e.g. throttled over
    unthrottled), from mean completions per slice. [0.] when the
    baseline completed nothing. *)
val uplift : result -> result -> float

val pp_summary : Format.formatter -> result -> unit
