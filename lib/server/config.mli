(** Server configuration. {!default} models the paper's testbed: 8 CPUs,
    4 GB of memory, 8 SCSI disks in RAID-0 (§5.2). *)

(** Metastable-failure (storm) defense knobs — see DESIGN.md §11. All off
    in {!no_defense}, the default, so pre-existing configurations replay
    their seed byte-for-byte. *)
type defense = {
  d_enabled : bool;
      (** the switch for the whole stack: coalesce concurrent compiles of
          one canonical statement onto a single in-flight optimization
          ({!Plancache.Singleflight}), flip gateway queues FIFO->LIFO under
          sustained standing, shed gateway waiters whose remaining deadline
          cannot be met, and run the compile-miss storm detector
          ({!Health.Storm.default_config}) *)
  d_sf_wait_s : float;
      (** how long a coalesced follower waits for the leader before
          giving up and compiling solo *)
  d_budget : Resilience.Budget.config option;
      (** per-client retry token bucket; [None] = unconditional retries *)
  d_lifo_after_s : float;  (** standing time before the flip *)
  d_warm_prime : int;
      (** number of hottest templates warm-primed into a rejoining
          shard's plan cache; [0] disables priming *)
}

val no_defense : defense

(** Every defense on at default strength (the storm experiment's
    defenses-on arm). *)
val defended : defense

(** The buffer-pool granule, 4 MiB. *)
val page_bytes : int

type t = {
  cpus : int;
  memory_bytes : int;
  disk_spindles : int;
  disk_throughput : float;  (** bytes/second per spindle *)
  pool_policy : Bufpool.Policy.kind;
  throttle : Qcore.Throttle_config.t;
  throttle_enabled : bool;
  optimizer_params : Optimizer.Cascades.params;
  cost_model : Optimizer.Cost.model;
  min_pool_bytes : int;  (** broker floor for the buffer pool *)
  min_workspace_bytes : int;  (** broker floor / clamp for grants *)
  plan_cache_floor_bytes : int;
      (** bytes of plan cache shielded from donor reclaim and broker
          shrink verdicts; 0 (the default) leaves the cache fully
          donatable, the pre-sharding behaviour *)
  seed : int;
  resilience : Resilience.t;  (** retry/degrade/shed/deadline policy *)
  supervision : bool;
      (** watchdog, starvation auditor and circuit breakers, each at its
          module's [default_config], plus broker insistence after 5
          ignored shrink verdicts; [false] by default *)
  defense : defense;  (** storm defenses; {!no_defense} by default *)
  faults : Faultsim.Fault.spec list;
      (** chaos schedule injected by {!Experiment.run} / [dbsim chaos];
          empty for benign runs *)
}

val default : unit -> t

(** [sliced ~memory ~seed] is {!default} on a [memory]-byte slice of a
    machine (a tenant pool, a shard, the cache testbed): the broker's
    buffer-pool and workspace floors drop to [memory / 8] where the
    defaults would not fit. *)
val sliced : memory:int -> seed:int -> t

(** The machine-level arbiter's tuning over {!sliced} server pools
    (tenant pools, shards): a 2 s tick, a 5 s demand horizon. *)
val pool_arbiter : Qcore.Arbiter.config

(** [check_window ~who ~warmup ~measure ~slice] raises
    [Invalid_argument "<who>: bad warmup/measure/slice"] unless
    [warmup >= 0], [measure > 0] and [slice > 0] — the measurement window
    every scenario config carries. *)
val check_window :
  who:string -> warmup:float -> measure:float -> slice:float -> unit

(** [default] with the full resilience policy switched on. *)
val resilient : unit -> t

(** [resilient] plus the supervision layer. *)
val supervised : unit -> t

(** [default] with throttling disabled (the paper's baseline lines). *)
val unthrottled : unit -> t

val pp : Format.formatter -> t -> unit
