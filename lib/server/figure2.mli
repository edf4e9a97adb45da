(** The paper's Figure 2 scenario, as a reusable library: three SALES
    compilations on a deliberately tight three-monitor ladder, plus a
    background compilation that holds the first two monitors for the
    first 60 seconds so Q1 experiences blocking. The per-query memory
    curves show the signature flat segments while blocked at a gateway.

    The scenario is deterministic for a fixed seed, and
    tracing does not perturb it (the trace sink consumes no randomness),
    which is what the golden-trace expect test relies on. *)

type result = {
  series : Sim.Series.t array;
      (** sampled compile-memory usage of Q1..Q3, every 2 s *)
  trace : Obs.Trace.t;  (** the sink passed in (or {!Obs.Trace.null}) *)
  failures : int;  (** simulation process failures (0 in a healthy run) *)
}

(** [run ?seed ?trace ?until ()] — defaults replicate the bench
    scenario exactly: engine seed [7] (query parameters are drawn from
    their own stream, seed [11]), run
    until [600.] simulated seconds. Query ids in the trace are
    ["Q1".."Q3"] and ["background"]. *)
val run :
  ?seed:int -> ?trace:Obs.Trace.t -> ?until:float -> unit -> result

(** The gateway slot counts of the scenario's ladder, by monitor name
    (["first"], ["second"], ["third"]) — for invariant checks over the
    trace. *)
val ladder_slots : (string * int) list
