(** Cascades-style top-down plan search over a memo of relation-set groups.

    The search runs as an explicit task stack (optimize-group /
    expand-group / optimize-split tasks), which gives the three properties
    the paper's throttling mechanism relies on:

    - {b metered memory}: every group, logical split and physical
      alternative charges bytes through {!Env.t}, so compile memory grows
      with the number of alternatives considered and is freed only when
      compilation ends;
    - {b interruptibility}: the environment's [alloc] may block the calling
      simulation process at a gateway for arbitrarily long, or abort the
      compilation by raising {!Env.Aborted};
    - {b best-plan-so-far}: the memo is seeded with a greedy left-deep plan
      before search starts, so at any moment a complete (if suboptimal)
      plan exists; when the broker predicts memory exhaustion
      ([should_stop]) the search returns it instead of failing.

    Search effort follows the paper's "dynamic optimization": the task
    budget scales with the estimated cost of the seed plan (0.012 tasks
    per unit of cost, clamped to [[min_tasks, max_tasks]]), so expensive
    queries get (and allocate) more. A completed search explores every
    connected split of every connected subset — the same space as {!Dp} —
    hence equal optimal cost. *)

(** Metered compile memory per physical alternative costed (18 KiB).
    Each memo group meters 72 KiB and each logical split 18 KiB. *)
val phys_bytes : int

type params = {
  task_cpu : float;  (** simulated CPU seconds per task *)
  cpu_batch : int;  (** report CPU to the env every N tasks *)
  max_tasks : int;  (** hard ceiling on search effort *)
  min_tasks : int;  (** floor, so trivial queries still finish *)
  expand_chunk : int;  (** splits examined per expand task *)
  honor_stop_early : bool;
      (** obey [should_stop] (the paper's best-plan extension); when
          [false] the search ignores pressure and risks hard OOM *)
}

val default_params : params

type outcome =
  | Complete  (** full plan space explored: plan is optimal *)
  | Budget_exhausted  (** dynamic-optimization budget hit: best so far *)
  | Stopped_early  (** broker predicted OOM: best so far (paper §4.1) *)

type stats = {
  tasks : int;
  groups : int;
  lexprs : int;
  phys : int;
  allocated_bytes : int;  (** total compile memory metered *)
  budget : int;  (** task budget chosen by dynamic optimization *)
}

type result = { plan : Plan.t; cost : float; outcome : outcome; stats : stats }

(** {1 Memo arena}

    The memo's storage, reusable across {!optimize} calls. A memo group
    is a dense id interned by its relation set in a hashtable, and its
    state lives in flat int/float columns indexed by that id: set,
    outstanding-task count (which doubles as its state), the row count,
    cost and width the join evaluators of {!Rules} read, and the winning
    alternative (operator tag and left set). Tasks sit on a two-column
    int stack. [Plan.t] nodes are built once, along the winning tree,
    after the search ends.

    Between compiles an arena retains those columns, the stack and the
    hashtable's bucket array, each at the largest size any of its
    compiles needed, and no references into past plans. A group's
    logical splits are transient: they exist in one scratch vector only
    while that group's expansion is being pushed, so the retained size
    follows the number of groups, not of splits. Reuse is
    observationally transparent: results, stats and environment
    interactions are identical to a fresh memo.

    An arena serves one search at a time. Searches suspend inside
    [env.alloc] (gateway waits), so concurrent compiles need distinct
    arenas — {!Dbms} keeps a free pool sized by compile concurrency.
    An arena is busy from entry to exit of {!optimize} (however it
    exits); passing a busy arena to {!optimize} or {!reset_arena}
    raises [Invalid_argument] instead of corrupting the live search. *)

type arena

val create_arena : unit -> arena

(** Clear logical state, keep capacity. {!optimize} resets its arena on
    entry; calling this on a parked arena only releases the hashtable
    entries of its last compile. Raises [Invalid_argument] on a busy
    arena. *)
val reset_arena : arena -> unit

(** [optimize ?params ?arena ~env model catalog query]. Errors are the
    governor's abort reasons surfaced by [env.alloc]/[env.cpu]. Without
    [?arena] a fresh single-use memo is built. Raises [Invalid_argument]
    if [arena] is in use by another live search. *)
val optimize :
  ?params:params ->
  ?arena:arena ->
  env:Env.t ->
  Cost.model ->
  Catalog.t ->
  Query.t ->
  (result, Env.abort_reason) Stdlib.result

(** The record-and-list memo {!optimize} replaced (group and split
    records, a task variant, a [Plan.t] per costed alternative), with a
    fresh memo per call. Test oracle only: {!optimize} must match it on
    plan, cost, outcome, stats, error and the exact sequence of
    environment calls. *)
val optimize_reference :
  ?params:params ->
  env:Env.t ->
  Cost.model ->
  Catalog.t ->
  Query.t ->
  (result, Env.abort_reason) Stdlib.result
