(* Metered compile memory: bytes per memo group, per logical split
   recorded and per physical alternative costed. *)
let group_bytes = 72 * 1024
let lexpr_bytes = 18 * 1024
let phys_bytes = 18 * 1024

(* Dynamic optimization: the task budget is the seed plan's cost times
   this. *)
let tasks_per_cost = 1.2e-2

type params = {
  task_cpu : float;
  cpu_batch : int;
  max_tasks : int;
  min_tasks : int;
  expand_chunk : int;
  honor_stop_early : bool;
}

let default_params =
  {
    task_cpu = 2.0e-3;
    cpu_batch = 64;
    max_tasks = 45_000;
    min_tasks = 500;
    expand_chunk = 16;
    honor_stop_early = true;
  }

type outcome = Complete | Budget_exhausted | Stopped_early

type stats = {
  tasks : int;
  groups : int;
  lexprs : int;
  phys : int;
  allocated_bytes : int;
  budget : int;
}

type result = { plan : Plan.t; cost : float; outcome : outcome; stats : stats }

(* ------------------------------------------------------------------ *)
(* Memo arena: flat columns.

   A memo group is a dense id handed out in creation order, interned by
   its relation set in [gids]. Its state lives in int/float columns
   indexed by that id; [tb] holds the rows/io/cpu/width the join
   evaluators of {!Rules} read and write, so costing a split builds no
   [Plan.t] at all. Each group records only its best alternative so far
   (tag and left set); [Plan.t] nodes are built along the winning tree
   once the search has ended.

   Tasks are two int columns: the kind in the low two bits of [t_op]
   with the owner gid above it, and [t_arg] holding the set (optimize a
   group), the cursor (expand) or the split's left set (optimize a
   split; the right set is the owner's set minus it).

   A group's splits exist only while its expansion is being pushed, in
   one scratch vector [splits]: [Expand] re-pushes itself on top of the
   stack until the last chunk, so no other group enumerates in between,
   and a pushed split task carries its left set. Keeping every group's
   splits instead would leave each pooled arena holding the split count
   of the largest compile it ever served (DESIGN.md §12 has the
   measurement).

   An arena serves one search at a time. The search suspends inside
   [env.alloc] (gateway waits), so a caller handing one arena to two
   live compiles would interleave two memos in the same columns;
   [busy] turns that into [Invalid_argument] at entry. Reuse is
   observationally transparent: a group's or task's slots are written
   before the search reads them, and the search never iterates the
   table, so plans, costs, stats and environment calls equal a fresh
   arena's (the QCheck properties in test_optimizer.ml are the guard). *)

module Gids = Hashtbl.Make (Int)

(* Winning-alternative tags besides {!Rules}' 0..4: no alternative costed
   yet, and the greedy seed (the root's incumbent). *)
let no_plan = -1
let seed_plan = -2

(* Task kinds. *)
let opt_group = 0
let expand = 1
let opt_split = 2

type arena = {
  gids : int Gids.t;  (* relation set -> gid *)
  mutable n_groups : int;
  mutable g_set : Relset.t array;
  mutable g_out : int array;
      (* -1 while fresh, then the unfinished tasks the group owns: 1 for
         the expansion itself plus one per pushed split; 0 = finished *)
  mutable g_tag : int array;  (* winning alternative, [no_plan], [seed_plan] *)
  mutable g_left : Relset.t array;  (* left set of the winning split *)
  mutable tb : Rules.tables;
  mutable t_op : int array;
  mutable t_arg : int array;
  mutable depth : int;
  mutable splits : Relset.t array;  (* left sets, of [split_owner] only *)
  mutable n_splits : int;
  mutable split_owner : int;
  best : float array;  (* evaluator scratch: io, cpu, total *)
  mutable busy : bool;
}

let create_arena () =
  {
    gids = Gids.create 1024;
    n_groups = 0;
    g_set = Array.make 64 0;
    g_out = Array.make 64 0;
    g_tag = Array.make 64 0;
    g_left = Array.make 64 0;
    tb = Rules.make_tables 64;
    t_op = Array.make 256 0;
    t_arg = Array.make 256 0;
    depth = 0;
    splits = Array.make 64 0;
    n_splits = 0;
    split_owner = -1;
    best = Array.make 3 0.0;
    busy = false;
  }

let clear a =
  Gids.clear a.gids;
  a.n_groups <- 0;
  a.depth <- 0;
  a.n_splits <- 0;
  a.split_owner <- -1

let reset_arena a =
  if a.busy then
    invalid_arg "Cascades.reset_arena: arena in use by a live search";
  clear a

let double a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let double_float a =
  let b = Array.make (2 * Array.length a) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_group a set =
  let g = a.n_groups in
  if g = Array.length a.g_set then begin
    a.g_set <- double a.g_set;
    a.g_out <- double a.g_out;
    a.g_tag <- double a.g_tag;
    a.g_left <- double a.g_left;
    let tb = a.tb in
    a.tb <-
      {
        Rules.t_rows = double_float tb.Rules.t_rows;
        t_io = double_float tb.Rules.t_io;
        t_cpu = double_float tb.Rules.t_cpu;
        t_width = double tb.Rules.t_width;
      }
  end;
  a.n_groups <- g + 1;
  a.g_set.(g) <- set;
  a.g_out.(g) <- -1;
  a.g_tag.(g) <- no_plan;
  g

let push a kind g arg =
  let d = a.depth in
  if d = Array.length a.t_op then begin
    a.t_op <- double a.t_op;
    a.t_arg <- double a.t_arg
  end;
  a.t_op.(d) <- kind lor (g lsl 2);
  a.t_arg.(d) <- arg;
  a.depth <- d + 1

let add_split a left =
  let k = a.n_splits in
  if k = Array.length a.splits then a.splits <- double a.splits;
  a.splits.(k) <- left;
  a.n_splits <- k + 1

type search = {
  params : params;
  env : Env.t;
  model : Cost.model;
  card : Card.t;
  adj : Relset.t array;
  a : arena;
  mutable tasks : int;
  mutable groups : int;
  mutable lexprs : int;
  mutable phys : int;
  mutable allocated : int;
  mutable cpu_pending : int;
}

let alloc s bytes =
  s.allocated <- s.allocated + bytes;
  s.env.Env.alloc bytes

let find_or_create s set =
  let a = s.a in
  match Gids.find a.gids set with
  | g -> g
  | exception Not_found ->
      let g = new_group a set in
      Gids.add a.gids set g;
      s.groups <- s.groups + 1;
      (* Cardinality estimation for a new group is part of its footprint;
         every join of the group is costed from these two. (For a single
         relation [Card.card] is exactly its filtered base rows.) *)
      a.tb.Rules.t_rows.(g) <- Card.card s.card set;
      a.tb.Rules.t_width.(g) <- Card.width s.card set;
      alloc s group_bytes;
      g

(* Offer the alternative the evaluator left in [a.best]. Strictly cheaper
   replaces: on ties the incumbent (an earlier alternative, or the
   greedy seed) stays. *)
let offer a g tag ~left =
  let tb = a.tb in
  if a.g_tag.(g) = no_plan
     || a.best.(2) < tb.Rules.t_io.(g) +. tb.Rules.t_cpu.(g)
  then begin
    tb.Rules.t_io.(g) <- a.best.(0);
    tb.Rules.t_cpu.(g) <- a.best.(1);
    a.g_tag.(g) <- tag;
    a.g_left.(g) <- left
  end

(* ------------------------------------------------------------------ *)
(* Split enumeration: each unordered partition of [set] once (the side
   holding the lowest relation is the left), both sides connected.
   EnumerateCsg over [set] minus its lowest relation yields the connected
   right sides, linear in the number of *valid* alternatives rather than
   in 2^n; a right side is kept when its complement is connected too.
   Same recursion as {!Query.connected_subsets}, with the filter inline. *)

let rec csg s set rest c prohibited =
  let left = Relset.diff set c in
  if Query.connected_mask s.adj left then add_split s.a left;
  let frontier =
    Relset.diff (Query.neighborhood_mask s.adj c ~within:rest) prohibited
  in
  if frontier <> 0 then begin
    let prohibited = Relset.union prohibited frontier in
    csg s set rest (Relset.union c frontier) prohibited;
    let sub = ref ((frontier - 1) land frontier) in
    while !sub <> 0 do
      csg s set rest (Relset.union c !sub) prohibited;
      sub := (!sub - 1) land frontier
    done
  end

let enumerate_splits s g set =
  let a = s.a in
  a.n_splits <- 0;
  a.split_owner <- g;
  let rest = Relset.diff set (Relset.singleton (Relset.min_elt set)) in
  let todo = ref rest in
  while !todo <> 0 do
    let v = !todo land - !todo in
    todo := !todo lxor v;
    csg s set rest v ((rest land (v - 1)) lor v)
  done;
  (* [connected_subsets] returns its subsets in reverse emission order,
     and that is the order splits have always been explored in. *)
  let i = ref 0 and j = ref (a.n_splits - 1) in
  while !i < !j do
    let t = a.splits.(!i) in
    a.splits.(!i) <- a.splits.(!j);
    a.splits.(!j) <- t;
    incr i;
    decr j
  done

(* ------------------------------------------------------------------ *)
(* Task processing *)

let process_opt_group s set =
  let a = s.a in
  let g = find_or_create s set in
  if a.g_out.(g) < 0 then
    if Relset.cardinal set = 1 then begin
      let i = Relset.min_elt set in
      let n = Rules.leaf_alternative_count s.card i in
      alloc s (phys_bytes * n);
      s.phys <- s.phys + n;
      let tag = Rules.cheapest_leaf_into s.model s.card i ~best:a.best in
      offer a g tag ~left:set;
      a.g_out.(g) <- 0
    end
    else begin
      a.g_out.(g) <- 1;
      enumerate_splits s g set;
      s.lexprs <- s.lexprs + a.n_splits;
      alloc s (lexpr_bytes * a.n_splits);
      push a expand g 0
    end

let process_expand s g cursor =
  let a = s.a in
  assert (a.split_owner = g);
  let set = a.g_set.(g) in
  let stop = min a.n_splits (cursor + s.params.expand_chunk) in
  for i = cursor to stop - 1 do
    let left = a.splits.(i) in
    a.g_out.(g) <- a.g_out.(g) + 1;
    (* LIFO: children optimize before the split is costed. *)
    push a opt_split g left;
    push a opt_group 0 (Relset.diff set left);
    push a opt_group 0 left
  done;
  if stop < a.n_splits then push a expand g stop
  else
    (* Expansion finished: drop its outstanding unit. *)
    a.g_out.(g) <- a.g_out.(g) - 1

(* Both children are finished when a split task runs. The Expand that
   pushed it pushed their optimize tasks on top of it, and every task
   above a split has run by the time it is popped. A child met fresh
   there had its whole subtree pushed and run above the split. A child
   met earlier is finished too: while a group is expanding, every
   optimize task above its lowest pending split is for a strict subset
   of it, so no task can meet it in that state. (The record memo parked
   a split on an unfinished child; that path never ran, and the
   reference keeps it.) *)
let process_opt_split s g left =
  let a = s.a in
  let gl = Gids.find a.gids left in
  let gr = Gids.find a.gids (Relset.diff a.g_set.(g) left) in
  assert (a.g_out.(gl) = 0 && a.g_out.(gr) = 0);
  let tag =
    Rules.cheapest_join_into s.model a.tb ~s:g ~l:gl ~r:gr ~best:a.best
  in
  alloc s (phys_bytes * Rules.join_alternative_count);
  s.phys <- s.phys + Rules.join_alternative_count;
  offer a g tag ~left;
  a.g_out.(g) <- a.g_out.(g) - 1

(* ------------------------------------------------------------------ *)

let flush_cpu s =
  if s.cpu_pending > 0 then begin
    s.env.Env.cpu (float_of_int s.cpu_pending *. s.params.task_cpu);
    s.cpu_pending <- 0
  end

let rec loop s budget =
  let a = s.a in
  if a.depth = 0 then Complete
  else if s.tasks >= budget then Budget_exhausted
  else if s.params.honor_stop_early && s.env.Env.should_stop () then
    Stopped_early
  else begin
    let d = a.depth - 1 in
    a.depth <- d;
    let op = a.t_op.(d) and arg = a.t_arg.(d) in
    s.tasks <- s.tasks + 1;
    s.cpu_pending <- s.cpu_pending + 1;
    if s.cpu_pending >= s.params.cpu_batch then flush_cpu s;
    let kind = op land 3 and g = op lsr 2 in
    if kind = opt_group then process_opt_group s arg
    else if kind = expand then process_expand s g arg
    else process_opt_split s g arg;
    loop s budget
  end

(* The winning tree, from the columns. A group on it is finished (a split
   is costed only once both children are), so its entry is final. *)
let rec build s g =
  let a = s.a in
  let set = a.g_set.(g) in
  if Relset.cardinal set = 1 then
    Rules.leaf_of_tag s.model s.card (Relset.min_elt set) a.g_tag.(g)
  else begin
    let left = a.g_left.(g) in
    let l = build s (Gids.find a.gids left) in
    let r = build s (Gids.find a.gids (Relset.diff set left)) in
    Rules.join_of_tag s.model ~rows:a.tb.Rules.t_rows.(g) a.g_tag.(g) ~l ~r
  end

(* The un-aggregated form of the greedy seed: the memo root joins it. *)
let seed_join (seed : Plan.t) =
  match seed.Plan.node with
  | Plan.Hash_agg (c, _, _) -> c
  | Plan.Stream_agg (c, _, _) ->
      (* Strip the sort the stream aggregate inserted. *)
      (match c.Plan.node with Plan.Sort inner -> inner | _ -> c)
  | _ -> seed

let task_budget params seed =
  (* Budget scales with estimated query cost (dynamic optimization). *)
  min params.max_tasks
    (max params.min_tasks
       (int_of_float (Plan.total_cost seed *. tasks_per_cost)))

let search ~params ~env model cat q a =
  let card = Card.create cat q in
  let full = Relset.full (Query.n_rels q) in
  (* Reset on entry rather than trusting the caller: an aborted previous
     search leaves an arena mid-state. *)
  clear a;
  let s =
    {
      params;
      env;
      model;
      card;
      adj = Query.adjacency q;
      a;
      tasks = 0;
      groups = 0;
      lexprs = 0;
      phys = 0;
      allocated = 0;
      cpu_pending = 0;
    }
  in
  try
    (* Seed: greedy left-deep plan guarantees a complete plan exists from
       the start; its join part is the root's incumbent. *)
    let root = find_or_create s full in
    let seed = Greedy.plan model card in
    let budget = task_budget params seed in
    let seed_join = seed_join seed in
    a.tb.Rules.t_io.(root) <- seed_join.Plan.cost_io;
    a.tb.Rules.t_cpu.(root) <- seed_join.Plan.cost_cpu;
    a.g_tag.(root) <- seed_plan;
    alloc s (phys_bytes * Plan.n_operators seed_join);
    push a opt_group 0 full;
    let outcome =
      try loop s budget with
      | Env.Aborted Env.Out_of_memory when params.honor_stop_early ->
          (* The paper's second extension: when memory runs out
             mid-search, return the best plan from the set of already
             explored plans instead of an out-of-memory error. *)
          Stopped_early
    in
    flush_cpu s;
    let plan =
      Rules.finalize model card
        (if a.g_tag.(root) = seed_plan then seed_join else build s root)
    in
    Ok
      {
        plan;
        cost = Plan.total_cost plan;
        outcome;
        stats =
          {
            tasks = s.tasks;
            groups = s.groups;
            lexprs = s.lexprs;
            phys = s.phys;
            allocated_bytes = s.allocated;
            budget;
          };
      }
  with Env.Aborted reason ->
    (* Hard failure (gateway timeout, or OOM with the best-plan extension
       disabled): surfaces as an error and the client retries. *)
    Error reason

let optimize ?(params = default_params) ?arena ~env model cat q =
  let a = match arena with Some a -> a | None -> create_arena () in
  if a.busy then
    invalid_arg "Cascades.optimize: arena already in use by a live search";
  a.busy <- true;
  Fun.protect
    ~finally:(fun () -> a.busy <- false)
    (fun () -> search ~params ~env model cat q a)

(* ------------------------------------------------------------------ *)
(* The record-and-list memo the flat search above replaced, kept as the
   test oracle: group records, a split record per logical split, a task
   variant on a list stack, and five [Plan.t] trees built per costed
   split. The flat search must agree with it on plan, cost, outcome,
   stats and the exact sequence of environment calls. Its only change
   from the production code it was is a fresh hashtable and fresh group
   records per call instead of an arena. Test-only: no production
   caller. *)

module Reference = struct

  type group_state = Fresh | Expanding | Done

  type group = {
    gset : Relset.t;
    mutable state : group_state;
    mutable best : Plan.t option;
    mutable splits : split array;
        (* valid (left, right) partitions, filled when expansion starts *)
    mutable outstanding : int;
        (* unfinished tasks owned by this group: 1 for the expansion itself
           plus one per recorded split *)
    mutable pending : task list;
        (* split tasks of *parent* groups waiting for this group to finish *)
  }

  (* Child groups are interned into the split record the first time the
     split task runs, so re-runs (after a pending child finishes) and the
     final costing never touch the memo hashtable again. *)
  and split = {
    sl : Relset.t;
    sr : Relset.t;
    mutable child_l : group option;
    mutable child_r : group option;
  }

  (* Tasks carry the group pointer whenever the group is known to exist at
     push time (Expand and Opt_split are only pushed by their own group),
     which keeps the per-task hot path free of hashtable lookups.
     Opt_group keeps the set: creating the group *is* that task's job. *)
  and task =
    | Opt_group of Relset.t
    | Expand of group * int (* cursor into the group's split list *)
    | Opt_split of group * split

  type search = {
    params : params;
    env : Env.t;
    model : Cost.model;
    card : Card.t;
    q : Query.t;
    groups : (Relset.t, group) Hashtbl.t;
    mutable stack : task list;
    mutable tasks : int;
    mutable n_groups : int;
    mutable n_lexprs : int;
    mutable n_phys : int;
    mutable allocated : int;
    mutable cpu_pending : int;
  }

  let alloc s bytes =
    s.allocated <- s.allocated + bytes;
    s.env.Env.alloc bytes

  let push s task = s.stack <- task :: s.stack

  let find_or_create s set =
    match Hashtbl.find_opt s.groups set with
    | Some g -> g
    | None ->
        let g =
          {
            gset = set;
            state = Fresh;
            best = None;
            splits = [||];
            outstanding = 0;
            pending = [];
          }
        in
        Hashtbl.replace s.groups set g;
        s.n_groups <- s.n_groups + 1;
        alloc s group_bytes;
        (* Cardinality estimation for a new group is part of its footprint. *)
        ignore (Card.card s.card set);
        g

  let update_best g plan =
    match g.best with
    | Some b when Plan.total_cost b <= Plan.total_cost plan -> ()
    | _ -> g.best <- Some plan

  let finish_group s g =
    g.state <- Done;
    let pending = g.pending in
    g.pending <- [];
    List.iter (fun t -> push s t) pending

  let group_task_done s g =
    g.outstanding <- g.outstanding - 1;
    if g.outstanding = 0 && g.state = Expanding then finish_group s g

  (* ------------------------------------------------------------------ *)
  (* Task processing *)

  let process_opt_group s set =
    let g = find_or_create s set in
    match g.state with
    | Expanding | Done -> ()
    | Fresh ->
        if Relset.cardinal set = 1 then begin
          let i = Relset.min_elt set in
          let alternatives = Rules.leaf_alternatives s.model s.card i in
          alloc s (phys_bytes * List.length alternatives);
          s.n_phys <- s.n_phys + List.length alternatives;
          List.iter (update_best g) alternatives;
          g.state <- Done;
          finish_group s g
        end
        else begin
          g.state <- Expanding;
          g.outstanding <- 1;
          (* Enumerate the valid logical splits up front: each unordered
             partition once (the side holding the lowest relation is the
             left), both sides connected. EnumerateCsg makes this linear in
             the number of *valid* alternatives rather than in 2^n. *)
          let m = Relset.min_elt set in
          let rest = Relset.diff set (Relset.singleton m) in
          let splits =
            Query.connected_subsets s.q rest
            |> List.filter_map (fun r ->
                   let l = Relset.diff set r in
                   if Query.connected s.q l then
                     Some { sl = l; sr = r; child_l = None; child_r = None }
                   else None)
          in
          g.splits <- Array.of_list splits;
          s.n_lexprs <- s.n_lexprs + Array.length g.splits;
          alloc s (lexpr_bytes * Array.length g.splits);
          push s (Expand (g, 0))
        end

  let process_expand s g cursor =
    let stop = min (Array.length g.splits) (cursor + s.params.expand_chunk) in
    for i = cursor to stop - 1 do
      let sp = g.splits.(i) in
      g.outstanding <- g.outstanding + 1;
      (* LIFO: children optimize before the split is costed. *)
      push s (Opt_split (g, sp));
      push s (Opt_group sp.sr);
      push s (Opt_group sp.sl)
    done;
    if stop < Array.length g.splits then push s (Expand (g, stop))
    else
      (* Expansion finished: drop its outstanding unit. *)
      group_task_done s g

  (* By the time a split task runs, both child groups exist: the Expand
     that pushed the split pushed their Opt_group tasks on top of it, so
     [find_or_create] here is a pure lookup (it never allocates), and the
     pointer is cached in the split for any later re-run. *)
  let split_child s sp side =
    match (side, sp.child_l, sp.child_r) with
    | `L, Some g, _ | `R, _, Some g -> g
    | `L, None, _ ->
        let g = find_or_create s sp.sl in
        sp.child_l <- Some g;
        g
    | `R, _, None ->
        let g = find_or_create s sp.sr in
        sp.child_r <- Some g;
        g

  let process_opt_split s g sp =
    let gl = split_child s sp `L and gr = split_child s sp `R in
    if gl.state <> Done then gl.pending <- Opt_split (g, sp) :: gl.pending
    else if gr.state <> Done then gr.pending <- Opt_split (g, sp) :: gr.pending
    else begin
      match (gl.best, gr.best) with
      | Some pl, Some pr ->
          let alternatives = Rules.join_alternatives s.model s.card pl pr in
          alloc s (phys_bytes * List.length alternatives);
          s.n_phys <- s.n_phys + List.length alternatives;
          List.iter (update_best g) alternatives;
          group_task_done s g
      | _ ->
          (* A Done child always has a best plan (connected subsets always
             have at least the left-deep plan through their members). *)
          assert false
    end

  (* ------------------------------------------------------------------ *)

  let flush_cpu s =
    if s.cpu_pending > 0 then begin
      s.env.Env.cpu (float_of_int s.cpu_pending *. s.params.task_cpu);
      s.cpu_pending <- 0
    end

  let optimize ?(params = default_params) ~env model cat q =
    let card = Card.create cat q in
    let full = Relset.full (Query.n_rels q) in
    let s =
      {
        params;
        env;
        model;
        card;
        q;
        groups = Hashtbl.create 1024;
        stack = [];
        tasks = 0;
        n_groups = 0;
        n_lexprs = 0;
        n_phys = 0;
        allocated = 0;
        cpu_pending = 0;
      }
    in
    try
      (* Seed: greedy left-deep plan guarantees a complete plan exists from
         the start (pre-aggregation form lives in the memo root). *)
      let root = find_or_create s full in
      let seed = Greedy.plan model card in
      let seed_join_cost =
        (* Budget scales with estimated query cost (dynamic optimization). *)
        Plan.total_cost seed
      in
      let budget =
        min params.max_tasks
          (max params.min_tasks
             (int_of_float (seed_join_cost *. tasks_per_cost)))
      in
      (* Keep the un-aggregated seed in the memo for joining purposes. *)
      let seed_join =
        match seed.Plan.node with
        | Plan.Hash_agg (c, _, _) -> c
        | Plan.Stream_agg (c, _, _) ->
            (* Strip the sort the stream aggregate inserted. *)
            (match c.Plan.node with Plan.Sort inner -> inner | _ -> c)
        | _ -> seed
      in
      update_best root seed_join;
      alloc s (phys_bytes * Plan.n_operators seed_join);
      push s (Opt_group full);
      let stopped = ref None in
      let rec loop () =
        match s.stack with
        | [] -> ()
        | task :: rest ->
            if s.tasks >= budget then stopped := Some Budget_exhausted
            else if params.honor_stop_early && s.env.Env.should_stop () then
              stopped := Some Stopped_early
            else begin
              s.stack <- rest;
              s.tasks <- s.tasks + 1;
              s.cpu_pending <- s.cpu_pending + 1;
              if s.cpu_pending >= params.cpu_batch then flush_cpu s;
              (match task with
              | Opt_group set -> process_opt_group s set
              | Expand (g, cursor) -> process_expand s g cursor
              | Opt_split (g, sp) -> process_opt_split s g sp);
              loop ()
            end
      in
      (try loop () with
      | Env.Aborted Env.Out_of_memory when params.honor_stop_early ->
          (* The paper's second extension: when memory runs out mid-search,
             return the best plan from the set of already explored plans
             instead of an out-of-memory error. (The memo always holds a
             complete plan thanks to the greedy seed.) *)
          stopped := Some Stopped_early
      | Env.Aborted _ as e -> raise e);
      flush_cpu s;
      let outcome =
        match !stopped with
        | Some o -> o
        | None -> Complete
      in
      let plan =
        match root.best with
        | Some p -> Rules.finalize model card p
        | None -> seed
      in
      Ok
        {
          plan;
          cost = Plan.total_cost plan;
          outcome;
          stats =
            {
              tasks = s.tasks;
              groups = s.n_groups;
              lexprs = s.n_lexprs;
              phys = s.n_phys;
              allocated_bytes = s.allocated;
              budget;
            };
        }
    with Env.Aborted reason ->
      (* Hard failure (gateway timeout, or OOM with the best-plan extension
         disabled): surfaces as an error and the client retries. *)
      Error reason
end

let optimize_reference = Reference.optimize
