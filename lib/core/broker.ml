type verdict = Can_grow | Hold_rate | Must_shrink

type notification = {
  verdict : verdict;
  target : int;
  predicted : int;
  pressure : bool;
}

(* Seconds between broker ticks. *)
let interval = 1.0

(* Prediction horizon, seconds. *)
let horizon = 5.0

(* Trend window, in samples. *)
let window = 10

let reserved_fraction = 0.05

(* Tolerated overshoot before demanding a shrink. *)
let shrink_slack = 0.02

type component = {
  name : string;
  clerk : Dbmem.Manager.clerk;
  weight : float;
  min_bytes : int;
  demand : (unit -> int) option;
  notify : (notification -> unit) option;
  reclaim : (int -> int) option;
  trend : Trend.t;
  mutable ctarget : int;
  mutable last : notification option;
  mutable over_ticks : int;
  mutable last_used : int;
  (* This tick's sample, prediction and target, and whether the pressure
     split has pinned the component at its floor: scratch, so a tick
     allocates no per-component lists. *)
  mutable used : int;
  mutable predicted : int;
  mutable target : int;
  mutable pinned : bool;
}

type t = {
  eng : Sim.Engine.t;
  manager : Dbmem.Manager.t;
  insist_after : int;
  trace : Obs.Trace.t;
  mutable comps : component array;
  mutable pressure : bool;
  mutable ticks : int;
  mutable timer : Sim.Engine.handle option;
  mutable forced_reclaims : int;
  mutable predicted_sum : int;
}

let create ?(trace = Obs.Trace.null) ?(insist_after = 0) eng manager =
  {
    eng;
    manager;
    insist_after;
    trace;
    comps = [||];
    pressure = false;
    ticks = 0;
    timer = None;
    forced_reclaims = 0;
    predicted_sum = 0;
  }

let brokered_bytes t =
  int_of_float
    (float_of_int (Dbmem.Manager.total t.manager)
    *. (1. -. reserved_fraction))

let components t = Array.to_list t.comps

let register t ~name ~clerk ?(weight = 1.) ?(min_bytes = 0) ?demand ?notify
    ?reclaim () =
  if weight <= 0. then invalid_arg "Broker.register: weight must be > 0";
  let c =
    {
      name;
      clerk;
      weight;
      min_bytes;
      demand;
      notify;
      reclaim;
      trend = Trend.create ~window ();
      ctarget = 0;
      last = None;
      over_ticks = 0;
      last_used = 0;
      used = 0;
      predicted = 0;
      target = 0;
      pinned = false;
    }
  in
  t.comps <- Array.append t.comps [| c |];
  (* Before the first tick, hand out even shares so targets are sane. *)
  let n = Array.length t.comps in
  Array.iter (fun c -> c.ctarget <- brokered_bytes t / n) t.comps;
  c

(* Split [budget] over the components proportionally to weighted
   predicted demand into their [target], honouring [min_bytes] floors
   without overflowing the budget: a component whose proportional share
   falls below its floor is pinned at the floor and the remainder is
   re-split among the rest. Terminates because each round pins at least
   one component. When the floors alone exceed the budget every
   component gets exactly its floor — the overshoot lands in the
   manager's reserved slack rather than being invented per-component. *)
let split_under_pressure budget comps =
  Array.iter (fun c -> c.pinned <- false) comps;
  let budget = ref budget and settled = ref false in
  while not !settled do
    let left = ref 0 and floors = ref 0 and demand_sum = ref 0. in
    for i = 0 to Array.length comps - 1 do
      let c = comps.(i) in
      if not c.pinned then begin
        incr left;
        floors := !floors + c.min_bytes;
        demand_sum :=
          !demand_sum +. (c.weight *. float_of_int (max 1 c.predicted))
      end
    done;
    if !left = 0 then settled := true
    else if !floors >= !budget then begin
      Array.iter (fun c -> if not c.pinned then c.target <- c.min_bytes) comps;
      settled := true
    end
    else begin
      let pinned_now = ref 0 and pinned_bytes = ref 0 in
      for i = 0 to Array.length comps - 1 do
        let c = comps.(i) in
        if not c.pinned then begin
          let share =
            int_of_float
              (float_of_int !budget
              *. (c.weight *. float_of_int (max 1 c.predicted))
              /. !demand_sum)
          in
          if share < c.min_bytes then begin
            c.pinned <- true;
            c.target <- c.min_bytes;
            incr pinned_now;
            pinned_bytes := !pinned_bytes + c.min_bytes
          end
          else c.target <- share
        end
      done;
      if !pinned_now = 0 then settled := true
      else budget := !budget - !pinned_bytes
    end
  done

(* One broker cycle: sample, predict, split the budget, notify. *)
let tick t =
  let comps = t.comps in
  t.ticks <- t.ticks + 1;
  if Array.length comps > 0 then begin
    let now = Sim.Engine.now t.eng in
    let budget = brokered_bytes t in
    (* 1. Sample and predict. *)
    let total_predicted = ref 0 in
    for i = 0 to Array.length comps - 1 do
      let c = comps.(i) in
      let used = Dbmem.Manager.clerk_used c.clerk in
      let demand =
        match c.demand with Some f -> max used (f ()) | None -> used
      in
      Trend.observe c.trend ~time:now (float_of_int demand);
      c.used <- used;
      c.predicted <-
        (match Trend.predict c.trend ~horizon with
        | None -> demand
        | Some p -> max demand (int_of_float p));
      total_predicted := !total_predicted + c.predicted
    done;
    let total_predicted = !total_predicted in
    let pressure = total_predicted > budget in
    t.pressure <- pressure;
    t.predicted_sum <- total_predicted;
    (* 2. Compute targets. *)
    if not pressure then begin
      (* No action needed: targets are "your prediction plus your share of
         the slack" so components know how much headroom exists. *)
      let slack = budget - total_predicted in
      let weight_sum = ref 0. in
      for i = 0 to Array.length comps - 1 do
        weight_sum := !weight_sum +. comps.(i).weight
      done;
      for i = 0 to Array.length comps - 1 do
        let c = comps.(i) in
        let share = float_of_int slack *. (c.weight /. !weight_sum) in
        c.target <- max c.min_bytes (c.predicted + int_of_float share)
      done
    end
    else
      (* Pressure: distribute the budget proportionally to weighted
         predicted demand, pinning components at their [min_bytes]
         floor and re-splitting the remainder so targets never sum
         past the budget. *)
      split_under_pressure budget comps;
    (* 3. Decide verdicts and notify. *)
    let samples_rev = ref [] in
    for i = 0 to Array.length comps - 1 do
      let c = comps.(i) in
      let used = c.used and predicted = c.predicted and target = c.target in
      c.ctarget <- target;
      let verdict =
        if float_of_int used > float_of_int target *. (1. +. shrink_slack)
        then Must_shrink
        else if predicted > target then Hold_rate
        else Can_grow
      in
      if Obs.Trace.enabled t.trace then
        samples_rev :=
          {
            Obs.Event.comp = c.name;
            used;
            predicted;
            target;
            verdict =
              (match verdict with
              | Can_grow -> Obs.Event.Grow
              | Hold_rate -> Obs.Event.Stable
              | Must_shrink -> Obs.Event.Shrink);
          }
          :: !samples_rev;
      let n = { verdict; target; predicted; pressure } in
      c.last <- Some n;
      (match c.notify with None -> () | Some f -> f n);
      (* Shrink compliance: a component that stays above target for
         [insist_after] consecutive ticks has ignored its notifications,
         and the broker insists, reclaiming through the component's own
         hook. Only components that registered a hook can be forced —
         a hookless consumer (the ballast, a query mid-flight) is
         outside the broker's writ, exactly like the paper's external
         memory pressure, and squeezing innocent donors on its behalf
         would only burn cache hits. *)
      (match (verdict, c.reclaim) with
      | Must_shrink, Some reclaim ->
          (* A component whose usage is falling is complying, just
             slowly; insistence is for components that ignore the
             verdict. *)
          if used < c.last_used then c.over_ticks <- 0
          else c.over_ticks <- c.over_ticks + 1;
          if t.insist_after > 0 && c.over_ticks >= t.insist_after then begin
            c.over_ticks <- 0;
            let wanted = max 0 (used - target) in
            let freed = reclaim wanted in
            t.forced_reclaims <- t.forced_reclaims + 1;
            if Obs.Trace.enabled t.trace then
              Obs.Trace.emit t.trace ~time:now ~qid:""
                (Obs.Event.Forced_reclaim { comp = c.name; wanted; freed })
          end
      | _ -> c.over_ticks <- 0);
      c.last_used <- used
    done;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.emit t.trace ~time:now ~qid:""
        (Obs.Event.Broker_tick
           { pressure; budget; components = List.rev !samples_rev })
  end

let start t =
  match t.timer with
  | Some _ -> ()
  | None ->
      t.timer <-
        Some (Sim.Engine.every t.eng ~interval (fun () -> tick t))

let stop t =
  match t.timer with
  | None -> ()
  | Some h ->
      Sim.Engine.cancel h;
      t.timer <- None

let under_pressure t = t.pressure
let ticks t = t.ticks
let predicted_total t = t.predicted_sum
let forced_reclaims t = t.forced_reclaims
let component_name c = c.name
let last_notification c = c.last
let target c = c.ctarget

let pp ppf t =
  Format.fprintf ppf "@[<v>broker ticks=%d pressure=%b budget=%a@," t.ticks
    t.pressure Dbmem.Units.pp_bytes (brokered_bytes t);
  List.iter
    (fun c ->
      let used = Dbmem.Manager.clerk_used c.clerk in
      Format.fprintf ppf "  %-12s used=%a target=%a@," c.name
        Dbmem.Units.pp_bytes used Dbmem.Units.pp_bytes c.ctarget)
    (components t);
  Format.fprintf ppf "@]"
