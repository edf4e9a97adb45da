type t = {
  enabled : bool;
  max_retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  jitter_frac : float;
}

let shed_factor = 3.0
let deadline_s = 1800.

let disabled =
  {
    enabled = false;
    max_retries = 0;
    backoff_base_s = 0.;
    backoff_max_s = 0.;
    jitter_frac = 0.;
  }

(* Backoff sized for minutes-long pressure transients: five attempts
   spread over up to ~8 simulated minutes, so a query submitted mid-storm
   usually survives to the release. *)
let default =
  {
    enabled = true;
    max_retries = 5;
    backoff_base_s = 15.;
    backoff_max_s = 240.;
    jitter_frac = 0.5;
  }

let backoff t ~attempt ~rng =
  (* Clamp rather than trust the caller: an attempt counter that underflowed
     to 0 or negative gets the base pause, and a policy hand-built with a
     negative jitter fraction or cap must never produce a negative sleep
     (the engine would reject it mid-run, after hours of simulation). *)
  let attempt = max 1 attempt in
  let base =
    Float.max 0.
      (Float.min t.backoff_max_s
         (t.backoff_base_s *. (2. ** float_of_int (attempt - 1))))
  in
  let jitter_span = t.jitter_frac *. base in
  if jitter_span > 0. then base +. Sim.Rng.float rng jitter_span else base

module Budget = struct
  type config = {
    initial : float;  (* tokens in the bucket at creation *)
    earn_per_success : float;  (* tokens added per successful query *)
    max_tokens : float;  (* bucket cap *)
    spend_per_retry : float;  (* tokens one retry costs *)
  }

  (* 10% default earn rate: sustained retry traffic is capped at one
     retry per ten successes, the fraction at which retries stop being
     able to keep a storm alive on their own. The initial grant covers a
     client's cold start before it has any goodput to earn from. *)
  let default_config =
    {
      initial = 10.;
      earn_per_success = 0.1;
      max_tokens = 10.;
      spend_per_retry = 1.;
    }

  type t = {
    cfg : config;
    mutable balance : float;
    mutable earns : int;  (* successes credited, before the cap *)
    mutable capped : float;  (* earnings discarded at the cap *)
    mutable capped_err : float;  (* Kahan compensation for [capped] *)
    mutable spends : int;  (* retries paid for *)
    mutable denied : int;
  }

  let create cfg =
    if cfg.initial < 0. then invalid_arg "Budget: negative initial";
    if cfg.earn_per_success < 0. then invalid_arg "Budget: negative earn";
    if cfg.max_tokens < 0. then invalid_arg "Budget: negative cap";
    if cfg.spend_per_retry <= 0. then
      invalid_arg "Budget: spend_per_retry must be > 0";
    {
      cfg;
      balance = Float.min cfg.initial cfg.max_tokens;
      earns = 0;
      capped = 0.;
      capped_err = 0.;
      spends = 0;
      denied = 0;
    }

  let try_spend t =
    if t.balance >= t.cfg.spend_per_retry then begin
      t.balance <- t.balance -. t.cfg.spend_per_retry;
      t.spends <- t.spends + 1;
      true
    end
    else begin
      t.denied <- t.denied + 1;
      false
    end

  (* The cumulative ledgers are kept free of rounding drift so the
     conservation invariant holds to an ulp over any run length: [earned]
     and [spent] are counts times their rates, and [capped] is a
     compensated (Kahan) sum. Plain running sums of thousands of equal
     increments drift by more than 1e-9 from [balance]. *)
  let earn t =
    t.earns <- t.earns + 1;
    let next = t.balance +. t.cfg.earn_per_success in
    if next > t.cfg.max_tokens then begin
      let y = next -. t.cfg.max_tokens -. t.capped_err in
      let sum = t.capped +. y in
      t.capped_err <- sum -. t.capped -. y;
      t.capped <- sum;
      t.balance <- t.cfg.max_tokens
    end
    else t.balance <- next

  let balance t = t.balance
  let earned t = float_of_int t.earns *. t.cfg.earn_per_success
  let capped t = t.capped
  let spent t = float_of_int t.spends *. t.cfg.spend_per_retry
  let denied t = t.denied
  let config t = t.cfg
end

let pp ppf t =
  if not t.enabled then Format.fprintf ppf "resilience OFF"
  else
    Format.fprintf ppf
      "resilience ON: retries<=%d backoff %.0f-%.0fs (jitter %.0f%%), \
       degrade=true shed=true (factor %.1f), deadline %.0fs"
      t.max_retries t.backoff_base_s t.backoff_max_s (100. *. t.jitter_frac)
      shed_factor deadline_s
