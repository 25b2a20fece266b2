type protocol = Basic | Cp | Leader

type t = {
  protocol : protocol;
  rpc_timeout : float;
  processing_delay : float;
  max_promotions : int option;
  enable_combination : bool;
  enable_fast_path : bool;
  max_rounds : int;
  backoff_min : float;
  backoff_max : float;
  read_attempts : int;
  initial_leader : int;
  adaptive_timeouts : bool;
  adaptive_floor : float;
  adaptive_multiplier : float;
  hedged_reads : bool;
  batch_max : int;
  batch_fill : float;
  pipeline_depth : int;
  epoch_interval : float;
}

let default =
  {
    protocol = Cp;
    rpc_timeout = 2.0;
    processing_delay = 0.02;
    max_promotions = None;
    enable_combination = true;
    enable_fast_path = true;
    max_rounds = 25;
    backoff_min = 0.002;
    backoff_max = 0.040;
    read_attempts = 3;
    initial_leader = 0;
    adaptive_timeouts = false;
    adaptive_floor = 0.05;
    adaptive_multiplier = 3.0;
    hedged_reads = false;
    batch_max = 1;
    batch_fill = 0.005;
    pipeline_depth = 1;
    epoch_interval = 0.0;
  }

let basic = { default with protocol = Basic }

let with_protocol protocol t = { t with protocol }

let leader = { default with protocol = Leader }

let epoch_mode t = t.epoch_interval > 0.0

let throughput_mode t =
  t.batch_max > 1 || t.pipeline_depth > 1 || epoch_mode t

(* Knob validation at construction: each of these combinations is not a
   tuning choice but a contradiction (a batcher that can hold no
   transaction, a pipeline with no slots, a backoff window of negative
   width, an adaptive floor above the cap it feeds). Catching them here
   turns undefined downstream behavior — infinite defer loops, empty
   windows, [Rng.uniform] on an inverted interval — into an immediate,
   descriptive error. *)
let validate t =
  let fail fmt = Printf.ksprintf invalid_arg ("Config.make: " ^^ fmt) in
  if t.batch_max < 1 then fail "batch_max = %d (must be >= 1)" t.batch_max;
  if t.pipeline_depth < 1 then
    fail "pipeline_depth = %d (must be >= 1)" t.pipeline_depth;
  if t.epoch_interval < 0.0 then
    fail "epoch_interval = %g (must be >= 0; 0 disables epoch sealing)"
      t.epoch_interval;
  if t.backoff_min > t.backoff_max then
    fail "backoff_min = %g > backoff_max = %g" t.backoff_min t.backoff_max;
  if t.adaptive_floor > t.rpc_timeout then
    fail "adaptive_floor = %g > rpc_timeout = %g (the floor feeds a timeout capped at rpc_timeout)"
      t.adaptive_floor t.rpc_timeout;
  t

let make ?(base = default) ?rpc_timeout ?backoff_min ?backoff_max
    ?adaptive_floor ?batch_max ?pipeline_depth ?epoch_interval () =
  let field v = function Some v -> v | None -> v in
  validate
    {
      base with
      rpc_timeout = field base.rpc_timeout rpc_timeout;
      backoff_min = field base.backoff_min backoff_min;
      backoff_max = field base.backoff_max backoff_max;
      adaptive_floor = field base.adaptive_floor adaptive_floor;
      batch_max = field base.batch_max batch_max;
      pipeline_depth = field base.pipeline_depth pipeline_depth;
      epoch_interval = field base.epoch_interval epoch_interval;
    }

let throughput ?(batch_max = 8) ?(pipeline_depth = 4) t =
  validate { t with protocol = Leader; batch_max; pipeline_depth }

let epoch ?(fill = 64) ?(pipeline_depth = 1) ?(interval = 0.05) t =
  validate
    {
      t with
      protocol = Leader;
      batch_max = fill;
      pipeline_depth;
      epoch_interval = interval;
    }

let protocol_name = function
  | Basic -> "paxos"
  | Cp -> "paxos-cp"
  | Leader -> "leader"

let pp_protocol ppf p = Format.pp_print_string ppf (protocol_name p)
