(** Transaction-tier configuration.

    The defaults reproduce the paper's prototype (§6): 2 s message-loss
    timeout, the leader-per-position fast path enabled, combination and
    unlimited promotion for Paxos-CP. *)

type protocol =
  | Basic  (** The basic Paxos commit protocol (§4). *)
  | Cp  (** Paxos-CP: combination + promotion (§5). *)
  | Leader
      (** The long-term-leader design the paper sketches as related/future
          work (§7–§8): clients ship their whole transaction to one
          designated site, which orders transactions, performs fine-grained
          conflict checks against committed state, and replicates log
          entries with Multi-Paxos-style single-round accepts. Fewer
          message rounds per commit, but a single site does most of the
          work and remote clients pay a wide-area hop. *)

type t = {
  protocol : protocol;
  rpc_timeout : float;
      (** Seconds before an unanswered message counts as lost (paper: 2 s). *)
  processing_delay : float;
      (** Service-side processing time per request, seconds — stands in for
          the HBase operation cost in the paper's prototype. *)
  max_promotions : int option;
      (** Promotion attempts before aborting; [None] = unlimited (paper). *)
  enable_combination : bool;  (** Paxos-CP combination enhancement. *)
  enable_fast_path : bool;
      (** Leader-per-log-position optimization (§4.1): skip the prepare
          phase when first at the position's leader. *)
  max_rounds : int;
      (** Ballot attempts per log position before reporting the system
          unavailable (liveness valve; Paxos alone cannot guarantee
          termination under contention). *)
  backoff_min : float;
  backoff_max : float;
      (** Uniform random sleep bounds (seconds) before re-entering the
          prepare phase (Algorithm 2, lines 40 and 55). *)
  read_attempts : int;
      (** How many datacenters a client tries for [begin]/[read] before
          giving up (local first, then random others; §2.2). *)
  initial_leader : int;
      (** [Leader] protocol: the datacenter clients prefer as transaction
          manager; on unreachability they probe the next one (round-robin). *)
  adaptive_timeouts : bool;
      (** [false] (paper behaviour, default): every call and broadcast
          waits the fixed [rpc_timeout]. [true]: per-destination adaptive
          timeouts from an EWMA of observed RTTs ({!Rtt}), clamped to
          [[adaptive_floor, rpc_timeout]] — a slow-but-alive or silent
          datacenter is given up on after a few believed RTTs instead of
          the full fixed window. Off ⇒ byte-identical figures. *)
  adaptive_floor : float;
      (** Lower clamp of the adaptive timeout (seconds); guards against
          an over-confident estimator starving a genuinely slow reply. *)
  adaptive_multiplier : float;
      (** Adaptive timeout = [adaptive_multiplier × ewma RTT], clamped. *)
  hedged_reads : bool;
      (** [false] (paper behaviour, default): [begin]/[read] fall back to
          the other datacenters in random order after full timeouts.
          [true]: fall back in nearest-first order (lowest estimated RTT
          first) after the adaptive per-destination delay — the hedged
          failover that keeps reads live while a local datacenter is slow
          or half-cut. Requires {!adaptive_timeouts} to shorten the
          per-destination wait; the ordering alone needs only samples. *)
  batch_max : int;
      (** [Leader] protocol throughput mode: max queued transactions the
          manager combines into one log position ({!Mdds_core.Combine}'s
          validity rule orders them). [1] (default) disables batching:
          with [pipeline_depth = 1] and no epoch the drainer seals at
          one, proposing every submission alone as the paper's manager
          does. *)
  batch_fill : float;
      (** Fill-or-timeout: once the manager has at least one queued
          transaction but fewer than [batch_max], it waits at most this
          many seconds for more before proposing (only read when
          [batch_max > 1]). *)
  pipeline_depth : int;
      (** [Leader] protocol throughput mode: concurrent in-flight log
          positions the manager may keep open (Multi-Paxos pipelining;
          positions assigned eagerly, applies stay in log order via the
          WAL watermark, failures fall back to in-order single-position
          resolution). [1] (default) disables pipelining. *)
  epoch_interval : float;
      (** [Leader] protocol epoch-sealed commit (PROTOCOL.md §11): [> 0]
          switches the per-group drainer from fill-or-timeout batching to
          epoch sealing — submissions are admitted into the open epoch
          under the batching predicates, the epoch seals after this many
          seconds (or earlier when [batch_max], acting as the fill bound,
          is reached), and the sealed epoch is proposed as one
          multi-record log entry: one consensus round amortized over the
          whole window. [0.0] (default) disables epoch sealing, so all
          paper figures take the unchanged path. *)
}

val default : t
(** Paxos-CP with the paper's parameters. *)

val basic : t
(** [default] with [protocol = Basic]. *)

val leader : t
(** [default] with [protocol = Leader]. *)

val throughput_mode : t -> bool
(** True iff batching, pipelining, or epoch sealing is enabled
    ([batch_max > 1], [pipeline_depth > 1], or [epoch_interval > 0]).
    Off in {!default}/{!basic}/{!leader}: the manager's drainer then
    seals at one, proposing each submission alone (DESIGN.md §14). *)

val epoch_mode : t -> bool
(** True iff epoch sealing is enabled ([epoch_interval > 0]). Implies
    {!throughput_mode}. *)

val throughput : ?batch_max:int -> ?pipeline_depth:int -> t -> t
(** Steady-state throughput mode: [Leader] protocol with batching
    (default [batch_max = 8]) and pipelining (default
    [pipeline_depth = 4]) enabled. Validates like {!make}. *)

val epoch : ?fill:int -> ?pipeline_depth:int -> ?interval:float -> t -> t
(** Epoch-sealed commit mode: [Leader] protocol with [epoch_interval]
    set to [interval] (default 0.05 s), [batch_max] repurposed as the
    epoch fill bound (default [fill = 64]) and [pipeline_depth]
    (default 1: one epoch in flight at a time). Validates like
    {!make}. *)

val make :
  ?base:t ->
  ?rpc_timeout:float ->
  ?backoff_min:float ->
  ?backoff_max:float ->
  ?adaptive_floor:float ->
  ?batch_max:int ->
  ?pipeline_depth:int ->
  ?epoch_interval:float ->
  unit ->
  t
(** [make ()] is {!default}; each optional argument overrides one field
    of [base] (default {!default}). Raises [Invalid_argument] with a
    descriptive message on contradictory knobs: [batch_max < 1],
    [pipeline_depth < 1], [epoch_interval < 0],
    [backoff_min > backoff_max], or
    [adaptive_floor > rpc_timeout] — each of which would otherwise be
    undefined behavior downstream (empty batch windows, inverted
    backoff intervals, a timeout floor above its cap). *)

val with_protocol : protocol -> t -> t

val pp_protocol : Format.formatter -> protocol -> unit
val protocol_name : protocol -> string
