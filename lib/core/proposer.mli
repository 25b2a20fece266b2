(** The proposer side of one Paxos instance (Algorithm 2's message loop).

    Drives prepare → accept → apply for a single log position, retrying
    with larger ballots and randomized backoff, exactly as the Transaction
    Client does on commit. The value-selection policy is a callback so the
    same engine serves three users:

    - basic Paxos commit: [findWinningVal] ({!Mdds_paxos.Tally.find_winning});
    - Paxos-CP commit: [enhancedFindWinningVal] (combination / promotion);
    - the Transaction Service's learner, which drives a position it missed
      to completion without preferring any value (§4.1, fault tolerance).

    The apply phase is one-way to every datacenter (Figure 3, step 6). *)

module Txn = Mdds_types.Txn
module Ballot = Mdds_paxos.Ballot
module Tally = Mdds_paxos.Tally

type env = {
  rpc : (Messages.request, Messages.response) Mdds_net.Rpc.t;
  config : Config.t;
  dc : int;  (** Datacenter this proposer runs in (message source). *)
  dcs : int list;  (** All datacenters (the acceptors). *)
  rng : Mdds_sim.Rng.t;  (** Backoff randomness. *)
  trace : Mdds_sim.Trace.t;  (** Protocol event trace (usually disabled). *)
  trace_source : string;
      (** Interned trace source ("prop.dc<N>"): built once per env so the
          per-instance hot path never formats it. Use {!make_env}. *)
  rtt : Rtt.t option;
      (** Per-destination RTT estimator; [Some] iff
          [config.adaptive_timeouts || config.hedged_reads] (see
          {!make_env}), [None] under the paper's fixed-timeout default. *)
}

val make_env :
  rpc:(Messages.request, Messages.response) Mdds_net.Rpc.t ->
  config:Config.t ->
  dc:int ->
  dcs:int list ->
  rng:Mdds_sim.Rng.t ->
  trace:Mdds_sim.Trace.t ->
  env
(** Build an env with its interned trace source (and, when the config
    asks for adaptive timeouts or hedged reads, its RTT estimator). *)

val timeout_for : env -> dst:int -> float
(** The wait for a single call to [dst]: the adaptive per-destination
    timeout when [config.adaptive_timeouts], else exactly
    [config.rpc_timeout] (the paper's fixed 2 s). *)

val broadcast_timeout : env -> float
(** The wait for a quorum round: max adaptive timeout over all
    datacenters when [config.adaptive_timeouts], else
    [config.rpc_timeout]. *)

type choice =
  | Propose of Txn.entry
      (** Run the accept phase with this value at the current ballot. *)
  | Stop of Txn.entry
      (** A different value is already chosen — abandon the instance
          without sending accepts (§5, Promotion's early termination). *)
  | Retry
      (** No usable value (learner saw only null votes); back off and
          prepare again. *)

type result =
  | Decided of Txn.entry
      (** The accept phase reached a majority for this value; apply was
          broadcast. The value is chosen for the position. *)
  | Observed of Txn.entry
      (** The chooser stopped early: this value was observed chosen. *)
  | Unavailable
      (** [max_rounds] exhausted without a quorum — datacenters down,
          partition, or persistent contention. *)
  | Compacted
      (** A quorum refused a prepare because the position is at or below
          its compaction point: it was decided before this proposal
          reached it, and the caller's log is behind the peers'
          checkpoint. *)

type stats = {
  prepare_rounds : int;
  accept_rounds : int;
  fast_path_used : bool;
}

val run :
  env ->
  group:string ->
  pos:int ->
  ?fast:Txn.entry ->
  choose:(Txn.entry Tally.response list -> choice) ->
  unit ->
  result * stats
(** Run the instance. With [?fast], first attempt the leader fast path:
    an accept round at the round-0 ballot with the given value, skipping
    prepare (§4.1); on failure fall through to the full protocol. The
    caller is responsible for having claimed leadership before passing
    [?fast]. [choose] receives the quorum's last-vote responses. *)

val run_fast :
  env -> group:string -> pos:int -> sequenced:Txn.entry option -> Txn.entry -> bool
(** Throughput mode (DESIGN.md §14): one round-0 accept for an eagerly
    assigned pipelined position, true iff a quorum voted (the entry is then
    chosen and apply was broadcast). No full-protocol fallback — on false
    the caller's window resolution recovers the position in log order.
    With [sequenced = Some prev] — [prev] being the entry this leader
    proposed at [pos - 1] — acceptors grant only if their vote at
    [pos - 1] is exactly (round-0 ballot, [prev]), so success proves the
    whole in-flight prefix is chosen with this leader's entries (safe to
    report out of order). *)

val learn : env -> group:string -> pos:int -> Txn.entry option
(** Drive the instance for a position whose value this datacenter missed,
    returning the chosen value ([None] if no quorum is reachable or no
    value has been proposed yet). Never introduces a new value. *)
