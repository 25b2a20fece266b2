(** The Transaction Service of one datacenter (§4, Algorithm 1).

    One service runs per datacenter; it owns the datacenter's key-value
    store and write-ahead-log view, and handles every request kind of
    {!Messages}. Service processes are stateless in the paper's sense: all
    durable protocol state — the Paxos acceptor state per log position and
    the log itself — lives in the key-value store and is updated with
    [check_and_write] retry loops exactly as in Algorithm 1, so any number
    of concurrent request handlers are safe.

    Fault tolerance (§4.1): a read at a position this datacenter has not
    fully received runs the learner ({!Proposer.learn}) for each missing
    log entry before answering, which is also how a recovering datacenter
    catches up. *)

type t

val start :
  ?storage:Mdds_kvstore.Store.mode ->
  rpc:(Messages.request, Messages.response) Mdds_net.Rpc.t ->
  config:Config.t ->
  dc:int ->
  dcs:int list ->
  trace:Mdds_sim.Trace.t ->
  unit ->
  t
(** Create the datacenter's store/log and register the request handler on
    the RPC service port. [storage] selects the store's durability model
    (default [Sync_always], the pre-existing always-durable behaviour; the
    chaos engine uses [Sync_explicit] to exercise dirty and torn
    crashes). *)

val dc : t -> int
val store : t -> Mdds_kvstore.Store.t
val wal : t -> Mdds_wal.Wal.t

val learns : t -> int
(** How many missing log entries this service has learned (telemetry). *)

val snapshots : t -> int
(** How many peer snapshots this service installed during catch-up. *)

type recovery_stats = {
  recoveries : int;
      (** Restarts whose recovery scan found damage (torn versions
          scrubbed or the log truncated). *)
  scrubbed : int;  (** Checksum-invalid versions dropped across restarts. *)
  relearned : int;
      (** Quarantined positions re-entered after their decided value was
          re-learned from peers (or checkpointed past). *)
}

val recovery_stats : t -> recovery_stats
(** Crash-recovery telemetry (PROTOCOL.md §7), reported by the chaos
    runner. *)

type dedup_stats = {
  dup_applies : int;
      (** Apply notifications for a position the log already holds —
          duplicated one-way messages (or proposer retries) absorbed by
          {!Mdds_wal.Wal.append}'s idempotence instead of applied twice. *)
  dup_claims : int;
      (** Leadership claims replayed by the registered owner; answered
          from the durable first-wins register, never re-granted. *)
  dup_submits : int;
      (** Submissions whose transaction the log already holds — a
          duplicated or replayed [Submit] is answered with the original
          position instead of being sequenced twice (an L2 violation;
          found by gray-failure chaos under the leader protocol). *)
}

val dedup_stats : t -> dedup_stats
(** Duplicate-delivery telemetry (gray-failure chaos: duplicating links),
    reported by the chaos runner. *)

type throughput_stats = {
  batches : int;
      (** Log positions proposed by the batched path (each holds a
          Combine-validated batch of 1..[batch_max] transactions). *)
  batched_txns : int;  (** Transactions those positions carried. *)
  pipelined_rounds : int;
      (** Sequenced round-0 accept rounds launched with earlier positions
          still in flight (the k-deep pipeline actually overlapping). *)
  pipeline_stalls : int;
      (** Times a failed round forced the window to be resolved in log
          order through the full protocol before new positions opened. *)
  epochs_sealed : int;
      (** Epoch mode ({!Config.epoch_mode}): epochs sealed and proposed
          as one multi-record log entry each (PROTOCOL.md §11). Every
          sealed epoch is also counted in [batches]. *)
  epoch_txns : int;  (** Transactions those sealed epochs carried. *)
}

val throughput_stats : t -> throughput_stats
(** Throughput-mode telemetry (DESIGN.md §14–§15). All zero unless
    {!Config.throughput_mode}: a drainer sealing at one proposes each
    submission alone and counts no batches. The epoch counters are zero
    unless {!Config.epoch_mode}. *)

type twopc_stats = {
  twopc_prepares : int;
      (** Prepare marker records this service absorbed into its in-doubt
          table (from its own admissions, applies it received, and
          restart rescans — observations, not distinct transactions). *)
  twopc_resolved : int;
      (** In-doubt transactions this service's resolver settled by
          logging a decision and outcome (PROTOCOL.md §10). *)
  in_doubt_replies : int;
      (** [In_doubt] submit replies returned to clients: the submission
          was exposed to acceptors but its fate was unknown when the
          manager gave up (honest "unknown", never a silent drop). *)
}

val twopc_stats : t -> twopc_stats
(** Multi-shot-commit telemetry, reported by the chaos runner. All zero
    when no cross-group transactions run. *)

val arm_2pc_trap : t -> (unit -> unit) -> unit
(** Chaos hook: fire [f] (in a fresh fiber) the next time an entry
    containing a 2PC prepare marker crosses this service — on an Accept
    (possibly before the entry decides) or an Apply. One-shot; dropped by
    {!restart}. The nemesis uses it to aim crashes and partitions at the
    prepare→decide window ([mid-2pc] faults). *)

val compact : t -> group:string -> upto:int -> (unit, [ `Not_applied ]) result
(** Checkpoint: discard the applied log prefix 1..[upto] and its Paxos
    acceptor state. Refused if the prefix is not fully applied. Replicas
    that later need a discarded entry catch up via a peer snapshot
    ({!Mdds_wal.Wal.install_snapshot}). *)

val restart : t -> unit
(** Simulate a service-process restart: volatile state (leadership claims,
    the manager's fast-path streak, the batched drainers' queues, and the
    decoded WAL/acceptor caches) is dropped; durable state — the log and the Paxos
    acceptor state in the key-value store — survives, so promises made
    before the restart are still honoured. The caches rebuild lazily from
    the durable rows.

    Before serving again, the crash-consistency scan of PROTOCOL.md §7
    runs for every durable group: checksum-invalid (torn) versions are
    scrubbed, the WAL's watermarks and lazily-applied data are re-derived
    from the surviving log ({!Mdds_wal.Wal.recover}), and positions whose
    durable acceptor or claim rows were damaged are quarantined — Paxos
    messages for them are refused until the decided value is re-learned
    from peers (or checkpointed past), never re-voted from the reverted
    state. In [Sync_always] mode the scan finds nothing and the restart
    behaves exactly as before. *)

(** {1 Direct (in-process) access for tests and checkers} *)

val acceptor_state :
  t -> group:string -> pos:int ->
  Mdds_types.Txn.entry Mdds_paxos.Acceptor.state
(** The acceptor state currently persisted for a position (served from the
    write-through decoded cache; the durable row is the truth). *)

val cache_coherent : t -> group:string -> (unit, string) result
(** Cache-coherence oracle: the decoded WAL view ({!Mdds_wal.Wal.coherence})
    and the decoded acceptor-state cache both equal a fresh decode of the
    durable store, and the decoded view never claims an entry the durable
    store could not re-produce after a dirty crash
    ({!Mdds_wal.Wal.durable_coherent}). Mutates nothing; the chaos engine
    checks it after every fault event. *)

val handle : t -> src:int -> Messages.request -> Messages.response
(** Process a request synchronously, bypassing the network (used by unit
    tests; the RPC path calls this same function). May block on the
    simulator if it needs to learn missing entries. *)
