(** Wire messages between Transaction Clients and Transaction Services.

    One request/response pair per protocol step: the transaction API
    ([begin]/[read], §4 steps 1–2) and the three Paxos phases
    (prepare/accept/apply, Figure 3), plus the leadership claim of the
    fast-path optimization (§4.1). *)

module Ballot = Mdds_paxos.Ballot
module Txn = Mdds_types.Txn

type submit_result =
  | Accepted_at of int  (** Committed at this log position. *)
  | Stale_read
      (** The transaction read data that was overwritten after its read
          position: serializing it now would lose an update. *)
  | No_quorum  (** The manager could not replicate (no majority). *)
  | In_doubt
      (** The manager gave up after sending accepts: the transaction may
          still be driven to a decision by another proposer. *)

type request =
  | Get_read_position of { group : string }
      (** [begin]: position of the last locally written log entry. *)
  | Read of { group : string; key : string; position : int }
      (** Read [key] as of log position [position] (property (A2)). *)
  | Prepare of { group : string; pos : int; ballot : Ballot.t }
  | Accept of {
      group : string;
      pos : int;
      ballot : Ballot.t;
      entry : Txn.entry;
      sequenced : Txn.entry option;
    }
      (** [sequenced]: a pipelined round-0 accept (throughput mode),
          carrying the entry the leader proposed at [pos - 1]. The
          acceptor must grant it only if its current vote at [pos - 1] is
          this very ballot — the same leader's round-0 ballot — *for that
          very entry*, so that a quorum at [pos] proves the leader's
          previous in-flight entry is chosen (the pipeline ordering
          invariant, DESIGN.md §14). The entry match matters: the round-0
          ballot alone is not single-use per position (a manager that gave
          up on an exposed-but-undecided position re-proposes a different
          batch there at the same ballot 0, and pre-restart accepts can
          linger on slow or duplicating links), so ballot-equal votes for
          different entries can coexist at [pos - 1] across a quorum.
          Ordinary accepts carry [None] and behave exactly as before. *)
  | Apply of { group : string; pos : int; entry : Txn.entry }
      (** One-way: write the decided entry to the log (Figure 3, step 6). *)
  | Claim_leadership of { group : string; pos : int; claimant : string }
      (** Fast path: am I ([claimant] = txn id) the first client to start
          the commit protocol for this position at its leader? *)
  | Submit of { group : string; record : Txn.record }
      (** Long-term-leader protocol (§7–§8): hand the whole transaction to
          the site acting as transaction manager, which orders it,
          conflict-checks it and replicates it. *)
  | Get_snapshot of { group : string }
      (** Catch-up past a compaction point: ask a peer for its applied data
          state when the needed log entries can no longer be learned. *)
  | Catch_up of { group : string; position : int }
      (** A client's proposal at [position] was refused as compacted at a
          quorum: its local service's log ends below the peers'
          checkpoint. The service installs a peer snapshot covering
          [position] unless its log already reaches it. *)

type response =
  | Read_position of { position : int; leader : int option }
      (** [leader] is the datacenter of the winner of [position] — the
          leader for commit position [position + 1] (§4.4.2 of Megastore,
          adopted in §4.1). *)
  | Value of { value : string option }
      (** [None]: the key has never been written as of that position. *)
  | Promise of { vote : (Ballot.t * Txn.entry) option }
      (** Prepare succeeded; here is my last vote (Algorithm 1, line 11). *)
  | Prepare_reject of { next_bal : Ballot.t }
      (** Already answered a higher prepare (line 14); hint for the
          client's next ballot. *)
  | Accept_reply of { ok : bool; next_bal : Ballot.t }
  | Applied
  | Claim_reply of { first : bool }
  | Submit_reply of { result : submit_result }
  | Snapshot_reply of { applied : int; rows : (string * int * string) list }
      (** The peer's applied watermark and latest [(key, version, value)]
          per data row of the group. *)
  | Compacted
      (** Prepare or accept refused: the position is at or below this
          acceptor's compaction point — decided, applied and discarded
          with its acceptor state. *)
  | Failed of string
      (** Service-side failure (e.g. could not learn a missing log entry
          because no quorum is reachable). *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
