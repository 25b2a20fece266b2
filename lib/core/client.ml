module Txn = Mdds_types.Txn
module Tally = Mdds_paxos.Tally
module Rpc = Mdds_net.Rpc
module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng

exception Unavailable of string

type t = {
  env : Proposer.env;
  audit : Audit.t;
  id : string;
  mutable txn_counter : int;
}

type txn = {
  client : t;
  group : string;
  txn_id : string;
  began_at : float;
  read_position : int;
  leader : int option;
  mutable reads : (Txn.key * string option) list;  (* newest first *)
  mutable writes : (Txn.key * string) list;  (* newest first, latest wins *)
  mutable finished : bool;
}

let create ~rpc ~config ~dc ~dcs ~audit ~id ~trace =
  let rng = Rng.split (Engine.rng (Rpc.engine rpc)) in
  { env = Proposer.make_env ~rpc ~config ~dc ~dcs ~rng ~trace; audit; id; txn_counter = 0 }

let dc t = t.env.Proposer.dc

let now t = Engine.now (Rpc.engine t.env.Proposer.rpc)

(* Datacenters to try for a service request: local first (the paper's
   co-location optimization), then the others in random order — or, under
   [hedged_reads], nearest first by estimated RTT so a hedged retry lands
   on the most likely responder. Unsampled destinations sort last (no
   evidence ⇒ no preference); the sort is stable so they keep topology
   order among themselves and draw no RNG. *)
let service_order t =
  let others =
    Array.of_list (List.filter (fun d -> d <> t.env.Proposer.dc) t.env.Proposer.dcs)
  in
  (match (t.env.Proposer.config.Config.hedged_reads, t.env.Proposer.rtt) with
  | true, Some rtt ->
      let far = 2.0 *. t.env.Proposer.config.Config.rpc_timeout in
      let dist d = Option.value (Rtt.estimate rtt ~dst:d) ~default:far in
      Array.stable_sort (fun a b -> Float.compare (dist a) (dist b)) others
  | _ -> Rng.shuffle t.env.Proposer.rng others);
  t.env.Proposer.dc :: Array.to_list others

(* Issue a request with datacenter fallback (§2.2: "If a Transaction
   Client cannot access the Transaction Service within its own datacenter,
   it can access the Transaction Service in another datacenter"). Each
   destination is given its adaptive timeout when the flag is on — the
   hedged-failover delay — and the full fixed [rpc_timeout] otherwise.
   Replies feed the RTT estimator; a reply from a non-local datacenter is
   a counted failover. *)
let request_with_fallback t req ~describe =
  let config = t.env.Proposer.config in
  let rec go attempts = function
    | [] -> raise (Unavailable describe)
    | _ when attempts <= 0 -> raise (Unavailable describe)
    | dst :: rest -> (
        let started = now t in
        match
          Rpc.call t.env.Proposer.rpc ~src:t.env.Proposer.dc ~dst
            ~timeout:(Proposer.timeout_for t.env ~dst) req
        with
        | Some (Messages.Failed _) | None -> go (attempts - 1) rest
        | Some resp ->
            (match t.env.Proposer.rtt with
            | Some rtt -> Rtt.observe rtt ~dst (now t -. started)
            | None -> ());
            if dst <> t.env.Proposer.dc then Audit.note_hedge t.audit;
            resp)
  in
  go config.read_attempts (service_order t)

let begin_txn t ~group ~txn_id =
  match request_with_fallback t (Messages.Get_read_position { group }) ~describe:"begin" with
  | Messages.Read_position { position; leader } ->
      {
        client = t;
        group;
        txn_id;
        began_at = now t;
        read_position = position;
        leader;
        reads = [];
        writes = [];
        finished = false;
      }
  | _ -> raise (Unavailable "begin: unexpected response")

let begin_ t ~group =
  t.txn_counter <- t.txn_counter + 1;
  let txn_id = Printf.sprintf "%s/%d" t.id t.txn_counter in
  begin_txn t ~group ~txn_id

let txn_id txn = txn.txn_id
let read_position txn = txn.read_position

let read txn key =
  match List.assoc_opt key txn.writes with
  | Some v -> Some v (* property (A1): read your own writes *)
  | None -> (
      match List.assoc_opt key txn.reads with
      | Some v -> v (* repeated reads at one position are stable (A2) *)
      | None -> (
          let t = txn.client in
          match
            request_with_fallback t
              (Messages.Read { group = txn.group; key; position = txn.read_position })
              ~describe:("read " ^ key)
          with
          | Messages.Value { value } ->
              txn.reads <- (key, value) :: txn.reads;
              value
          | _ -> raise (Unavailable "read: unexpected response")))

let write txn key value =
  txn.writes <- (key, value) :: List.remove_assoc key txn.writes

(* ------------------------------------------------------------------ *)
(* Commit protocols.                                                   *)

let try_claim t txn ~pos =
  let config = t.env.Proposer.config in
  if not config.enable_fast_path then None
  else
    match txn.leader with
    | None -> None
    | Some leader -> (
        match
          Rpc.call t.env.Proposer.rpc ~src:t.env.Proposer.dc ~dst:leader
            ~timeout:(Proposer.timeout_for t.env ~dst:leader)
            (Messages.Claim_leadership
               { group = txn.group; pos; claimant = txn.txn_id })
        with
        | Some (Messages.Claim_reply { first = true }) -> Some ()
        | _ -> None)

(* A quorum refused [pos] as compacted, so the local service's log ends
   below the peers' checkpoint and every later [begin] would return the
   same stale read position. Have the local service install a peer
   snapshot before the client reports the outcome. The service may try
   every peer in turn, each for up to [rpc_timeout]. *)
let catch_up t ~group ~pos =
  let env = t.env in
  let timeout =
    env.Proposer.config.Config.rpc_timeout
    *. float_of_int (List.length env.Proposer.dcs)
  in
  ignore
    (Rpc.call env.Proposer.rpc ~src:env.Proposer.dc ~dst:env.Proposer.dc
       ~timeout
       (Messages.Catch_up { group; position = pos }))

(* Fold one instance's proposer statistics into the transaction total. *)
let add_stats (acc : Audit.protocol_stats) (s : Proposer.stats) =
  {
    Audit.prepare_rounds = acc.Audit.prepare_rounds + s.Proposer.prepare_rounds;
    accept_rounds = acc.Audit.accept_rounds + s.Proposer.accept_rounds;
    fast_path = acc.Audit.fast_path || s.Proposer.fast_path_used;
    instances = acc.Audit.instances + 1;
  }

(* A commit attempt is "exposed" once an accept message carrying the
   client's own transaction has been sent for a still-undecided position:
   even if the client then gives up, some other proposer may find that
   vote and drive it to a decision (the paper: a client that fails in the
   middle of the commit protocol "may be committed or aborted"). A give-up
   after exposure is therefore reported as {!Audit.Unknown}, never as a
   false abort. Exposure at a position later decided for someone else is
   dead: the exposed votes sit at lower ballots than the chosen value's,
   so those aborts remain truthful. *)
let commit_basic t txn (record : Txn.record) =
  let own = [ record ] in
  let pos = txn.read_position + 1 in
  let fast = match try_claim t txn ~pos with Some () -> Some own | None -> None in
  let exposed = ref (fast <> None) in
  let choose votes =
    let entry = Tally.find_winning votes ~own in
    if Txn.mem_entry ~txn_id:record.txn_id entry then exposed := true;
    Proposer.Propose entry
  in
  let result, stats = Proposer.run t.env ~group:txn.group ~pos ?fast ~choose () in
  let stats = add_stats Audit.no_stats stats in
  match result with
  | Proposer.Decided entry ->
      if Txn.mem_entry ~txn_id:record.txn_id entry then
        ( Audit.Committed
            { position = pos; promotions = 0; combined = List.length entry > 1 },
          stats )
      else (Audit.Aborted { reason = Audit.Lost_position; promotions = 0 }, stats)
  | Proposer.Observed _ ->
      (* The basic chooser never stops early. *)
      assert false
  | (Proposer.Unavailable | Proposer.Compacted) as r ->
      if r = Proposer.Compacted then catch_up t ~group:txn.group ~pos;
      if !exposed then (Audit.Unknown, stats)
      else (Audit.Aborted { reason = Audit.Unavailable; promotions = 0 }, stats)

(* Max candidate transactions for the exhaustive combination search;
   beyond it the greedy single pass is used (§5). *)
let exhaustive_combination_limit = 4

let commit_cp t txn (record : Txn.record) =
  let config = t.env.Proposer.config in
  let own = [ record ] in
  let total = List.length t.env.Proposer.dcs in
  (* Exposure of our value at the current (undecided) instance — see the
     comment on {!commit_basic}. Reset per instance: exposure at a decided
     position is dead. *)
  let exposed = ref false in
  let choose votes =
    match Tally.decide ~total ~equal:Txn.equal_entry votes with
    | Tally.Free ->
        let entry =
          if config.enable_combination then
            let voted = List.filter_map (fun (r : _ Tally.response) ->
                Option.map snd r.vote) votes
            in
            Combine.best ~own:record
              ~candidates:(Combine.candidates_of_votes ~own:record voted)
              ~exhaustive_limit:exhaustive_combination_limit ()
          else own
        in
        exposed := true;
        Proposer.Propose entry
    | Tally.Chosen entry ->
        if Txn.mem_entry ~txn_id:record.txn_id entry then Proposer.Propose entry
        else Proposer.Stop entry
    | Tally.Constrained entry ->
        if Txn.mem_entry ~txn_id:record.txn_id entry then exposed := true;
        Proposer.Propose entry
  in
  let rec go pos promotions acc =
    let fast =
      if promotions = 0 then
        match try_claim t txn ~pos with Some () -> Some own | None -> None
      else None
    in
    exposed := fast <> None;
    let result, istats = Proposer.run t.env ~group:txn.group ~pos ?fast ~choose () in
    let acc = add_stats acc istats in
    match result with
    | Proposer.Decided entry when Txn.mem_entry ~txn_id:record.txn_id entry ->
        ( Audit.Committed
            { position = pos; promotions; combined = List.length entry > 1 },
          acc )
    | Proposer.Decided entry | Proposer.Observed entry ->
        (* Lost this position; promotion admission test (§5): abort if we
           read anything the winners wrote. *)
        if Txn.conflicts_with_any record entry then
          (Audit.Aborted { reason = Audit.Conflict; promotions }, acc)
        else (
          match config.max_promotions with
          | Some cap when promotions >= cap ->
              (Audit.Aborted { reason = Audit.Promotion_limit; promotions }, acc)
          | _ -> go (pos + 1) (promotions + 1) acc)
    | (Proposer.Unavailable | Proposer.Compacted) as r ->
        if r = Proposer.Compacted then catch_up t ~group:txn.group ~pos;
        if !exposed then (Audit.Unknown, acc)
        else (Audit.Aborted { reason = Audit.Unavailable; promotions }, acc)
  in
  go (txn.read_position + 1) 0 Audit.no_stats

(* Long-term-leader transport: probe the managers in rotation from
   [initial_leader] and submit [record] to the first that answers. The
   probe keeps an unreachable manager from being handed anything, so
   [`Unreachable] means nothing was submitted; [`Reply None] means the
   submission went out but timed out, so it may still commit. *)
let submit_to_manager t ~group (record : Txn.record) =
  let config = t.env.Proposer.config in
  let total = List.length t.env.Proposer.dcs in
  let call dst ~timeout request =
    Rpc.call t.env.Proposer.rpc ~src:t.env.Proposer.dc ~dst ~timeout request
  in
  (* Throughput mode adds queueing ahead of the proposal: the fill wait
     plus up to [pipeline_depth] positions draining ahead of ours. *)
  let submit_timeout =
    if Config.throughput_mode config then
      ((2.0 +. float_of_int config.pipeline_depth) *. config.rpc_timeout)
      +. config.batch_fill
    else 2.0 *. config.rpc_timeout
  in
  let rec go attempts manager =
    if attempts <= 0 then `Unreachable
    else if
      Option.is_none
        (call manager ~timeout:config.rpc_timeout
           (Messages.Get_read_position { group }))
    then go (attempts - 1) ((manager + 1) mod total)
    else
      `Reply
        (call manager ~timeout:submit_timeout
           (Messages.Submit { group; record }))
  in
  go (total + 1) (config.initial_leader mod total)

(* Long-term-leader protocol: hand the whole transaction to a manager. A
   submission that times out after being sent is in doubt, so the client
   reports [Unknown] rather than guessing. *)
let commit_leader t txn (record : Txn.record) =
  let outcome =
    match submit_to_manager t ~group:txn.group record with
    | `Reply (Some (Messages.Submit_reply { result = Messages.Accepted_at position }))
      ->
        Audit.Committed { position; promotions = 0; combined = false }
    | `Reply (Some (Messages.Submit_reply { result = Messages.Stale_read })) ->
        Audit.Aborted { reason = Audit.Conflict; promotions = 0 }
    | `Reply (Some (Messages.Submit_reply { result = Messages.In_doubt }))
    | `Reply None ->
        Audit.Unknown
    | `Reply (Some _) | `Unreachable ->
        Audit.Aborted { reason = Audit.Unavailable; promotions = 0 }
  in
  (outcome, Audit.no_stats)

let commit txn =
  if txn.finished then invalid_arg "Client.commit: transaction already finished";
  txn.finished <- true;
  let t = txn.client in
  let commit_started_at = now t in
  let observed = List.rev txn.reads in
  let finish ?(stats = Audit.no_stats) record outcome =
    Mdds_sim.Trace.record t.env.Proposer.trace
      ~source:("cli." ^ t.id) ~category:"commit"
      "%s: %s" txn.txn_id
      (match outcome with
      | Audit.Committed { position; promotions; _ } ->
          Printf.sprintf "committed pos=%d promotions=%d" position promotions
      | Audit.Aborted { reason; _ } ->
          Format.asprintf "aborted (%a)" Audit.pp_reason reason
      | Audit.Read_only_committed -> "read-only commit"
      | Audit.Unknown -> "in doubt");
    Audit.record t.audit
      {
        Audit.group = txn.group;
        record;
        observed;
        outcome;
        began_at = txn.began_at;
        committed_at = now t;
        commit_started_at;
        client_dc = t.env.Proposer.dc;
        stats;
      };
    outcome
  in
  let reads = List.rev_map fst txn.reads in
  let writes =
    List.rev_map (fun (key, value) -> { Txn.key; value }) txn.writes
  in
  let record =
    Txn.make_record ~txn_id:txn.txn_id ~origin:t.env.Proposer.dc
      ~read_position:txn.read_position ~reads ~writes
  in
  if writes = [] then finish record Audit.Read_only_committed
  else
    let outcome, stats =
      match t.env.Proposer.config.protocol with
      | Config.Basic -> commit_basic t txn record
      | Config.Cp -> commit_cp t txn record
      | Config.Leader -> commit_leader t txn record
    in
    finish ~stats record outcome

(* ------------------------------------------------------------------ *)
(* Cross-group transactions: multi-shot atomic commit (PROTOCOL.md §10).

   A cross-group transaction buffers reads and writes per participant
   group, then commits with 2PC whose every step is an ordinary record in
   a per-group Paxos log:

   + prepare: a {!Twopc.prepare_record} is submitted to each participant
     group in turn; the manager's single-group admission check over the
     transaction's footprint (reads ∪ write keys) doubles as the vote.
   + decide: with every prepare durably logged, a commit decision is
     submitted to the coordinator's group (the first group in sorted
     order). The decision's {e apply} is the commit point: the WAL's
     write-once rule makes the first decision applied authoritative, so
     a racing in-doubt resolver's abort can beat our commit (never the
     reverse — resolvers only ever abort), and we read the verdict back
     before reporting.
   + outcome: a {!Twopc.outcome_record} per group applies the buffered
     writes (commit) or just the tombstone marker (abort). Outcome
     delivery is not needed for the commit decision to hold: each
     service's in-doubt resolver finishes delivery from the logged
     prepare + decision if the client dies here.

   Presumed abort: a transaction is reported aborted without logging
   anything only when no prepare can possibly have been logged (the
   manager explicitly refused, or no manager was reachable to submit
   to). Once any prepare {e may} exist, the abort is made durable by
   logging an abort decision — and even if that cleanup fails, the
   report stays truthful: only this client can log a commit decision,
   so resolvers can only settle the leftovers to abort. *)

type mtxn = {
  mclient : t;
  mtxn_id : string;
  mbegan_at : float;
  mparts : (string * txn) list;  (* sorted by group, at least one *)
  mutable mfinished : bool;
}

let begin_multi t ~groups =
  let groups = List.sort_uniq String.compare groups in
  if groups = [] then invalid_arg "Client.begin_multi: no groups";
  t.txn_counter <- t.txn_counter + 1;
  let txn_id = Printf.sprintf "%s/%d" t.id t.txn_counter in
  let mparts = List.map (fun group -> (group, begin_txn t ~group ~txn_id)) groups in
  { mclient = t; mtxn_id = txn_id; mbegan_at = now t; mparts; mfinished = false }

let mtxn_id m = m.mtxn_id

let part m ~group ~what =
  match List.assoc_opt group m.mparts with
  | Some txn -> txn
  | None -> invalid_arg (Printf.sprintf "Client.%s: group %S not in transaction" what group)

let read_in m ~group key = read (part m ~group ~what:"read_in") key
let write_in m ~group key value = write (part m ~group ~what:"write_in") key value

(* Submit one record through the leader protocol's probe/rotate loop —
   the transport under every 2PC step. Unlike {!commit_leader} the caller
   needs to distinguish "the manager refused, nothing was logged"
   ([`Rejected]) from "the record may have been logged" ([`Maybe]):
   presumed abort is only sound in the former. A reply is only trusted as
   [`Rejected] when it is the manager's explicit admission refusal;
   everything else after a submission went out is [`Maybe]. *)
let manager_submit t ~group (record : Txn.record) =
  match submit_to_manager t ~group record with
  | `Unreachable -> `Unreachable
  | `Reply (Some (Messages.Submit_reply { result = Messages.Accepted_at position }))
    ->
      `Accepted position
  | `Reply (Some (Messages.Submit_reply { result = Messages.Stale_read })) ->
      `Rejected
  | `Reply _ -> `Maybe

let commit_multi m =
  if m.mfinished then
    invalid_arg "Client.commit_multi: transaction already finished";
  m.mfinished <- true;
  match m.mparts with
  | [ (_, txn) ] -> commit txn (* degenerate: an ordinary single-group txn *)
  | parts ->
      let t = m.mclient in
      List.iter (fun (_, txn) -> txn.finished <- true) parts;
      let commit_started_at = now t in
      let txid = m.mtxn_id in
      let groups = List.map fst parts in
      let coordinator = List.hd groups in
      let origin = t.env.Proposer.dc in
      (* The audit event lives under the pseudo-group [cross:g1+g2+...]
         with group-qualified keys: per-group checkers never see it, the
         cross-group atomicity oracle consumes it. *)
      let observed =
        List.concat_map
          (fun (g, txn) ->
            List.rev_map (fun (k, v) -> (g ^ "/" ^ k, v)) txn.reads)
          parts
      in
      let record =
        Txn.make_record ~txn_id:txid ~origin ~read_position:0
          ~reads:(List.map fst observed)
          ~writes:
            (List.concat_map
               (fun (g, txn) ->
                 List.rev_map
                   (fun (k, v) -> { Txn.key = g ^ "/" ^ k; value = v })
                   txn.writes)
               parts)
      in
      let finish outcome =
        Mdds_sim.Trace.record t.env.Proposer.trace ~source:("cli." ^ t.id)
          ~category:"commit" "%s: cross(%s) %s" txid
          (String.concat "+" groups)
          (match outcome with
          | Audit.Committed { position; _ } ->
              Printf.sprintf "committed decision-pos=%d" position
          | Audit.Aborted { reason; _ } ->
              Format.asprintf "aborted (%a)" Audit.pp_reason reason
          | Audit.Read_only_committed -> "read-only commit"
          | Audit.Unknown -> "in doubt");
        Audit.record t.audit
          {
            Audit.group = Twopc.audit_group groups;
            record;
            observed;
            outcome;
            began_at = m.mbegan_at;
            committed_at = now t;
            commit_started_at;
            client_dc = origin;
            stats = Audit.no_stats;
          };
        outcome
      in
      if record.Txn.writes = [] then
        (* No writes anywhere: per-group snapshot reads, commits locally
           like any read-only transaction (§2.2). *)
        finish Audit.Read_only_committed
      else if t.env.Proposer.config.protocol <> Config.Leader then
        invalid_arg
          "Client.commit_multi: cross-group transactions require the leader \
           protocol (manager admission enforces in-doubt blocking)"
      else
        (* Phase 1: prepare in every participant group, in group order.
           [submitted] collects groups whose prepare was or may have been
           logged, with the log position when known. *)
        let rec prepare_all submitted = function
          | [] -> `Prepared (List.rev submitted)
          | (group, txn) :: rest -> (
              let footprint =
                List.sort_uniq String.compare
                  (List.rev_map fst txn.reads @ List.rev_map fst txn.writes)
              in
              let payload =
                {
                  Twopc.coordinator;
                  participants = groups;
                  writes = List.rev txn.writes;
                }
              in
              let prep =
                Twopc.prepare_record ~txid ~origin
                  ~read_position:txn.read_position ~reads:footprint ~payload
              in
              match manager_submit t ~group prep with
              | `Accepted pos ->
                  prepare_all ((group, txn, Some pos) :: submitted) rest
              | `Rejected -> `Abort (Audit.Conflict, List.rev submitted)
              | `Maybe ->
                  `Abort
                    ( Audit.Unavailable,
                      List.rev ((group, txn, None) :: submitted) )
              | `Unreachable -> `Abort (Audit.Unavailable, List.rev submitted))
        in
        (* Log [verdict] in the coordinator's group and read back the
           verdict that actually took (write-once: first applied wins). *)
        let decide verdict =
          match
            manager_submit t ~group:coordinator
              (Twopc.decision_record ~txid ~tag:"cli" ~origin ~verdict)
          with
          | `Accepted dpos -> (
              match
                request_with_fallback t
                  (Messages.Read
                     {
                       group = coordinator;
                       key = Twopc.decision_key txid;
                       position = dpos;
                     })
                  ~describe:"2pc decision"
              with
              | Messages.Value { value = Some v } -> Some (v, dpos)
              | _ -> None
              | exception Unavailable _ -> None)
          | `Rejected | `Maybe | `Unreachable -> None
        in
        (* Best-effort outcome delivery; resolvers finish it if we die. *)
        let outcomes verdict submitted =
          List.iter
            (fun (group, txn, pos) ->
              let writes =
                if String.equal verdict Twopc.commit_verdict then
                  List.rev txn.writes
                else []
              in
              ignore
                (manager_submit t ~group
                   (Twopc.outcome_record ~txid ~tag:"cli" ~origin
                      ~prepare_position:(Option.value pos ~default:0)
                      ~verdict ~writes)))
            submitted
        in
        (match prepare_all [] parts with
        | `Prepared submitted -> (
            match decide Twopc.commit_verdict with
            | Some (verdict, dpos) ->
                outcomes verdict submitted;
                if String.equal verdict Twopc.commit_verdict then
                  finish
                    (Audit.Committed
                       { position = dpos; promotions = 0; combined = false })
                else
                  (* A resolver's abort decision was applied first. *)
                  finish
                    (Audit.Aborted { reason = Audit.Conflict; promotions = 0 })
            | None ->
                (* The decision may or may not have been logged; only its
                   log knows. Resolvers will settle the prepares either
                   way, honoring a logged commit. *)
                finish Audit.Unknown)
        | `Abort (reason, []) ->
            (* Pure presumed abort: no prepare was ever logged. *)
            finish (Audit.Aborted { reason; promotions = 0 })
        | `Abort (reason, submitted) ->
            (match decide Twopc.abort_verdict with
            | Some (verdict, _) -> outcomes verdict submitted
            | None -> () (* resolvers finish the abort from the logs *));
            finish (Audit.Aborted { reason; promotions = 0 }))
