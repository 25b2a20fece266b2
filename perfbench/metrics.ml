(* Metrics read from a finished run. Everything here is a pure function
   of the run's virtual-time state, so it is exact at a fixed seed; the
   wall-clock and allocation metrics live in [Main]. *)

module Audit = Mdds_core.Audit
module Cluster = Mdds_core.Cluster
module Service = Mdds_core.Service
module Network = Mdds_net.Network

(* Nearest-rank percentile; [p] in (0, 1]. *)
let percentile values p =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median values = percentile values 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

type counts = {
  attempted : int;
  committed : int;  (* Read-write commits. *)
  read_only : int;
  aborts : (Audit.abort_reason * int) list;
  unknown : int;
  unavailable : int;  (* [Client.Unavailable] raised at begin or read. *)
}

let reasons = [ Audit.Conflict; Lost_position; Promotion_limit; Unavailable ]

let counts (d : Drive.t) =
  let n s = Array.fold_left (fun acc x -> if x = s then acc + 1 else acc) 0 d.status in
  {
    attempted = Array.length d.status;
    committed = n Drive.Committed;
    read_only = n Drive.Read_only;
    aborts = List.map (fun r -> (r, n (Drive.Aborted r))) reasons;
    unknown = n Drive.Unknown;
    unavailable = n Drive.Unavailable;
  }

let commits c = c.committed + c.read_only
let abort_total c = List.fold_left (fun acc (_, k) -> acc + k) 0 c.aborts
let is_commit = function Drive.Committed | Drive.Read_only -> true | _ -> false

let workload_events (d : Drive.t) =
  List.filter
    (fun (e : Audit.event) -> not (String.starts_with ~prefix:"preload/" e.record.txn_id))
    (Audit.events (Cluster.audit d.cluster))

(* The correctness gate, beyond [Verify.check]: no exception out of any
   fiber, every transaction finished, the outcome partition adds up, and
   the audit trail agrees with what each client was told. *)
let gate (d : Drive.t) =
  let problems = ref d.problems in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i s ->
      match s with
      | Drive.Crashed e -> bad "txn %d: exception escaped a client call: %s" i e
      | Drive.Pending -> bad "txn %d never finished" i
      | _ -> ())
    d.status;
  let c = counts d in
  if c.attempted <> commits c + abort_total c + c.unknown + c.unavailable then
    bad "attempted %d <> committed %d + aborted %d + unknown %d + unavailable %d"
      c.attempted (commits c) (abort_total c) c.unknown c.unavailable;
  let audited = Hashtbl.create (2 * c.attempted) in
  List.iter
    (fun (e : Audit.event) -> Hashtbl.replace audited e.record.txn_id e.outcome)
    (workload_events d);
  if Hashtbl.length audited <> c.attempted - c.unavailable then
    bad "audit holds %d workload transactions, clients finished %d"
      (Hashtbl.length audited) (c.attempted - c.unavailable);
  Array.iteri
    (fun i s ->
      match (s : Drive.status) with
      | Committed | Read_only | Aborted _ | Unknown -> (
          match Hashtbl.find_opt audited d.txn_ids.(i) with
          | Some o when Drive.status_of_outcome o = s -> ()
          | Some _ -> bad "txn %s: audit outcome differs from the client's" d.txn_ids.(i)
          | None -> bad "txn %s: missing from the audit trail" d.txn_ids.(i))
      | _ -> ())
    d.status;
  if commits c = 0 then bad "no transaction committed";
  List.rev !problems

(* Values of [f i] over the transactions whose status satisfies [keep]. *)
let collect (d : Drive.t) keep f =
  let acc = ref [] in
  Array.iteri (fun i s -> if keep s then acc := f i :: !acc) d.status;
  !acc

let sent (d : Drive.t) = (Network.stats (Cluster.network d.cluster)).sent

(* ---- end-to-end, virtual time ---- *)

let end_to_end (d : Drive.t) =
  let c = counts d in
  let first = Array.fold_left Float.min infinity d.origin in
  let last = List.fold_left Float.max neg_infinity (collect d is_commit (fun i -> d.finished.(i))) in
  let commit_l = collect d (( = ) Drive.Committed) (fun i -> d.finished.(i) -. d.commit_at.(i)) in
  let txn_l = collect d is_commit (fun i -> d.finished.(i) -. d.origin.(i)) in
  [
    ("commit_ratio", "ratio", ratio (fi (commits c)) (fi c.attempted));
    ("goodput_per_s", "1/s", ratio (fi (commits c)) (last -. first));
    ("commit_p50_ms", "ms", 1000.0 *. percentile commit_l 0.5);
    ("commit_p99_ms", "ms", 1000.0 *. percentile commit_l 0.99);
    ("txn_p50_ms", "ms", 1000.0 *. percentile txn_l 0.5);
    ("txn_p99_ms", "ms", 1000.0 *. percentile txn_l 0.99);
    ("msgs_per_commit", "count", ratio (fi (sent d)) (fi (commits c)));
  ]

(* What every run at one seed must reproduce exactly, traced or not. *)
let fingerprint (d : Drive.t) =
  ( counts d,
    sent d,
    Mdds_sim.Engine.processed (Cluster.engine d.cluster),
    List.map (fun (n, _, v) -> (n, Printf.sprintf "%h" v)) (end_to_end d) )

(* ---- per layer, virtual time and counters (from the traced run) ---- *)

(* Latencies of the calls named [name] that returned; calls that raised
   are counted by [client.unavailable_per_txn] instead. *)
let span_latencies (d : Drive.t) name =
  let acc = ref [] in
  for s = 0 to d.nspans - 1 do
    let sp = d.spans.(s) in
    if sp.name = name && not sp.failed then acc := (sp.t1 -. sp.t0) :: !acc
  done;
  !acc

let per_layer (d : Drive.t) =
  let c = counts d in
  let attempted = fi c.attempted and committed_rw = fi c.committed in
  let net = Network.stats (Cluster.network d.cluster) in
  let leader = (Cluster.config d.cluster).initial_leader in
  let events = workload_events d in
  let rw_events =
    List.filter (fun (e : Audit.event) -> e.outcome <> Audit.Read_only_committed) events
  in
  let count p l = fi (List.length (List.filter p l)) in
  let sum f = fi (List.fold_left (fun acc e -> acc + f e) 0 rw_events) in
  let promotions (e : Audit.event) =
    match e.outcome with
    | Audit.Committed { promotions; _ } | Audit.Aborted { promotions; _ } -> promotions
    | _ -> 0
  in
  let committed_events =
    List.filter
      (fun (e : Audit.event) -> match e.outcome with Audit.Committed _ -> true | _ -> false)
      events
  in
  let services = Cluster.services d.cluster in
  let sum_services f = fi (List.fold_left (fun acc s -> acc + f s) 0 services) in
  let tp f = sum_services (fun s -> f (Service.throughput_stats s)) in
  let batches = tp (fun s -> s.batches) in
  let entries, entry_txns =
    List.fold_left
      (fun (e, t) group ->
        let log = Cluster.committed_log d.cluster ~group in
        (e + List.length log, List.fold_left (fun acc (_, en) -> acc + List.length en) t log))
      (0, 0) d.inputs.groups
  in
  let combined =
    List.fold_left
      (fun acc group -> acc + Cluster.combined_entries d.cluster ~group)
      0 d.inputs.groups
  in
  (* Backlog guard: median latency of the last tenth of arrivals over the
     first tenth; near 1 below the knee, growing above it. *)
  let n = c.attempted in
  let tenth lo hi =
    median
      (List.filter_map
         (fun i -> if is_commit d.status.(i) then Some (d.finished.(i) -. d.origin.(i)) else None)
         (List.init (hi - lo) (fun k -> lo + k)))
  in
  let in_outage =
    List.filter (fun i -> Inputs.in_outage d.inputs d.inputs.txns.(i).at) (List.init n Fun.id)
  in
  let commit_times = Array.of_list (collect d is_commit (fun i -> d.finished.(i))) in
  Array.sort compare commit_times;
  let max_gap = ref 0.0 in
  for i = 1 to Array.length commit_times - 1 do
    max_gap := Float.max !max_gap (commit_times.(i) -. commit_times.(i - 1))
  done;
  let begin_l = span_latencies d "begin" and read_l = span_latencies d "read" in
  let abort_share r = ratio (fi (List.assoc r c.aborts)) attempted in
  [
    ("sim.events_per_txn", "count", fi (Mdds_sim.Engine.processed (Cluster.engine d.cluster)) /. attempted);
    ("net.sent_per_txn", "count", fi net.sent /. attempted);
    ("net.delivered_ratio", "ratio", ratio (fi net.delivered) (fi net.sent));
    ("net.dropped_down_per_txn", "count", fi net.dropped_down /. attempted);
    ( "net.leader_share",
      "ratio",
      ratio (fi (Network.delivered_to (Cluster.network d.cluster) leader)) (fi net.delivered) );
    ("client.begin_p50_ms", "ms", 1000.0 *. percentile begin_l 0.5);
    ("client.begin_p99_ms", "ms", 1000.0 *. percentile begin_l 0.99);
    ("client.read_p50_ms", "ms", 1000.0 *. percentile read_l 0.5);
    ("client.read_p99_ms", "ms", 1000.0 *. percentile read_l 0.99);
    ("client.read_only_share", "ratio", fi c.read_only /. attempted);
    ("client.unavailable_per_txn", "count", fi c.unavailable /. attempted);
    ("client.hedges", "count", fi (Audit.hedges (Cluster.audit d.cluster)));
    ( "paxos.prepare_rounds_per_commit",
      "count",
      ratio (sum (fun e -> e.stats.prepare_rounds)) committed_rw );
    ("paxos.accept_rounds_per_commit", "count", ratio (sum (fun e -> e.stats.accept_rounds)) committed_rw);
    ("paxos.instances_per_txn", "count", ratio (sum (fun e -> e.stats.instances)) (fi (List.length rw_events)));
    ( "paxos.fast_path_rate",
      "ratio",
      ratio (count (fun (e : Audit.event) -> e.stats.fast_path) committed_events) committed_rw );
    ("combine.promoted_share", "ratio", ratio (count (fun e -> promotions e > 0) committed_events) committed_rw);
    ("combine.max_promotions", "count", fi (List.fold_left (fun acc e -> max acc (promotions e)) 0 events));
    ("combine.combined_entries_per_1k", "count", 1000.0 *. fi combined /. attempted);
    ("abort.conflict_share", "ratio", abort_share Audit.Conflict);
    ("abort.lost_position_share", "ratio", abort_share Audit.Lost_position);
    ("abort.promotion_limit_share", "ratio", abort_share Audit.Promotion_limit);
    ("abort.unavailable_share", "ratio", abort_share Audit.Unavailable);
    ("outcome.unknown_share", "ratio", fi c.unknown /. attempted);
    ("service.txns_per_batch", "count", ratio (tp (fun s -> s.batched_txns)) batches);
    ("service.pipelined_share", "ratio", ratio (tp (fun s -> s.pipelined_rounds)) batches);
    ("service.pipeline_stalls", "count", tp (fun s -> s.pipeline_stalls));
    ("service.learns", "count", sum_services Service.learns);
    ("service.snapshots", "count", sum_services Service.snapshots);
    ("service.in_doubt_replies", "count", sum_services (fun s -> (Service.twopc_stats s).in_doubt_replies));
    ("service.dup_submits", "count", sum_services (fun s -> (Service.dedup_stats s).dup_submits));
    ("wal.txns_per_entry", "count", ratio (fi entry_txns) (fi entries));
    ("kvstore.rows", "count", sum_services (fun s -> Mdds_kvstore.Store.row_count (Service.store s)));
    ("openloop.backlog_ratio", "ratio", ratio (tenth (n - (n / 10)) n) (tenth 0 (n / 10)));
    ( "avail.outage_commit_ratio",
      "ratio",
      ratio (count (fun i -> is_commit d.status.(i)) in_outage) (fi (List.length in_outage)) );
    ("avail.max_commit_gap_s", "s", !max_gap);
  ]
