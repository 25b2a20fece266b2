module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Service = Mdds_core.Service
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology

type mode = {
  label : string;
  batch_max : int;
  pipeline_depth : int;
  epoch_interval : float;
}

let baseline =
  { label = "baseline"; batch_max = 1; pipeline_depth = 1; epoch_interval = 0.0 }

let batched ?(batch_max = 8) ?(pipeline_depth = 4) () =
  {
    label = Printf.sprintf "batch%d/depth%d" batch_max pipeline_depth;
    batch_max;
    pipeline_depth;
    epoch_interval = 0.0;
  }

let epoch ?(fill = 64) ?(pipeline_depth = 1) ?(interval = 0.05) () =
  {
    label =
      (if pipeline_depth = 1 then
         Printf.sprintf "epoch%.0fms/f%d" (interval *. 1000.) fill
       else
         Printf.sprintf "ep%.0fms/f%d/d%d" (interval *. 1000.) fill
           pipeline_depth);
    batch_max = fill;
    pipeline_depth;
    epoch_interval = interval;
  }

type point = {
  mode : mode;
  rate : float;
  txns : int;
  committed : int;
  aborted : int;
  unknown : int;
  committed_per_s : float;
  latency : Stats.summary;
  batches : int;
  pipelined_rounds : int;
  epochs : int;
  sim_duration : float;
  wall_seconds : float;
  verified : (unit, string) result;
}

let group = "tp"

(* Scaling runs spread transactions round-robin over [groups] independent
   logs; [groups = 1] keeps the historical single group name so existing
   sweeps stay byte-identical. *)
let group_name ~groups gi =
  if groups = 1 then group else Printf.sprintf "%s-%d" group gi

(* All modes run the leader protocol so the comparison isolates
   batching/pipelining/epoch sealing; the baseline's
   [batch_max = pipeline_depth = 1, epoch_interval = 0] keeps
   [Config.throughput_mode] off, i.e. the drainer sealing at one. *)
let config_of_mode mode =
  {
    Config.leader with
    batch_max = mode.batch_max;
    pipeline_depth = mode.pipeline_depth;
    epoch_interval = mode.epoch_interval;
  }

let run_point ?(seed = 42) ?(topology = "VVV") ?(conflict_every = 16)
    ?(groups = 1) ~mode ~rate ~txns () =
  if rate <= 0.0 then invalid_arg "Throughput.run_point: rate must be positive";
  if txns < 1 then invalid_arg "Throughput.run_point: txns must be positive";
  if groups < 1 then invalid_arg "Throughput.run_point: groups must be positive";
  let started = Unix.gettimeofday () in
  let topo = Topology.ec2 topology in
  let config = config_of_mode mode in
  let cluster = Cluster.create ~seed ~config topo in
  let dcs = Cluster.size cluster in
  (* Open loop: arrival [i] fires at [i / rate] virtual seconds no matter
     how far behind the service is — queues build at saturation instead of
     the offered load silently adapting. *)
  for i = 0 to txns - 1 do
    let at = float_of_int i /. rate in
    let dc = i mod dcs in
    Cluster.spawn ~at cluster (fun () ->
        let client = Cluster.client ~id:(Printf.sprintf "tp%06d" i) cluster ~dc in
        let txn = Client.begin_ client ~group:(group_name ~groups (i mod groups)) in
        if conflict_every > 0 && i mod conflict_every = 0 then (
          (* Shared-counter RMW: keeps the conflict/abort path honest. *)
          let v =
            match Client.read txn "ctr" with
            | None -> 1
            | Some s -> int_of_string s + 1
          in
          Client.write txn "ctr" (string_of_int v))
        else begin
          let key = Printf.sprintf "k%06d" i in
          ignore (Client.read txn key);
          Client.write txn key (string_of_int i)
        end;
        ignore (Client.commit txn))
  done;
  Cluster.run cluster;
  let audit = Cluster.audit cluster in
  let events = Audit.events audit in
  let committed, aborted, unknown, last_commit =
    List.fold_left
      (fun (c, a, u, last) (e : Audit.event) ->
        match e.outcome with
        | Audit.Committed _ | Audit.Read_only_committed ->
            (c + 1, a, u, Float.max last e.committed_at)
        | Audit.Aborted _ -> (c, a + 1, u, last)
        | Audit.Unknown -> (c, a, u + 1, last))
      (0, 0, 0, 0.0) events
  in
  let committed_per_s =
    if committed = 0 then 0.0 else float_of_int committed /. last_commit
  in
  let batches, pipelined_rounds, epochs =
    List.fold_left
      (fun (b, p, e) service ->
        let s = Service.throughput_stats service in
        ( b + s.Service.batches,
          p + s.Service.pipelined_rounds,
          e + s.Service.epochs_sealed ))
      (0, 0, 0) (Cluster.services cluster)
  in
  {
    mode;
    rate;
    txns;
    committed;
    aborted;
    unknown;
    committed_per_s;
    latency = Stats.summarize (Audit.commit_latencies audit ~promotions:None);
    batches;
    pipelined_rounds;
    epochs;
    sim_duration = Cluster.now cluster;
    wall_seconds = Unix.gettimeofday () -. started;
    verified =
      (let rec check_all gi =
         if gi >= groups then Ok ()
         else
           match Verify.check cluster ~group:(group_name ~groups gi) with
           | Ok () -> check_all (gi + 1)
           | Error e ->
               Error (Printf.sprintf "group %s: %s" (group_name ~groups gi) e)
       in
       check_all 0);
  }

let sweep ?seed ?topology ?conflict_every ?groups
    ?(modes = [ baseline; batched () ]) ~rates ~txns () =
  (* Independent cells fan out over the domain pool; each point is
     deterministic in its parameters and results come back in input
     order, so output is byte-identical whatever the job count. *)
  let cells =
    List.concat_map (fun mode -> List.map (fun rate -> (mode, rate)) rates) modes
  in
  Mdds_parallel.Pool.map
    (fun (mode, rate) ->
      run_point ?seed ?topology ?conflict_every ?groups ~mode ~rate ~txns ())
    cells

let saturation points mode =
  List.fold_left
    (fun best p ->
      if p.mode.label <> mode.label then best
      else
        match best with
        | Some b when b.committed_per_s >= p.committed_per_s -> best
        | _ -> Some p)
    None points

let pp_point ppf p =
  Format.fprintf ppf
    "%-14s rate %7.1f/s  committed %d/%d  goodput %7.1f/s  p50 %a p99 %a  \
     batches %d  pipelined %d  epochs %d  %s"
    p.mode.label p.rate p.committed p.txns p.committed_per_s Stats.pp_ms
    p.latency.Stats.p50 Stats.pp_ms p.latency.Stats.p99 p.batches
    p.pipelined_rounds p.epochs
    (match p.verified with Ok () -> "ok" | Error e -> "VIOLATION: " ^ e)

let pp_table ppf points =
  Format.fprintf ppf "%-14s %9s %9s %9s %10s %9s %9s %8s %9s %6s  %s@."
    "mode" "rate/s" "offered" "committed" "goodput/s" "p50(ms)" "p99(ms)"
    "batches" "pipelined" "epochs" "verify";
  List.iter
    (fun p ->
      Format.fprintf ppf
        "%-14s %9.1f %9d %9d %10.1f %9.1f %9.1f %8d %9d %6d  %s@."
        p.mode.label p.rate p.txns p.committed p.committed_per_s
        (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
        p.batches p.pipelined_rounds p.epochs
        (match p.verified with Ok () -> "ok" | Error e -> "VIOLATION: " ^ e))
    points

let to_json points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"batch_max\": %d, \"pipeline_depth\": %d, \
            \"epoch_interval\": %.3f, \"rate\": %.3f, \"txns\": %d, \
            \"committed\": %d, \"aborted\": %d, \
            \"unknown\": %d, \"committed_per_s\": %.3f, \"p50_ms\": %.3f, \
            \"p95_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f, \
            \"batches\": %d, \"pipelined_rounds\": %d, \"epochs\": %d, \
            \"sim_duration\": %.3f, \"verified\": %b}"
           p.mode.label p.mode.batch_max p.mode.pipeline_depth
           p.mode.epoch_interval p.rate p.txns
           p.committed p.aborted p.unknown p.committed_per_s
           (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p95 *. 1000.)
           (p.latency.Stats.p99 *. 1000.) (p.latency.Stats.mean *. 1000.)
           p.batches p.pipelined_rounds p.epochs p.sim_duration
           (match p.verified with Ok () -> true | Error _ -> false)))
    points;
  Buffer.add_string buf "\n  ]";
  Buffer.contents buf

(* The knob-sweep family (ext-knobs / `mdds throughput --sweep`): the
   full batch_max x pipeline_depth x epoch_interval x topology grid at
   one offered rate. [epoch_interval = 0] cells run the fill-or-timeout
   batch discipline (or the verbatim baseline when batch and depth are
   both 1); [> 0] cells run epoch sealing with [batch_max] as the fill
   bound. Cells are deterministic and fan out over the domain pool in
   input order, so output is byte-identical whatever the job count. *)
let knob_mode ~batch_max ~pipeline_depth ~epoch_interval =
  if epoch_interval > 0.0 then
    epoch ~fill:batch_max ~pipeline_depth ~interval:epoch_interval ()
  else if batch_max = 1 && pipeline_depth = 1 then baseline
  else batched ~batch_max ~pipeline_depth ()

let knob_sweep ?seed ?conflict_every ?groups
    ?(topologies = [ "VVV"; "VVVOC" ]) ?(batch_maxes = [ 1; 8 ])
    ?(depths = [ 1; 4 ]) ?(epoch_intervals = [ 0.0; 0.05 ]) ~rate ~txns () =
  let cells =
    List.concat_map
      (fun topology ->
        List.concat_map
          (fun epoch_interval ->
            List.concat_map
              (fun batch_max ->
                List.map
                  (fun pipeline_depth ->
                    ( topology,
                      knob_mode ~batch_max ~pipeline_depth ~epoch_interval ))
                  depths)
              batch_maxes)
          epoch_intervals)
      topologies
  in
  Mdds_parallel.Pool.map
    (fun (topology, mode) ->
      ( topology,
        run_point ?seed ~topology ?conflict_every ?groups ~mode ~rate ~txns ()
      ))
    cells

let pp_knob_table ppf cells =
  Format.fprintf ppf "%-6s %-14s %5s %5s %9s %9s %9s %10s %9s %9s  %s@."
    "topo" "mode" "batch" "depth" "epoch(s)" "offered" "committed"
    "goodput/s" "p50(ms)" "p99(ms)" "verify";
  List.iter
    (fun (topology, p) ->
      Format.fprintf ppf
        "%-6s %-14s %5d %5d %9.3f %9d %9d %10.1f %9.1f %9.1f  %s@." topology
        p.mode.label p.mode.batch_max p.mode.pipeline_depth
        p.mode.epoch_interval p.txns p.committed p.committed_per_s
        (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
        (match p.verified with Ok () -> "ok" | Error e -> "VIOLATION: " ^ e))
    cells

let knob_to_json cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (topology, p) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"topology\": %S, \"mode\": %S, \"batch_max\": %d, \
            \"pipeline_depth\": %d, \"epoch_interval\": %.3f, \
            \"rate\": %.3f, \"txns\": %d, \"committed\": %d, \
            \"committed_per_s\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
            \"batches\": %d, \"epochs\": %d, \"verified\": %b}"
           topology p.mode.label p.mode.batch_max p.mode.pipeline_depth
           p.mode.epoch_interval p.rate p.txns p.committed p.committed_per_s
           (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
           p.batches p.epochs
           (match p.verified with Ok () -> true | Error _ -> false)))
    cells;
  Buffer.add_string buf "\n]";
  Buffer.contents buf

let knob_to_csv cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "topology,mode,batch_max,pipeline_depth,epoch_interval,rate,txns,\
     committed,committed_per_s,p50_ms,p99_ms,batches,epochs,verified\n";
  List.iter
    (fun (topology, p) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%d,%.3f,%.3f,%d,%d,%.3f,%.3f,%.3f,%d,%d,%b\n"
           topology p.mode.label p.mode.batch_max p.mode.pipeline_depth
           p.mode.epoch_interval p.rate p.txns p.committed p.committed_per_s
           (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
           p.batches p.epochs
           (match p.verified with Ok () -> true | Error _ -> false)))
    cells;
  Buffer.contents buf
