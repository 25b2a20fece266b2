(* Benchmark harness.

   With no arguments: regenerate every figure of the paper's evaluation
   (§6) and then run the Bechamel micro-benchmarks. With arguments: run the
   named subset, e.g.

     dune exec bench/main.exe -- fig4a fig6
     dune exec bench/main.exe -- micro
     dune exec bench/main.exe -- --jobs 4 fig6
     dune exec bench/main.exe -- --json fig4a fig6

   Figure ids: fig4a fig4b fig5a fig5b fig6 fig7 fig8 text-cp.

   --jobs N (or MDDS_JOBS) sizes the domain pool the figure trials run on;
   figure output is byte-identical whatever the value. --json times every
   selected figure sequentially and on the pool and writes the machine-
   readable trajectory to BENCH_harness.json (wall seconds per figure,
   speedup, Bechamel micro results) so perf can be tracked across PRs. *)

module Figures = Mdds_harness.Figures
module Pool = Mdds_parallel.Pool

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks for the hot paths.                         *)

open Bechamel
open Toolkit

let entry_of_size n =
  List.init n (fun i ->
      Mdds_types.Txn.make_record
        ~txn_id:(Printf.sprintf "bench/%d" i)
        ~origin:(i mod 3) ~read_position:41
        ~reads:[ "a001"; "a002"; "a003"; "a004"; "a005" ]
        ~writes:
          (List.init 5 (fun j ->
               { Mdds_types.Txn.key = Printf.sprintf "a%03d" ((7 * j) + i);
                 value = "some-benchmark-value" })))

let bench_codec =
  let entry = entry_of_size 3 in
  let codec = Mdds_types.Txn.entry_codec in
  Test.make ~name:"codec/entry-roundtrip"
    (Staged.stage (fun () ->
         let s = Mdds_codec.Codec.encode codec entry in
         ignore (Mdds_codec.Codec.decode_exn codec s)))

let bench_store_read =
  let store = Mdds_kvstore.Store.create () in
  for ts = 1 to 100 do
    ignore (Mdds_kvstore.Store.write store ~key:"row" ~timestamp:ts [ ("v", string_of_int ts) ])
  done;
  Test.make ~name:"kvstore/versioned-read"
    (Staged.stage (fun () -> ignore (Mdds_kvstore.Store.read store ~key:"row" ~timestamp:50 ())))

let bench_tally =
  let entry = entry_of_size 1 in
  let votes =
    List.init 5 (fun from ->
        {
          Mdds_paxos.Tally.from;
          vote =
            (if from < 2 then
               Some (Mdds_paxos.Ballot.make ~round:1 ~proposer:from, entry)
             else None);
        })
  in
  Test.make ~name:"paxos/tally-decide"
    (Staged.stage (fun () ->
         ignore
           (Mdds_paxos.Tally.decide ~total:5 ~equal:Mdds_types.Txn.equal_entry votes)))

let bench_combine =
  let records = entry_of_size 5 in
  let own = List.hd records and candidates = List.tl records in
  Test.make ~name:"paxos-cp/combination-search"
    (Staged.stage (fun () ->
         ignore (Mdds_core.Combine.best ~own ~candidates ~exhaustive_limit:4 ())))

(* 12 candidates with the production limit (4) measure the dedup +
   footprint-greedy path a busy position actually takes. *)
let bench_combine_12 =
  let records = entry_of_size 13 in
  let own = List.hd records and candidates = List.tl records in
  Test.make ~name:"paxos-cp/combination-search-12"
    (Staged.stage (fun () ->
         ignore (Mdds_core.Combine.best ~own ~candidates ~exhaustive_limit:4 ())))

let bench_footprint_build =
  (* Record construction pays for footprint sorting once;
     every conflict probe afterwards rides on it. Duplicate-heavy key
     lists, as clients produce (re-reads, overwritten keys). *)
  let reads = List.init 12 (fun i -> Printf.sprintf "a%03d" (i mod 8)) in
  let writes =
    List.init 8 (fun i ->
        { Mdds_types.Txn.key = Printf.sprintf "a%03d" ((3 * i) mod 10);
          value = "footprint-benchmark-value" })
  in
  Test.make ~name:"txn/footprint-build"
    (Staged.stage (fun () ->
         ignore
           (Mdds_types.Txn.make_record ~txn_id:"bench/fp" ~origin:0
              ~read_position:41 ~reads ~writes)))

let bench_reads_from =
  let mk i =
    Mdds_types.Txn.make_record
      ~txn_id:(Printf.sprintf "rf/%d" i)
      ~origin:0 ~read_position:0
      ~reads:(List.init 8 (fun j -> Printf.sprintf "a%03d" ((5 * j) + i)))
      ~writes:
        (List.init 8 (fun j ->
             { Mdds_types.Txn.key = Printf.sprintf "a%03d" ((7 * j) + i + 1);
               value = "v" }))
  in
  let t = mk 0 and s = mk 1 in
  Test.make ~name:"txn/reads-from"
    (Staged.stage (fun () -> ignore (Mdds_types.Txn.reads_from t s)))

let bench_check_1sr_large =
  (* The 1SR oracle shape at experiment scale: 120 transactions over 40
     keys, two reads + two writes each, projected to an SCSV schedule.
     Exercises the per-key conflict-graph index end to end. *)
  let schedule =
    List.concat_map
      (fun i ->
        let key j = Printf.sprintf "k%02d" ((i + j) mod 40) in
        let txn = Printf.sprintf "t%03d" i in
        [
          { Mdds_serial.History.txn; action = Mdds_serial.History.Read (key 0) };
          { Mdds_serial.History.txn; action = Mdds_serial.History.Read (key 7) };
          { Mdds_serial.History.txn; action = Mdds_serial.History.Write (key 0) };
          { Mdds_serial.History.txn; action = Mdds_serial.History.Write (key 13) };
        ])
      (List.init 120 Fun.id)
  in
  Test.make ~name:"serial/check-1sr-large"
    (Staged.stage (fun () ->
         ignore (Mdds_serial.History.conflict_serializable schedule)))

let bench_commit name spec_topo config =
  Test.make ~name
    (Staged.stage (fun () ->
         let topo = Mdds_net.Topology.ec2 spec_topo in
         let cluster = Mdds_core.Cluster.create ~seed:7 ~config topo in
         let client = Mdds_core.Cluster.client cluster ~dc:0 in
         Mdds_core.Cluster.spawn cluster (fun () ->
             let txn = Mdds_core.Client.begin_ client ~group:"bench" in
             Mdds_core.Client.write txn "k" "v";
             ignore (Mdds_core.Client.commit txn));
         Mdds_core.Cluster.run cluster))

let bench_row_normalize =
  (* Duplicate-heavy attribute list: the old List.mem-based dedup walk was
     quadratic in exactly this shape. *)
  let value =
    List.init 200 (fun i -> (Printf.sprintf "attr%03d" (i mod 100), string_of_int i))
  in
  Test.make ~name:"kvstore/normalize-200"
    (Staged.stage (fun () -> ignore (Mdds_kvstore.Row.normalize value)))

let bench_audit_stats =
  (* Record a realistic outcome mix and read the full statistic set the
     experiment runner consumes (counts, per-reason aborts, per-round
     commits and latencies): previously one full event-list pass per
     statistic, now incremental counters. *)
  let module Audit = Mdds_core.Audit in
  let record_of i =
    Mdds_types.Txn.make_record
      ~txn_id:(Printf.sprintf "audit-bench/%d" i)
      ~origin:(i mod 3) ~read_position:i ~reads:[ "a001" ] ~writes:[]
  in
  let event i =
    let outcome =
      match i mod 5 with
      | 0 | 1 | 2 ->
          Audit.Committed { position = i; promotions = i mod 4; combined = i mod 7 = 0 }
      | 3 -> Audit.Aborted { reason = Audit.Conflict; promotions = i mod 3 }
      | _ -> Audit.Read_only_committed
    in
    {
      Audit.group = "bench";
      record = record_of i;
      observed = [];
      outcome;
      began_at = float_of_int i;
      committed_at = float_of_int i +. 0.25;
      commit_started_at = float_of_int i +. 0.05;
      client_dc = i mod 3;
      stats = Audit.no_stats;
    }
  in
  let events = List.init 1000 event in
  Test.make ~name:"audit/stats-1000"
    (Staged.stage (fun () ->
         let audit = Audit.create () in
         List.iter (Audit.record audit) events;
         let rounds = Audit.max_promotions_seen audit in
         ignore (Audit.commits audit);
         ignore (Audit.aborts audit);
         ignore (Audit.unknowns audit);
         ignore (Audit.abort_count audit Audit.Conflict);
         ignore (Audit.abort_count audit Audit.Lost_position);
         ignore (Audit.abort_count audit Audit.Unavailable);
         ignore (Audit.txn_latencies audit);
         ignore (Audit.commit_latencies audit ~promotions:None);
         for r = 0 to rounds do
           ignore (Audit.commits_with_promotions audit r);
           ignore (Audit.commit_latencies audit ~promotions:(Some r))
         done))

let bench_wal_entry_cached =
  (* Re-reading a decided log entry: the write-through decoded cache turns
     the old sprintf-key + store-read + codec-decode round trip into one
     small-hashtable probe. *)
  let wal = Mdds_wal.Wal.create (Mdds_kvstore.Store.create ()) in
  let entry = entry_of_size 3 in
  for pos = 1 to 50 do
    Mdds_wal.Wal.append wal ~group:"bench" ~pos entry
  done;
  Test.make ~name:"wal/entry-read-cached"
    (Staged.stage (fun () ->
         ignore (Mdds_wal.Wal.entry wal ~group:"bench" ~pos:25)))

let bench_wal_snapshot =
  (* Snapshot of a 100-row group: the per-group data index replaces the
     full-store key scan + prefix filter. *)
  let wal = Mdds_wal.Wal.create (Mdds_kvstore.Store.create ()) in
  for pos = 1 to 20 do
    let writes =
      List.init 5 (fun j ->
          {
            Mdds_types.Txn.key = Printf.sprintf "row%03d" (((pos - 1) * 5) + j);
            value = "snapshot-benchmark-value";
          })
    in
    Mdds_wal.Wal.append wal ~group:"bench" ~pos
      [
        Mdds_types.Txn.make_record
          ~txn_id:(Printf.sprintf "snap/%d" pos)
          ~origin:0 ~read_position:(pos - 1) ~reads:[] ~writes;
      ]
  done;
  (match Mdds_wal.Wal.apply wal ~group:"bench" ~upto:20 with
  | Ok () -> ()
  | Error (`Gap _) -> assert false);
  Test.make ~name:"wal/snapshot-100-rows"
    (Staged.stage (fun () -> ignore (Mdds_wal.Wal.snapshot wal ~group:"bench")))

let bench_acceptor_load =
  (* Loading decoded acceptor state for a decided position: cached decode
     instead of store read + ballot parse + vote decode per message. *)
  let topo = Mdds_net.Topology.ec2 "VVV" in
  let cluster =
    Mdds_core.Cluster.create ~seed:7 ~config:Mdds_core.Config.default topo
  in
  let client = Mdds_core.Cluster.client cluster ~dc:0 in
  Mdds_core.Cluster.spawn cluster (fun () ->
      let txn = Mdds_core.Client.begin_ client ~group:"bench" in
      Mdds_core.Client.write txn "k" "v";
      ignore (Mdds_core.Client.commit txn));
  Mdds_core.Cluster.run cluster;
  let service = Mdds_core.Cluster.service cluster 0 in
  Test.make ~name:"service/acceptor-load"
    (Staged.stage (fun () ->
         ignore (Mdds_core.Service.acceptor_state service ~group:"bench" ~pos:1)))

(* Contention under VVV: three clients per run hammer one hot key in the
   same group without the fast path, so rival proposers repeatedly collide
   on the same log position and pay the backoff ladder. *)
let bench_contention name config =
  Test.make ~name
    (Staged.stage (fun () ->
         let topo = Mdds_net.Topology.ec2 "VVV" in
         let cluster = Mdds_core.Cluster.create ~seed:7 ~config topo in
         for dc = 0 to 2 do
           let client = Mdds_core.Cluster.client cluster ~dc in
           Mdds_core.Cluster.spawn cluster (fun () ->
               for _ = 1 to 3 do
                 try
                   let txn = Mdds_core.Client.begin_ client ~group:"bench" in
                   ignore (Mdds_core.Client.read txn "hot");
                   Mdds_core.Client.write txn "hot" "v";
                   ignore (Mdds_core.Client.commit txn)
                 with Mdds_core.Client.Unavailable _ -> ()
               done)
         done;
         Mdds_core.Cluster.run cluster))

let contention_flat =
  { Mdds_core.Config.basic with enable_fast_path = false }

let bench_trace_disabled =
  (* Disabled tracing must cost one branch, not a Printf.ksprintf render. *)
  let engine = Mdds_sim.Engine.create ~seed:1 () in
  let trace = Mdds_sim.Trace.create engine in
  Test.make ~name:"trace/record-disabled"
    (Staged.stage (fun () ->
         Mdds_sim.Trace.record trace ~source:"bench" ~category:"noop"
           "formatting %d should not run %s" 42 "at all"))

let bench_engine =
  Test.make ~name:"sim/spawn-sleep-1000"
    (Staged.stage (fun () ->
         let engine = Mdds_sim.Engine.create ~seed:1 () in
         for i = 1 to 1000 do
           Mdds_sim.Engine.spawn engine (fun () ->
               Mdds_sim.Engine.sleep (float_of_int i *. 0.001))
         done;
         Mdds_sim.Engine.run engine))

let bench_rpc_call =
  (* Per-call overhead of the RPC layer: waiter registration, timeout
     timer, delivery, reply matching and timer cancellation — 100
     sequential calls on a V-V link, adaptive-timeout observation
     included in the caller's path. The staged run measures the
     100-call aggregate (engine setup amortized over it); run_micro
     divides the estimate down so the reported number is per call. *)
  Test.make ~name:"rpc/call-overhead"
    (Staged.stage (fun () ->
         let engine = Mdds_sim.Engine.create ~seed:1 () in
         let net = Mdds_net.Network.create engine (Mdds_net.Topology.ec2 "VV") in
         let rpc : (int, int) Mdds_net.Rpc.t = Mdds_net.Rpc.create net in
         Mdds_net.Rpc.serve rpc ~node:1 (fun ~src:_ req -> req + 1);
         Mdds_sim.Engine.spawn engine (fun () ->
             for i = 1 to 100 do
               ignore (Mdds_net.Rpc.call rpc ~src:0 ~dst:1 ~timeout:1.0 i)
             done);
         Mdds_sim.Engine.run engine))

(* Throughput mode (DESIGN.md §14). batch-fill: six clients submit into
   one service inside a fill window wider than the RPC processing jitter,
   so the drainer Combine-validates one multi-transaction batch — the
   whole admission path (dedup scan, staleness, footprint overlap) in one
   number. pipelined: batching off, depth 4 — four concurrent commits ride
   overlapping sequenced log positions instead of serializing on the
   apply watermark. *)
let throughput_batch_config =
  { (Mdds_core.Config.throughput ~pipeline_depth:1 Mdds_core.Config.leader)
    with batch_fill = 0.15 }

let bench_batch_fill =
  Test.make ~name:"service/batch-fill"
    (Staged.stage (fun () ->
         let topo = Mdds_net.Topology.ec2 "VVV" in
         let cluster =
           Mdds_core.Cluster.create ~seed:7 ~config:throughput_batch_config topo
         in
         for i = 0 to 5 do
           let client = Mdds_core.Cluster.client cluster ~dc:0 in
           Mdds_core.Cluster.spawn cluster (fun () ->
               let txn = Mdds_core.Client.begin_ client ~group:"bench" in
               Mdds_core.Client.write txn (Printf.sprintf "k%d" i) "v";
               ignore (Mdds_core.Client.commit txn))
         done;
         Mdds_core.Cluster.run cluster))

let throughput_pipeline_config =
  Mdds_core.Config.throughput ~batch_max:1 ~pipeline_depth:4
    Mdds_core.Config.leader

let bench_commit_pipelined =
  Test.make ~name:"e2e/one-commit-pipelined-depth4"
    (Staged.stage (fun () ->
         let topo = Mdds_net.Topology.ec2 "VVV" in
         let cluster =
           Mdds_core.Cluster.create ~seed:7 ~config:throughput_pipeline_config
             topo
         in
         for i = 0 to 3 do
           let client = Mdds_core.Cluster.client cluster ~dc:0 in
           Mdds_core.Cluster.spawn cluster (fun () ->
               let txn = Mdds_core.Client.begin_ client ~group:"bench" in
               Mdds_core.Client.write txn (Printf.sprintf "k%d" i) "v";
               ignore (Mdds_core.Client.commit txn))
         done;
         Mdds_core.Cluster.run cluster))

let bench_saturation_point =
  (* A short over-saturated open-loop burst through the full measurement
     harness (fresh cluster, arrivals past capacity, drain, oracle check)
     — the inner loop of `mdds throughput` priced as one number. *)
  Test.make ~name:"throughput/saturation-point"
    (Staged.stage (fun () ->
         ignore
           (Mdds_harness.Throughput.run_point ~seed:7
              ~mode:(Mdds_harness.Throughput.batched ()) ~rate:200.0 ~txns:40
              ())))

let micro_tests =
  Test.make_grouped ~name:"micro"
    [
      bench_codec;
      bench_store_read;
      bench_row_normalize;
      bench_audit_stats;
      bench_tally;
      bench_combine;
      bench_combine_12;
      bench_footprint_build;
      bench_reads_from;
      bench_check_1sr_large;
      bench_wal_entry_cached;
      bench_wal_snapshot;
      bench_acceptor_load;
      bench_trace_disabled;
      bench_engine;
      bench_rpc_call;
      bench_commit "e2e/one-commit-VVV" "VVV" Mdds_core.Config.default;
      bench_commit "e2e/one-commit-VVV-basic" "VVV" Mdds_core.Config.basic;
      bench_commit "e2e/one-commit-VVVOC" "VVVOC" Mdds_core.Config.default;
      bench_contention "e2e/contended-flat-backoff" contention_flat;
      bench_batch_fill;
      bench_commit_pipelined;
      bench_saturation_point;
    ]

(* A few staged bodies iterate their hot operation N times per run (setup
   amortized across the loop); their estimates are divided back down so
   every reported number is the per-operation cost the name promises. *)
let micro_iterations = function
  | "micro/rpc/call-overhead" -> 100.0
  | _ -> 1.0

(* Returns [(name, ns_per_run option)] sorted by name, printing as it goes.
   [quick] trims the per-test quota for CI smoke runs: estimates are
   noisier but regressions of the order the fast path targets (x1.5+)
   still show, at a fraction of the wall time. *)
let run_micro ?(quick = false) () =
  print_endline "\n== Micro-benchmarks (Bechamel) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.05 else 0.5))
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let collected = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ ns ] ->
              let ns = ns /. micro_iterations name in
              Printf.printf "  %-32s %12.1f ns/run\n" name ns;
              collected := (name, Some ns) :: !collected
          | _ ->
              Printf.printf "  %-32s (no estimate)\n" name;
              collected := (name, None) :: !collected)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    merged;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !collected

(* ------------------------------------------------------------------ *)
(* Machine-readable bench trajectory (BENCH_harness.json).              *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let time_run f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* The PR-8 saturation comparison gating the bench guard's throughput
   floor: both modes at one over-saturated offered rate (well past the
   baseline's ~20 committed/s capacity on VVV), goodput measured by the
   open-loop harness — plus the epoch-sealed mode (PROTOCOL.md §11) at
   the same point, so the batching-vs-epoch head-to-head is recorded
   honestly whichever discipline wins. Deterministic in (seed, txns), so
   only the quota (txns) distinguishes a --quick run. *)
let run_throughput ~quick =
  let module Throughput = Mdds_harness.Throughput in
  let rate = 150.0 in
  let txns = if quick then 300 else 1200 in
  Printf.printf "\n-- timing throughput saturation (%d txns at %.0f/s) --\n%!"
    txns rate;
  let point mode = Throughput.run_point ~seed:42 ~mode ~rate ~txns () in
  let base = point Throughput.baseline in
  let batched = point (Throughput.batched ()) in
  let epoch = point (Throughput.epoch ()) in
  Throughput.pp_table Format.std_formatter [ base; batched; epoch ];
  (rate, txns, base, batched, epoch)

(* Per-group drainers must multiply, not contend (ROADMAP): the same
   over-saturated epoch-mode load on one group log vs spread over four.
   The offered rate is far past one group's sealed-epoch capacity, so the
   1-group cell saturates and the 4-group aggregate shows the scaling. *)
let run_epoch_groups ~quick =
  let module Throughput = Mdds_harness.Throughput in
  (* Composition only multiplies when a single group is consensus-round
     bound: with a small fill bound a backlogged drainer seals epochs
     back-to-back at ~fill/RTT committed/s, and independent per-group
     logs overlap those rounds. (At fill 64 a lone group absorbs 2000/s
     by itself — apply-bound, nothing left for groups to multiply — and
     the run is too short to amortize the ~2s probe-loss stragglers that
     set [last_commit].) *)
  let rate = 2000.0 in
  let txns = if quick then 1200 else 2400 in
  Printf.printf
    "\n-- timing epoch group composition (%d txns at %.0f/s, 1 vs 4 groups) \
     --\n%!"
    txns rate;
  let point groups =
    Throughput.run_point ~seed:42 ~groups ~mode:(Throughput.epoch ~fill:8 ())
      ~rate ~txns ()
  in
  let g1 = point 1 in
  let g4 = point 4 in
  Throughput.pp_table Format.std_formatter [ g1; g4 ];
  Printf.printf "  1 group %.1f committed/s, 4 groups %.1f committed/s: %.2fx\n"
    g1.Throughput.committed_per_s g4.Throughput.committed_per_s
    (if g1.Throughput.committed_per_s > 0. then
       g4.Throughput.committed_per_s /. g1.Throughput.committed_per_s
     else 0.);
  (rate, txns, g1, g4)

let emit_json ~path ~jobs ~figures ~micro ~throughput ~epoch_groups =
  let out = open_out path in
  let p fmt = Printf.fprintf out fmt in
  p "{\n";
  p "  \"schema\": 1,\n";
  p "  \"jobs\": %d,\n" jobs;
  p "  \"domains_recommended\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"figures\": [\n";
  List.iteri
    (fun i (id, seq_s, par_s) ->
      p "    {\"id\": \"%s\", \"seconds_sequential\": %.3f, \
         \"seconds_parallel\": %.3f, \"speedup\": %.2f}%s\n"
        (json_escape id) seq_s par_s
        (if par_s > 0. then seq_s /. par_s else 0.)
        (if i = List.length figures - 1 then "" else ","))
    figures;
  p "  ],\n";
  (let module Throughput = Mdds_harness.Throughput in
   let rate, txns, base, batched, epoch = throughput in
   let cps (pt : Throughput.point) = pt.Throughput.committed_per_s in
   let p50 (pt : Throughput.point) =
     pt.Throughput.latency.Mdds_harness.Stats.p50 *. 1000.
   in
   let ok (pt : Throughput.point) = Result.is_ok pt.Throughput.verified in
   p "  \"throughput\": {\"rate\": %.1f, \"txns\": %d, \
      \"baseline_committed_per_s\": %.3f, \"batched_committed_per_s\": %.3f, \
      \"ratio\": %.2f, \"baseline_p50_ms\": %.1f, \"batched_p50_ms\": %.1f, \
      \"verified\": %b},\n"
     rate txns (cps base) (cps batched)
     (if cps base > 0. then cps batched /. cps base else 0.)
     (p50 base) (p50 batched)
     (ok base && ok batched);
   let g_rate, g_txns, g1, g4 = epoch_groups in
   p "  \"epoch\": {\"rate\": %.1f, \"txns\": %d, \
      \"epoch_committed_per_s\": %.3f, \"epoch_vs_baseline\": %.2f, \
      \"epoch_vs_batched\": %.2f, \"epoch_p50_ms\": %.1f, \
      \"epochs_sealed\": %d, \"groups_rate\": %.1f, \"groups_txns\": %d, \
      \"groups1_committed_per_s\": %.3f, \"groups4_committed_per_s\": %.3f, \
      \"groups_scaling\": %.2f, \"verified\": %b},\n"
     rate txns (cps epoch)
     (if cps base > 0. then cps epoch /. cps base else 0.)
     (if cps batched > 0. then cps epoch /. cps batched else 0.)
     (p50 epoch) epoch.Throughput.epochs g_rate g_txns (cps g1) (cps g4)
     (if cps g1 > 0. then cps g4 /. cps g1 else 0.)
     (ok epoch && ok g1 && ok g4));
  p "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      p "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n" (json_escape name)
        (match ns with Some v -> Printf.sprintf "%.1f" v | None -> "null")
        (if i = List.length micro - 1 then "" else ","))
    micro;
  p "  ]\n";
  p "}\n";
  close_out out;
  Printf.printf "\nwrote %s\n" path

(* Time each figure twice — pinned to one domain, then on the pool — and
   record both; the parallel pass double-checks output identity is not our
   problem here (CI diffs the actual tables), only wall clock. *)
let run_json ~jobs ~quick ~out ids =
  let ids = if ids = [] then List.map (fun (id, _, _) -> id) Figures.all else ids in
  (* Micros first, from a compacted heap: figure regeneration leaves a
     large major heap behind, and measuring the micros on top of it
     inflates every allocation-sensitive number by whatever the GC then
     costs (observed up to ~20x on quick quotas). The figure timings
     below are whole-run wall clocks and don't care. *)
  Gc.compact ();
  let micro = run_micro ~quick () in
  let throughput = run_throughput ~quick in
  let epoch_groups = run_epoch_groups ~quick in
  let figures =
    List.map
      (fun id ->
        Printf.printf "\n-- timing %s (sequential) --\n%!" id;
        Pool.set_jobs (Some 1);
        let seq_s = time_run (fun () -> Figures.run_ids [ id ]) in
        Printf.printf "\n-- timing %s (%d domains) --\n%!" id jobs;
        Pool.set_jobs (Some jobs);
        let par_s = time_run (fun () -> Figures.run_ids [ id ]) in
        Pool.set_jobs None;
        (id, seq_s, par_s))
      ids
  in
  emit_json ~path:out ~jobs ~figures ~micro ~throughput ~epoch_groups

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Hand-rolled flag parsing:
     [--jobs N | -j N] [--json] [--quick] [--out PATH] [ids...]. *)
  let out = ref "BENCH_harness.json" in
  let rec parse (json, quick, jobs, ids) = function
    | [] -> (json, quick, jobs, List.rev ids)
    | "--json" :: rest -> parse (true, quick, jobs, ids) rest
    | "--quick" :: rest -> parse (json, true, jobs, ids) rest
    | "--out" :: path :: rest ->
        out := path;
        parse (json, quick, jobs, ids) rest
    | "--out" :: [] ->
        Printf.eprintf "--out needs a path\n";
        exit 2
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> parse (json, quick, Some n, ids) rest
        | _ ->
            Printf.eprintf "bad --jobs value %S (expected a positive integer)\n" n;
            exit 2)
    | ("--jobs" | "-j") :: [] ->
        Printf.eprintf "--jobs needs a value\n";
        exit 2
    | id :: rest -> parse (json, quick, jobs, id :: ids) rest
  in
  let json, quick, jobs, ids = parse (false, false, None, []) args in
  Pool.set_jobs jobs;
  let effective_jobs = Pool.get_jobs () in
  let known_figures = List.map (fun (id, _, _) -> id) Figures.all in
  let bad =
    List.filter (fun id -> not (List.mem id known_figures || id = "micro")) ids
  in
  if bad <> [] then begin
    Printf.eprintf "unknown benchmark ids: %s\nknown: %s micro\n"
      (String.concat ", " bad)
      (String.concat " " known_figures);
    exit 2
  end;
  (if json then
     run_json ~jobs:effective_jobs ~quick ~out:!out
       (List.filter (fun id -> id <> "micro") ids)
   else
     match ids with
     | [] ->
         Printf.printf
           "Reproducing every figure of the evaluation (three seeds each, %d domains).\n"
           effective_jobs;
         Figures.run_ids [];
         ignore (run_micro ~quick ())
     | ids ->
         Figures.run_ids (List.filter (fun id -> id <> "micro") ids);
         if List.mem "micro" ids then ignore (run_micro ~quick ()))
