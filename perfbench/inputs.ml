(* Workload inputs, generated from the workload seed alone.

   The generator uses its own [Random.State] and a precomputed Zipf table,
   never the simulator's RNG or the repository's workload modules, so two
   commits that change the simulator still run byte-identical inputs; the
   digest printed by the benchmark proves it. *)

type op = Read of string | Write of string | Incr of string
(* [Incr k]: read [k], write its integer value plus one. *)

type txn = {
  idx : int;
  at : float;
      (* Open loop: the scheduled arrival. Closed loop: the paced start;
         the worker starts later if its previous transaction is still
         running. *)
  dc : int;
  group : string;
  ops : op array;
}

type kind = Closed of { threads : int } | Open

type outage = { dc_down : int; from_s : float; until_s : float }

type t = {
  config : Mdds_core.Config.t;
  kind : kind;
  topology : string;
  loss : float;  (* Loss probability of every inter-datacenter link. *)
  txns : txn array;
  groups : string list;
  preload : (string * string list) option;
      (* Group and keys written by one transaction before any worker
         starts; not counted as attempted. *)
  outages : outage list;
}

(* Inverse-CDF table for Zipf(theta) over [n] ranks: built once per run,
   then every draw is one binary search. *)
let zipf_table ~theta n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. x;
      cdf.(i) <- !acc /. total)
    w;
  cdf.(n - 1) <- 1.0;
  cdf

let zipf_draw cdf st =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let exponential st mean = -.mean *. log (1.0 -. Random.State.float st 1.0)

(* The paper's section 6 workload: 4 closed-loop workers in V at 1 txn/s
   each (exponential pacing, 0.25 s stagger), 10 ops at 50% reads over
   100 uniform attributes of one preloaded entity group. *)
let ycsb_cp_wan st =
  let threads = 4 and attributes = 100 and ops = 10 in
  let key i = Printf.sprintf "a%03d" i in
  let next = Array.init threads (fun t -> 1.0 +. (0.25 *. float_of_int t)) in
  let txns =
    Array.init 20_000 (fun idx ->
        let t = idx mod threads in
        next.(t) <- next.(t) +. exponential st 1.0;
        let ops =
          Array.init ops (fun _ ->
              let k = key (Random.State.int st attributes) in
              if Random.State.bool st then Read k else Write k)
        in
        { idx; at = next.(t); dc = 0; group = "ycsb"; ops })
  in
  {
    config = Mdds_core.Config.default;
    kind = Closed { threads };
    topology = "VOC";
    loss = 0.002;
    txns;
    groups = [ "ycsb" ];
    preload = Some ("ycsb", List.init attributes key);
    outages = [];
  }

(* Open loop at a fixed [rate] txn/s (evenly spaced arrivals, so the
   schedule does not depend on the seed), round-robin over 4 groups and 3
   datacenters; each transaction reads and writes one fresh key, every
   16th increments its group's counter instead. No link loss: with it,
   2 s loss stalls make the p99 bimodal across seeds (see README.md). *)
let openloop_batched ~rate =
  let groups = Array.init 4 (Printf.sprintf "g%d") in
  let txns =
    Array.init 30_000 (fun idx ->
        let ops =
          if idx mod 16 = 0 then [| Incr "ctr" |]
          else
            let k = Printf.sprintf "k%06d" idx in
            [| Read k; Write k |]
        in
        { idx; at = float_of_int idx /. rate; dc = idx mod 3; group = groups.(idx mod 4); ops })
  in
  {
    config = Mdds_core.Config.(throughput ~batch_max:8 ~pipeline_depth:4 leader);
    kind = Open;
    topology = "VVV";
    loss = 0.0;
    txns;
    groups = Array.to_list groups;
    preload = None;
    outages = [];
  }

let outage_period = 300.0
let outage_offset = 150.0
let outage_length = 30.0

(* Open loop at [rate] txn/s from clients spread uniformly over V, O and
   C; 10 ops at 90% reads over 1,000 Zipf(0.99) keys. The leader's
   datacenter is down for [outage_length] seconds in every
   [outage_period]. *)
let leader_outage st ~rate =
  let cdf = zipf_table ~theta:0.99 1000 in
  let clock = ref 0.0 in
  let txns =
    Array.init 24_000 (fun idx ->
        clock := !clock +. exponential st (1.0 /. rate);
        let dc = Random.State.int st 3 in
        let ops =
          Array.init 10 (fun _ ->
              let k = Printf.sprintf "z%04d" (zipf_draw cdf st) in
              if Random.State.float st 1.0 < 0.9 then Read k else Write k)
        in
        { idx; at = !clock; dc; group = "hot"; ops })
  in
  let last = txns.(Array.length txns - 1).at in
  let outages =
    List.init
      (int_of_float (last /. outage_period) + 1)
      (fun k ->
        let from_s = (float_of_int k *. outage_period) +. outage_offset in
        { dc_down = 0; from_s; until_s = from_s +. outage_length })
    |> List.filter (fun o -> o.until_s <= last)
  in
  {
    config = Mdds_core.Config.leader;
    kind = Open;
    topology = "VOC";
    loss = 0.002;
    txns;
    groups = [ "hot" ];
    preload = None;
    outages;
  }

let names = [ "ycsb-cp-wan"; "openloop-batched"; "leader-outage" ]

(* Each workload's inputs, sized so that every virtual-time metric's
   spread across seeds is well inside its bound (see README.md). [rate]
   overrides an open-loop arrival rate, for the knee scan only. *)
let generate ?rate ~seed workload =
  (* Each workload hashes its name into the state, so one seed gives
     unrelated streams to different workloads. *)
  let st = Random.State.make [| seed; Hashtbl.hash workload |] in
  match workload with
  | "ycsb-cp-wan" -> ycsb_cp_wan st
  | "openloop-batched" -> openloop_batched ~rate:(Option.value rate ~default:400.0)
  | "leader-outage" -> leader_outage st ~rate:(Option.value rate ~default:5.0)
  | w -> invalid_arg ("unknown workload " ^ w)

let in_outage t at =
  List.exists (fun o -> at >= o.from_s && at < o.until_s) t.outages

(* Digest of everything the program is fed: arrivals, datacenters,
   groups, keys, op kinds and the outage schedule. *)
let digest t =
  let b = Buffer.create (Array.length t.txns * 64) in
  Printf.bprintf b "%s %h\n" t.topology t.loss;
  Array.iter
    (fun x ->
      Printf.bprintf b "%d %h %d %s" x.idx x.at x.dc x.group;
      Array.iter
        (function
          | Read k -> Printf.bprintf b " r%s" k
          | Write k -> Printf.bprintf b " w%s" k
          | Incr k -> Printf.bprintf b " i%s" k)
        x.ops;
      Buffer.add_char b '\n')
    t.txns;
  List.iter
    (fun o -> Printf.bprintf b "down %d %h %h\n" o.dc_down o.from_s o.until_s)
    t.outages;
  Digest.to_hex (Digest.string (Buffer.contents b))
