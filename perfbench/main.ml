(* The repository benchmark: one workload at one seed, measured for a
   wall-clock budget on one domain.

     main.exe --workload W --seed N --seconds S --trace 0|1

   A first run (traced under --trace 1) gives the virtual-time metrics and
   warms the heap up. Then --trace 0 repeats untraced runs until the budget
   is spent (at least three) and prints the end-to-end metrics, the
   wall-clock and allocation ones as medians over those repeats; --trace 1
   alternates an untraced and a traced run (at least two pairs) and prints
   the per-layer metrics. Every run passes the correctness gate and must
   reproduce the first run's outcome counts and virtual-time metrics
   exactly; otherwise the benchmark prints the violation and exits 1
   without a result. The last stdout line is the JSON result. *)

open Metrics

(* Traced runs leave their spans here, one file per workload and seed. *)
let out_dir = ".perfbench-out"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      print_endline ("FAILED: " ^ s);
      exit 1)
    fmt

let alloc_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let wall = Unix.gettimeofday

(* Host-speed calibration. The shared host's speed drifts by up to half
   over minutes, which moves every wall time with it. A fixed stdlib-only
   loop (map inserts and a sort, nothing from this repository, so no
   change to the program can move it) is timed before and after each run,
   and the run's wall times are rescaled to a host on which the loop takes
   [reference_s]. *)
module Int_map = Map.Make (Int)

let reference_s = 0.1

let calibrate () =
  Gc.full_major ();
  let t0 = wall () in
  let m = ref Int_map.empty in
  for i = 1 to 100_000 do
    m := Int_map.add (i * 7919 land 0xFFFFF) i !m
  done;
  ignore (List.sort compare (List.init 100_000 (fun i -> i * 104729 land 0xFFFF)));
  wall () -. t0

(* Cost of one run, by phase. Times are host-normalized seconds; [raw_s]
   (the unscaled wall time of run plus verify) and [calib_s] are logged. *)
type sample = {
  setup_s : float list;  (* This run's set-up, then any extra set-ups. *)
  run_s : float;
  verify_s : float;
  raw_s : float;
  calib_s : float;
  alloc_total : float;
  alloc_run : float;
  alloc_verify : float;
  events : int;
}

type wall_span = { phase : string; w0 : float; w1 : float; words : float }

(* Run once: calibrate, set up (plus [extra_setups] discarded set-ups,
   timed), run, verify, calibrate, gate. Returns the sample and the
   finished run; exits on any gate violation. *)
let one_run ~workload ~seed ?rate ~tracing ~extra_setups () =
  let before = calibrate () in
  let time_setup () =
    Gc.full_major ();
    let w0 = wall () in
    ignore (Drive.setup ~seed ~tracing:false (Inputs.generate ?rate ~seed workload));
    wall () -. w0
  in
  let extra = List.init extra_setups (fun _ -> time_setup ()) in
  Gc.full_major ();
  let a0 = alloc_words () and w0 = wall () in
  let inputs = Inputs.generate ?rate ~seed workload in
  let d = Drive.setup ~seed ~tracing inputs in
  let a1 = alloc_words () and w1 = wall () in
  let ran = Drive.run d in
  let a2 = alloc_words () and w2 = wall () in
  let verified = Drive.verify d in
  let a3 = alloc_words () and w3 = wall () in
  let calib_s = (before +. calibrate ()) /. 2.0 in
  let scale = reference_s /. calib_s in
  (match ran with Error e -> fail "correctness gate: %s" e | Ok () -> ());
  (match verified with Error e -> fail "correctness gate: %s" e | Ok () -> ());
  (match gate d with
  | [] -> ()
  | problems ->
      fail "correctness gate: %d violations, first: %s" (List.length problems)
        (String.concat "; " (List.filteri (fun i _ -> i < 5) problems)));
  let phases =
    [
      { phase = "setup"; w0; w1; words = a1 -. a0 };
      { phase = "run"; w0 = w1; w1 = w2; words = a2 -. a1 };
      { phase = "verify"; w0 = w2; w1 = w3; words = a3 -. a2 };
    ]
  in
  ( {
      setup_s = List.map (fun s -> s *. scale) ((w1 -. w0) :: extra);
      run_s = (w2 -. w1) *. scale;
      verify_s = (w3 -. w2) *. scale;
      raw_s = w3 -. w1;
      calib_s;
      alloc_total = a3 -. a0;
      alloc_run = a2 -. a1;
      alloc_verify = a3 -. a2;
      events = Mdds_sim.Engine.processed (Mdds_core.Cluster.engine d.cluster);
    },
    d,
    phases )

(* Live heap after a full collection, in MB, taken at the end of a run
   with the cluster still reachable: the simulator's state only grows
   during a run, so this is its largest live size. *)
let live_heap_mb () =
  Gc.full_major ();
  fi (Gc.stat ()).live_words *. fi (Sys.word_size / 8) /. 1048576.0

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else fail "metric is not finite"

let report (c : counts) samples metrics =
  let show f = String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" (f s)) samples) in
  Printf.printf "runs %d, raw wall s (run+verify): %s; calibration s: %s\n" (List.length samples)
    (show (fun s -> s.raw_s)) (show (fun s -> s.calib_s));
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %16.6f %s\n" n v u) metrics;
  let m =
    List.map
      (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    c.attempted
    (c.attempted - commits c)
    (String.concat ", " m)

let write_spans ~workload ~seed d phases =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let file suffix = Filename.concat out_dir (Printf.sprintf "%s-seed%d.%s" workload seed suffix) in
  Drive.write_spans d (file "spans.csv");
  (* Top-level phases in raw wall time, seconds from the start of set-up. *)
  let oc = open_out (file "wall.csv") in
  output_string oc "phase,start_s,end_s,alloc_words\n";
  let origin = List.fold_left (fun acc w -> Float.min acc w.w0) infinity phases in
  List.iter
    (fun w ->
      Printf.fprintf oc "%s,%.6f,%.6f,%.0f\n" w.phase (w.w0 -. origin) (w.w1 -. origin) w.words)
    phases;
  close_out oc;
  Printf.printf "spans written to %s\n" out_dir

let main ~workload ~seed ~seconds ~trace ~rate =
  if not (List.mem workload Inputs.names) then
    fail "unknown workload %S (expected one of: %s)" workload (String.concat ", " Inputs.names);
  if not (Option.fold ~none:true ~some:(fun r -> r > 0.0) rate) then fail "--rate must be positive";
  let inputs = Inputs.generate ?rate ~seed workload in
  let attempted = fi (Array.length inputs.txns) in
  let started = wall () in
  let budget_left () = wall () -. started < seconds in
  Printf.printf "perfbench %s seed %d: %d txns, OCaml %s, 1 domain\n" workload seed
    (Array.length inputs.txns) Sys.ocaml_version;
  Printf.printf "inputs_digest %s %s\n%!" workload (Inputs.digest inputs);
  (* Two extra set-ups per untraced run make [setup_s] a median of many
     samples: set-up is short, and it is gated. *)
  let run ~tracing =
    one_run ~workload ~seed ?rate ~tracing ~extra_setups:(if tracing then 0 else 2) ()
  in
  (* The first run (traced under --trace 1) gives the virtual-time metrics
     and is also the warm-up: the heap grows to size during it, so its
     wall time is not used. Later runs check their fingerprint against it
     and supply the wall-clock metrics. *)
  ignore (calibrate ());
  let _, d0, phases0 = run ~tracing:trace in
  let fp = fingerprint d0 and c = counts d0 in
  let again ~tracing =
    let s, d, _ = run ~tracing in
    if fingerprint d <> fp then
      fail "runs at one seed disagree on outcomes or virtual-time metrics (traced: %b)" tracing;
    s
  in
  let med f l = median (List.map f l) in
  let busy s = s.run_s +. s.verify_s in
  if not trace then begin
    let live = live_heap_mb () in
    let e2e = end_to_end d0 in
    let rec loop acc =
      if List.length acc >= 3 && not (budget_left ()) then List.rev acc
      else loop (again ~tracing:false :: acc)
    in
    let samples = loop [] in
    report c samples
      (e2e
      @ [
          ("sim_txns_per_s", "1/s", med (fun s -> attempted /. busy s) samples);
          ("alloc_words_per_txn", "words", med (fun s -> s.alloc_total /. attempted) samples);
          ("live_heap_mb", "MB", live);
          ("setup_s", "s", median (List.concat_map (fun s -> s.setup_s) samples));
        ])
  end
  else begin
    write_spans ~workload ~seed d0 phases0;
    let layers = per_layer d0 in
    let rec loop acc =
      if List.length acc >= 2 && not (budget_left ()) then List.rev acc
      else
        let u = again ~tracing:false in
        loop ((u, again ~tracing:true) :: acc)
    in
    (* Every untraced run is checked against the traced first run, which
       shows that tracing does not perturb the protocol. *)
    let pairs = loop [] in
    let untraced = List.map fst pairs and traced = List.map snd pairs in
    report c (untraced @ traced)
      (layers
      @ [
          ("sim.ns_per_event", "ns", med (fun s -> 1e9 *. s.run_s /. fi s.events) untraced);
          ("sim.alloc_words_per_txn", "words", med (fun s -> s.alloc_run /. attempted) untraced);
          ("verify.wall_s", "s", med (fun s -> s.verify_s) untraced);
          ("verify.alloc_words_per_txn", "words", med (fun s -> s.alloc_verify /. attempted) untraced);
          ("trace.overhead_ratio", "ratio", ratio (med busy traced) (med busy untraced));
        ])
  end

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rate = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Inputs.names);
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S  wall-clock budget");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := Some false
          | 1 -> trace := Some true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  per-layer traced run" );
      ( "--rate",
        Arg.Float (fun r -> rate := Some r),
        "R  override the open-loop arrival rate (for the knee scan in README.md)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace -> main ~workload:!workload ~seed ~seconds ~trace ~rate:!rate
  | _ -> fail "--workload, --seed, --seconds and --trace are required"
