(* One run of a workload: build the cluster, spawn the generated
   transactions as fibers, run to quiescence, verify. Every transaction's
   outcome and virtual timestamps are recorded here; with tracing on, a
   span is also recorded around every client call. *)

module Audit = Mdds_core.Audit
module Client = Mdds_core.Client
module Cluster = Mdds_core.Cluster
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology

type status =
  | Pending
  | Committed
  | Read_only
  | Aborted of Audit.abort_reason
  | Unknown
  | Unavailable
  | Crashed of string

(* A span in virtual time. [parent] is the span id of the transaction's
   root span, or -1 for the root itself; spans of one transaction share
   [txn], the benchmark's index, mapped to the client's transaction id
   when written out. *)
type span = {
  name : string;
  txn : int;
  parent : int;
  t0 : float;
  t1 : float;
  failed : bool;  (* The call raised ([Client.Unavailable]). *)
}

type t = {
  inputs : Inputs.t;
  cluster : Cluster.t;
  status : status array;
  origin : float array;
      (* Open loop: the scheduled arrival. Closed loop: the begin call. *)
  commit_at : float array;  (* Start of the commit call. *)
  finished : float array;
  txn_ids : string array;
  tracing : bool;
  mutable problems : string list;
      (* Gate violations seen while running: a failed preload. *)
  mutable spans : span array;
  mutable nspans : int;
}

let add_span r s =
  if r.nspans = Array.length r.spans then begin
    let grown = Array.make (max 1024 (2 * r.nspans)) s in
    Array.blit r.spans 0 grown 0 r.nspans;
    r.spans <- grown
  end;
  r.spans.(r.nspans) <- s;
  r.nspans <- r.nspans + 1;
  r.nspans - 1

(* [call r idx parent name f] runs one client call, wrapped in a span
   when tracing; untraced, it is just [f ()]. *)
let call r idx parent name f =
  if not r.tracing then f ()
  else begin
    let t0 = Cluster.now r.cluster in
    let finish failed =
      ignore
        (add_span r
           { name; txn = idx; parent; t0; t1 = Cluster.now r.cluster; failed })
    in
    match f () with
    | v ->
        finish false;
        v
    | exception e ->
        finish true;
        raise e
  end

let status_of_outcome = function
  | Audit.Committed _ -> Committed
  | Audit.Read_only_committed -> Read_only
  | Audit.Aborted { reason; _ } -> Aborted reason
  | Audit.Unknown -> Unknown

let exec r client (x : Inputs.txn) =
  let i = x.idx in
  let now () = Cluster.now r.cluster in
  let root =
    if r.tracing then
      add_span r
        { name = "txn"; txn = i; parent = -1; t0 = 0.0; t1 = 0.0; failed = false }
    else -1
  in
  if r.inputs.kind <> Inputs.Open then r.origin.(i) <- now ();
  let status =
    match
      let txn = call r i root "begin" (fun () -> Client.begin_ client ~group:x.group) in
      let id = Client.txn_id txn in
      r.txn_ids.(i) <- id;
      Array.iteri
        (fun n op ->
          match (op : Inputs.op) with
          | Read k -> ignore (call r i root "read" (fun () -> Client.read txn k))
          | Write k ->
              call r i root "write" (fun () ->
                  Client.write txn k (Printf.sprintf "%s#%d" id n))
          | Incr k ->
              let v =
                match call r i root "read" (fun () -> Client.read txn k) with
                | None -> 1
                | Some s -> int_of_string s + 1
              in
              call r i root "write" (fun () -> Client.write txn k (string_of_int v)))
        x.ops;
      r.commit_at.(i) <- now ();
      call r i root "commit" (fun () -> Client.commit txn)
    with
    | outcome -> status_of_outcome outcome
    | exception Client.Unavailable _ -> Unavailable
    | exception e -> Crashed (Printexc.to_string e)
  in
  r.status.(i) <- status;
  r.finished.(i) <- now ();
  if r.tracing then
    r.spans.(root) <-
      {
        (r.spans.(root)) with
        t0 = r.origin.(i);
        t1 = r.finished.(i);
        failed = not (status = Committed || status = Read_only);
      }

let preload r (group, keys) =
  let client = Cluster.client r.cluster ~id:"preload" ~dc:0 in
  Cluster.spawn r.cluster (fun () ->
      match
        let txn = Client.begin_ client ~group in
        List.iter (fun k -> Client.write txn k "init") keys;
        Client.commit txn
      with
      | Audit.Committed _ -> ()
      | _ | (exception Client.Unavailable _) ->
          r.problems <- "the preload transaction did not commit" :: r.problems)

(* Build the cluster and spawn every fiber: the part timed as set-up. *)
let setup ~seed ~tracing (inputs : Inputs.t) =
  let n = Array.length inputs.txns in
  let cluster =
    Cluster.create ~seed ~config:inputs.config
      (Topology.ec2 ~loss:inputs.loss inputs.topology)
  in
  let r =
    {
      inputs;
      cluster;
      status = Array.make n Pending;
      origin = Array.map (fun (x : Inputs.txn) -> x.at) inputs.txns;
      commit_at = Array.make n nan;
      finished = Array.make n nan;
      txn_ids = Array.make n "";
      tracing;
      problems = [];
      spans = [||];
      nspans = 0;
    }
  in
  Option.iter (preload r) inputs.preload;
  (match inputs.kind with
  | Open ->
      Array.iter
        (fun (x : Inputs.txn) ->
          Cluster.spawn ~at:x.at cluster (fun () ->
              let client =
                Cluster.client ~id:(Printf.sprintf "t%06d" x.idx) cluster ~dc:x.dc
              in
              exec r client x))
        inputs.txns
  | Closed { threads } ->
      for w = 0 to threads - 1 do
        let mine =
          List.filter (fun (x : Inputs.txn) -> x.idx mod threads = w)
            (Array.to_list inputs.txns)
        in
        let first = (List.hd mine).at in
        let client =
          Cluster.client ~id:(Printf.sprintf "w%d" w) cluster
            ~dc:(List.hd mine).dc
        in
        Cluster.spawn ~at:first cluster (fun () ->
            List.iter
              (fun (x : Inputs.txn) ->
                let now = Cluster.now cluster in
                if x.at > now then Mdds_sim.Engine.sleep (x.at -. now);
                exec r client x)
              mine)
      done);
  List.iter
    (fun (o : Inputs.outage) ->
      Cluster.spawn ~at:o.from_s cluster (fun () ->
          Cluster.take_down cluster o.dc_down;
          Mdds_sim.Engine.sleep (o.until_s -. o.from_s);
          Cluster.bring_up cluster o.dc_down))
    inputs.outages;
  r

let run r =
  match Cluster.run r.cluster with
  | () -> Ok ()
  | exception e -> Error ("Cluster.run raised " ^ Printexc.to_string e)

let verify r =
  List.fold_left
    (fun acc group ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match Verify.check r.cluster ~group with
          | Ok () -> Ok ()
          | Error e -> Error (Printf.sprintf "Verify.check group %s: %s" group e)))
    (Ok ()) r.inputs.groups

(* Spans as CSV: span id, transaction id, parent span id, name, virtual
   start and end in seconds, and whether the call failed (for the root
   span: whether the transaction did not commit). *)
let write_spans r path =
  let oc = open_out path in
  output_string oc "span,txn_id,parent,name,start_s,end_s,failed\n";
  for s = 0 to r.nspans - 1 do
    let sp = r.spans.(s) in
    let id =
      if r.txn_ids.(sp.txn) = "" then Printf.sprintf "unstarted/%d" sp.txn
      else r.txn_ids.(sp.txn)
    in
    Printf.fprintf oc "%d,%s,%d,%s,%.9f,%.9f,%d\n" s id sp.parent sp.name sp.t0 sp.t1
      (Bool.to_int sp.failed)
  done;
  close_out oc
