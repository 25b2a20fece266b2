(* Domain pool for embarrassingly parallel trials.

   Each parallel [map] spawns its workers, and joins them before it
   returns. Workers and the calling domain take the next input index from
   one atomic cursor, so elements are dispensed in input order; results
   land in an array indexed by input position. A persistent pool with
   parked workers and longest-estimated-first dispatch measured no faster
   on a 2-core host (DESIGN.md §13), so the per-call Domain.spawn/join is
   the whole of the machinery. *)

(* True when the current domain is a pool worker (or a caller running its
   own batch): nested [map] calls then run sequentially instead of
   spawning domains from inside a trial. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let jobs_override : int option ref = ref None

let set_jobs j = jobs_override := Option.map (max 1) j

let env_jobs () =
  match Sys.getenv_opt "MDDS_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let default_domains () =
  match !jobs_override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

let get_jobs = default_domains

(* Trials allocate heavily (every simulated message is a fresh value); the
   default 256k-word minor heap forces frequent minor collections, and on
   OCaml 5 every minor collection is a stop-the-world synchronization of
   all domains. Workers therefore enlarge their minor heap on entry, unless
   OCAMLRUNPARAM pins it with an explicit [s=...]. *)
let worker_minor_words = 4 * 1024 * 1024 (* words: 32 MB on 64-bit *)

let ocamlrunparam_pins_minor () =
  match Sys.getenv_opt "OCAMLRUNPARAM" with
  | None -> false
  | Some s ->
      List.exists
        (fun tok -> String.length tok >= 2 && tok.[0] = 's' && tok.[1] = '=')
        (String.split_on_char ',' s)

let tune_worker_gc () =
  if not (ocamlrunparam_pins_minor ()) then begin
    let g = Gc.get () in
    if g.Gc.minor_heap_size < worker_minor_words then
      Gc.set { g with Gc.minor_heap_size = worker_minor_words }
  end

(* Keep the failure with the smallest input index, so the exception
   re-raised is the one a sequential [List.map] would have raised. *)
let record_failure failure i e bt =
  let rec retry () =
    match Atomic.get failure with
    | Some (j, _, _) when j <= i -> ()
    | cur ->
        if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then
          retry ()
  in
  retry ()

let map ?domains f xs =
  let n = List.length xs in
  let domains =
    min n (match domains with Some d -> max 1 d | None -> default_domains ())
  in
  if domains <= 1 || n < 2 || Domain.DLS.get in_worker then List.map f xs
  else begin
    let input = Array.of_list xs in
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failure = Atomic.make None in
    (* Stop dispensing once a failure is seen. The cursor hands out
       indices in order, so every index below a failing one was dispensed
       earlier, and a dispensed index always runs to completion. *)
    let rec work () =
      if Option.is_none (Atomic.get failure) then begin
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (try results.(i) <- Some (f input.(i))
           with e -> record_failure failure i e (Printexc.get_raw_backtrace ()));
          work ()
        end
      end
    in
    let workers =
      List.init (domains - 1) (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              tune_worker_gc ();
              work ()))
    in
    Domain.DLS.set in_worker true;
    work ();
    Domain.DLS.set in_worker false;
    List.iter Domain.join workers;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.to_list (Array.map Option.get results)
  end
