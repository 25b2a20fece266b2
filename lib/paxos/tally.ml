type 'v response = { from : int; vote : (Ballot.t * 'v) option }

let majority d = (d / 2) + 1

let is_quorum ~total n = n >= majority total

let highest_vote responses =
  List.fold_left
    (fun acc r ->
      match (acc, r.vote) with
      | None, v -> v
      | Some _, None -> acc
      | Some (bb, _), (Some (b, _) as v) ->
          if Ballot.compare b bb > 0 then v else acc)
    None responses

let find_winning responses ~own =
  match highest_vote responses with None -> own | Some (_, v) -> v

type 'v decision = Free | Chosen of 'v | Constrained of 'v

let vote_counts ~equal responses =
  List.fold_left
    (fun counts r ->
      match r.vote with
      | None -> counts
      | Some (_, v) -> (
          let rec bump = function
            | [] -> [ (v, 1) ]
            | (v', n) :: rest ->
                if equal v v' then (v', n + 1) :: rest else (v', n) :: bump rest
          in
          bump counts))
    [] responses

let decide ~total ~equal responses =
  (* The classification is only sound over at least a majority of
     responses: with fewer, an all-null tally could hide a silent chosen
     value and "Free" would be unsafe. The commit protocol always has a
     quorum here (the prepare phase requires it). *)
  if List.length responses < majority total then
    invalid_arg "Tally.decide: need a majority of responses";
  let counts = vote_counts ~equal responses in
  let max_val, max_votes =
    List.fold_left
      (fun (bv, bn) (v, n) -> if n > bn then (Some v, n) else (bv, bn))
      (None, 0) counts
  in
  let silent = total - List.length responses in
  if max_votes + silent <= total / 2 then Free
  else
    match max_val with
    | Some v when max_votes > total / 2 -> Chosen v
    | _ -> (
        (* Neither free nor decidedly chosen: basic Paxos constraint. *)
        match
          List.fold_left
            (fun acc r ->
              match (acc, r.vote) with
              | None, v -> v
              | Some _, None -> acc
              | Some (bb, _), (Some (b, _) as v) ->
                  if Ballot.compare b bb > 0 then v else acc)
            None responses
        with
        | Some (_, v) -> Constrained v
        | None -> Free)
