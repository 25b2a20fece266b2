module Ballot = Mdds_paxos.Ballot
module Txn = Mdds_types.Txn

type submit_result =
  | Accepted_at of int
  | Stale_read
  | No_quorum
  | In_doubt

type request =
  | Get_read_position of { group : string }
  | Read of { group : string; key : string; position : int }
  | Prepare of { group : string; pos : int; ballot : Ballot.t }
  | Accept of {
      group : string;
      pos : int;
      ballot : Ballot.t;
      entry : Txn.entry;
      sequenced : Txn.entry option;
    }
  | Apply of { group : string; pos : int; entry : Txn.entry }
  | Claim_leadership of { group : string; pos : int; claimant : string }
  | Submit of { group : string; record : Txn.record }
  | Get_snapshot of { group : string }
  | Catch_up of { group : string; position : int }

type response =
  | Read_position of { position : int; leader : int option }
  | Value of { value : string option }
  | Promise of { vote : (Ballot.t * Txn.entry) option }
  | Prepare_reject of { next_bal : Ballot.t }
  | Accept_reply of { ok : bool; next_bal : Ballot.t }
  | Applied
  | Claim_reply of { first : bool }
  | Submit_reply of { result : submit_result }
  | Snapshot_reply of { applied : int; rows : (string * int * string) list }
  | Compacted
  | Failed of string

let pp_request ppf = function
  | Get_read_position { group } -> Format.fprintf ppf "get_read_position(%s)" group
  | Read { group; key; position } ->
      Format.fprintf ppf "read(%s,%s@%d)" group key position
  | Prepare { group; pos; ballot } ->
      Format.fprintf ppf "prepare(%s,%d,%a)" group pos Ballot.pp ballot
  | Accept { group; pos; ballot; entry; sequenced } ->
      Format.fprintf ppf "accept(%s,%d,%a,%a%s)" group pos Ballot.pp ballot
        Txn.pp_entry entry
        (if sequenced <> None then ",seq" else "")
  | Apply { group; pos; entry } ->
      Format.fprintf ppf "apply(%s,%d,%a)" group pos Txn.pp_entry entry
  | Claim_leadership { group; pos; claimant } ->
      Format.fprintf ppf "claim(%s,%d,%s)" group pos claimant
  | Submit { group; record } ->
      Format.fprintf ppf "submit(%s,%a)" group Txn.pp_record record
  | Get_snapshot { group } -> Format.fprintf ppf "get_snapshot(%s)" group
  | Catch_up { group; position } ->
      Format.fprintf ppf "catch_up(%s,%d)" group position

let pp_response ppf = function
  | Read_position { position; leader } ->
      Format.fprintf ppf "read_position(%d,leader=%a)" position
        (Format.pp_print_option Format.pp_print_int)
        leader
  | Value { value } ->
      Format.fprintf ppf "value(%a)"
        (Format.pp_print_option (fun ppf -> Format.fprintf ppf "%S"))
        value
  | Promise { vote } ->
      Format.fprintf ppf "promise(%a)"
        (Format.pp_print_option (fun ppf (b, e) ->
             Format.fprintf ppf "%a:%a" Ballot.pp b Txn.pp_entry e))
        vote
  | Prepare_reject { next_bal } ->
      Format.fprintf ppf "prepare_reject(%a)" Ballot.pp next_bal
  | Accept_reply { ok; next_bal } ->
      Format.fprintf ppf "accept_reply(%b,%a)" ok Ballot.pp next_bal
  | Applied -> Format.fprintf ppf "applied"
  | Claim_reply { first } -> Format.fprintf ppf "claim_reply(first=%b)" first
  | Submit_reply { result } ->
      Format.fprintf ppf "submit_reply(%s)"
        (match result with
        | Accepted_at pos -> Printf.sprintf "accepted@%d" pos
        | Stale_read -> "stale-read"
        | No_quorum -> "no-quorum"
        | In_doubt -> "in-doubt")
  | Snapshot_reply { applied; rows } ->
      Format.fprintf ppf "snapshot(applied=%d,%d rows)" applied (List.length rows)
  | Compacted -> Format.pp_print_string ppf "compacted"
  | Failed msg -> Format.fprintf ppf "failed(%s)" msg
