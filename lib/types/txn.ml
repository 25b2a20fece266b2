module Codec = Mdds_codec.Codec

type key = string

type write = { key : key; value : string }

(* Conflict footprints: the record's read and write sets, deduplicated
   and sorted by name once at construction, so every predicate below is a
   merge over two sorted arrays and [read_set] and every message that
   names a key keep the same order. *)

type footprint = {
  read_keys : key array;  (* deduped, sorted by name *)
  write_keys : key array;  (* deduped, sorted by name *)
}

let sorted_keys keys = Array.of_list (List.sort_uniq String.compare keys)

(* Sorted-array intersection test: O(|a| + |b|). *)
let arrays_intersect (a : key array) (b : key array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la || j >= lb then false
    else
      let d = String.compare a.(i) b.(j) in
      if d = 0 then true else if d < 0 then go (i + 1) j else go i (j + 1)
  in
  go 0 0

type record = {
  txn_id : string;
  origin : int;
  read_position : int;
  reads : key list;
  writes : write list;
  fp : footprint;
}

type entry = record list

let make_record ~txn_id ~origin ~read_position ~reads ~writes =
  let fp =
    {
      read_keys = sorted_keys reads;
      write_keys = sorted_keys (List.map (fun w -> w.key) writes);
    }
  in
  { txn_id; origin; read_position; reads; writes; fp }

let dedup keys = List.sort_uniq String.compare keys

let read_set r = Array.to_list r.fp.read_keys
let write_set r = Array.to_list r.fp.write_keys
let read_keys r = r.fp.read_keys
let write_keys r = r.fp.write_keys

let entry_write_set e = dedup (List.concat_map write_set e)

let is_read_only r = r.writes = []

let reads_from t s = arrays_intersect t.fp.read_keys s.fp.write_keys

let conflicts_with_any t winners = List.exists (reads_from t) winners

(* A mutable union of write footprints, for threading through a prefix of
   an entry instead of rebuilding the union per probe. *)
module Write_union = struct
  type t = (key, unit) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let add t (r : record) = Array.iter (fun k -> Hashtbl.replace t k ()) r.fp.write_keys
  let reads_overlap t (r : record) = Array.exists (Hashtbl.mem t) r.fp.read_keys
end

let valid_combination entry =
  match entry with
  | [] | [ _ ] -> true
  | first :: rest ->
      let preceding = Write_union.create () in
      Write_union.add preceding first;
      let rec go = function
        | [] -> true
        | r :: rest ->
            (not (Write_union.reads_overlap preceding r))
            && begin
                 Write_union.add preceding r;
                 go rest
               end
      in
      go rest

let mem_entry ~txn_id entry = List.exists (fun r -> r.txn_id = txn_id) entry

let equal_write a b = a.key = b.key && a.value = b.value

(* The footprint is derived data: two records with equal reads/writes have
   equal footprints, so equality (and the codec below) ignore it. *)
let equal_record a b =
  a.txn_id = b.txn_id && a.origin = b.origin
  && a.read_position = b.read_position
  && List.equal String.equal a.reads b.reads
  && List.equal equal_write a.writes b.writes

let equal_entry = List.equal equal_record

let pp_write ppf w = Format.fprintf ppf "%s:=%S" w.key w.value

let pp_record ppf r =
  Format.fprintf ppf "@[<h>{%s@@dc%d rp=%d r=[%a] w=[%a]}@]" r.txn_id r.origin
    r.read_position
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Format.pp_print_string)
    r.reads
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") pp_write)
    r.writes

let pp_entry ppf e =
  Format.fprintf ppf "@[<h>[%a]@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_record)
    e

let write_codec =
  Codec.map
    (fun (key, value) -> { key; value })
    (fun { key; value } -> (key, value))
    Codec.(pair string string)

let record_codec =
  Codec.map
    (fun ((txn_id, origin), (read_position, reads, writes)) ->
      make_record ~txn_id ~origin ~read_position ~reads ~writes)
    (fun { txn_id; origin; read_position; reads; writes; fp = _ } ->
      ((txn_id, origin), (read_position, reads, writes)))
    Codec.(pair (pair string int) (triple int (list string) (list write_codec)))

let entry_codec = Codec.list record_codec
