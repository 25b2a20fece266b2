(** Domain pool for embarrassingly parallel trials.

    Simulation trials (experiment cells, chaos seeds) are independent: each
    builds its own engine, cluster and RNG from a seed, so trials can run on
    separate OCaml 5 domains without sharing any mutable state. This module
    provides the one primitive the harness needs: an order-preserving
    parallel {!map} over a list of such trials.

    Each parallel [map] spawns its worker domains and joins them before
    returning. Workers enlarge their minor heap to 4M words on entry
    (unless [OCAMLRUNPARAM] sets [s=...]), because on OCaml 5 every minor
    collection synchronizes all domains and trial code allocates heavily.

    Determinism contract: [map f xs] returns exactly what [List.map f xs]
    returns (same values, same order), provided [f] is deterministic per
    element — which every simulator trial is, being a pure function of its
    seed. Parallel figure regeneration is therefore byte-identical to
    sequential regeneration, whatever the domain count. *)

val default_domains : unit -> int
(** Domains used when {!map} is called without [?domains]: the value set by
    {!set_jobs} if any, else the [MDDS_JOBS] environment variable if it
    parses as a positive integer, else [Domain.recommended_domain_count ()].
    Always at least 1. *)

val set_jobs : int option -> unit
(** Process-wide override for {!default_domains} ([--jobs] knob of the CLIs).
    [None] clears the override. Values below 1 are clamped to 1. Call it from
    the main domain before any parallel work; it is a plain write, not
    synchronized. *)

val get_jobs : unit -> int
(** [default_domains ()], for telemetry. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f xs] applies [f] to every element of [xs] and returns
    the results in input order.

    - With [domains <= 1], a list shorter than 2, or when called from inside
      a pool worker (nested use), it is exactly [List.map f xs] on the
      calling domain — no domain is spawned.
    - Otherwise [min domains (length xs) - 1] freshly spawned domains work
      alongside the calling domain, taking elements in input order from a
      shared cursor; all are joined before [map] returns.
    - If one or more applications raise, the exception of the {e smallest
      failing index} is re-raised (with its backtrace) after every worker
      has stopped — the same exception a sequential [List.map] would have
      raised. Remaining undispensed elements are skipped once a failure is
      seen, but every element dispensed before the failure still runs to
      completion. *)
