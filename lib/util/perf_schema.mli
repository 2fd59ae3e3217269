(** Schema for [BENCH_PERF.json], the timing-benchmark artifact.

    The benchmark harness ([bench/main.exe --perf]) writes one document
    per run: a list of per-scheme series, each a list of per-size
    groups.  A group carries the measurements that depend only on
    [(scheme, n)] — prover wall-clock, allocation, interning and memo
    ratios — exactly once, plus one row per verifier job count.  (The
    v1 schema flattened groups into rows and so duplicated [prover_ms]
    once per job count; consumers could not tell the copies were one
    measurement, and a bench bug updating only some of them would have
    been invisible.)

    The schema lives in [lib/util] so the test suite can guard the
    committed artifact: any drift between what the bench writes and
    what this module parses is a test failure, not a silently stale
    file.

    Rendering ({!Localcert_obs.Json.pretty}) and strict decoding (the
    [Json.as_*] primitives, shared with every other artifact) live in
    {!Localcert_obs.Json}; this module keeps the record types, the
    field lists and the domain invariants: positive sizes and job
    counts, ratios in [0..1], one row per job count, and the
    {!jobs_monotone} ladder guard.  [parse] rejects documents that do
    not match the schema exactly. *)

type jrow = {
  jobs : int;  (** pool size used for the parallel verifier *)
  verify_ms : float;  (** best-observed verifier wall-clock, milliseconds *)
  verts_per_sec : float;  (** [n / verify] throughput *)
}

type group = {
  n : int;  (** instance size (vertices) *)
  prover_ms : float;  (** best-observed prover wall-clock, milliseconds *)
  minor_words : float;  (** Gc minor words allocated per prover run *)
  interned_ratio : float;  (** certificate-store hit ratio, [0..1] *)
  memo_hit_ratio : float option;
      (** aggregate named-memo hit ratio over a telemetry accounting
          pass, [0..1]; absent when the scheme exercises no named memo
          (the parser treats a missing field as [None]) *)
  max_rss_mb : float option;
      (** v3: process peak RSS ([VmHWM]) in MiB observed by the time
          the group finished.  A per-run high-water mark — within one
          artifact, later groups report values no smaller than earlier
          ones.  Absent in v2 artifacts and on platforms without
          [/proc]; the parser treats a missing field as [None], so v2
          artifacts parse unchanged. *)
  rows : jrow list;
      (** non-empty, one row per job count (duplicate job counts are a
          parse error), ordered by [jobs] *)
}

type series = {
  scheme : string;  (** scheme family name, e.g. ["kernel-mso"] *)
  groups : group list;  (** non-empty, ordered by [n] *)
}

type doc = {
  smoke : bool;  (** true when produced by the CI small-n smoke run *)
  series : series list;  (** non-empty *)
}

val render : doc -> string
(** Pretty-printed JSON, trailing newline included. *)

val parse : string -> (doc, string) result
(** Parse and validate: JSON well-formedness, exact field sets, at
    least one series, at least one group per series, at least one row
    per group, no duplicate job counts within a group, finite
    non-negative numbers, ratios within [0..1]. *)

val parse_exn : string -> doc
(** [parse] or [Invalid_argument]. *)

val jobs_monotone : ?tolerance:float -> doc -> (unit, string) result
(** [jobs_monotone d] checks every group's jobs ladder: with rows
    sorted by ascending [jobs], each step's [verify_ms] may exceed the
    previous step's by at most [tolerance] (default [0.15], i.e. 15%).
    On a single- or few-core machine extra domains cannot speed the
    sweep up, but they must never make it meaningfully slower — an
    inverted ladder means the parallel path is paying for
    stop-the-world synchronization it shouldn't (see DESIGN §5.5).
    The [Error] names the first offending scheme, size and jobs step.
    Raises [Invalid_argument] on a negative [tolerance]. *)
