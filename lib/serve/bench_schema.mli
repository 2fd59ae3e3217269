(** Schema for [BENCH_SERVE.json], the serving-latency artifact.

    The load generator ({!Loadgen}) writes one document per campaign: a
    list of runs, each one open-loop client configuration against one
    request shape, carrying outcome counts and the latency distribution
    (p50/p99/p999/max in microseconds) plus saturation throughput.

    Like [BENCH_PERF.json] ({!Localcert_util.Perf_schema}), the schema
    lives next to the producer and is enforced by the test suite over
    the committed artifact, so drift between writer and reader is a
    test failure rather than a silently stale file.  Rendering and the
    strict decoding primitives (exact field sets, non-negative finite
    numbers, integers within the native int range) are the shared
    {!Localcert_obs.Json} codec; this module adds the domain
    invariants: outcome counts that tile [sent], percentile
    monotonicity (p50 ≤ p99 ≤ p999 ≤ max) and unique labels. *)

type run = {
  label : string;  (** unique within the document *)
  opcode : string;  (** request kind, e.g. ["verify"] *)
  scheme : string;
  graph : string;  (** the {!Localcert_graph.Spec} string used *)
  connections : int;
  window : int;  (** per-connection pipeline depth *)
  rate : int option;  (** requests/s pacing; [None] = unpaced *)
  sent : int;
  ok : int;
  retry_later : int;  (** typed overload responses *)
  errors : int;
  duration_s : float;
  throughput_rps : float;  (** completed responses per second *)
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
}

type doc = { smoke : bool; workers : int; runs : run list }

val render : doc -> string
(** Pretty-printed JSON, trailing newline included; [render ∘ parse]
    is a fixpoint. *)

val parse : string -> (doc, string) result
val parse_exn : string -> doc

val find_run : doc -> string -> run option
