(** Minimal strict JSON: a generic tree, a recursive-descent parser,
    two renderers, and the strict decoding primitives shared by every
    machine-readable artifact in the repository:

    - [BENCH_PERF.json] ({!Localcert_util.Perf_schema}),
    - [BENCH_SERVE.json] ([Localcert_serve.Bench_schema]),
    - [--metrics] telemetry snapshots ({!Export}),
    - [BENCH_runtime.json] (the runtime fault-injection sweep),
    - Chrome trace-event documents and their merges ({!Tracer}),
    - the [RESULT] lines of the end-to-end benchmark probe.

    The parser accepts exactly one JSON value and rejects trailing
    garbage.  Schema-level strictness (exact field sets, ranges,
    native-int bounds) lives here too, in the [as_*] decoders: a schema
    module keeps only its record types, field lists and domain
    invariants.  The number rendering is chosen so that render ∘ parse
    is a fixpoint: every float prints as the shortest decimal that
    reparses to the same bits, which is what lets artifact-guard tests
    compare re-rendered documents byte for byte. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by {!parse_exn} (the message includes a byte offset) and by
    the decoding primitives below (the message starts with the context
    they were given). *)

val parse : string -> (t, string) result

val parse_exn : string -> t
(** Every [Num] in the result is finite: a literal past the float range
    (say [1e999]) is an error, not an infinity.
    @raise Error on malformed input. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

val num : float -> string
(** Canonical number rendering: integer-valued floats as integers,
    everything else as the shortest decimal that parses back to exactly
    the same float.
    @raise Invalid_argument on nan and the infinities, which JSON
    cannot represent ({!render} and {!pretty} raise likewise). *)

val render : t -> string
(** Compact canonical rendering of a whole tree (no insignificant
    whitespace, {!escape}d strings, {!num} scalars).  [parse ∘ render]
    is the identity on trees, so [render ∘ parse] is a fixpoint on
    rendered documents. *)

val pretty : t -> string
(** The artifact layout of the same tokens as {!render}: two-space
    indent and one member per line, except that an array or object
    whose members are all scalars goes on one line.  Trailing newline
    included; [parse ∘ pretty] is the identity on trees. *)

val int : int -> t
(** [Num] of an int; exact below 2{^53}, and rendered as digits below
    10{^15}. *)

(** {1 Strict decoding}

    Each decoder takes a context string [ctx] naming what is being
    decoded and raises {!Error} with a message starting with it. *)

val fail : string -> 'a
(** [fail msg] raises [Error msg]: a schema's own invariant failed. *)

val field : (string * t) list -> string -> t
(** The named member; a missing one is an error. *)

val get : (string -> t -> 'a) -> (string * t) list -> string -> 'a
(** [get decode o name] is [decode name (field o name)]: the member
    decoded with its own name as context. *)

val get_opt : (string -> t -> 'a) -> (string * t) list -> string -> 'a option
(** As {!get} for an optional member: [None] when absent. *)

val as_obj : string -> string list -> t -> (string * t) list
(** [as_obj ctx fields v]: the members of object [v], every key among
    [fields] (an unknown key is an error; a missing one is caught by
    {!field}). *)

val as_arr : string -> t -> t list
val as_num : string -> t -> float

val as_nonneg : string -> t -> float
(** A finite number [>= 0]. *)

val as_int : string -> t -> int
(** An integer-valued number within the native int range
    [[-2^62, 2^62)]; [1e300] or [-6e18] are errors, never wrapped. *)

val as_nonneg_int : string -> t -> int
val as_bool : string -> t -> bool

val as_name : string -> t -> string
(** A non-empty string. *)

val decode : (t -> 'a) -> string -> ('a, string) result
(** [decode f s] parses [s] and applies the decoder [f]; a parse error
    or a decoding {!Error} becomes [Error msg]. *)

val decode_exn : string -> (t -> 'a) -> string -> 'a
(** [decode_exn who f s] is {!decode} or [Invalid_argument (who ^ ": "
    ^ msg)]. *)
