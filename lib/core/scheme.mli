(** The local certification framework (Section 3.3).

    A scheme is a prover together with one radius-1 check:

    - the {e prover} sees the whole instance and, on yes-instances,
      produces one certificate (bit string) per vertex;
    - the {e check} runs at each vertex on its {!view} — its own
      identifier and certificate and the identifiers and certificates
      of its neighbors (radius exactly 1: it does {e not} see edges
      among its neighbors, per Section 2.2 / Appendix A.1) — and
      accepts or rejects.

    The check is always stated as a {!lowering} (decode, then check
    pre-decoded values); {!verify} is the interpreted verifier derived
    from it, and the compiled engine ({!Localcert_engine.Vcompile})
    runs the same check over whole-graph arrays.  There is no second
    copy of any check to keep in agreement.

    A scheme certifies a property when (completeness) on yes-instances
    the prover's certificates make every vertex accept, and (soundness)
    on no-instances {e every} certificate assignment is rejected by at
    least one vertex.  {!run} decides one assignment; the adversarial
    side lives in {!Attack}. *)

type view = {
  me : int;  (** own identifier *)
  id_bits : int;  (** instance-global ID width (public knowledge) *)
  label : int;  (** own vertex label (0 when unlabeled) *)
  cert : Bitstring.t;
  nbrs : (int * Bitstring.t) list;
      (** (identifier, certificate) of each neighbor, sorted by id *)
}

type verdict = Accept | Reject of string
(** Rejections carry a human-readable reason; the framework treats any
    [Reject _] identically. *)

type 'dec lowering = {
  decode : id_bits:int -> Bitstring.t -> 'dec;
      (** Total per-certificate decoding: malformed input is
          represented {e inside} ['dec] (e.g. with an option), never
          raised, so a decoded value can be computed once per distinct
          certificate and shared by every vertex that sees it.  A
          check that compares raw bits keeps the raw {!Bitstring.t}
          inside ['dec]. *)
  check :
    id_bits:int ->
    me:int ->
    label:int ->
    'dec ->
    ids:int array ->
    decs:'dec array ->
    lo:int ->
    hi:int ->
    verdict;
      (** The radius-1 check over pre-decoded certificates.  The
          neighbors live in the parallel slices
          [ids.(lo..hi-1)]/[decs.(lo..hi-1)], sorted ascending by
          identifier — for the compiled engine these are whole-graph
          CSR-shaped arrays shared by every vertex (one row per
          vertex, zero per-view allocation); {!verify} passes a
          0-based pair built from the view. *)
}
(** A scheme's radius-1 check, split into decode and check stages. *)

type compiled = Compiled : 'dec lowering -> compiled
(** A lowering with its decoded representation abstracted away. *)

type t = {
  name : string;
  prover : Instance.t -> Bitstring.t array option;
      (** [None] when the instance is a no-instance (or the prover
          cannot find a witness); [Some certs] indexed by vertex. *)
  lowering : compiled;  (** the scheme's one check *)
}

val of_lowering :
  name:string ->
  prover:(Instance.t -> Bitstring.t array option) ->
  'dec lowering ->
  t
(** A scheme from its prover and its one check — the only way to build
    a {!t}. *)

val verify : t -> view -> verdict
(** The interpreted verifier: run the scheme's lowering on one view,
    decoding every certificate from scratch.  Exceptions from the
    lowering propagate. *)

type outcome = {
  accepted : bool;
  rejections : (int * string) list;  (** rejecting vertices with reasons *)
  max_bits : int;  (** size of the largest certificate in the run *)
}

val view_of : Instance.t -> Bitstring.t array -> int -> view
(** The radius-1 view of a vertex under a certificate assignment. *)

val run : ?early_exit:bool -> t -> Instance.t -> Bitstring.t array -> outcome
(** Execute {!verify} at every vertex.  With [~early_exit:true] the
    sweep stops at the first rejecting vertex, so [rejections] contains
    exactly one entry on rejection; [accepted] and [max_bits] are
    unaffected.  The default [false] reports every rejecting vertex. *)

val max_cert_bits : Bitstring.t array -> int
(** Size of the largest certificate in an assignment (the [max_bits]
    field of an {!outcome}). *)

val certify : t -> Instance.t -> (Bitstring.t array * outcome) option
(** Prover then verifier; [None] if the prover declines. *)

val certificate_size : t -> Instance.t -> int option
(** Max certificate bits the prover uses on this instance ([None] if it
    declines) — the paper's measure of a certification. *)

val accepts_with : t -> Instance.t -> Bitstring.t array -> bool
(** [run] reduced to the global conjunction. *)

val record_cert_sizes : t -> Bitstring.t array -> unit
(** Feed every certificate's bit length into the per-scheme
    [scheme.<name>.cert_bits] telemetry histogram.  [certify] calls
    this itself; exposed for drivers that invoke the prover directly
    (the CLI). *)

val record_outcome : t -> early_exit:bool -> outcome -> unit
(** Bump the per-scheme accept/reject/rejections telemetry counters
    ({!Localcert_obs.Metrics}) for a completed sweep.  [run] calls this
    itself; it is exposed for alternative sweep implementations
    ({!Localcert_engine.Engine.run_par}).  Early-exit sweeps are never
    counted — under racing attack-trial pruning even the number of
    such sweeps is scheduling-dependent. *)

(** {1 Combinators} *)

val conjoin : name:string -> t -> t -> t
(** Certify both properties: certificates are length-prefixed pairs;
    each vertex runs both checks on the respective halves, and a
    component's rejection is prefixed with its scheme name. *)

val disjoin : name:string -> t -> t -> t
(** Certify a disjunction: a selector bit (checked equal between
    neighbors, hence global by connectivity) says which scheme's
    certificate follows. *)

val trivial :
  name:string ->
  (me:int -> label:int -> ids:int array -> lo:int -> hi:int -> verdict) ->
  t
(** A scheme with empty certificates (e.g. "max degree ≤ 3" needs none:
    the view alone decides).  The check sees the vertex's identifier,
    its label and its neighbors' identifiers [ids.(lo..hi-1)]
    (ascending); certificate contents are ignored. *)
