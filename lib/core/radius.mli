(** Verification at radius r > 1 (Appendix A.1).

    The paper fixes the verification radius to 1 — and explains why
    that matters: with radius-3 views, "diameter ≤ 2" needs {e no}
    certificate at all, while at radius 1 it needs near-linear ones
    [10].  This module implements the generalized model so that the
    discussion is executable: a radius-r verifier sees the whole ball
    of radius r around the vertex (its structure, identifiers, labels
    and certificates — unlike the radius-1 model, edges inside the view
    are visible).

    {!diameter_at_most} is the appendix's example: a certificate-free
    radius-(d+1) scheme for "diameter ≤ d", sound because on any
    no-instance one endpoint of a too-long shortest path sees a vertex
    at distance d+1.  The test suite complements it with the
    indistinguishability construction showing that no certificate-free
    radius-1 verifier can do the same. *)

type ball = {
  center : int;  (** local index of the center (always 0) *)
  graph : Graph.t;  (** induced subgraph on the ball, local indices *)
  ids : int array;  (** local index → identifier *)
  labels : int array;
  certs : Bitstring.t array;
  dist : int array;  (** BFS distance from the center within the ball *)
  id_bits : int;  (** instance-global identifier width *)
}

type t = {
  name : string;
  radius : int;
  prover : Instance.t -> Bitstring.t array option;
  check : ball -> Scheme.verdict;  (** the verifier, run on every ball *)
}

val ball_of : Instance.t -> Bitstring.t array -> r:int -> int -> ball
(** The radius-[r] view of a vertex.  Distances are computed in the
    full graph, so [dist] is exact for vertices in the ball. *)

val run : t -> Instance.t -> Bitstring.t array -> Scheme.outcome
val certify : t -> Instance.t -> (Bitstring.t array * Scheme.outcome) option

val diameter_at_most : d:int -> t
(** The certificate-free radius-(d+1) scheme for diameter ≤ d. *)

val of_radius1 : Scheme.t -> t
(** Any radius-1 scheme is a radius-1 instance of this model (the ball
    of radius 1 contains strictly more information — the edges among
    neighbors — so this embedding is only used for harness reuse). *)
