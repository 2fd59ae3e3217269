(** Spanning-tree certification (Proposition 3.4) and its classic
    derivatives.

    Certificate of a vertex: the root's identifier, the BFS distance to
    the root, and the parent's identifier.  Local distance comparisons
    force the parent pointers to form a spanning tree rooted at the
    unique vertex of distance 0 — the foundational O(log n) tool of the
    whole area.

    Derivatives: vertex-count certification (each vertex also carries
    its subtree size and the claimed total) and acyclicity (every edge
    must be a tree edge). *)

type cert = { root_id : int; dist : int; parent_id : int }
(** [parent_id = own id] at the root. *)

val encode : id_bits:int -> cert -> Bitstring.t
val decode : id_bits:int -> Bitstring.t -> cert option

val scheme : ?root:int -> unit -> Scheme.t
(** Certifies "the graph is connected and admits a spanning tree" —
    trivially true, but the verification logic is the reusable
    ingredient.  [root] fixes the prover's choice (default 0). *)

val acyclicity : Scheme.t
(** Certifies that the (connected) graph is a tree: spanning-tree
    checks plus "every neighbor is my parent or my child". *)

val vertex_count : ?root:int -> expected:(int -> bool) -> string -> Scheme.t
(** Certifies a predicate on the number of vertices (e.g. [n = 17], or
    [n] even): subtree-size counting along a certified spanning tree.
    The string names the predicate in the scheme name. *)

val count_cert_size : Instance.t -> int
(** Measured certificate size of {!vertex_count} on an instance — the
    E1 series. *)

val counted :
  ?choose_root:(Graph.t -> int option) ->
  name:string ->
  total_pred:(int -> bool) ->
  local:(total:int -> me:int -> degree:int -> bool) ->
  root_check:(total:int -> degree:int -> bool) ->
  unit ->
  Scheme.t
(** The general count-and-check pattern behind the depth-2 fragment
    (Lemma A.3): certify the vertex count [n]; every vertex checks
    [local ~total ~me ~degree]; the spanning-tree root additionally
    checks [root_check] — with [choose_root] the prover points the tree
    at a witness (e.g. a dominating vertex).  Completeness requires the
    chosen root to pass [root_check] on yes-instances. *)

(** {1 Verification cores (shared with richer schemes)} *)

val malformed : cert
(** The decoded form of a malformed certificate, recognized by
    physical equality: {!tree_check} takes plain records, so a decoded
    neighbor slot is one pointer rather than an option box around
    one. *)

val tree_check :
  me:int ->
  cert ->
  ids:int array ->
  decs:cert array ->
  lo:int ->
  hi:int ->
  Scheme.verdict
(** The spanning-tree check at one vertex over pre-decoded certificates
    ({!malformed} when malformed) — its own and its neighbors' in the
    slice [ids.(lo..hi-1)]/[decs.(lo..hi-1)] — reusable by any scheme
    that embeds a spanning tree. *)
