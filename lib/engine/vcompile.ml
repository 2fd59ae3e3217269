(* Ahead-of-time compilation of lowered verifiers.

   Every scheme states its check as a lowering: a total decode stage
   and a check stage over pre-decoded values (Scheme.lowering).
   The interpreted verifier re-decodes every certificate at every
   vertex that sees it — a vertex of degree d costs d + 1 decodes, and
   the allocations those decodes make are what serializes parallel
   sweeps on the shared minor heap.  [compile] instead decodes each
   distinct certificate exactly once up front (certificates are
   interned, so broadcast-heavy schemes decode a handful of strings),
   lays the per-vertex neighbor views out as flat arrays, and returns
   a per-vertex kernel that runs only the check stage: no decoding, no
   list building, and for the built-in schemes no allocation at all on
   the accept path. *)

module BH = Hashtbl.Make (struct
  type t = Bitstring.t

  let hash = Bitstring.hash
  let equal = Bitstring.equal
end)

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* Compilation is pure in (scheme, instance, certificates), and the
   dominant caller pattern — the runtime's round loop, repeated
   sweeps over one assignment — re-presents the same inputs verbatim.
   A single slot remembers the last compile.  Validity is physical:
   same scheme, same instance, and every certificate the same value
   it was (bitstrings are immutable, so [==] per element certifies
   the array's contents; the snapshot copy guards against in-place
   element replacement in the caller's array).  Any difference falls
   through to a fresh compile, so the cache is invisible except in
   time.  The slot pins O(n) words for the last instance — bounded,
   and released by the next compile. *)
type entry = {
  c_scheme : Scheme.t;
  c_inst : Instance.t;
  c_certs : Bitstring.t array;
  c_kernel : int -> Scheme.verdict;
}

let slot : entry option Atomic.t = Atomic.make None

let slot_hit (scheme : Scheme.t) (inst : Instance.t) certs =
  match Atomic.get slot with
  | None -> None
  | Some e ->
      let n = Array.length certs in
      if
        e.c_scheme == scheme && e.c_inst == inst
        && Array.length e.c_certs = n
        &&
        let i = ref 0 in
        while !i < n && e.c_certs.(!i) == certs.(!i) do
          incr i
        done;
        !i = n
      then begin
        if Metrics.is_enabled () then
          Metrics.incr (Metrics.counter ~approx:true "vcompile.kernel_reuse");
        Some e.c_kernel
      end
      else None

let compile_fresh (scheme : Scheme.t) (inst : Instance.t) certs =
  match scheme.Scheme.lowering with
  | Scheme.Compiled l ->
      Span.with_ ("vcompile." ^ scheme.Scheme.name) @@ fun () ->
      let id_bits = inst.Instance.id_bits in
      let ids = inst.Instance.ids in
      let labels = inst.Instance.labels in
      let g = inst.Instance.graph in
      let n = Graph.n g in
      (* Decode once per distinct certificate ([decode] is total). *)
      let cache = BH.create (max 16 (min n 65536)) in
      let dec_of c =
        match BH.find_opt cache c with
        | Some d -> d
        | None ->
            let d = l.Scheme.decode ~id_bits c in
            BH.add cache c d;
            d
      in
      let mine = Array.map dec_of certs in
      (* The compiled layout mirrors the graph's CSR: one whole-graph
         [nbr_ids]/[nbr_dec] pair shaped exactly like the adjacency
         [col] array, rows sorted ascending by *identifier* — the
         order [Scheme.view_of] presents.  The kernel hands each check
         its row as a slice of the two shared arrays, so a sweep is one
         linear pass over flat memory with no per-vertex view structure
         at all. *)
      let rp, col = Graph.unsafe_csr g in
      let total = rp.(n) in
      let nbr_ids = Array.make total 0 in
      (* [total > 0] implies [n > 0], so [mine.(0)] is a fill value *)
      let nbr_dec = if total = 0 then [||] else Array.make total mine.(0) in
      for v = 0 to n - 1 do
        let lo = rp.(v) and hi = rp.(v + 1) in
        let sorted = ref true in
        for i = lo to hi - 1 do
          let u = Array.unsafe_get col i in
          nbr_dec.(i) <- mine.(u);
          let idu = ids.(u) in
          nbr_ids.(i) <- idu;
          if i > lo && nbr_ids.(i - 1) > idu then sorted := false
        done;
        (* Rows come out of the CSR in vertex order and ids are
           assigned ascending in vertex order for generated instances,
           so rows are almost always already sorted; otherwise a joint
           insertion sort of the (id, dec) pairs restores the view
           order. *)
        if not !sorted then
          for i = lo + 1 to hi - 1 do
            let ki = nbr_ids.(i) and di = nbr_dec.(i) in
            let j = ref (i - 1) in
            while !j >= lo && nbr_ids.(!j) > ki do
              nbr_ids.(!j + 1) <- nbr_ids.(!j);
              nbr_dec.(!j + 1) <- nbr_dec.(!j);
              decr j
            done;
            nbr_ids.(!j + 1) <- ki;
            nbr_dec.(!j + 1) <- di
          done
      done;
      fun v ->
        l.Scheme.check ~id_bits ~me:(Array.unsafe_get ids v)
          ~label:(Array.unsafe_get labels v)
          (Array.unsafe_get mine v) ~ids:nbr_ids ~decs:nbr_dec
          ~lo:(Array.unsafe_get rp v)
          ~hi:(Array.unsafe_get rp (v + 1))

let compile scheme inst certs =
  if not (Atomic.get enabled) then None
  else
    match slot_hit scheme inst certs with
    | Some kernel -> Some kernel
    | None ->
        let kernel = compile_fresh scheme inst certs in
        Atomic.set slot
          (Some
             {
               c_scheme = scheme;
               c_inst = inst;
               c_certs = Array.copy certs;
               c_kernel = kernel;
             });
        Some kernel

(* Runtime inbox views carry per-delivery certificate copies, so a
   per-instance compile keyed by physical arrays does not apply; what
   does transfer is decode-once sharing.  [view_checker] keeps a
   per-domain decode cache (Domain.DLS — domains never contend on it,
   unlike a sharded memo) keyed by certificate content, bounded so an
   adversarial fault plan cannot grow it without limit. *)
let cache_limit = 8192

let view_checker (scheme : Scheme.t) =
  if not (Atomic.get enabled) then None
  else
    match scheme.Scheme.lowering with
    | Scheme.Compiled l ->
        let key = Domain.DLS.new_key (fun () -> BH.create 64) in
        Some
          (fun (view : Scheme.view) ->
            let cache = Domain.DLS.get key in
            if BH.length cache > cache_limit then BH.reset cache;
            let id_bits = view.Scheme.id_bits in
            let dec_of c =
              match BH.find_opt cache c with
              | Some d -> d
              | None ->
                  let d = l.Scheme.decode ~id_bits c in
                  BH.add cache c d;
                  d
            in
            let mine = dec_of view.Scheme.cert in
            let deg = List.length view.Scheme.nbrs in
            let ids = Array.make deg 0 in
            let decs = Array.make deg mine in
            List.iteri
              (fun i (nid, c) ->
                ids.(i) <- nid;
                decs.(i) <- dec_of c)
              view.Scheme.nbrs;
            l.Scheme.check ~id_bits ~me:view.Scheme.me ~label:view.Scheme.label
              mine ~ids ~decs ~lo:0 ~hi:deg)
