type cert = { root_id : int; dist : int; parent_id : int }

let encode ~id_bits c =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.fixed w ~width:id_bits c.root_id;
  Bitbuf.Writer.nat w c.dist;
  Bitbuf.Writer.fixed w ~width:id_bits c.parent_id;
  Bitbuf.Writer.contents w

let decode ~id_bits b =
  Bitbuf.decode b (fun r ->
      let root_id = Bitbuf.Reader.fixed r ~width:id_bits in
      let dist = Bitbuf.Reader.nat r in
      let parent_id = Bitbuf.Reader.fixed r ~width:id_bits in
      { root_id; dist; parent_id })

(* Build certificates from a BFS spanning tree. *)
let tree_certs (inst : Instance.t) root =
  let sp = Spanning.bfs inst.graph ~root in
  Array.init (Instance.n inst) (fun v ->
      {
        root_id = inst.ids.(root);
        dist = sp.dist.(v);
        parent_id =
          (if v = root then inst.ids.(root) else inst.ids.(sp.parent.(v)));
      })

(* ------------------------------------------------------------------ *)
(* Lowered checkers.  Decoding is total: a malformed certificate
   decodes to a physical sentinel rather than [None], so a decoded
   slot is one pointer straight to the record — an option would add a
   box, and a second likely cache miss per neighbor at 10⁶ vertices.
   The check stage runs on pre-decoded certificates and is shared
   verbatim by the interpreted verifier and the compiled engine path,
   so the two agree on every verdict by construction.

   Check stages take the neighbors as parallel [ids]/[decs] slices
   ([lo, hi)) — the compiled engine passes whole-graph CSR rows here,
   so the loops below index shared flat arrays and allocate nothing.

   The sweeps are single-pass: at 10⁶+ vertices each [decs.(i)]
   dereference is a likely cache miss (decoded records live in vertex
   order, rows of a non-path graph reference them in random order), so
   the row is walked once, gathering every sub-check's flag — the
   parent's distance included — and the verdict is decided afterwards
   in priority order.  Each sub-check is a forall/exists over the
   whole row, so gathering commutes with the layered cascade. *)

let malformed = { root_id = -1; dist = -1; parent_id = -1 }

let decode_total ~id_bits b =
  match decode ~id_bits b with Some c -> c | None -> malformed

let tree_check ~me c ~ids ~decs ~lo ~hi : Scheme.verdict =
  if c == malformed then Reject "malformed certificate"
  else begin
    let bad_nbr = ref false in
    let roots_ok = ref true in
    let has_parent = ref false and parent_dist = ref 0 in
    let i = ref lo in
    while (not !bad_nbr) && !i < hi do
      let nc = decs.(!i) in
      if nc == malformed then bad_nbr := true
      else begin
        if nc.root_id <> c.root_id then roots_ok := false;
        if ids.(!i) = c.parent_id then begin
          has_parent := true;
          parent_dist := nc.dist
        end
      end;
      incr i
    done;
    if !bad_nbr then Reject "malformed neighbor certificate"
    else if not !roots_ok then Reject "root ids disagree"
    else if c.dist = 0 then
      if c.root_id <> me then Reject "distance 0 but not the claimed root"
      else if c.parent_id <> me then Reject "root must be its own parent"
      else Accept
    else if c.root_id = me then Reject "claimed root has nonzero distance"
    else if not !has_parent then Reject "parent is not a neighbor"
    else if !parent_dist = c.dist - 1 then Accept
    else Reject "parent distance is not mine minus one"
  end

let tree_lowering : cert Scheme.lowering =
  {
    decode = decode_total;
    check =
      (fun ~id_bits:_ ~me ~label:_ mine ~ids ~decs ~lo ~hi ->
        tree_check ~me mine ~ids ~decs ~lo ~hi);
  }

let scheme ?(root = 0) () =
  Scheme.of_lowering ~name:"spanning-tree"
    ~prover:(fun inst ->
      if Graph.is_connected inst.Instance.graph then
        Some
          (Array.map
             (encode ~id_bits:inst.Instance.id_bits)
             (tree_certs inst root))
      else None)
    tree_lowering

let acyclicity_check ~me c ~ids ~decs ~lo ~hi : Scheme.verdict =
  if c == malformed then Reject "malformed certificate"
  else begin
    let bad_nbr = ref false in
    let roots_ok = ref true in
    let has_parent = ref false and parent_dist = ref 0 in
    (* every edge must be a tree edge: each neighbor is my parent
       (dist-1, and I claim it) or my child (dist+1, and it claims
       me) *)
    let all_tree = ref true in
    let i = ref lo in
    while (not !bad_nbr) && !i < hi do
      let nc = decs.(!i) in
      if nc == malformed then bad_nbr := true
      else begin
        if nc.root_id <> c.root_id then roots_ok := false;
        if ids.(!i) = c.parent_id then begin
          has_parent := true;
          parent_dist := nc.dist
        end;
        let is_parent = nc.dist = c.dist - 1 && c.parent_id = ids.(!i) in
        let is_child = nc.dist = c.dist + 1 && nc.parent_id = me in
        if not (is_parent || is_child) then all_tree := false
      end;
      incr i
    done;
    if !bad_nbr then Reject "malformed neighbor certificate"
    else if not !roots_ok then Reject "root ids disagree"
    else if c.dist = 0 then
      if c.root_id <> me then Reject "distance 0 but not the claimed root"
      else if c.parent_id <> me then Reject "root must be its own parent"
      else if !all_tree then Accept
      else Reject "non-tree edge detected"
    else if c.root_id = me then Reject "claimed root has nonzero distance"
    else if not !has_parent then Reject "parent is not a neighbor"
    else if !parent_dist <> c.dist - 1 then
      Reject "parent distance is not mine minus one"
    else if !all_tree then Accept
    else Reject "non-tree edge detected"
  end

let acyclicity =
  Scheme.of_lowering ~name:"acyclicity"
    ~prover:(fun inst ->
      if Graph.is_tree inst.Instance.graph then
        Some
          (Array.map (encode ~id_bits:inst.Instance.id_bits) (tree_certs inst 0))
      else None)
    {
      Scheme.decode = decode_total;
      check =
        (fun ~id_bits:_ ~me ~label:_ mine ~ids ~decs ~lo ~hi ->
          acyclicity_check ~me mine ~ids ~decs ~lo ~hi);
    }

(* Vertex count: spanning-tree certificate extended with the subtree
   size and the claimed global total.  The record is flat — no nested
   tree certificate — so the one dereference the fused sweep below
   performs per neighbor pulls every field into cache together. *)
type count_cert = {
  c_root_id : int;
  c_dist : int;
  c_parent_id : int;
  size : int;
  total : int;
}

let encode_count ~id_bits c =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.fixed w ~width:id_bits c.c_root_id;
  Bitbuf.Writer.nat w c.c_dist;
  Bitbuf.Writer.fixed w ~width:id_bits c.c_parent_id;
  Bitbuf.Writer.nat w c.size;
  Bitbuf.Writer.nat w c.total;
  Bitbuf.Writer.contents w

let decode_count ~id_bits b =
  Bitbuf.decode b (fun r ->
      let c_root_id = Bitbuf.Reader.fixed r ~width:id_bits in
      let c_dist = Bitbuf.Reader.nat r in
      let c_parent_id = Bitbuf.Reader.fixed r ~width:id_bits in
      let size = Bitbuf.Reader.nat r in
      let total = Bitbuf.Reader.nat r in
      { c_root_id; c_dist; c_parent_id; size; total })

let count_certs (inst : Instance.t) root =
  let sp = Spanning.bfs inst.graph ~root in
  let sizes = Spanning.subtree_sizes sp in
  let base = tree_certs inst root in
  Array.init (Instance.n inst) (fun v ->
      let t = base.(v) in
      {
        c_root_id = t.root_id;
        c_dist = t.dist;
        c_parent_id = t.parent_id;
        size = sizes.(v);
        total = Instance.n inst;
      })

let count_malformed =
  { c_root_id = -1; c_dist = -1; c_parent_id = -1; size = -1; total = -1 }

let decode_count_total ~id_bits b =
  match decode_count ~id_bits b with Some c -> c | None -> count_malformed

let count_check ~total_pred ~local ~root_check ~me mine ~ids ~decs ~lo ~hi :
    Scheme.verdict =
  if mine == count_malformed then Reject "malformed certificate"
  else begin
    let n = hi - lo in
    let bad_nbr = ref false in
    let roots_ok = ref true and totals_ok = ref true in
    let has_parent = ref false and parent_dist = ref 0 in
    let children_sum = ref 0 in
    let i = ref lo in
    while (not !bad_nbr) && !i < hi do
      let c = decs.(!i) in
      if c == count_malformed then bad_nbr := true
      else begin
        if c.c_root_id <> mine.c_root_id then roots_ok := false;
        if c.total <> mine.total then totals_ok := false;
        if ids.(!i) = mine.c_parent_id then begin
          has_parent := true;
          parent_dist := c.c_dist
        end;
        if c.c_parent_id = me && c.c_dist = mine.c_dist + 1 then
          children_sum := !children_sum + c.size
      end;
      incr i
    done;
    if !bad_nbr then Reject "malformed neighbor certificate"
    else if not !roots_ok then Reject "root ids disagree"
    else if
      (* the spanning-tree core, on the flat fields *)
      mine.c_dist = 0 && mine.c_root_id <> me
    then Reject "distance 0 but not the claimed root"
    else if mine.c_dist = 0 && mine.c_parent_id <> me then
      Reject "root must be its own parent"
    else if mine.c_dist > 0 && mine.c_root_id = me then
      Reject "claimed root has nonzero distance"
    else if mine.c_dist > 0 && not !has_parent then
      Reject "parent is not a neighbor"
    else if mine.c_dist > 0 && !parent_dist <> mine.c_dist - 1 then
      Reject "parent distance is not mine minus one"
    else if not !totals_ok then Reject "totals disagree"
    else if mine.size <> !children_sum + 1 then
      Reject "subtree size does not match children"
    else if mine.c_dist = 0 && mine.size <> mine.total then
      Reject "root size differs from claimed total"
    else if mine.c_dist = 0 && not (total_pred mine.total) then
      Reject "total fails the predicate"
    else if not (local ~total:mine.total ~me ~degree:n) then
      Reject "local degree check failed"
    else if mine.c_dist = 0 && not (root_check ~total:mine.total ~degree:n)
    then Reject "root check failed"
    else Accept
  end

let count_lowering ~total_pred ~local ~root_check :
    count_cert Scheme.lowering =
  {
    decode = decode_count_total;
    check =
      (fun ~id_bits:_ ~me ~label:_ mine ~ids ~decs ~lo ~hi ->
        count_check ~total_pred ~local ~root_check ~me mine ~ids ~decs ~lo ~hi);
  }

let always_local ~total:_ ~me:_ ~degree:_ = true
let always_root ~total:_ ~degree:_ = true

let vertex_count ?(root = 0) ~expected pred_name =
  Scheme.of_lowering
    ~name:(Printf.sprintf "vertex-count[%s]" pred_name)
    ~prover:(fun inst ->
      if Graph.is_connected inst.Instance.graph && expected (Instance.n inst)
      then
        Some
          (Array.map
             (encode_count ~id_bits:inst.Instance.id_bits)
             (count_certs inst root))
      else None)
    (count_lowering ~total_pred:expected ~local:always_local
       ~root_check:always_root)

let counted ?(choose_root = fun _ -> Some 0) ~name ~total_pred ~local
    ~root_check () =
  Scheme.of_lowering ~name
    ~prover:(fun inst ->
      let g = inst.Instance.graph in
      if not (Graph.is_connected g) then None
      else
        match choose_root g with
        | None -> None
        | Some root ->
            let n = Instance.n inst in
            let ok =
              total_pred n
              && Graph.fold_vertices
                   (fun v acc ->
                     acc
                     && local ~total:n ~me:inst.Instance.ids.(v)
                          ~degree:(Graph.degree g v))
                   g true
              && root_check ~total:n ~degree:(Graph.degree g root)
            in
            if ok then
              Some
                (Array.map
                   (encode_count ~id_bits:inst.Instance.id_bits)
                   (count_certs inst root))
            else None)
    (count_lowering ~total_pred ~local ~root_check)

let count_cert_size inst =
  let certs = count_certs inst 0 in
  Array.fold_left
    (fun acc c ->
      max acc (Bitstring.length (encode_count ~id_bits:inst.Instance.id_bits c)))
    0 certs
