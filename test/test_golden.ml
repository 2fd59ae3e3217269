(* Golden rejection lists.

   The compiled ≡ interpreted suites compare two engine paths that end
   in the same check function, so a changed reason string (or a
   reordered reason priority) would pass them unnoticed.  This suite
   pins the observable verdicts themselves: for every registered
   scheme, and for the constructors the registry does not pin, a
   fixed-seed series of small instances (n ≤ 12) is run against honest,
   bit-flipped and truncated certificate assignments, and the full
   [(vertex, reason)] dump is compared against a recorded digest.  On a
   mismatch the test prints the whole dump, so the change is reviewable
   line by line. *)

(* The registry's instance families, reused by name: [general]
   (connected graphs, n ≤ 12), its n ≤ 9 variant, and trees. *)
let family name = (Option.get (Registry.find name)).Registry.instance
let general = family "spanning"
let general9 = family "universal"
let trees = family "tree-mso:perfect-matching"

let labeled_mis rng =
  let inst = general rng in
  let g = inst.Instance.graph in
  let labels = Lcl.greedy_mis g in
  (* half the instances break the labelling, so the honest prover
     declines and the noise branch runs *)
  if Rng.bool rng then begin
    let v = Rng.int rng (Graph.n g) in
    labels.(v) <- 1 - labels.(v)
  end;
  Instance.make ~labels ~ids:inst.Instance.ids ~id_bits:inst.Instance.id_bits g

let clique =
  Spanning_tree.counted ~name:"clique" ~total_pred:(fun _ -> true)
    ~local:(fun ~total ~me:_ ~degree -> degree = total - 1)
    ~root_check:(fun ~total:_ ~degree:_ -> true)
    ()

let cases =
  List.map
    (fun e -> (e.Registry.name, e.Registry.scheme, e.Registry.instance))
    Registry.all
  @ [
      ( "lcl-labeled:mis",
        Lcl.scheme_of_labeled Lcl.maximal_independent_set,
        labeled_mis );
      ( "universal:triangle-free",
        Universal.make ~name:"triangle-free" Props.triangle_free.Props.check,
        general9 );
      ( "tree-mso-table:perfect-matching",
        Tree_mso.make_table Uop.has_perfect_matching,
        trees );
      ( "tree-mso+acyclic",
        Tree_mso.with_tree_promise_check
          (Tree_mso.make Library.has_perfect_matching.Library.auto),
        general );
      ( "disjoin:acyclic-or-clique",
        Scheme.disjoin ~name:"acyclic-or-clique" Spanning_tree.acyclicity
          clique,
        general );
      ("depth2:n<=1", Depth2_fo.at_most_one_vertex, general);
      ("depth2:n>1", Depth2_fo.more_than_one_vertex, general);
    ]

(* One vertex's certificate changed: a single bit flipped, or (for an
   empty certificate) a few noise bits appended. *)
let flip_one rng certs =
  let certs = Array.copy certs in
  let v = Rng.int rng (Array.length certs) in
  let c = certs.(v) in
  let len = Bitstring.length c in
  certs.(v) <-
    (if len = 0 then Rng.bits rng 3 else Bitstring.flip c (Rng.int rng len));
  certs

let truncate_one rng certs =
  let certs = Array.copy certs in
  let v = Rng.int rng (Array.length certs) in
  let c = certs.(v) in
  certs.(v) <- Bitstring.sub c ~pos:0 ~len:(Rng.int rng (Bitstring.length c + 1));
  certs

let seeds = 24

let dump (scheme : Scheme.t) gen =
  let b = Buffer.create 4096 in
  for seed = 0 to seeds - 1 do
    let rng = Rng.make (1000 + seed) in
    let inst = gen rng in
    let n = Instance.n inst in
    let base, tag =
      match scheme.Scheme.prover inst with
      | Some c -> (c, "honest")
      | None ->
          (Array.init n (fun _ -> Rng.bits rng (Rng.int rng 24)), "noise")
    in
    let flipped = flip_one rng base in
    let truncated = truncate_one rng base in
    List.iter
      (fun (tag, certs) ->
        let o = Scheme.run scheme inst certs in
        Printf.bprintf b "seed %d n=%d %s:" seed n tag;
        List.iter (fun (v, r) -> Printf.bprintf b " %d:%s;" v r) o.Scheme.rejections;
        Buffer.add_char b '\n')
      [
        (tag, base); ("flipped", flipped); ("truncated", truncated);
      ]
  done;
  Buffer.contents b

(* Digests recorded before the one-check-per-scheme refactor. *)
let expected =
  [
    ("spanning", "a8b7d8a535c5e8d04478bfc27eebb5e3");
    ("acyclic", "63ef5fb49d98131a885e3f8852a031fd");
    ("treedepth", "71f92c9e6aef63f2631aa27e2f44a0cf");
    ("kernel-mso", "db3c0b9c42fe821d94720734721c0aed");
    ("existential", "e992353965cb81b9e4b247751e87045c");
    ("universal", "fb5efff7ebeba9b166b14a5748fd7b20");
    ("path-minor-free", "ed4c2aeae078afa0f88d58e76d91f966");
    ("tree-mso:perfect-matching", "0b7ca09b8599cb79a3effbbaef2c3e39");
    ("lcl:mis", "b08893009dd221bb688f34c70f190d7b");
    ("depth2:dominating", "b0572c17f5a16abfd96384f6ca8020db");
    ("lcl-labeled:mis", "6aada2755ab320660fa0e9f2691aae36");
    ("universal:triangle-free", "a5bb85eed07a598b2ad325c94912dafc");
    ("tree-mso-table:perfect-matching", "013a5c14d3ad84615114114fe41991b7");
    ("tree-mso+acyclic", "6474c8851540509aa59681cd1ede69ee");
    ("disjoin:acyclic-or-clique", "b9f6e8dc852e016fc1a16e79f92c244e");
    ("depth2:n<=1", "15d16b72cc4cfdae865e9113db222299");
    ("depth2:n>1", "37482eb572818ccd5e39e16c196adce8");
  ]

let golden (name, scheme, gen) () =
  let d = dump scheme gen in
  let got = Digest.to_hex (Digest.string d) in
  match List.assoc_opt name expected with
  | Some want when want = got -> ()
  | Some want ->
      Alcotest.failf "%s: digest %s, expected %s; full dump:\n%s" name got want
        d
  | None -> Alcotest.failf "%s: no recorded digest (got %s); dump:\n%s" name got d

let suite =
  [
    ( "golden-reasons",
      List.map
        (fun ((name, _, _) as c) -> Alcotest.test_case name `Quick (golden c))
        cases );
  ]
