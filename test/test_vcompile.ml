(* Differential tests for the ahead-of-time verifier compiler.

   The compiled path's contract is per-vertex verdict equality with the
   interpreted verifier — reason strings included — for every scheme
   (the registered ones, plus the constructors and combinators the
   registry does not pin), over arbitrary instances and certificate
   assignments (honest, corrupted and random).  That equality is
   structural in the implementation (both paths end in the same lowered
   check function), and these tests pin it observationally: against
   [Scheme.view_of] vertex by vertex, through [Engine.run_par] at
   several pool sizes, and through [Runtime.execute]'s trace. *)

let check = Alcotest.(check bool)

(* Shared pools, spawned once (see test_engine.ml). *)
let pool1 = Pool.create ~jobs:1 ()
let pool4 = Pool.create ~jobs:4 ()
let pool8 = Pool.create ~jobs:8 ()
let () = at_exit (fun () -> List.iter Pool.shutdown [ pool1; pool4; pool8 ])
let pools = [ pool1; pool4; pool8 ]
let seed_arbitrary = QCheck.(int_bound 1_000_000)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let family name = (Option.get (Registry.find name)).Registry.instance
let general = family "spanning"

(* MIS labellings, half of them broken at one vertex *)
let labeled rng =
  let inst = general rng in
  let g = inst.Instance.graph in
  let labels = Lcl.greedy_mis g in
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

(* (scheme, instance family) pairs: the registry, then the
   constructors it does not pin. *)
let schemes =
  Array.of_list
    (List.map (fun e -> (e.Registry.scheme, e.Registry.instance)) Registry.all
    @ [
        (Lcl.scheme_of_labeled Lcl.maximal_independent_set, labeled);
        ( Tree_mso.make_table Uop.has_perfect_matching,
          family "tree-mso:perfect-matching" );
        ( Tree_mso.with_tree_promise_check
            (Tree_mso.make Library.has_perfect_matching.Library.auto),
          general );
        ( Scheme.disjoin ~name:"acyclic-or-clique" Spanning_tree.acyclicity
            clique,
          general );
        (Depth2_fo.at_most_one_vertex, general);
        (Depth2_fo.more_than_one_vertex, general);
        ( Universal.make ~name:"triangle-free" Props.triangle_free.Props.check,
          family "universal" );
      ])

let entry_of rng = schemes.(Rng.int rng (Array.length schemes))

(* Corrupt a few vertices: replacement with noise, truncation to empty,
   or a single bit flip — the latter exercises "almost well-formed"
   certificates, where decode succeeds but check must reject. *)
let corrupt rng certs =
  let certs = Array.copy certs in
  let n = Array.length certs in
  let hits = 1 + Rng.int rng 3 in
  for _ = 1 to hits do
    let v = Rng.int rng n in
    certs.(v) <-
      (match Rng.int rng 3 with
      | 0 -> Bitstring.empty
      | 1 -> Rng.bits rng (Rng.int rng 12)
      | _ ->
          let c = certs.(v) in
          let len = Bitstring.length c in
          if len = 0 then Rng.bits rng 4 else Bitstring.flip c (Rng.int rng len))
  done;
  certs

(* Honest prover output, a corruption of it, or pure noise. *)
let certs_of rng scheme inst =
  let noise () =
    Array.init (Instance.n inst) (fun _ -> Rng.bits rng (Rng.int rng 9))
  in
  match scheme.Scheme.prover inst with
  | None -> noise ()
  | Some c -> (
      match Rng.int rng 3 with
      | 0 -> c
      | 1 -> corrupt rng c
      | _ -> noise ())

let outcome_equal (a : Scheme.outcome) (b : Scheme.outcome) =
  a.Scheme.accepted = b.Scheme.accepted
  && a.Scheme.max_bits = b.Scheme.max_bits
  && a.Scheme.rejections = b.Scheme.rejections

(* ------------------------------------------------------------------ *)
(* Per-vertex differential: kernel ≡ interpreted verifier              *)
(* ------------------------------------------------------------------ *)

let qcheck_kernel_per_vertex =
  QCheck.Test.make
    ~name:"compile: kernel verdict ≡ interpreted verdict at every vertex"
    ~count:600 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, instance = entry_of rng in
      let inst = instance rng in
      let certs = certs_of rng scheme inst in
      match Vcompile.compile scheme inst certs with
      | None -> false
      | Some kernel ->
          let n = Instance.n inst in
          let ok = ref true in
          for v = 0 to n - 1 do
            let interpreted = Scheme.verify scheme (Scheme.view_of inst certs v) in
            if kernel v <> interpreted then ok := false
          done;
          !ok)

let qcheck_view_checker_per_vertex =
  QCheck.Test.make
    ~name:"view_checker ≡ interpreted verifier on the same views" ~count:600
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, instance = entry_of rng in
      let inst = instance rng in
      let certs = certs_of rng scheme inst in
      match Vcompile.view_checker scheme with
      | None -> false
      | Some fast ->
          let n = Instance.n inst in
          let ok = ref true in
          for v = 0 to n - 1 do
            let view = Scheme.view_of inst certs v in
            if fast view <> Scheme.verify scheme view then ok := false
          done;
          !ok)

(* ------------------------------------------------------------------ *)
(* End-to-end: engine and runtime                                      *)
(* ------------------------------------------------------------------ *)

let qcheck_engine_jobs_ladder =
  QCheck.Test.make
    ~name:"run_par ≡ Scheme.run at jobs 1/4/8 (compiled on)" ~count:400
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, instance = entry_of rng in
      let inst = instance rng in
      let certs = certs_of rng scheme inst in
      let seq = Scheme.run scheme inst certs in
      List.for_all
        (fun pool ->
          outcome_equal seq (Engine.run_par ~pool scheme inst certs))
        pools)

let trace_equal (a : Trace.t) (b : Trace.t) = a = b

let qcheck_runtime_compiled_flag =
  QCheck.Test.make
    ~name:"Runtime.execute: ~compiled:true ≡ ~compiled:false (trace included)"
    ~count:250 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, instance = entry_of rng in
      let inst = instance rng in
      let certs = certs_of rng scheme inst in
      let rounds = 1 + Rng.int rng 2 in
      let pool = List.nth pools (Rng.int rng 3) in
      let fast =
        Runtime.execute ~pool ~rounds ~seed ~compiled:true scheme inst certs
      in
      let slow =
        Runtime.execute ~pool ~rounds ~seed ~compiled:false scheme inst certs
      in
      outcome_equal fast.Runtime.outcome slow.Runtime.outcome
      && fast.Runtime.detected_at = slow.Runtime.detected_at
      && trace_equal fast.Runtime.trace slow.Runtime.trace
      && fast.Runtime.checked = slow.Runtime.checked
      && fast.Runtime.reverified = slow.Runtime.reverified)

(* ------------------------------------------------------------------ *)
(* The global toggle and the hit counter                               *)
(* ------------------------------------------------------------------ *)

let with_compilation b f =
  let prev = Vcompile.is_enabled () in
  Vcompile.set_enabled b;
  Fun.protect ~finally:(fun () -> Vcompile.set_enabled prev) f

let disabled_compilation_is_equivalent () =
  let scheme = Spanning_tree.scheme () in
  let inst = Instance.make (Gen.random_tree (Rng.make 7) 200) in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let on = Engine.run_par ~pool:pool4 scheme inst certs in
  with_compilation false (fun () ->
      check "compile yields None when disabled" true
        (Vcompile.compile scheme inst certs = None);
      check "view_checker yields None when disabled" true
        (match Vcompile.view_checker scheme with None -> true | Some _ -> false);
      let off = Engine.run_par ~pool:pool4 scheme inst certs in
      check "outcomes identical with compilation off" true
        (outcome_equal on off));
  check "toggle restored" true (Vcompile.is_enabled ())

let compiled_hits_counted () =
  let scheme = Spanning_tree.scheme () in
  let n = 300 in
  let inst = Instance.make (Gen.random_tree (Rng.make 11) n) in
  let certs = Option.get (scheme.Scheme.prover inst) in
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      ignore (Engine.run_par ~pool:pool4 scheme inst certs);
      check "every vertex went through the compiled kernel" true
        (Metrics.value (Metrics.counter "engine.compiled_hits") = n);
      Metrics.reset ();
      with_compilation false (fun () ->
          ignore (Engine.run_par ~pool:pool4 scheme inst certs));
      check "no compiled hits when disabled" true
        (Metrics.value (Metrics.counter "engine.compiled_hits") = 0);
      Metrics.reset ())

let suite =
  [
    ( "vcompile:differential",
      [
        QCheck_alcotest.to_alcotest qcheck_kernel_per_vertex;
        QCheck_alcotest.to_alcotest qcheck_view_checker_per_vertex;
      ] );
    ( "vcompile:end-to-end",
      [
        QCheck_alcotest.to_alcotest qcheck_engine_jobs_ladder;
        QCheck_alcotest.to_alcotest qcheck_runtime_compiled_flag;
        Alcotest.test_case "disabled compilation is equivalent" `Quick
          disabled_compilation_is_equivalent;
        Alcotest.test_case "engine.compiled_hits counts kernel verdicts" `Quick
          compiled_hits_counted;
      ] );
  ]
