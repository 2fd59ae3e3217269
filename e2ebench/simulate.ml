(* simulate-churn: [Runtime.execute] under edge churn and certificate
   corruption with incremental verification and self-healing recovery,
   every op the same execution (same plan, same runtime seed).

   Set-up (ingest, instance, prove, intern) runs [setups] times, each
   from a compacted heap; the first set-up's state is what every op
   executes from.  After one untimed op, ops repeat while another fits
   in [seconds] (at least [min_ops]), each from a compacted heap, so one
   op's garbage is not the next op's major-GC work.  Each op must quiesce, and its final
   outcome must equal [Scheme.run] on [final_graph]/[final_certs].

   Traced, ops alternate traced and untraced (the difference is the
   tracer's cost) and a fault-free execution at 8 rounds versus 1 gives
   the marginal round. *)

open Localcert_obs
open Localcert_util
open Localcert_core
open Localcert_engine
open Localcert_runtime

let setup ~file scheme =
  let layer = Common.layer in
  let t0 = Common.now () in
  let g = layer "graph.ingest" (fun () -> Common.ingest file) in
  let inst = layer "core.instance" (fun () -> Instance.make g) in
  let certs =
    match layer "core.prove" (fun () -> scheme.Scheme.prover inst) with
    | Some c -> c
    | None -> Common.wrong "the %s prover declined" scheme.Scheme.name
  in
  let certs = layer "util.intern" (fun () -> Cert_store.intern_all certs) in
  (Common.now () - t0, inst, certs)

let total lists = Array.fold_left (fun acc l -> acc + List.length l) 0 lists

let run ~file ~scheme_name ~plan ~rounds ~seed ~setups ~min_ops ~seconds ~trace_out
    ~wrong_reference =
  let scheme = Common.scheme_named scheme_name in
  let plan =
    match Fault.of_spec plan with Ok p -> p | Error e -> failwith ("plan: " ^ e)
  in
  let traced = trace_out <> "" in
  Common.with_trace ~process:"e2ebench-simulate" trace_out @@ fun () ->
  let first_ns, inst, certs = setup ~file scheme in
  let setup_layers = Common.take_totals () in
  let setup_ns =
    first_ns
    :: List.init (setups - 1) (fun _ ->
           Gc.compact ();
           let ns, _, _ = setup ~file scheme in
           ns)
  in
  ignore (Common.take_totals ());
  let st = Cert_store.stats () in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let execute ?(plan = plan) rounds =
    Runtime.execute ~pool ~plan ~rounds ~seed ~incremental:true ~recover:true scheme
      inst certs
  in
  (* one untimed op first: it grows the heap to the size every later
     op runs in *)
  Tracer.set_enabled false;
  ignore (execute rounds);
  Tracer.set_enabled traced;
  let deadline = Common.now () + int_of_float (seconds *. 1e9) in
  let ops = ref [] and last = ref 0 in
  while List.length !ops < min_ops || Common.now () + !last <= deadline do
    let k = List.length !ops in
    let op_traced = traced && k mod 2 = 0 in
    Tracer.set_enabled op_traced;
    Gc.compact ();
    let t0 = Common.now () in
    let r, minor_words, major_collections =
      Common.gc_of (fun () -> Common.layer "runtime.execute" (fun () -> execute rounds))
    in
    let t1 = Common.now () in
    Tracer.set_enabled traced;
    last := t1 - t0;
    let reference =
      Scheme.run scheme (Instance.make r.Runtime.final_graph) r.Runtime.final_certs
    in
    let reference =
      if wrong_reference then { reference with Scheme.accepted = not reference.Scheme.accepted }
      else reference
    in
    let o = r.Runtime.outcome in
    let ok =
      r.Runtime.quiesced_at <> None
      && o.Scheme.accepted = reference.Scheme.accepted
      && o.Scheme.max_bits = reference.Scheme.max_bits
      && o.Scheme.rejections = reference.Scheme.rejections
    in
    ops :=
      Json.Obj
        [
          ("op_ms", Common.num (Common.ms (t1 - t0)));
          ("traced", Common.bool op_traced);
          ("ok", Common.bool ok);
          ("accepted", Common.bool o.Scheme.accepted);
          ( "quiesced_round",
            Common.int (Option.value ~default:(-1) r.Runtime.quiesced_at) );
          ("cert_bits", Common.int o.Scheme.max_bits);
          ("checked", Common.int (total r.Runtime.checked));
          ("reverified", Common.int (total r.Runtime.reverified));
          ("adopted", Common.int (total r.Runtime.adopted));
          ("minor_words", Common.num minor_words);
          ("major_collections", Common.int major_collections);
        ]
      :: !ops
  done;
  ignore (Common.take_totals ());
  let round_floor_ms =
    if not traced then 0.
    else begin
      let time rounds =
        Gc.compact ();
        let t0 = Common.now () in
        ignore (execute ~plan:Fault.none rounds);
        Common.now () - t0
      in
      let one = time 1 and eight = time 8 in
      Common.ms (eight - one) /. 7.
    end
  in
  Common.emit
    [
      ("n", Common.int (Instance.n inst));
      ("setup_s", Json.Arr (List.map (fun ns -> Common.num (float_of_int ns /. 1e9)) setup_ns));
      ("setup_layers", setup_layers);
      ("intern_hit_ratio", Common.num (Cert_store.hit_ratio ()));
      ( "distinct_certs",
        Common.int (if st.Cert_store.arena_packs > 0 then st.arena_certs else st.distinct) );
      ("ops", Json.Arr (List.rev !ops));
      ("round_floor_ms", Common.num round_floor_ms);
      ("peak_rss_mb", Common.num (Common.peak_rss_mb ()));
    ]
