(* certify-cold: one op of the CLI's one-shot [certify -j 1], run once
   in a fresh process:

   Io.of_edge_list_file -> Instance.make -> scheme.prover
   -> Cert_store.intern_all + Scheme.record_cert_sizes -> Engine.run_par

   Untraced, the sweep is [Engine.run_par] alone, as in the CLI.  Traced,
   [Vcompile.compile] runs first in its own layer; the sweep then reuses
   that kernel from the single-slot cache, so compile and check are
   timed apart ([kernel_reuse] in the result shows the reuse held). *)

open Localcert_obs
open Localcert_util
open Localcert_core
open Localcert_engine

let run ~file ~scheme_name ~trace_out =
  let ready_ns = Common.now () in
  let scheme = Common.scheme_named scheme_name in
  let traced = trace_out <> "" in
  Metrics.set_enabled traced;
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Common.with_trace ~process:"e2ebench-certify" trace_out @@ fun () ->
  let layer = Common.layer in
  let t0 = Common.now () in
  let (outcome, n), minor_words, major_collections =
    Common.gc_of @@ fun () ->
    Tracer.begin_slice "certify";
    let g = layer "graph.ingest" (fun () -> Common.ingest file) in
    let inst = layer "core.instance" (fun () -> Instance.make g) in
    let certs =
      match layer "core.prove" (fun () -> scheme.Scheme.prover inst) with
      | Some c -> c
      | None -> Common.wrong "the %s prover declined" scheme.Scheme.name
    in
    let certs =
      layer "util.intern" (fun () ->
          let c = Cert_store.intern_all certs in
          Scheme.record_cert_sizes scheme c;
          c)
    in
    if traced then
      ignore (layer "engine.compile" (fun () -> Vcompile.compile scheme inst certs));
    let outcome =
      layer "engine.check" (fun () -> Engine.run_par ~pool scheme inst certs)
    in
    Tracer.end_slice "certify";
    (outcome, Instance.n inst)
  in
  let t1 = Common.now () in
  let st = Cert_store.stats () in
  Common.emit
    [
      ("ready_ns", Common.int ready_ns);
      ("op_ms", Common.num (Common.ms (t1 - t0)));
      ("n", Common.int n);
      ("accepted", Common.bool outcome.Scheme.accepted);
      ("rejections", Common.int (List.length outcome.Scheme.rejections));
      ("cert_bits", Common.int outcome.Scheme.max_bits);
      ("peak_rss_mb", Common.num (Common.peak_rss_mb ()));
      ("minor_words", Common.num minor_words);
      ("major_collections", Common.int major_collections);
      ("intern_hit_ratio", Common.num (Cert_store.hit_ratio ()));
      ( "distinct_certs",
        Common.int (if st.Cert_store.arena_packs > 0 then st.arena_certs else st.distinct) );
      ( "kernel_reuse",
        Common.int (Metrics.value (Metrics.counter ~approx:true "vcompile.kernel_reuse")) );
      ("layers", Common.take_totals ());
    ]
