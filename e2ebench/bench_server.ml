(* The server under test, in a process of its own: [Server.run] with
   one worker and a one-domain engine pool.  It prints "port N" once it
   listens and serves until SIGTERM drains it; then it prints its own
   peak RSS and GC work.  With telemetry, metrics and the tracer are on
   and the trace is written to [trace_out] after the drain. *)

open Localcert_obs
open Localcert_serve

let run ~telemetry ~trace_out =
  Shutdown.ignore_sigpipe ();
  Metrics.set_enabled telemetry;
  Tracer.set_enabled (trace_out <> "");
  let config = { Server.default_config with port = 0; workers = 1; jobs = 1 } in
  let (), minor_words, major_collections =
    Common.gc_of (fun () ->
        Server.run ~ready:(fun port -> Printf.printf "port %d\n%!" port) config)
  in
  if trace_out <> "" then Tracer.write_file ~process_name:"e2ebench-server" trace_out;
  Common.emit
    [
      ("peak_rss_mb", Common.num (Common.peak_rss_mb ()));
      ("minor_words", Common.num minor_words);
      ("major_collections", Common.int major_collections);
    ]
