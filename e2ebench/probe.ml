(* The benchmark's probe: one executable, one subcommand per process
   role, driven by run.py.

   {v
   probe ready
   probe gen-tree  --n N --seed S --out FILE
   probe certify   --file F --scheme NAME --trace-out PATH|""
   probe server    --telemetry 0|1 --trace-out PATH|""
   probe client    --ops FILE --seconds T --trace-out PATH|""
                   --wrong-reference 0|1
   probe simulate  --file F --scheme NAME --plan SPEC --rounds R --seed S
                   --setups K --min-ops M --seconds T --trace-out PATH|""
                   --wrong-reference 0|1
   v}

   Each prints its results as lines "RESULT <json>".  A failed output
   check of the program under test (Common.Wrong) is reported as a
   result with a "wrong" field, so run.py counts it as a failed op. *)

let () =
  let mode, opts =
    match Array.to_list Sys.argv with
    | _ :: mode :: rest -> (mode, rest)
    | _ -> failwith "usage: probe MODE [--key value]..."
  in
  let rec pairs = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        (String.sub k 2 (String.length k - 2), v) :: pairs rest
    | [] -> []
    | x :: _ -> failwith ("bad argument " ^ x)
  in
  let opts = pairs opts in
  let get k =
    match List.assoc_opt k opts with Some v -> v | None -> failwith ("missing --" ^ k)
  in
  let int k = int_of_string (get k) in
  let flag k = int k <> 0 in
  try
    match mode with
    | "ready" ->
        Common.emit
          [
            ("ready_ns", Common.int (Common.now ()));
            ("recommended_domain_count", Common.int (Domain.recommended_domain_count ()));
            ("ocaml_version", Common.str Sys.ocaml_version);
          ]
    | "gen-tree" ->
        Inputs.tree ~n:(int "n") ~seed:(int "seed") ~out:(get "out");
        Common.emit [ ("n", Common.int (int "n")) ]
    | "certify" ->
        Certify.run ~file:(get "file") ~scheme_name:(get "scheme")
          ~trace_out:(get "trace-out")
    | "server" -> Bench_server.run ~telemetry:(flag "telemetry") ~trace_out:(get "trace-out")
    | "client" ->
        Bench_client.run ~ops_file:(get "ops")
          ~seconds:(float_of_string (get "seconds"))
          ~trace_out:(get "trace-out") ~wrong_reference:(flag "wrong-reference")
    | "simulate" ->
        Simulate.run ~file:(get "file") ~scheme_name:(get "scheme") ~plan:(get "plan")
          ~rounds:(int "rounds") ~seed:(int "seed") ~setups:(int "setups")
          ~min_ops:(int "min-ops")
          ~seconds:(float_of_string (get "seconds"))
          ~trace_out:(get "trace-out") ~wrong_reference:(flag "wrong-reference")
    | m -> failwith ("unknown mode " ^ m)
  with Common.Wrong msg -> Common.emit [ ("wrong", Common.str msg) ]
