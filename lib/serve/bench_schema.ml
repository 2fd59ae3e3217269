type run = {
  label : string;
  opcode : string;
  scheme : string;
  graph : string;
  connections : int;
  window : int;
  rate : int option;
  sent : int;
  ok : int;
  retry_later : int;
  errors : int;
  duration_s : float;
  throughput_rps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
}

type doc = { smoke : bool; workers : int; runs : run list }

(* ------------------------------------------------------------------ *)
(* Rendering and strict decoding, both on the shared Obs.Json codec.  *)

let run_json (r : run) =
  Json.Obj
    ([
       ("label", Json.Str r.label);
       ("opcode", Str r.opcode);
       ("scheme", Str r.scheme);
       ("graph", Str r.graph);
       ("connections", Json.int r.connections);
       ("window", Json.int r.window);
     ]
    @ (match r.rate with None -> [] | Some rate -> [ ("rate", Json.int rate) ])
    @ [
        ("sent", Json.int r.sent);
        ("ok", Json.int r.ok);
        ("retry_later", Json.int r.retry_later);
        ("errors", Json.int r.errors);
        ("duration_s", Num r.duration_s);
        ("throughput_rps", Num r.throughput_rps);
        ("p50_us", Num r.p50_us);
        ("p99_us", Num r.p99_us);
        ("p999_us", Num r.p999_us);
        ("max_us", Num r.max_us);
      ])

let render (d : doc) =
  Json.pretty
    (Obj
       [
         ("smoke", Bool d.smoke);
         ("workers", Json.int d.workers);
         ("runs", Arr (List.map run_json d.runs));
       ])

let decode_run j =
  let o =
    Json.as_obj "run"
      [
        "label"; "opcode"; "scheme"; "graph"; "connections"; "window"; "rate";
        "sent"; "ok"; "retry_later"; "errors"; "duration_s"; "throughput_rps";
        "p50_us"; "p99_us"; "p999_us"; "max_us";
      ]
      j
  in
  let label = Json.get Json.as_name o "label" in
  let ctx msg = Printf.sprintf "run %s: %s" label msg in
  let connections = Json.get Json.as_nonneg_int o "connections" in
  if connections < 1 then Json.fail (ctx "connections must be positive");
  let window = Json.get Json.as_nonneg_int o "window" in
  if window < 1 then Json.fail (ctx "window must be positive");
  let r =
    {
      label;
      opcode = Json.get Json.as_name o "opcode";
      scheme = Json.get Json.as_name o "scheme";
      graph = Json.get Json.as_name o "graph";
      connections;
      window;
      rate = Json.get_opt Json.as_nonneg_int o "rate";
      sent = Json.get Json.as_nonneg_int o "sent";
      ok = Json.get Json.as_nonneg_int o "ok";
      retry_later = Json.get Json.as_nonneg_int o "retry_later";
      errors = Json.get Json.as_nonneg_int o "errors";
      duration_s = Json.get Json.as_nonneg o "duration_s";
      throughput_rps = Json.get Json.as_nonneg o "throughput_rps";
      p50_us = Json.get Json.as_nonneg o "p50_us";
      p99_us = Json.get Json.as_nonneg o "p99_us";
      p999_us = Json.get Json.as_nonneg o "p999_us";
      max_us = Json.get Json.as_nonneg o "max_us";
    }
  in
  (* every request the loadgen sends is answered exactly once (typed
     overload included), so the outcome counts must tile [sent] *)
  if r.ok + r.retry_later + r.errors <> r.sent then
    Json.fail (ctx "ok + retry_later + errors must equal sent");
  (* percentile monotonicity: a latency distribution cannot invert *)
  if not (r.p50_us <= r.p99_us && r.p99_us <= r.p999_us && r.p999_us <= r.max_us)
  then Json.fail (ctx "percentiles not monotone (p50 <= p99 <= p999 <= max)");
  r

let decode_doc j =
  let o = Json.as_obj "document" [ "smoke"; "workers"; "runs" ] j in
  let smoke = Json.get Json.as_bool o "smoke" in
  let workers = Json.get Json.as_nonneg_int o "workers" in
  if workers < 1 then Json.fail "document: workers must be positive";
  let runs = List.map decode_run (Json.get Json.as_arr o "runs") in
  if runs = [] then Json.fail "document: no runs";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : run) ->
      if Hashtbl.mem seen r.label then
        Json.fail (Printf.sprintf "duplicate run label %S" r.label);
      Hashtbl.add seen r.label ())
    runs;
  { smoke; workers; runs }

let parse = Json.decode decode_doc
let parse_exn = Json.decode_exn "Bench_schema.parse_exn" decode_doc

let find_run (d : doc) label =
  List.find_opt (fun (r : run) -> r.label = label) d.runs
