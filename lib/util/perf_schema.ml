type jrow = { jobs : int; verify_ms : float; verts_per_sec : float }

type group = {
  n : int;
  prover_ms : float;
  minor_words : float;
  interned_ratio : float;
  memo_hit_ratio : float option;
  max_rss_mb : float option;
      (* v3: process peak RSS (VmHWM) in MiB observed by the time the
         group finished — a per-run high-water mark, so within one
         artifact later groups report values ≥ earlier ones.  Optional
         so v2 artifacts (and platforms without /proc) still parse. *)
  rows : jrow list;
}

type series = { scheme : string; groups : group list }
type doc = { smoke : bool; series : series list }

(* ------------------------------------------------------------------ *)
(* Rendering and strict decoding, both on the shared Obs.Json codec.  *)

let jrow_json (r : jrow) =
  Json.Obj
    [
      ("jobs", Json.int r.jobs);
      ("verify_ms", Num r.verify_ms);
      ("verts_per_sec", Num r.verts_per_sec);
    ]

let group_json (g : group) =
  let opt key = function None -> [] | Some v -> [ (key, Json.Num v) ] in
  Json.Obj
    ([
       ("n", Json.int g.n);
       ("prover_ms", Num g.prover_ms);
       ("minor_words", Num g.minor_words);
       ("interned_ratio", Num g.interned_ratio);
     ]
    @ opt "memo_hit_ratio" g.memo_hit_ratio
    @ opt "max_rss_mb" g.max_rss_mb
    @ [ ("rows", Arr (List.map jrow_json g.rows)) ])

let render d =
  Json.pretty
    (Obj
       [
         ("smoke", Bool d.smoke);
         ( "series",
           Arr
             (List.map
                (fun s ->
                  Json.Obj
                    [
                      ("scheme", Str s.scheme);
                      ("groups", Arr (List.map group_json s.groups));
                    ])
                d.series) );
       ])

let ratio ctx v =
  let f = Json.as_nonneg ctx v in
  if f > 1. then Json.fail (ctx ^ ": above 1");
  f

let decode_jrow j =
  let o = Json.as_obj "row" [ "jobs"; "verify_ms"; "verts_per_sec" ] j in
  let jobs = Json.get Json.as_int o "jobs" in
  if jobs <= 0 then Json.fail "row: jobs must be positive";
  {
    jobs;
    verify_ms = Json.get Json.as_nonneg o "verify_ms";
    verts_per_sec = Json.get Json.as_nonneg o "verts_per_sec";
  }

let decode_group j =
  let o =
    Json.as_obj "group"
      [ "n"; "prover_ms"; "minor_words"; "interned_ratio"; "memo_hit_ratio";
        "max_rss_mb"; "rows" ]
      j
  in
  let n = Json.get Json.as_int o "n" in
  if n <= 0 then Json.fail "group: n must be positive";
  let rows = List.map decode_jrow (Json.get Json.as_arr o "rows") in
  if rows = [] then Json.fail (Printf.sprintf "group n=%d: no rows" n);
  (* one measurement per job count: a duplicate would make the jobs
     ladder — and the monotone guard over it — ambiguous *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : jrow) ->
      if Hashtbl.mem seen r.jobs then
        Json.fail (Printf.sprintf "group n=%d: duplicate jobs=%d" n r.jobs);
      Hashtbl.add seen r.jobs ())
    rows;
  {
    n;
    prover_ms = Json.get Json.as_nonneg o "prover_ms";
    minor_words = Json.get Json.as_nonneg o "minor_words";
    interned_ratio = Json.get ratio o "interned_ratio";
    memo_hit_ratio = Json.get_opt ratio o "memo_hit_ratio";
    max_rss_mb = Json.get_opt Json.as_nonneg o "max_rss_mb";
    rows;
  }

let decode_series j =
  let o = Json.as_obj "series" [ "scheme"; "groups" ] j in
  let scheme = Json.get Json.as_name o "scheme" in
  let groups = List.map decode_group (Json.get Json.as_arr o "groups") in
  if groups = [] then Json.fail ("series " ^ scheme ^ ": no groups");
  { scheme; groups }

let decode_doc j =
  let o = Json.as_obj "document" [ "smoke"; "series" ] j in
  let smoke = Json.get Json.as_bool o "smoke" in
  let series = List.map decode_series (Json.get Json.as_arr o "series") in
  if series = [] then Json.fail "document: no series";
  { smoke; series }

let parse = Json.decode decode_doc
let parse_exn = Json.decode_exn "Perf_schema.parse_exn" decode_doc

(* ------------------------------------------------------------------ *)
(* Jobs-ladder monotonicity.  On this artifact "more jobs" must never
   cost wall-clock beyond the tolerance — the inverted ladder the
   compiled verifier path fixed (DESIGN §5.5) is exactly what this
   guard exists to catch.                                             *)

let jobs_monotone ?(tolerance = 0.15) (d : doc) =
  if tolerance < 0. then
    invalid_arg "Perf_schema.jobs_monotone: negative tolerance";
  let check_group scheme (g : group) acc =
    match acc with
    | Error _ -> acc
    | Ok () ->
        let rows =
          List.sort (fun (a : jrow) b -> compare a.jobs b.jobs) g.rows
        in
        let rec go = function
          | (a : jrow) :: (b :: _ as rest) ->
              if b.verify_ms > a.verify_ms *. (1. +. tolerance) then
                Error
                  (Printf.sprintf
                     "%s n=%d: verify_ms increases along the jobs ladder \
                      (jobs=%d: %.3fms -> jobs=%d: %.3fms, tolerance %.0f%%)"
                     scheme g.n a.jobs a.verify_ms b.jobs b.verify_ms
                     (100. *. tolerance))
              else go rest
          | _ -> Ok ()
        in
        go rows
  in
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc g -> check_group s.scheme g acc) acc s.groups)
    (Ok ()) d.series
