type histogram = {
  name : string;
  bounds : int list;
  counts : int list;
  sum : int;
}

type timing = { name : string; count : int; total_ms : float; max_ms : float }

type t = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : histogram list;
  approx_counters : (string * int) list;
  approx_gauges : (string * int) list;
  approx_histograms : histogram list;
  timings : timing list;
}

(* ------------------------------------------------------------------ *)
(* Snapshot assembly                                                   *)

let split_approx entries =
  let det, approx =
    List.partition (fun (_, approx, _) -> not approx) entries
  in
  ( List.map (fun (n, _, v) -> (n, v)) det,
    List.map (fun (n, _, v) -> (n, v)) approx )

(* Merge and dedupe by name (keep the first): samplers could in
   principle collide with a registered gauge name, and the strict
   renderer requires strictly ascending names. *)
let dedupe_sorted l =
  let rec go = function
    | (a, _) :: ((b, _) :: _ as rest) when String.equal a b -> go rest
    | x :: rest -> x :: go rest
    | [] -> []
  in
  go (List.sort compare l)

let snapshot () =
  let counters, approx_counters = split_approx (Metrics.counters ()) in
  let gauges, approx_gauges = split_approx (Metrics.gauges ()) in
  let approx_gauges = dedupe_sorted (approx_gauges @ Metrics.sampled ()) in
  let all_histograms = Metrics.histograms () in
  let convert (h : Metrics.histogram_snapshot) =
    {
      name = h.Metrics.hname;
      bounds = Array.to_list h.Metrics.bounds;
      counts = Array.to_list h.Metrics.counts;
      sum = h.Metrics.sum;
    }
  in
  let histograms =
    List.filter_map
      (fun (h : Metrics.histogram_snapshot) ->
        if h.Metrics.happrox then None else Some (convert h))
      all_histograms
  in
  let approx_histograms =
    List.filter_map
      (fun (h : Metrics.histogram_snapshot) ->
        if h.Metrics.happrox then Some (convert h) else None)
      all_histograms
  in
  let timings =
    List.map
      (fun (s : Span.snapshot) ->
        {
          name = s.Span.path;
          count = s.Span.count;
          total_ms = s.Span.total_ms;
          max_ms = s.Span.max_ms;
        })
      (Span.snapshot ())
  in
  {
    counters;
    gauges;
    histograms;
    approx_counters;
    approx_gauges;
    approx_histograms;
    timings;
  }

let reset () =
  Metrics.reset ();
  Span.reset ()

(* ------------------------------------------------------------------ *)
(* Rendering and strict decoding, both on the shared Json codec.      *)

let ints l = Json.Arr (List.map Json.int l)

let entries_json entries =
  Json.Arr
    (List.map
       (fun (name, v) -> Json.Obj [ ("name", Str name); ("value", Json.int v) ])
       entries)

let histograms_json hs =
  Json.Arr
    (List.map
       (fun (h : histogram) ->
         Json.Obj
           [
             ("name", Str h.name);
             ("bounds", ints h.bounds);
             ("counts", ints h.counts);
             ("sum", Json.int h.sum);
           ])
       hs)

let timings_json ts =
  Json.Arr
    (List.map
       (fun tm ->
         Json.Obj
           [
             ("name", Str tm.name);
             ("count", Json.int tm.count);
             ("total_ms", Num tm.total_ms);
             ("max_ms", Num tm.max_ms);
           ])
       ts)

let render t =
  Json.pretty
    (Obj
       [
         ("version", Json.int 1);
         ("counters", entries_json t.counters);
         ("gauges", entries_json t.gauges);
         ("histograms", histograms_json t.histograms);
         ( "approx",
           Obj
             [
               ("counters", entries_json t.approx_counters);
               ("gauges", entries_json t.approx_gauges);
               ("histograms", histograms_json t.approx_histograms);
               ("timings", timings_json t.timings);
             ] );
       ])

let check_sorted ctx names =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a >= b then
          Json.fail
            (Printf.sprintf "%s: names not strictly ascending (%S, %S)" ctx a b);
        go rest
    | _ -> ()
  in
  go names

let decode_entries ctx j =
  let entries =
    List.map
      (fun e ->
        let o = Json.as_obj ctx [ "name"; "value" ] e in
        ( Json.as_name ctx (Json.field o "name"),
          Json.as_int ctx (Json.field o "value") ))
      (Json.as_arr ctx j)
  in
  check_sorted ctx (List.map fst entries);
  entries

let decode_counter_entries ctx j =
  let entries = decode_entries ctx j in
  List.iter
    (fun (n, v) ->
      if v < 0 then Json.fail (Printf.sprintf "%s: %S negative" ctx n))
    entries;
  entries

let decode_histogram j =
  let o = Json.as_obj "histogram" [ "name"; "bounds"; "counts"; "sum" ] j in
  let name = Json.as_name "histogram" (Json.field o "name") in
  let bounds = List.map (Json.as_int "bound") (Json.get Json.as_arr o "bounds") in
  let counts =
    List.map (Json.as_nonneg_int "count") (Json.get Json.as_arr o "counts")
  in
  if bounds = [] then Json.fail ("histogram " ^ name ^ ": no bounds");
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  if not (ascending bounds) then
    Json.fail ("histogram " ^ name ^ ": bounds not strictly ascending");
  if List.length counts <> List.length bounds + 1 then
    Json.fail ("histogram " ^ name ^ ": counts must be bounds + overflow");
  { name; bounds; counts; sum = Json.get Json.as_int o "sum" }

let decode_histograms ctx j =
  let hs = List.map decode_histogram (Json.as_arr ctx j) in
  check_sorted ctx (List.map (fun (h : histogram) -> h.name) hs);
  hs

let decode_timing j =
  let o = Json.as_obj "timing" [ "name"; "count"; "total_ms"; "max_ms" ] j in
  {
    name = Json.as_name "timing" (Json.field o "name");
    count = Json.get Json.as_nonneg_int o "count";
    total_ms = Json.get Json.as_nonneg o "total_ms";
    max_ms = Json.get Json.as_nonneg o "max_ms";
  }

let decode_doc j =
  let o =
    Json.as_obj "snapshot"
      [ "version"; "counters"; "gauges"; "histograms"; "approx" ]
      j
  in
  (match Json.get Json.as_int o "version" with
  | 1 -> ()
  | v -> Json.fail (Printf.sprintf "unsupported snapshot version %d" v));
  let histograms = decode_histograms "histograms" (Json.field o "histograms") in
  let a =
    Json.as_obj "approx"
      [ "counters"; "gauges"; "histograms"; "timings" ]
      (Json.field o "approx")
  in
  let approx_histograms =
    decode_histograms "approx histograms" (Json.field a "histograms")
  in
  let timings = List.map decode_timing (Json.get Json.as_arr a "timings") in
  check_sorted "timings" (List.map (fun t -> t.name) timings);
  {
    counters = decode_counter_entries "counters" (Json.field o "counters");
    gauges = decode_entries "gauges" (Json.field o "gauges");
    histograms;
    approx_counters =
      decode_counter_entries "approx counters" (Json.field a "counters");
    approx_gauges = decode_entries "approx gauges" (Json.field a "gauges");
    approx_histograms;
    timings;
  }

let parse = Json.decode decode_doc
let parse_exn = Json.decode_exn "Export.parse_exn" decode_doc

let deterministic_equal a b =
  a.counters = b.counters && a.gauges = b.gauges
  && a.histograms = b.histograms

(* ------------------------------------------------------------------ *)
(* Percentile estimation                                               *)

(* Linear interpolation inside fixed buckets: the rank q·N lands in
   some bucket [lo, hi]; assume observations are uniform within it and
   interpolate.  The overflow bucket has no upper limit, so a rank
   landing there clamps to the last bound — the estimate is then a
   lower bound, which is the honest direction for a tail percentile.
   With power-of-two default bounds the estimate is within 2x of the
   true value, good enough for the operator's "is p99 milliseconds or
   seconds?" question without scraping Prometheus. *)
let estimate_percentile (h : histogram) q =
  if q < 0. || q > 1. then
    invalid_arg "Export.estimate_percentile: q outside [0, 1]";
  let total = List.fold_left ( + ) 0 h.counts in
  if total = 0 then None
  else begin
    let rank = q *. float_of_int total in
    let bounds = Array.of_list h.bounds in
    let nb = Array.length bounds in
    let rec walk i cum = function
      | [] -> Some (float_of_int bounds.(nb - 1))
      | c :: rest ->
          let cum' = cum +. float_of_int c in
          if cum' >= rank && c > 0 then
            if i >= nb then Some (float_of_int bounds.(nb - 1))
            else begin
              let lo = if i = 0 then 0. else float_of_int bounds.(i - 1) in
              let hi = float_of_int bounds.(i) in
              let frac = (rank -. cum) /. float_of_int c in
              Some (lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. frac)))
            end
          else walk (i + 1) cum' rest
    in
    walk 0 0. h.counts
  end

type percentile_row = {
  pname : string;
  pcount : int;
  p50 : float option;
  p90 : float option;
  p99 : float option;
}

let rows_of_histograms hs =
  List.map
    (fun (h : histogram) ->
      {
        pname = h.name;
        pcount = List.fold_left ( + ) 0 h.counts;
        p50 = estimate_percentile h 0.5;
        p90 = estimate_percentile h 0.9;
        p99 = estimate_percentile h 0.99;
      })
    hs

let percentile_rows t = rows_of_histograms (t.histograms @ t.approx_histograms)

let render_rows rows =
  let b = Buffer.create 256 in
  let cell = function
    | None -> "-"
    | Some v ->
        if Float.is_integer v then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.1f" v
  in
  List.iter
    (fun r ->
      if r.pcount > 0 then
        Printf.bprintf b "%-40s count=%-8d p50=%-10s p90=%-10s p99=%s\n"
          r.pname r.pcount (cell r.p50) (cell r.p90) (cell r.p99))
    rows;
  Buffer.contents b

let render_percentiles t = render_rows (percentile_rows t)

(* Reconstruct histogram summaries from a Prometheus exposition — the
   only shape of STATS a server returns over the wire.  Cumulative
   [_bucket{le=...}] samples de-cumulate into per-bucket counts; the
   [+Inf] bucket becomes the overflow cell.  Lines that do not look
   like histogram samples are ignored, so this parses any exposition,
   not just our own — but names stay in their mangled prometheus form
   (the dotted originals are not recoverable). *)
let histograms_of_prometheus text =
  let tbl : (string, (int option * int) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let sums : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let label_value labels key =
    (* labels is the text between braces: le="1",approx="1" *)
    let marker = key ^ "=\"" in
    let mlen = String.length marker in
    let llen = String.length labels in
    let rec find i =
      if i + mlen > llen then None
      else if String.sub labels i mlen = marker then
        match String.index_from_opt labels (i + mlen) '"' with
        | Some j -> Some (String.sub labels (i + mlen) (j - i - mlen))
        | None -> None
      else find (i + 1)
    in
    find 0
  in
  let strip_suffix suffix s =
    let sl = String.length suffix and l = String.length s in
    if l > sl && String.sub s (l - sl) sl = suffix then
      Some (String.sub s 0 (l - sl))
    else None
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | None -> ()
           | Some sp -> (
               let key = String.sub line 0 sp in
               let value =
                 int_of_string_opt
                   (String.sub line (sp + 1) (String.length line - sp - 1))
               in
               let name, labels =
                 match String.index_opt key '{' with
                 | Some i when key.[String.length key - 1] = '}' ->
                     ( String.sub key 0 i,
                       String.sub key (i + 1) (String.length key - i - 2) )
                 | _ -> (key, "")
               in
               match value with
               | None -> ()
               | Some v -> (
                   match strip_suffix "_bucket" name with
                   | Some base -> (
                       match label_value labels "le" with
                       | None -> ()
                       | Some le ->
                           let bound =
                             if le = "+Inf" then None else int_of_string_opt le
                           in
                           if le = "+Inf" || bound <> None then begin
                             let cells =
                               match Hashtbl.find_opt tbl base with
                               | Some r -> r
                               | None ->
                                   let r = ref [] in
                                   Hashtbl.add tbl base r;
                                   order := base :: !order;
                                   r
                             in
                             cells := (bound, v) :: !cells
                           end)
                   | None -> (
                       match strip_suffix "_sum" name with
                       | Some base -> Hashtbl.replace sums base v
                       | None -> ()))))
  |> ignore;
  List.rev !order
  |> List.filter_map (fun base ->
         let cells = List.rev !(Hashtbl.find tbl base) in
         (* de-cumulate in sample order; a malformed (non-monotone)
            series is dropped rather than reported as negative counts *)
         let counts, _ =
           List.fold_left
             (fun (acc, prev) (_, cum) -> ((cum - prev) :: acc, cum))
             ([], 0) cells
         in
         let counts = List.rev counts in
         if List.exists (fun c -> c < 0) counts then None
         else
           let bounds = List.filter_map fst cells in
           let sum =
             match Hashtbl.find_opt sums base with Some s -> s | None -> 0
           in
           Some { name = base; bounds; counts; sum })

let render_percentiles_of_prometheus text =
  render_rows (rows_of_histograms (histograms_of_prometheus text))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let prom_name name =
  "localcert_"
  ^ String.map
      (fun c ->
        match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let prom_entry b kind ?(labels = "") name v =
  let m = prom_name name in
  Printf.bprintf b "# TYPE %s %s\n%s%s %d\n" m kind m labels v

(* One histogram block.  [extra] is an optional label rendered inside
   every sample's label set (`le` joins it on buckets): the exact and
   approx sections used to duplicate this loop verbatim, differing only
   in that label. *)
let prom_histogram b ?extra (h : histogram) =
  let m = prom_name h.name in
  let plain, with_le =
    match extra with
    | None -> ("", fun le -> Printf.sprintf "{le=\"%s\"}" le)
    | Some l ->
        (Printf.sprintf "{%s}" l, fun le -> Printf.sprintf "{le=\"%s\",%s}" le l)
  in
  Printf.bprintf b "# TYPE %s histogram\n" m;
  let cumulative = ref 0 in
  List.iteri
    (fun i c ->
      cumulative := !cumulative + c;
      let le =
        match List.nth_opt h.bounds i with
        | Some bound -> string_of_int bound
        | None -> "+Inf"
      in
      Printf.bprintf b "%s_bucket%s %d\n" m (with_le le) !cumulative)
    h.counts;
  Printf.bprintf b "%s_sum%s %d\n%s_count%s %d\n" m plain h.sum m plain
    !cumulative

let to_prometheus t =
  let b = Buffer.create 2048 in
  List.iter (fun (n, v) -> prom_entry b "counter" n v) t.counters;
  List.iter (fun (n, v) -> prom_entry b "gauge" n v) t.gauges;
  List.iter (prom_histogram b) t.histograms;
  List.iter
    (fun (n, v) -> prom_entry b "counter" ~labels:"{approx=\"1\"}" n v)
    t.approx_counters;
  List.iter
    (fun (n, v) -> prom_entry b "gauge" ~labels:"{approx=\"1\"}" n v)
    t.approx_gauges;
  List.iter (prom_histogram b ~extra:"approx=\"1\"") t.approx_histograms;
  List.iter
    (fun tm ->
      let m = prom_name tm.name in
      Printf.bprintf b "# TYPE %s_ms summary\n" m;
      Printf.bprintf b "%s_ms_count{approx=\"1\"} %d\n" m tm.count;
      Printf.bprintf b "%s_ms_sum{approx=\"1\"} %s\n" m (Json.num tm.total_ms);
      Printf.bprintf b "%s_ms_max{approx=\"1\"} %s\n" m (Json.num tm.max_ms))
    t.timings;
  Buffer.contents b

let write_file path t =
  let oc = open_out path in
  output_string oc (render t);
  close_out oc
