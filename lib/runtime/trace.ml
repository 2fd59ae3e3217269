type event =
  | Crash of { vertex : int }
  | Went_byzantine of { vertex : int }
  | Corrupt of { vertex : int }
  | Send of { src : int; dst : int; bits : int }
  | Drop of { src : int; dst : int }
  | Flip of { src : int; dst : int; bit : int }
  | Forge of { src : int; dst : int; bits : int }
  | Edge_added of { u : int; v : int }
  | Edge_removed of { u : int; v : int }
  | Recover of { vertex : int }
  | Verdict of { vertex : int; accepted : bool; reason : string }

type round_log = {
  round : int;
  events : event list;
  wire_bits : int;
  rejections : (int * string) list;
  verdicts_rendered : int;
}

type t = {
  scheme : string;
  n : int;
  seed : int;
  plan : string;
  rounds : round_log list;
}

type metrics = {
  rounds : int;
  detected_at : int option;
  first_corruption : int option;
  messages_sent : int;
  messages_dropped : int;
  messages_flipped : int;
  messages_forged : int;
  certs_corrupted : int;
  crashed : int;
  byzantine : int;
  wire_bits : int;
  rejecting_verdicts : int;
  edges_added : int;
  edges_removed : int;
  certs_recovered : int;
  last_fault : int option;
}

let is_fault = function
  | Corrupt _ | Drop _ | Flip _ | Forge _ | Crash _ | Went_byzantine _
  | Edge_added _ | Edge_removed _ ->
      true
  | Send _ | Verdict _ | Recover _ -> false

(* Which radius-1 views a fault event can change — the soundness basis
   of the runtime's incremental dirty set (DESIGN §5.4).  Vertex-state
   faults change the vertex's own view and (through its broadcast or
   silence) every neighbor's inbox; wire faults change exactly the
   receiving inbox; honest sends and verdicts change no view at all. *)
type scope =
  | Self_and_neighbors of int
  | Inbox of int
  | Endpoints of int * int
  | Pure

let scope = function
  | Crash { vertex } | Went_byzantine { vertex } | Corrupt { vertex }
  | Recover { vertex } ->
      Self_and_neighbors vertex
  | Drop { dst; _ } | Flip { dst; _ } | Forge { dst; _ } -> Inbox dst
  | Edge_added { u; v } | Edge_removed { u; v } -> Endpoints (u, v)
  | Send _ | Verdict _ -> Pure

(* Transient faults perturb one round's messages and revert on their
   own in the next round (the dropped or flipped message is re-sent
   honestly, the Byzantine sender forges afresh), so the views they
   touched change again one round later {e without} any fault event
   marking the reversion.  Persistent faults (crash, Byzantine status,
   stored-certificate corruption) move the state once and then
   re-broadcast it unchanged. *)
let is_transient = function
  | Drop _ | Flip _ | Forge _ -> true
  | Crash _ | Went_byzantine _ | Corrupt _ | Edge_added _ | Edge_removed _
  | Recover _ | Send _ | Verdict _ ->
      false

let metrics (t : t) =
  let m =
    ref
      {
        rounds = List.length t.rounds;
        detected_at = None;
        first_corruption = None;
        messages_sent = 0;
        messages_dropped = 0;
        messages_flipped = 0;
        messages_forged = 0;
        certs_corrupted = 0;
        crashed = 0;
        byzantine = 0;
        wire_bits = 0;
        rejecting_verdicts = 0;
        edges_added = 0;
        edges_removed = 0;
        certs_recovered = 0;
        last_fault = None;
      }
  in
  List.iter
    (fun r ->
      let acc = !m in
      let acc =
        if r.rejections <> [] && acc.detected_at = None then
          { acc with detected_at = Some r.round }
        else acc
      in
      let acc =
        if List.exists is_fault r.events then
          {
            acc with
            first_corruption =
              (if acc.first_corruption = None then Some r.round
               else acc.first_corruption);
            last_fault = Some r.round;
          }
        else acc
      in
      m :=
        List.fold_left
          (fun acc e ->
            match e with
            | Send _ -> { acc with messages_sent = acc.messages_sent + 1 }
            | Drop _ -> { acc with messages_dropped = acc.messages_dropped + 1 }
            | Flip _ ->
                (* a flipped message is still delivered: count both *)
                {
                  acc with
                  messages_flipped = acc.messages_flipped + 1;
                }
            | Forge _ -> { acc with messages_forged = acc.messages_forged + 1 }
            | Corrupt _ ->
                { acc with certs_corrupted = acc.certs_corrupted + 1 }
            | Crash _ -> { acc with crashed = acc.crashed + 1 }
            | Went_byzantine _ -> { acc with byzantine = acc.byzantine + 1 }
            | Edge_added _ -> { acc with edges_added = acc.edges_added + 1 }
            | Edge_removed _ ->
                { acc with edges_removed = acc.edges_removed + 1 }
            | Recover _ ->
                { acc with certs_recovered = acc.certs_recovered + 1 }
            | Verdict { accepted = false; _ } ->
                { acc with rejecting_verdicts = acc.rejecting_verdicts + 1 }
            | Verdict _ -> acc)
          { acc with wire_bits = acc.wire_bits + r.wire_bits }
          r.events)
    t.rounds;
  !m

(* Rounds from first fault to first rejection, inclusive.  [None] when
   nothing was detected, nothing was corrupted, or the first rejection
   {e precedes} the first fault (e.g. certificates that were invalid
   from round 1 while the fault plan only fired later) — a
   "detection latency" of zero or less is not a latency.  Callers used
   to compute [d - c + 1] inline and could produce those non-positive
   values on such traces; aggregating here keeps the edge cases in one
   place.  On a zero-round trace both options are [None], so this is
   total. *)
let detection_latency (m : metrics) =
  match (m.detected_at, m.first_corruption) with
  | Some d, Some c when d >= c -> Some (d - c + 1)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_json b = function
  | Crash { vertex } ->
      Printf.bprintf b {|{"type":"crash","vertex":%d}|} vertex
  | Went_byzantine { vertex } ->
      Printf.bprintf b {|{"type":"byzantine","vertex":%d}|} vertex
  | Corrupt { vertex } ->
      Printf.bprintf b {|{"type":"corrupt","vertex":%d}|} vertex
  | Send { src; dst; bits } ->
      Printf.bprintf b {|{"type":"send","src":%d,"dst":%d,"bits":%d}|} src dst
        bits
  | Drop { src; dst } ->
      Printf.bprintf b {|{"type":"drop","src":%d,"dst":%d}|} src dst
  | Flip { src; dst; bit } ->
      Printf.bprintf b {|{"type":"flip","src":%d,"dst":%d,"bit":%d}|} src dst
        bit
  | Forge { src; dst; bits } ->
      Printf.bprintf b {|{"type":"forge","src":%d,"dst":%d,"bits":%d}|} src
        dst bits
  | Edge_added { u; v } ->
      Printf.bprintf b {|{"type":"edge_add","u":%d,"v":%d}|} u v
  | Edge_removed { u; v } ->
      Printf.bprintf b {|{"type":"edge_del","u":%d,"v":%d}|} u v
  | Recover { vertex } ->
      Printf.bprintf b {|{"type":"recover","vertex":%d}|} vertex
  | Verdict { vertex; accepted; reason } ->
      Printf.bprintf b {|{"type":"verdict","vertex":%d,"accepted":%b|} vertex
        accepted;
      if not accepted then begin
        Buffer.add_string b {|,"reason":"|};
        Buffer.add_string b (Json.escape reason);
        Buffer.add_char b '"'
      end;
      Buffer.add_char b '}'

let sep_iter b f = function
  | [] -> ()
  | x :: rest ->
      f b x;
      List.iter
        (fun x ->
          Buffer.add_char b ',';
          f b x)
        rest

let round_json b r =
  Printf.bprintf b {|{"round":%d,"wire_bits":%d,"verdicts_rendered":%d,"rejections":[|}
    r.round r.wire_bits r.verdicts_rendered;
  sep_iter b
    (fun b (v, reason) ->
      Printf.bprintf b {|{"vertex":%d,"reason":"|} v;
      Buffer.add_string b (Json.escape reason);
      Buffer.add_string b {|"}|})
    r.rejections;
  Buffer.add_string b {|],"events":[|};
  sep_iter b event_json r.events;
  Buffer.add_string b "]}"

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b {|{"scheme":"|};
  Buffer.add_string b (Json.escape t.scheme);
  Printf.bprintf b {|","n":%d,"seed":%d,"plan":"|} t.n t.seed;
  Buffer.add_string b (Json.escape t.plan);
  Buffer.add_string b {|","rounds":[|};
  sep_iter b round_json t.rounds;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Human-readable summary                                              *)
(* ------------------------------------------------------------------ *)

let pp_summary ppf t =
  Format.fprintf ppf "scheme %s, n=%d, seed=%d, plan=%s@." t.scheme t.n t.seed
    t.plan;
  List.iter
    (fun r ->
      let count f = List.length (List.filter f r.events) in
      let edge_edits =
        count (function Edge_added _ | Edge_removed _ -> true | _ -> false)
      in
      let recovered = count (function Recover _ -> true | _ -> false) in
      Format.fprintf ppf
        "round %2d: %4d sent (%d bits), %d dropped, %d flipped, %d forged, %d \
         corrupted, %d crashed; %d verdicts, %d rejecting"
        r.round
        (count (function Send _ -> true | _ -> false))
        r.wire_bits
        (count (function Drop _ -> true | _ -> false))
        (count (function Flip _ -> true | _ -> false))
        (count (function Forge _ -> true | _ -> false))
        (count (function Corrupt _ -> true | _ -> false))
        (count (function Crash _ -> true | _ -> false))
        r.verdicts_rendered
        (List.length r.rejections);
      if edge_edits > 0 then
        Format.fprintf ppf "; %d edge edit%s" edge_edits
          (if edge_edits = 1 then "" else "s");
      if recovered > 0 then Format.fprintf ppf "; %d recovered" recovered;
      Format.fprintf ppf "@.")
    t.rounds;
  let m = metrics t in
  (match (m.detected_at, m.first_corruption) with
  | Some d, Some c -> (
      match detection_latency m with
      | Some l ->
          Format.fprintf ppf
            "detection: first rejection in round %d (first fault in round %d, \
             latency %d round%s)@."
            d c l
            (if l = 1 then "" else "s")
      | None ->
          Format.fprintf ppf
            "detection: first rejection in round %d, before the first fault \
             (round %d)@."
            d c)
  | Some d, None ->
      Format.fprintf ppf "detection: first rejection in round %d@." d
  | None, Some c ->
      Format.fprintf ppf
        "detection: none (first fault in round %d went undetected)@." c
  | None, None -> Format.fprintf ppf "detection: nothing to detect@.");
  Format.fprintf ppf
    "totals: %d rounds, %d bits on the wire, %d corrupted certs, %d crashed, \
     %d byzantine, %d edges added, %d edges removed, %d recovered certs, %d \
     rejecting verdicts@."
    m.rounds m.wire_bits m.certs_corrupted m.crashed m.byzantine m.edges_added
    m.edges_removed m.certs_recovered m.rejecting_verdicts
