(* The load generator for serve-hot: one thread, one connection, in a
   process of its own.  It reads its op list from a file written by
   run.py:

   {v
   requests R
   SCHEME GRAPH FLIP_V FLIP_B      (R lines; FLIP_V = -1 means no flip)
   ops K
   REQUEST_INDEX                   (K lines)
   v}

   and then takes commands on stdin, answering each with one RESULT
   line:

   {v
   warm PORT   connect to a fresh server and send every distinct request
               once, one at a time (the end of set-up)
   run         the measured phase, on the connection of the last warm
   ping K      K pings, one at a time (the wire and IO floor)
   stats       the server's STATS text
   quit
   v}

   Every answer is checked against a reference computed in this
   process by [Handlers.handle] before the first command. *)

open Localcert_obs
open Localcert_engine
open Localcert_serve

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
  out : Buffer.t;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Server.resolve_addr ~host:"127.0.0.1" ~port);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Bytes.create 65536; start = 0; len = 0; out = Buffer.create 4096 }

let flush c =
  let s = Buffer.contents c.out in
  Buffer.clear c.out;
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* Read what the socket has and hand every complete frame to [on_frame]. *)
let read_frames c on_frame =
  if c.start + c.len = Bytes.length c.buf then begin
    let nb = Bytes.create (max (Bytes.length c.buf) (2 * c.len + 65536)) in
    Bytes.blit c.buf c.start nb 0 c.len;
    c.buf <- nb;
    c.start <- 0
  end;
  let off = c.start + c.len in
  match Unix.read c.fd c.buf off (Bytes.length c.buf - off) with
  | 0 -> failwith "the server closed the connection"
  | k ->
      c.len <- c.len + k;
      let more = ref true in
      while !more do
        match Wire.decode c.buf ~pos:c.start ~len:(c.start + c.len) with
        | Wire.Frame (f, used) ->
            c.start <- c.start + used;
            c.len <- c.len - used;
            on_frame f
        | Wire.Need _ -> more := false
        | Wire.Fail e -> failwith ("wire: " ^ Wire.error_to_string e)
      done;
      if c.len = 0 then c.start <- 0

let wait_readable c seconds =
  match Unix.select [ c.fd ] [] [] seconds with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

type ops = { requests : Protocol.request array; ops : int array }

let read_ops path =
  In_channel.with_open_text path @@ fun ic ->
  let line () = String.split_on_char ' ' (input_line ic) in
  let count tag =
    match line () with
    | [ t; k ] when t = tag -> int_of_string k
    | _ -> failwith ("op list: expected " ^ tag)
  in
  let requests =
    Array.init (count "requests") (fun _ ->
        match line () with
        | [ scheme; graph; v; b ] ->
            let flip = if v = "-1" then None else Some (int_of_string v, int_of_string b) in
            Protocol.Verify { scheme; graph; flip }
        | _ -> failwith "op list: bad request line")
  in
  let ops =
    Array.init (count "ops") (fun _ ->
        match line () with
        | [ r ] -> int_of_string r
        | _ -> failwith "op list: bad op line")
  in
  { requests; ops }

(* The cold path a server pays on the first request for a spec, run in
   this process with every layer timed (traced runs only). *)
let time_layers (req : Protocol.request) pool =
  match req with
  | Protocol.Verify { scheme; graph; flip = None } ->
      let open Localcert_core in
      let layer = Common.layer and s = Common.scheme_named scheme in
      let g =
        layer "graph.ingest" (fun () ->
            match Localcert_graph.Spec.parse graph with
            | Ok g -> g
            | Error e -> failwith e)
      in
      let inst = layer "core.instance" (fun () -> Instance.make g) in
      let certs = Option.get (layer "core.prove" (fun () -> s.Scheme.prover inst)) in
      let certs =
        layer "util.intern" (fun () -> Localcert_util.Cert_store.intern_all certs)
      in
      ignore (layer "engine.compile" (fun () -> Vcompile.compile s inst certs));
      ignore (layer "engine.check" (fun () -> Engine.run_par ~pool s inst certs))
  | _ -> ()

let classify reference = function
  | Ok r when r = reference -> "ok"
  | Ok Protocol.Retry_later -> "retry"
  | Ok (Protocol.Error _) | Error _ -> "error"
  | Ok _ -> "wrong"

(* One request, waited for. *)
let roundtrip ?trace ?(timeout = 30.0) c id req =
  Wire.encode_into c.out (Protocol.encode_request ?trace ~id req);
  flush c;
  let answer = ref None in
  while !answer = None do
    if wait_readable c timeout then
      read_frames c (fun f ->
          if f.Wire.id = id then answer := Some (Protocol.decode_response f))
    else failwith (Printf.sprintf "no answer within %g s" timeout)
  done;
  Option.get !answer

(* Every [sample_every]-th request of a traced phase carries a trace
   id, so its server-side slices join the client's in Perfetto. *)
let sample_every = 64

(* The measured phase: a closed loop with one request outstanding, each
   sent when the last is answered, for [seconds].  Per request: when it
   was sent (ms from the start), its round trip (µs) and its status
   against the reference. *)
let phase c ops refs ~seconds ~traced =
  let t_start = Common.now () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let sent = ref [] and rtt = ref [] and status = ref [] in
  let k = ref 0 in
  while Common.now () < deadline do
    let r = ops.ops.(!k mod Array.length ops.ops) in
    let id = !k + 1 in
    let trace = if traced && !k mod sample_every = 0 then Some id else None in
    let t0 = Common.now () in
    let answer = roundtrip ?trace ~timeout:5.0 c id ops.requests.(r) in
    let t1 = Common.now () in
    if trace <> None then Tracer.complete_slice ~trace:id ~t0_ns:t0 ~t1_ns:t1 "client.request";
    sent := (float_of_int (t0 - t_start) /. 1e6) :: !sent;
    rtt := (float_of_int (t1 - t0) /. 1e3) :: !rtt;
    status := classify refs.(r) answer :: !status;
    incr k
  done;
  let arr l = Array.of_list (List.rev l) in
  (arr !sent, arr !rtt, arr !status)

let floats a = Json.Arr (Array.to_list (Array.map Common.num a))

let run ~ops_file ~seconds ~trace_out ~wrong_reference =
  Shutdown.ignore_sigpipe ();
  let ops = read_ops ops_file in
  let traced = trace_out <> "" in
  Tracer.set_enabled traced;
  let refs, layers =
    Pool.with_pool ~jobs:1 @@ fun pool ->
    (* layers first, while this process's certificate store is as cold
       as a fresh server's *)
    if traced then Array.iter (fun r -> time_layers r pool) ops.requests;
    let layers = Common.take_totals () in
    let h = Handlers.create ~pool () in
    (Array.map (Handlers.handle h) ops.requests, layers)
  in
  if wrong_reference then
    refs.(0) <-
      (match refs.(0) with
      | Protocol.Verdict v -> Protocol.Verdict { v with accepted = not v.accepted }
      | r -> r);
  let cert_bits =
    Array.fold_left
      (fun m -> function Protocol.Verdict v -> max m v.max_bits | _ -> m)
      0 refs
  in
  Common.emit
    [
      ("requests", Common.int (Array.length refs));
      ("cert_bits", Common.int cert_bits);
      ("layers", layers);
    ];
  let conn = ref None in
  let current () = Option.get !conn in
  let next_id = ref (1 lsl 40) in
  let fresh () = incr next_id; !next_id in
  let close () =
    Option.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conn;
    conn := None
  in
  let rec loop () =
    match String.split_on_char ' ' (input_line stdin) with
    | exception End_of_file -> ()
    | [ "quit" ] -> ()
    | cmd ->
        (match cmd with
        | [ "warm"; port ] ->
            close ();
            let t0 = Common.now () in
            let c = connect (int_of_string port) in
            conn := Some c;
            let st =
              Array.mapi (fun i req -> classify refs.(i) (roundtrip c (fresh ()) req)) ops.requests
            in
            Common.emit
              [
                ("warm_s", Common.num (float_of_int (Common.now () - t0) /. 1e9));
                ( "failed",
                  Common.int (Array.fold_left (fun n s -> if s = "ok" then n else n + 1) 0 st) );
              ]
        | [ "run" ] ->
            let sent, rtt, status = phase (current ()) ops refs ~seconds ~traced in
            Common.emit
              [
                ("sent_ms", floats sent);
                ("rtt_us", floats rtt);
                ("status", Json.Arr (Array.to_list (Array.map Common.str status)));
              ]
        | [ "ping"; k ] ->
            let c = current () in
            let rtt =
              Array.init (int_of_string k) (fun _ ->
                  let t0 = Common.now () in
                  (match roundtrip c (fresh ()) Protocol.Ping with
                  | Ok Protocol.Pong -> ()
                  | _ -> failwith "PING was not answered with PONG");
                  float_of_int (Common.now () - t0) /. 1e3)
            in
            Common.emit [ ("rtt_us", floats rtt) ]
        | [ "stats" ] -> (
            match roundtrip (current ()) (fresh ()) Protocol.Stats with
            | Ok (Protocol.Stats_text s) -> Common.emit [ ("text", Common.str s) ]
            | _ -> failwith "STATS was not answered with its text")
        | _ -> failwith ("unknown command " ^ String.concat " " cmd));
        loop ()
  in
  Fun.protect ~finally:close loop;
  if traced then Tracer.write_file ~process_name:"e2ebench-client" trace_out
