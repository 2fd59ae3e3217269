(* Readings shared by the probe's subcommands: the clock, peak RSS, GC
   counters, layer timing and the one result line each process prints. *)

open Localcert_obs

let now = Monotonic.now_ns
let ms ns = float_of_int ns /. 1e6

(* A key of /proc/self/status in KiB (VmHWM = peak RSS); 0 without /proc. *)
let status_kb key =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      let prefix = key ^ ":" in
      let n = String.length prefix in
      List.fold_left
        (fun acc line ->
          if String.length line > n && String.sub line 0 n = prefix then
            Scanf.sscanf (String.sub line n (String.length line - n)) " %d" Fun.id
          else acc)
        0
        (String.split_on_char '\n' text)

let peak_rss_mb () = float_of_int (status_kb "VmHWM") /. 1024.

let num f = Json.Num f
let int i = Json.Num (float_of_int i)
let bool b = Json.Bool b
let str s = Json.Str s

(* The last line a probe process prints: "RESULT <json>". *)
let emit fields =
  print_string ("RESULT " ^ Json.render (Json.Obj fields) ^ "\n");
  flush stdout

(* A failed output check of the program under test, as opposed to a
   fault of the benchmark: reported in the result, never raised past
   the subcommand. *)
exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* Layer timing.  [layer name f] runs [f] as a Tracer slice named
   [name] (a no-op unless the tracer is on) and adds its wall time to
   the layer's total; layers never nest, so the totals partition the
   time they cover. *)
let totals : (string, int) Hashtbl.t = Hashtbl.create 16

let layer name f =
  Tracer.begin_slice name;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = now () - t0 in
      Tracer.end_slice name;
      Hashtbl.replace totals name
        (dt + Option.value ~default:0 (Hashtbl.find_opt totals name)))
    f

let take_totals () =
  let l = Hashtbl.fold (fun k v acc -> (k, num (ms v)) :: acc) totals [] in
  Hashtbl.reset totals;
  Json.Obj (List.sort compare l)

(* GC work of a thunk: minor words allocated and major collections. *)
let gc_of f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.major_collections - s0.Gc.major_collections )

let scheme_named name =
  match Localcert_core.Registry.find name with
  | Some e -> e.Localcert_core.Registry.scheme
  | None -> failwith ("unknown scheme " ^ name)

let ingest path =
  match Localcert_graph.Io.of_edge_list_file path with
  | Ok g -> g
  | Error e -> failwith ("ingest " ^ path ^ ": " ^ e)

(* Tracing for the traced run: recorded through the library's own
   Tracer, so the file opens in Perfetto beside the program's traces. *)
let with_trace ~process path f =
  match path with
  | "" -> f ()
  | path ->
      Tracer.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Tracer.write_file ~process_name:process path;
          Tracer.set_enabled false)
        f
