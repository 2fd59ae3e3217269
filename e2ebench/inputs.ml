(* The benchmark's own input generator: a uniformly random recursive
   tree (vertex i hangs off a uniform earlier vertex) under a random
   relabelling, written as an edge list ["n m" then one "u v" per
   line].  It depends only on [seed] and [n], never on the library, so
   the program under test sees nothing but the generated file. *)

let tree ~n ~seed ~out =
  let st = Random.State.make [| seed; n; 0x7472 |] in
  let label = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = label.(i) in
    label.(i) <- label.(j);
    label.(j) <- t
  done;
  let b = Buffer.create (n * 16) in
  Printf.bprintf b "%d %d\n" n (max 0 (n - 1));
  for i = 1 to n - 1 do
    Printf.bprintf b "%d %d\n" label.(Random.State.int st i) label.(i)
  done;
  Out_channel.with_open_bin out (fun oc -> Buffer.output_buffer oc b)
