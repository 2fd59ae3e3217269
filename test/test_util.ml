(* Tests for the util library: bit strings, codecs, RNG, combinatorics. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bitstring_roundtrip () =
  let b = Bitstring.of_string "0110010111" in
  check_int "length" 10 (Bitstring.length b);
  Alcotest.(check string) "to_string" "0110010111" (Bitstring.to_string b);
  check "get 0" true (not (Bitstring.get b 0));
  check "get 1" true (Bitstring.get b 1);
  check "equal self" true (Bitstring.equal b b);
  let b' = Bitstring.flip b 0 in
  check "flip differs" true (not (Bitstring.equal b b'));
  check "flip twice restores" true (Bitstring.equal b (Bitstring.flip b' 0))

let bitstring_append_sub () =
  let a = Bitstring.of_string "101" and b = Bitstring.of_string "0011" in
  let ab = Bitstring.append a b in
  Alcotest.(check string) "append" "1010011" (Bitstring.to_string ab);
  Alcotest.(check string) "sub" "0011"
    (Bitstring.to_string (Bitstring.sub ab ~pos:3 ~len:4))

let bitstring_compare_hash () =
  let a = Bitstring.of_string "101" and b = Bitstring.of_string "101" in
  check_int "compare equal" 0 (Bitstring.compare a b);
  check_int "hash equal" (Bitstring.hash a) (Bitstring.hash b);
  check "compare length-sensitive" true
    (Bitstring.compare (Bitstring.of_string "1") (Bitstring.of_string "10") <> 0)

let writer_fixed_roundtrip () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.fixed w ~width:7 93;
  Bitbuf.Writer.fixed w ~width:1 1;
  Bitbuf.Writer.fixed w ~width:12 0;
  let b = Bitbuf.Writer.contents w in
  check_int "total bits" 20 (Bitstring.length b);
  let r = Bitbuf.Reader.of_bitstring b in
  check_int "first" 93 (Bitbuf.Reader.fixed r ~width:7);
  check_int "second" 1 (Bitbuf.Reader.fixed r ~width:1);
  check_int "third" 0 (Bitbuf.Reader.fixed r ~width:12);
  Bitbuf.Reader.expect_end r

let nat_roundtrip () =
  let values = [ 0; 1; 2; 3; 7; 8; 100; 1023; 1024; 123456789 ] in
  let w = Bitbuf.Writer.create () in
  List.iter (Bitbuf.Writer.nat w) values;
  let r = Bitbuf.Reader.of_bitstring (Bitbuf.Writer.contents w) in
  List.iter (fun v -> check_int "nat" v (Bitbuf.Reader.nat r)) values;
  Bitbuf.Reader.expect_end r

let int_roundtrip () =
  let values = [ 0; -1; 1; -100; 100; max_int / 4; -(max_int / 4) ] in
  let w = Bitbuf.Writer.create () in
  List.iter (Bitbuf.Writer.int w) values;
  let r = Bitbuf.Reader.of_bitstring (Bitbuf.Writer.contents w) in
  List.iter (fun v -> check_int "int" v (Bitbuf.Reader.int r)) values

let list_and_bitstring_roundtrip () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.list w Bitbuf.Writer.nat [ 4; 0; 17 ];
  Bitbuf.Writer.bitstring w (Bitstring.of_string "1101");
  let r = Bitbuf.Reader.of_bitstring (Bitbuf.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 4; 0; 17 ] (Bitbuf.Reader.list r Bitbuf.Reader.nat);
  Alcotest.(check string) "bitstring" "1101"
    (Bitstring.to_string (Bitbuf.Reader.bitstring r))

let truncated_input_rejected () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 1000;
  let b = Bitbuf.Writer.contents w in
  let half = Bitstring.sub b ~pos:0 ~len:(Bitstring.length b / 2) in
  check "decode None on truncation" true
    (Bitbuf.decode half Bitbuf.Reader.nat = None);
  (* trailing bits also rejected *)
  let padded = Bitstring.append b (Bitstring.of_string "0") in
  check "decode None on padding" true
    (Bitbuf.decode padded Bitbuf.Reader.nat = None)

(* A 62-zero gamma prefix is the longest one a native int admits: it
   decodes only [max_int] (rest bits all zero); any other rest would
   overflow into a negative "natural". *)
let nat_gamma_overflow_rejected () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w max_int;
  check "max_int round-trips" true
    (Bitbuf.decode (Bitbuf.Writer.contents w) Bitbuf.Reader.nat = Some max_int);
  let crafted =
    Bitstring.of_string
      (String.make 62 '0' ^ "1" ^ String.make 61 '0' ^ "1")
  in
  check "62-zero prefix with nonzero rest rejected" true
    (Bitbuf.decode crafted Bitbuf.Reader.nat = None)

let nat_gamma_size () =
  (* Elias gamma of n+1 uses 2·⌊log₂(n+1)⌋ + 1 bits *)
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 0;
  check_int "nat 0 is 1 bit" 1 (Bitbuf.Writer.length w);
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 7;
  check_int "nat 7 is 7 bits" 7 (Bitbuf.Writer.length w)

let rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.make 43 in
  let zs = List.init 20 (fun _ -> Rng.int c 1000) in
  check "different seed differs" true (xs <> zs)

let rng_bounds () =
  let rng = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 100 do
    let v = Rng.int_in rng 5 9 in
    check "int_in range" true (v >= 5 && v <= 9)
  done

let rng_permutation () =
  let rng = Rng.make 11 in
  let p = Rng.permutation rng 30 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 30 Fun.id) sorted

(* Regression for the modulo-bias bug: [Rng.int] used plain
   [v mod bound], which for bounds not dividing 2^62 gives the low
   residues one extra preimage.  The rejection loop is exercised
   directly with a fake draw stream: for bound 3, 2^62 mod 3 = 1, so
   the single draw 2^62 - 1 (residue 0 in the incomplete top block)
   must be rejected and the next draw used instead. *)
let rng_rejection_boundary () =
  let feed draws =
    let q = Queue.of_seq (List.to_seq draws) in
    fun () -> Queue.pop q
  in
  (* 2^62 mod 3 = 1: only the top draw 2^62 - 1 is incomplete *)
  check_int "top-block draw rejected" 2
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 1; 5 ]) 3);
  check_int "last complete draw accepted" 2
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 2 ]) 3);
  check_int "draw below the block accepted" 0
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 4 ]) 3);
  (* bound 1 accepts any draw as 0, even the maximum *)
  check_int "bound 1" 0 (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 1 ]) 1);
  (* a power-of-two bound divides 2^62: nothing is ever rejected *)
  check_int "power-of-two bound accepts max" 3
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 1 ]) 4);
  match Rng.unbiased_mod ~draw:(feed []) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 accepted"

(* Small-bound uniformity: with rejection sampling every residue class
   is hit exactly-uniformly in expectation; a chi-square statistic over
   20k draws at bound 7 sits far below the df=6 rejection threshold
   unless the generator is broken.  (The old biased code would still
   pass at these bounds — the real pin is the boundary test above —
   but this guards the rewrite against a botched residue computation.) *)
let rng_small_bound_distribution () =
  let bound = 7 and draws = 20_000 in
  let rng = Rng.make 1234 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  (* chi-square 99.9th percentile at 6 degrees of freedom is 22.46 *)
  check "chi-square within the df=6 99.9% bound" true (chi2 < 22.46)

let combin_binomial () =
  check_int "C(5,2)" 10 (Combin.binomial 5 2);
  check_int "C(10,0)" 1 (Combin.binomial 10 0);
  check_int "C(10,10)" 1 (Combin.binomial 10 10);
  check_int "C(4,7)" 0 (Combin.binomial 4 7);
  check_int "C(20,10)" 184756 (Combin.binomial 20 10)

let combin_partitions () =
  check_int "p(0)" 1 (List.length (Combin.partitions 0));
  check_int "p(5)" 7 (List.length (Combin.partitions 5));
  check_int "p(10)" 42 (List.length (Combin.partitions 10));
  check_int "count matches enumeration" (List.length (Combin.partitions 12))
    (Combin.count_partitions 12);
  (* every partition sums to n with weakly decreasing parts *)
  List.iter
    (fun p ->
      check_int "sums to 8" 8 (List.fold_left ( + ) 0 p);
      let rec decreasing = function
        | a :: b :: rest -> a >= b && decreasing (b :: rest)
        | _ -> true
      in
      check "weakly decreasing" true (decreasing p))
    (Combin.partitions 8)

let combin_log2_factorial () =
  let lf = Combin.log2_factorial 10 in
  (* log2(3628800) ≈ 21.79 *)
  check "log2(10!)" true (abs_float (lf -. 21.791) < 0.01)

let combin_ceil_log2 () =
  check_int "1" 0 (Combin.ceil_log2 1);
  check_int "2" 1 (Combin.ceil_log2 2);
  check_int "3" 2 (Combin.ceil_log2 3);
  check_int "8" 3 (Combin.ceil_log2 8);
  check_int "9" 4 (Combin.ceil_log2 9)

let combin_pow_multisets () =
  check_int "pow" 243 (Combin.pow 3 5);
  check_int "multisets" 27 (Combin.multisets_upto 3 2);
  check_int "multisets saturates" max_int (Combin.multisets_upto 100 100)

let qcheck_bitbuf_nat =
  QCheck.Test.make ~name:"nat roundtrips for all naturals" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun n ->
      let w = Bitbuf.Writer.create () in
      Bitbuf.Writer.nat w n;
      Bitbuf.decode (Bitbuf.Writer.contents w) Bitbuf.Reader.nat = Some n)

let qcheck_bitbuf_fixed =
  QCheck.Test.make ~name:"fixed roundtrips at any width" ~count:500
    QCheck.(pair (int_bound 30) (int_bound 1_000_000))
    (fun (extra, n) ->
      let width = Combin.ceil_log2 (n + 2) + extra in
      let w = Bitbuf.Writer.create () in
      Bitbuf.Writer.fixed w ~width n;
      Bitbuf.decode (Bitbuf.Writer.contents w) (fun r ->
          Bitbuf.Reader.fixed r ~width)
      = Some n)

let qcheck_bitstring_flip =
  QCheck.Test.make ~name:"flip is an involution" ~count:200
    QCheck.(pair (list bool) small_nat)
    (fun (bits, i) ->
      QCheck.assume (bits <> []);
      let b = Bitstring.of_bools bits in
      let i = i mod Bitstring.length b in
      Bitstring.equal b (Bitstring.flip (Bitstring.flip b i) i))

(* Concat/slice identities that certificate packing (length-prefixed
   pair encodings, Bitbuf writers) relies on. *)
let qcheck_bitstring_append_sub =
  QCheck.Test.make ~name:"append/sub: slices recover both halves"
    ~count:1000
    QCheck.(pair (list bool) (list bool))
    (fun (xs, ys) ->
      let a = Bitstring.of_bools xs and b = Bitstring.of_bools ys in
      let ab = Bitstring.append a b in
      Bitstring.length ab = Bitstring.length a + Bitstring.length b
      && Bitstring.equal a
           (Bitstring.sub ab ~pos:0 ~len:(Bitstring.length a))
      && Bitstring.equal b
           (Bitstring.sub ab ~pos:(Bitstring.length a)
              ~len:(Bitstring.length b))
      && Bitstring.to_bools ab = xs @ ys)

let qcheck_bitstring_sub_compose =
  QCheck.Test.make ~name:"sub of sub composes offsets" ~count:1000
    QCheck.(quad (list bool) small_nat small_nat small_nat)
    (fun (bits, p1, l1, p2) ->
      let b = Bitstring.of_bools bits in
      let n = Bitstring.length b in
      let p1 = if n = 0 then 0 else p1 mod (n + 1) in
      let l1 = min l1 (n - p1) in
      let p2 = if l1 = 0 then 0 else p2 mod (l1 + 1) in
      let l2 = l1 - p2 in
      Bitstring.equal
        (Bitstring.sub (Bitstring.sub b ~pos:p1 ~len:l1) ~pos:p2 ~len:l2)
        (Bitstring.sub b ~pos:(p1 + p2) ~len:l2))

let qcheck_rng_split_reproducible =
  QCheck.Test.make ~name:"Rng.split: reproducible from the seed"
    ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 32))
    (fun (seed, k) ->
      let draw rng = List.init 8 (fun _ -> Rng.int rng 1_000_000) in
      let a = Array.map draw (Rng.split (Rng.make seed) k) in
      let b = Array.map draw (Rng.split (Rng.make seed) k) in
      a = b)

let qcheck_rng_split_distinct =
  QCheck.Test.make ~name:"Rng.split: streams pairwise distinct"
    ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 32))
    (fun (seed, k) ->
      let k = k + 2 in
      let streams = Rng.split (Rng.make seed) k in
      let firsts =
        Array.to_list
          (Array.map
             (fun r -> List.init 4 (fun _ -> Rng.int r (1 lsl 30)))
             streams)
      in
      List.length (List.sort_uniq compare firsts) = k)

let suite =
  [
    ( "util:bitstring",
      [
        Alcotest.test_case "roundtrip" `Quick bitstring_roundtrip;
        Alcotest.test_case "append/sub" `Quick bitstring_append_sub;
        Alcotest.test_case "compare/hash" `Quick bitstring_compare_hash;
        QCheck_alcotest.to_alcotest qcheck_bitstring_flip;
        QCheck_alcotest.to_alcotest qcheck_bitstring_append_sub;
        QCheck_alcotest.to_alcotest qcheck_bitstring_sub_compose;
      ] );
    ( "util:bitbuf",
      [
        Alcotest.test_case "fixed" `Quick writer_fixed_roundtrip;
        Alcotest.test_case "nat" `Quick nat_roundtrip;
        Alcotest.test_case "int" `Quick int_roundtrip;
        Alcotest.test_case "list+bitstring" `Quick list_and_bitstring_roundtrip;
        Alcotest.test_case "truncation rejected" `Quick truncated_input_rejected;
        Alcotest.test_case "gamma size" `Quick nat_gamma_size;
        QCheck_alcotest.to_alcotest qcheck_bitbuf_nat;
        QCheck_alcotest.to_alcotest qcheck_bitbuf_fixed;
        Alcotest.test_case "gamma overflow rejected" `Quick
          nat_gamma_overflow_rejected;
      ] );
    ( "util:rng",
      [
        Alcotest.test_case "determinism" `Quick rng_determinism;
        Alcotest.test_case "bounds" `Quick rng_bounds;
        Alcotest.test_case "permutation" `Quick rng_permutation;
        Alcotest.test_case "rejection boundary" `Quick rng_rejection_boundary;
        Alcotest.test_case "small-bound distribution" `Quick
          rng_small_bound_distribution;
        QCheck_alcotest.to_alcotest qcheck_rng_split_reproducible;
        QCheck_alcotest.to_alcotest qcheck_rng_split_distinct;
      ] );
    ( "util:combin",
      [
        Alcotest.test_case "binomial" `Quick combin_binomial;
        Alcotest.test_case "partitions" `Quick combin_partitions;
        Alcotest.test_case "log2 factorial" `Quick combin_log2_factorial;
        Alcotest.test_case "ceil_log2" `Quick combin_ceil_log2;
        Alcotest.test_case "pow and multisets" `Quick combin_pow_multisets;
      ] );
  ]
