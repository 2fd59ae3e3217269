type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20

(* Most strings (names, reasons) need no escaping; returning them as
   they are keeps the streaming trace writer free of a copy per string. *)
let escape s =
  if String.for_all plain s then s
  else begin
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

(* Canonical number rendering: integers as integers, everything else
   as the shortest decimal that parses back to exactly the same float.
   Exact round-tripping makes render ∘ parse a fixpoint (artifact-guard
   tests rely on it): a lossy rendering could reparse to an
   integer-valued float and flip formatting branches.  JSON has no
   token for nan or the infinities, so they are refused here, where the
   writer can still be blamed, rather than at the next parse. *)
let num f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json.num: non-finite %F" f)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1

let parse_exn s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) -> take c
          | Some 'n' -> take '\n'
          | Some 't' -> take '\t'
          | Some 'r' -> take '\r'
          | Some 'b' -> take '\b'
          | Some 'f' -> take '\012'
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* ASCII only; anything above is replaced — our schemas
                 never emit non-ASCII. *)
              Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
              go ()
          | _ -> fail "bad escape")
      | Some c -> take c
    (* append [c], the decoding of the character under the cursor, and
       move past it *)
    and take c =
      Buffer.add_char b c;
      advance ();
      go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek () with Some c when is_num_char c -> true | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    (* a literal past the float range would parse to an infinity that
       [num] cannot write back *)
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail (Printf.sprintf "number %S out of range" text)
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Error msg -> Error msg

let add_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (escape s);
  Buffer.add_char b '"'

let add_scalar b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> Buffer.add_string b (num f)
  | Str s -> add_str b s
  | Arr _ | Obj _ -> invalid_arg "Json.add_scalar"

(* Compact canonical rendering of a whole tree.  Paired with [escape]
   and [num], parse ∘ render is the identity on trees, which gives
   every artifact built on this module (trace JSON included) the
   render ∘ parse fixpoint property without per-schema renderers. *)
let render v =
  let b = Buffer.create 1024 in
  let rec go = function
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          l;
        Buffer.add_char b ']'
    | Obj o ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            add_str b k;
            Buffer.add_char b ':';
            go x)
          o;
        Buffer.add_char b '}'
    | v -> add_scalar b v
  in
  go v;
  Buffer.contents b

(* The artifact layout: two-space indent, one member per line, except
   that an array or object holding only scalars stays on one line — a
   table row or a histogram's bounds reads better flat.  Same tokens as
   [render], so the two parse to the same tree. *)
let pretty v =
  let b = Buffer.create 1024 in
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let rec go indent = function
    | Arr l -> members indent '[' ']' (List.map (fun x -> ("", x)) l)
    | Obj o ->
        members indent '{' '}'
          (List.map (fun (k, x) -> (Printf.sprintf "\"%s\": " (escape k), x)) o)
    | v -> add_scalar b v
  (* [l] pairs each member with its key prefix, empty in an array *)
  and members indent opening closing l =
    let flat = List.for_all (fun (_, x) -> scalar x) l in
    let inner = if flat then " " else "\n" ^ indent ^ "  " in
    Buffer.add_char b opening;
    List.iteri
      (fun i (key, x) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b inner;
        Buffer.add_string b key;
        go (indent ^ "  ") x)
      l;
    if l <> [] then Buffer.add_string b (if flat then " " else "\n" ^ indent);
    Buffer.add_char b closing
  in
  go "" v;
  Buffer.add_char b '\n';
  Buffer.contents b

let int i = Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Strict decoding.  Each artifact schema walks its tree with these
   primitives; a violation raises [Error] with a message that starts
   with the context it was given, and [decode] turns it into a result. *)

let fail msg = raise (Error msg)

let field o name =
  match List.assoc_opt name o with
  | Some v -> v
  | None -> fail (Printf.sprintf "missing field %S" name)

let get decode o name = decode name (field o name)
let get_opt decode o name = Option.map (decode name) (List.assoc_opt name o)

let as_obj ctx fields = function
  | Obj o ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k fields) then
            fail (Printf.sprintf "unexpected field %S in %s" k ctx))
        o;
      o
  | _ -> fail (ctx ^ ": expected an object")

let as_arr ctx = function
  | Arr a -> a
  | _ -> fail (ctx ^ ": expected an array")

let as_num ctx = function
  | Num f -> f
  | _ -> fail (ctx ^ ": expected a number")

let as_nonneg ctx v =
  let f = as_num ctx v in
  if f < 0. then fail (ctx ^ ": negative");
  f

let as_int ctx v =
  let f = as_num ctx v in
  if not (Float.is_integer f) then fail (ctx ^ ": expected an integer");
  (* [Float.is_integer] admits values like 2^62 or 1e300 whose
     [int_of_float] is undefined; native ints cover [-2^62, 2^62).
     -2^62 is exactly representable and equals [min_int], so only
     values strictly below it are out of range. *)
  if f >= 0x1p62 || f < -0x1p62 then
    fail (ctx ^ ": integer overflows the native int range");
  int_of_float f

let as_nonneg_int ctx v =
  let i = as_int ctx v in
  if i < 0 then fail (ctx ^ ": negative");
  i

let as_bool ctx = function
  | Bool b -> b
  | _ -> fail (ctx ^ ": expected a boolean")

let as_name ctx = function
  | Str s when s <> "" -> s
  | Str _ -> fail (ctx ^ ": empty string")
  | _ -> fail (ctx ^ ": expected a string")

let decode f s =
  match f (parse_exn s) with v -> Ok v | exception Error msg -> Error msg

let decode_exn who f s =
  match decode f s with Ok v -> v | Error msg -> invalid_arg (who ^ ": " ^ msg)
