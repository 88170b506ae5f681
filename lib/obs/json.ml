type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- the bytes a string escapes --- *)

(* what each byte prints as inside a string: [""] for the bytes copied
   as they are (UTF-8 included) *)
let escapes =
  Array.init 256 (fun i ->
      match Char.chr i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | '\b' -> "\\b"
      | '\012' -> "\\f"
      | c when c < ' ' -> "\\u00" ^ String.make 1 "0123456789abcdef".[i lsr 4] ^ String.make 1 "0123456789abcdef".[i land 15]
      | _ -> "")

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* A word holds a byte below [k] (for [k] <= 0x80) when
   [(x - k * ones) land lnot x land highs] is nonzero, and a byte [c]
   when [x lxor (c * ones)] holds a zero byte.  Both tests are exact
   about whether such a byte exists; which one it is is then found a
   byte at a time. *)
let ones = 0x0101010101010101L
let highs = 0x8080808080808080L
let quotes = 0x2222222222222222L
let backslashes = 0x5C5C5C5C5C5C5C5CL
let spaces = 0x2020202020202020L

(* the first byte of [s] at or after [i] that prints escaped (['"'],
   ['\\'] or a control byte), else [n]; eight bytes at a time *)
let rec to_escaped s i n =
  if i + 8 <= n then begin
    let x = get64u s i in
    if
      Int64.logand
        (Int64.logor
           (Int64.logor
              (Int64.sub (Int64.logxor x quotes) ones)
              (Int64.sub (Int64.logxor x backslashes) ones))
           (Int64.sub x spaces))
        (Int64.logand (Int64.lognot x) highs)
      = 0L
    then to_escaped s (i + 8) n
    else bytewise_escaped s i n
  end
  else bytewise_escaped s i n

and bytewise_escaped s i n =
  if i < n && (let c = String.unsafe_get s i in c <> '"' && c <> '\\' && c >= ' ') then
    bytewise_escaped s (i + 1) n
  else i

(* --- printing: the value measured, then written into a string of
   exactly that length --- *)

let rec quoted_size s i size =
  let n = String.length s in
  let j = to_escaped s i n in
  if j = n then size
  else
    quoted_size s (j + 1)
      (size + String.length escapes.(Char.code (String.unsafe_get s j)) - 1)

let quoted_size s = quoted_size s 0 (String.length s + 2)

let rec digits u d = if u < 10 then d else digits (u / 10) (d + 1)

(* integral values below 1e15 are exact ints; [-0.0] keeps its sign.
   JSON has no nan or infinity, so they print as [null] *)
let exact_int f = Float.is_integer f && Float.abs f < 1e15
let number_text f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let number_size f =
  if exact_int f then digits (abs (int_of_float f)) 1 + if Float.sign_bit f then 1 else 0
  else String.length (number_text f)

let rec size = function
  | Null -> 4
  | Bool b -> if b then 4 else 5
  | Num f -> number_size f
  | Str s -> quoted_size s
  | Arr [] | Obj [] -> 2
  | Arr items -> List.fold_left (fun a v -> a + size v + 1) 1 items
  | Obj fields -> List.fold_left (fun a (k, v) -> a + quoted_size k + size v + 2) 1 fields

type out =
  { b : Bytes.t
  ; mutable len : int
  }

let add_char o c =
  Bytes.set o.b o.len c;
  o.len <- o.len + 1

let add_sub o s i l =
  Bytes.blit_string s i o.b o.len l;
  o.len <- o.len + l

let add_string o s = add_sub o s 0 (String.length s)

(* plain runs copied whole, the bytes between them escaped *)
let rec add_escaped o s i =
  let n = String.length s in
  let j = to_escaped s i n in
  add_sub o s i (j - i);
  if j < n then begin
    add_string o escapes.(Char.code (String.unsafe_get s j));
    add_escaped o s (j + 1)
  end

let add_quoted o s =
  add_char o '"';
  add_escaped o s 0;
  add_char o '"'

(* an int's digits, written from the last *)
let add_int o i =
  if i < 0 then add_char o '-';
  let d = digits (abs i) 1 in
  let u = ref (abs i) in
  for at = o.len + d - 1 downto o.len do
    Bytes.set o.b at (Char.unsafe_chr (48 + (!u mod 10)));
    u := !u / 10
  done;
  o.len <- o.len + d

let add_number o f =
  if not (exact_int f) then add_string o (number_text f)
  else if Float.sign_bit f && f = 0.0 then add_string o "-0"
  else add_int o (int_of_float f)

let rec add_value o = function
  | Null -> add_string o "null"
  | Bool b -> add_string o (if b then "true" else "false")
  | Num f -> add_number o f
  | Str s -> add_quoted o s
  | Arr items ->
    add_char o '[';
    add_items o items;
    add_char o ']'
  | Obj fields ->
    add_char o '{';
    add_fields o fields;
    add_char o '}'

and add_items o = function
  | [] -> ()
  | [ v ] -> add_value o v
  | v :: rest ->
    add_value o v;
    add_char o ',';
    add_items o rest

and add_fields o = function
  | [] -> ()
  | [ field ] -> add_field o field
  | field :: rest ->
    add_field o field;
    add_char o ',';
    add_fields o rest

and add_field o (k, v) =
  add_quoted o k;
  add_char o ':';
  add_value o v

let to_string v =
  let o = { b = Bytes.create (size v); len = 0 } in
  add_value o v;
  assert (o.len = Bytes.length o.b);
  Bytes.unsafe_to_string o.b

(* --- parsing: recursive descent over the text, in place --- *)

exception Fail of int * string

type src =
  { s : string
  ; n : int
  ; mutable pos : int
  }

let fail p msg = raise (Fail (p.pos, msg))
let at p c = p.pos < p.n && String.unsafe_get p.s p.pos = c
let expect p c = if at p c then p.pos <- p.pos + 1 else fail p (Printf.sprintf "expected %C" c)

let skip_ws p =
  while
    p.pos < p.n
    && match String.unsafe_get p.s p.pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

(* [word]'s first byte is already matched *)
let literal p word value =
  let l = String.length word in
  if p.pos + l > p.n then fail p ("expected " ^ word);
  for i = 1 to l - 1 do
    if String.unsafe_get p.s (p.pos + i) <> String.unsafe_get word i then
      fail p ("expected " ^ word)
  done;
  p.pos <- p.pos + l;
  value

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* the value of the four hex digits at [i], else -1 *)
let hex_at s i =
  let rec go k u =
    if k = 4 then u
    else
      let d = hex_digit (String.unsafe_get s (i + k)) in
      if d < 0 then -1 else go (k + 1) ((u lsl 4) lor d)
  in
  go 0 0

(* the four hex digits of a [\u] escape *)
let hex4 p =
  if p.pos + 4 > p.n then fail p "truncated \\u escape";
  let v = hex_at p.s p.pos in
  if v < 0 then fail p "bad \\u escape";
  p.pos <- p.pos + 4;
  v

(* a [\uXXXX] escape's scalar value: a high surrogate must be followed
   by an escaped low one, and a low one must follow a high one *)
let code_point p =
  let hi = hex4 p in
  if hi >= 0xDC00 && hi <= 0xDFFF then begin
    p.pos <- p.pos - 4;
    fail p "lone low surrogate"
  end
  else if hi >= 0xD800 && hi <= 0xDBFF then begin
    let after = p.pos in
    if not (p.pos + 2 <= p.n && p.s.[p.pos] = '\\' && p.s.[p.pos + 1] = 'u') then
      fail p "lone high surrogate";
    p.pos <- p.pos + 2;
    let lo = hex4 p in
    if lo < 0xDC00 || lo > 0xDFFF then begin
      p.pos <- after;
      fail p "lone high surrogate"
    end;
    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else hi

let put_byte b i c =
  Bytes.set b i c;
  i + 1

let put b i x = Bytes.set b i (Char.unsafe_chr x)

(* UTF-8 of one scalar value into [b] at [i]; the next free index *)
let put_utf8 b i u =
  if u < 0x80 then put_byte b i (Char.unsafe_chr u)
  else if u < 0x800 then begin
    put b i (0xC0 lor (u lsr 6));
    put b (i + 1) (0x80 lor (u land 0x3F));
    i + 2
  end
  else if u < 0x10000 then begin
    put b i (0xE0 lor (u lsr 12));
    put b (i + 1) (0x80 lor ((u lsr 6) land 0x3F));
    put b (i + 2) (0x80 lor (u land 0x3F));
    i + 3
  end
  else begin
    put b i (0xF0 lor (u lsr 18));
    put b (i + 1) (0x80 lor ((u lsr 12) land 0x3F));
    put b (i + 2) (0x80 lor ((u lsr 6) land 0x3F));
    put b (i + 3) (0x80 lor (u land 0x3F));
    i + 4
  end

(* the first ['"'] or ['\\'] of [s] at or after [i], else [n]: a control
   byte stands for itself in the parser's input *)
let rec to_quote_or_escape s i n =
  let j = to_escaped s i n in
  if j < n && String.unsafe_get s j < ' ' then to_quote_or_escape s (j + 1) n else j

(* the length a string's body from [i] decodes to, its escapes read
   leniently: exact when they are valid, and otherwise no less than
   what decoding writes before it fails *)
let rec decoded_length s i n len =
  let j = to_quote_or_escape s i n in
  let len = len + (j - i) in
  if j + 1 >= n || s.[j] = '"' then len
  else if s.[j + 1] <> 'u' then decoded_length s (j + 2) n (len + 1)
  else
    let u = if j + 6 > n then -1 else hex_at s (j + 2) in
    decoded_length s (j + 6) n
      (len
      + if u < 0 then 0
        else if u < 0x80 then 1
        else if u < 0x800 || (u >= 0xD800 && u <= 0xDFFF) then 2
        else 3)

(* decode the body of a string from [i] into [b] at [len]; the decoded
   length *)
let rec unescape_into p b i len =
  let s = p.s and n = p.n in
  let j = to_quote_or_escape s i n in
  Bytes.blit_string s i b len (j - i);
  let len = len + (j - i) in
  if j = n then begin
    p.pos <- n;
    fail p "unterminated string"
  end;
  p.pos <- j + 1;
  if String.unsafe_get s j = '"' then len
  else begin
    if p.pos >= n then fail p "truncated escape";
    let c = String.unsafe_get s p.pos in
    p.pos <- p.pos + 1;
    let len =
      match c with
      | '"' | '\\' | '/' -> put_byte b len c
      | 'n' -> put_byte b len '\n'
      | 't' -> put_byte b len '\t'
      | 'r' -> put_byte b len '\r'
      | 'b' -> put_byte b len '\b'
      | 'f' -> put_byte b len '\012'
      | 'u' -> put_utf8 b len (code_point p)
      | c -> fail p (Printf.sprintf "bad escape \\%c" c)
    in
    unescape_into p b p.pos len
  end

(* a string's body from [start], its first escape at [esc], decoded
   into a string of the length it decodes to *)
let unescape p start esc =
  let b = Bytes.create (decoded_length p.s esc p.n (esc - start)) in
  Bytes.blit_string p.s start b 0 (esc - start);
  let len = unescape_into p b esc (esc - start) in
  if len = Bytes.length b then Bytes.unsafe_to_string b else Bytes.sub_string b 0 len

(* Short strings, object keys above all, recur from one text to the
   next, so the parser shares them: each slot of a direct-mapped table
   holds the last short string read with its hash, and a string equal
   to the one its slot holds is returned without a copy.  Domains may
   race on a slot: it holds a whole string either way, and the text is
   compared before the string is shared. *)
let shared = Array.make 1024 ""

(* [t] = the [String.length t] bytes of [s] from [i], from byte [k] on;
   a word at a time, the last word overlapping the one before it *)
let rec same_text t s i k =
  let n = String.length t in
  if n < 8 then k = n || (String.unsafe_get t k = String.unsafe_get s (i + k) && same_text t s i (k + 1))
  else
    let k = if k > n - 8 then n - 8 else k in
    get64u t k = get64u s (i + k) && (k = n - 8 || same_text t s i (k + 8))

let mix h x = (h lxor x) * 0x100000001b3

(* a hash of the [len] bytes of [s] from [i], in the same steps *)
let rec hash s i len k h =
  if len < 8 then
    if k = len then h else hash s i len (k + 1) (mix h (Char.code (String.unsafe_get s (i + k))))
  else
    let k = if k > len - 8 then len - 8 else k in
    let h = mix h (Int64.to_int (get64u s (i + k))) in
    if k = len - 8 then h else hash s i len (k + 8) h

let sub p i len =
  if len > 32 then String.sub p.s i len
  else begin
    let slot = (hash p.s i len 0 len lsr 20) land (Array.length shared - 1) in
    let t = Array.unsafe_get shared slot in
    if String.length t = len && same_text t p.s i 0 then t
    else begin
      let t = String.sub p.s i len in
      Array.unsafe_set shared slot t;
      t
    end
  end

(* a string with no escape is read in place: shared, or one
   [String.sub] of the text *)
let parse_string p =
  expect p '"';
  let start = p.pos in
  let j = to_quote_or_escape p.s start p.n in
  if j < p.n && String.unsafe_get p.s j = '"' then begin
    p.pos <- j + 1;
    sub p start (j - start)
  end
  else unescape p start j

let is_digit p =
  p.pos < p.n && match String.unsafe_get p.s p.pos with '0' .. '9' -> true | _ -> false

(* Integers recur as much: a number read on the int path is shared
   through a table of the last one read at each slot *)
let shared_ints = Array.make 1024 Null

let int_value v =
  let slot = v land (Array.length shared_ints - 1) in
  match Array.unsafe_get shared_ints slot with
  | Num f as n when f = float_of_int v -> n
  | _ ->
    let n = Num (float_of_int v) in
    Array.unsafe_set shared_ints slot n;
    n

let skip_digits p =
  while is_digit p do
    p.pos <- p.pos + 1
  done

let parse_number p =
  let start = p.pos in
  let neg = at p '-' in
  if neg then p.pos <- p.pos + 1;
  (* up to 15 digits with no fraction or exponent are an exact int:
     the value [float_of_string_opt] would give, read in place *)
  let int_start = p.pos in
  let v = ref 0 in
  while is_digit p do
    v := (10 * !v) + (Char.code (String.unsafe_get p.s p.pos) - 48);
    p.pos <- p.pos + 1
  done;
  let len = p.pos - int_start in
  if len > 0 && len <= 15 && not (at p '.' || at p 'e' || at p 'E') then
    if neg then Num (-.float_of_int !v) else int_value !v
  else begin
    if at p '.' then begin
      p.pos <- p.pos + 1;
      skip_digits p
    end;
    if at p 'e' || at p 'E' then begin
      p.pos <- p.pos + 1;
      if at p '+' || at p '-' then p.pos <- p.pos + 1;
      skip_digits p
    end;
    if p.pos = start then fail p "expected a number";
    match float_of_string_opt (String.sub p.s start (p.pos - start)) with
    | Some f -> Num f
    | None -> fail p "malformed number"
  end

let rec parse_value p =
  skip_ws p;
  if p.pos >= p.n then fail p "unexpected end of input";
  match String.unsafe_get p.s p.pos with
  | '"' -> Str (parse_string p)
  | 't' -> literal p "true" (Bool true)
  | 'f' -> literal p "false" (Bool false)
  | 'n' -> literal p "null" Null
  | '[' ->
    p.pos <- p.pos + 1;
    skip_ws p;
    if at p ']' then begin
      p.pos <- p.pos + 1;
      Arr []
    end
    else Arr (items p)
  | '{' ->
    p.pos <- p.pos + 1;
    skip_ws p;
    if at p '}' then begin
      p.pos <- p.pos + 1;
      Obj []
    end
    else Obj (fields p)
  | _ -> parse_number p

(* the rest of a list, consed in reading order *)
and[@tail_mod_cons] items p =
  let v = parse_value p in
  skip_ws p;
  if at p ',' then begin
    p.pos <- p.pos + 1;
    v :: items p
  end
  else begin
    expect p ']';
    [ v ]
  end

and[@tail_mod_cons] fields p =
  skip_ws p;
  let k = parse_string p in
  skip_ws p;
  expect p ':';
  let f = (k, parse_value p) in
  skip_ws p;
  if at p ',' then begin
    p.pos <- p.pos + 1;
    f :: fields p
  end
  else begin
    expect p '}';
    [ f ]
  end

let parse s =
  let p = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value p in
    skip_ws p;
    if p.pos <> p.n then fail p "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "JSON error at byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
