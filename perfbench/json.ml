(* Minimal JSON emitter for the lines the runner parses. *)

type t =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * t) list

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec add b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add b (Str k);
        Buffer.add_char b ':';
        add b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* One JSON object per line on stdout; the runner reads them by [kind]. *)
let emit kind fields =
  print_string (to_string (Obj (("kind", Str kind) :: fields)));
  print_newline ()
