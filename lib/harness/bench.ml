type better = Higher | Lower

type row = { metric : string; value : float; unit : string; better : better }

let higher metric ~unit value = { metric; value; unit; better = Higher }
let lower metric ~unit value = { metric; value; unit; better = Lower }

type t = {
  suite : string;
  quick : bool option;
  jobs : int option;
  host_cores : int option;
  ocaml : string option;
  rows : row list;
}

let schema = "hrt-bench/2"

let make ~suite ~quick ~jobs rows =
  {
    suite;
    quick = Some quick;
    jobs = Some jobs;
    host_cores = Some (Domain.recommended_domain_count ());
    ocaml = Some Sys.ocaml_version;
    rows;
  }

let find t metric = List.find_opt (fun r -> String.equal r.metric metric) t.rows

(* ---- writer ---- *)

let quote s =
  if String.exists (fun c -> c < ' ' || c = '"' || c = '\\') s then
    invalid_arg (Printf.sprintf "Bench: cannot write string %S" s);
  "\"" ^ s ^ "\""

(* Shortest decimal that reads back as the same float, so a committed
   baseline keeps its numbers exactly as they were written. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Bench: non-finite value";
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let better_name = function Higher -> "higher" | Lower -> "lower"

let to_string t =
  let b = Buffer.create 1024 in
  let field key = Option.iter (Printf.bprintf b "  %s: %s,\n" (quote key)) in
  Buffer.add_string b "{\n";
  field "schema" (Some (quote schema));
  field "suite" (Some (quote t.suite));
  field "quick" (Option.map string_of_bool t.quick);
  field "jobs" (Option.map string_of_int t.jobs);
  field "host_cores" (Option.map string_of_int t.host_cores);
  field "ocaml" (Option.map quote t.ocaml);
  Buffer.add_string b "  \"rows\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n    { \"metric\": %s, \"value\": %s, \"unit\": %s, \"better\": %s }"
        (quote r.metric) (number r.value) (quote r.unit)
        (quote (better_name r.better)))
    t.rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let write ~path t =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

(* ---- reader ---- *)

let string_value v = Scanf.sscanf_opt v "%S%!" Fun.id

let header_field t (key, v) =
  match key with
  | "suite" -> Option.map (fun s -> { t with suite = s }) (string_value v)
  | "quick" -> Option.map (fun q -> { t with quick = Some q }) (bool_of_string_opt v)
  | "jobs" -> Option.map (fun j -> { t with jobs = Some j }) (int_of_string_opt v)
  | "host_cores" ->
    Option.map (fun c -> { t with host_cores = Some c }) (int_of_string_opt v)
  | "ocaml" -> Option.map (fun o -> { t with ocaml = Some o }) (string_value v)
  | _ -> None

(* A row line, then what follows its closing brace: "," unless it is the
   last row. *)
let parse_row line =
  Scanf.sscanf_opt line
    "{ \"metric\": %S, \"value\": %f, \"unit\": %S, \"better\": %S }%s%!"
    (fun metric value unit better sep ->
      match better with
      | "higher" -> Some ({ metric; value; unit; better = Higher }, sep)
      | "lower" -> Some ({ metric; value; unit; better = Lower }, sep)
      | _ -> None)
  |> Option.join

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let malformed (n, l) = Error (Printf.sprintf "line %d: malformed %S" n l) in
  let rec header t = function
    | (_, {|"rows": [|}) :: rest ->
      if t.suite = "" then Error "no suite in header" else rows t [] rest
    | ((_, l) as line) :: rest -> (
      match
        Option.bind
          (Scanf.sscanf_opt l "%S : %[^,],%!" (fun k v -> (k, v)))
          (header_field t)
      with
      | Some t -> header t rest
      | None -> malformed line)
    | [] -> Error "truncated before \"rows\""
  and rows t acc = function
    | [ (_, "]"); (_, "}") ] -> Ok { t with rows = List.rev acc }
    | ((_, l) as line) :: rest -> (
      let sep = match rest with (_, "]") :: _ -> "" | _ -> "," in
      match parse_row l with
      | Some (r, s) when s = sep -> rows t (r :: acc) rest
      | _ -> malformed line)
    | [] -> Error "truncated inside \"rows\""
  in
  match lines with
  | (_, "{") :: (_, s) :: rest when s = Printf.sprintf {|"schema": "%s",|} schema
    ->
    header
      { suite = ""; quick = None; jobs = None; host_cores = None; ocaml = None;
        rows = [] }
      rest
  | _ -> Error ("not an " ^ schema ^ " document")

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string text)
  | exception Sys_error e -> Error e

(* ---- terminal ---- *)

let show v =
  if Float.abs v >= 1000. then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

let row_to_string r = Printf.sprintf "%-38s %12s %s" r.metric (show r.value) r.unit

(* ---- gate ---- *)

let tolerance = 0.2

let verdict ~gated ~floors ?baseline t =
  let notes = ref [] and failures = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match find t "identical" with
  | Some r when r.value <> 1. ->
    fail "identical = %s: the parallel or warm run diverged" (show r.value)
  | _ -> ());
  (match baseline with
  | None -> ()
  | Some base when not (String.equal base.suite t.suite) ->
    fail "baseline is suite %S, not %S" base.suite t.suite
  | Some base ->
    List.iter
      (fun metric ->
        match (find base metric, find t metric) with
        | None, _ -> fail "baseline has no %s row" metric
        | _, None -> fail "run has no %s row" metric
        | Some b, _ when b.value <= 0. ->
          fail "baseline %s is %s, not positive" metric (show b.value)
        | Some b, Some m ->
          let limit, ok =
            match m.better with
            | Higher ->
              let l = b.value *. (1. -. tolerance) in
              (l, m.value >= l)
            | Lower ->
              let l = b.value *. (1. +. tolerance) in
              (l, m.value <= l)
          in
          if ok then
            note "%s %s %s: within %.0f%% of baseline %s" metric (show m.value)
              m.unit (100. *. tolerance) (show b.value)
          else
            fail "%s regression: measured %s %s, limit %s (baseline %s, \
                  tolerance %.0f%%)"
              metric (show m.value) m.unit (show limit) (show b.value)
              (100. *. tolerance))
      gated;
    List.iter
      (fun (metric, floor) ->
        match find t metric with
        | None -> fail "run has no %s row" metric
        | Some m when m.value < floor ->
          fail "%s %s below required %s" metric (show m.value) (show floor)
        | Some m -> note "%s %s: at least %s" metric (show m.value) (show floor))
      floors);
  if !failures = [] then Ok (List.rev !notes) else Error (List.rev !failures)
