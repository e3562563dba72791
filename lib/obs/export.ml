open Hrt_stats

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let event_tid ev =
  match ev with
  | Event.Dispatch { tid; _ }
  | Event.Preempt { tid; _ }
  | Event.Deadline_miss { tid; _ }
  | Event.Admission_accept { tid; _ }
  | Event.Admission_reject { tid; _ }
  | Event.Arrival { tid; _ }
  | Event.Complete { tid; _ }
  | Event.Block { tid; _ }
  | Event.Wake { tid; _ }
  | Event.Barrier_arrive { tid; _ }
  | Event.Group_phase { tid; _ }
  | Event.Elected { tid; _ }
  | Event.Shed { tid; _ }
  | Event.Demote { tid; _ }
  | Event.Recover { tid; _ } ->
    tid
  | Event.Irq _ | Event.Sched_pass _ | Event.Steal_attempt _
  | Event.Barrier_release _ | Event.Policy _ | Event.Fault_plan _
  | Event.Overload _ | Event.Idle ->
    0

(* Chrome-trace timestamps are microseconds; keep nanosecond precision with
   three decimals. *)
let ts_us ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1_000.)

let args_json ev =
  match Event.args ev with
  | [] -> "{}"
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
           kvs)
    ^ "}"

let chrome_json { Tracer.time; cpu; event } =
  let name = json_escape (Event.kind event) in
  match Event.dur_ns event with
  | Some dur ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":%s}"
      name (ts_us time) (ts_us dur) cpu (event_tid event) (args_json event)
  | None ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":%s}"
      name (ts_us time) cpu (event_tid event) (args_json event)

let metadata_lines tr =
  let cpus = Hashtbl.create 16 in
  Tracer.iter tr (fun r ->
      if not (Hashtbl.mem cpus r.Tracer.cpu) then
        Hashtbl.replace cpus r.Tracer.cpu ());
  (Hashtbl.fold
     (fun cpu () acc ->
       Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"CPU %d\"}}"
         cpu cpu
       :: acc)
     cpus []
   [@hrt.nondet "lines are sorted immediately after the fold"])
  |> List.sort compare

(* One JSON value per line inside a valid JSON array: both line-oriented
   (greppable, appendable) and loadable by chrome://tracing and Perfetto. *)
let chrome_lines tr =
  let records = List.map chrome_json (Array.to_list (Tracer.to_array tr)) in
  let body = metadata_lines tr @ records in
  let rec commas = function
    | [] -> []
    | [ last ] -> [ last ]
    | x :: rest -> (x ^ ",") :: commas rest
  in
  ("[" :: commas body) @ [ "]" ]

let write_lines ~path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let write_chrome_trace tr ~path = write_lines ~path (chrome_lines tr)

let write_metrics_csv m ~path =
  Csv.write ~path ~header:Metrics.header (Metrics.rows m)
