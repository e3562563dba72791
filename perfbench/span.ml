(* In-memory spans for the traced run: name, start, end, parent and
   request id, recorded around calls into each layer's public functions
   and written out as a Chrome trace when the run ends. *)

module Clock = Hrt_harness.Clock

type span = {
  id : int;
  mutable name : string;
  start_ns : int64;
  mutable stop_ns : int64;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id shared by a request's spans; -1 when none *)
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : span list;
}

let create () = { spans = []; next_id = 0; stack = [] }

let enter t ?(req = -1) name =
  let parent, req =
    match t.stack with
    | [] -> (-1, req)
    | p :: _ -> (p.id, if req >= 0 then req else p.req)
  in
  let sp =
    { id = t.next_id; name; start_ns = Clock.now_ns (); stop_ns = 0L; parent; req }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- sp :: t.spans;
  t.stack <- sp :: t.stack;
  sp

let leave t sp =
  sp.stop_ns <- Clock.now_ns ();
  match t.stack with
  | top :: rest when top == sp -> t.stack <- rest
  | _ -> invalid_arg "Span.leave: not the innermost open span"

let with_ t ?req name f =
  let sp = enter t ?req name in
  match f () with
  | v ->
    leave t sp;
    v
  | exception e ->
    leave t sp;
    raise e

(* Optional tracing: every call site reads the same with or without a
   recorder, so the traced and untraced paths run identical code. *)
let maybe t ?req name f =
  match t with None -> f () | Some t -> with_ t ?req name f

(* A span whose layer is known only once its call returns (a cache hit
   or miss) is renamed after [leave]. *)
let rename sp name = sp.name <- name

let dur_ns sp = Int64.to_int (Int64.sub sp.stop_ns sp.start_ns)
let all t = List.rev t.spans

(* Durations in microseconds of every span called [name]. *)
let durations_us t name =
  List.filter_map
    (fun sp ->
      if String.equal sp.name name then Some (float_of_int (dur_ns sp) /. 1e3)
      else None)
    (all t)

(* Self time: a span's duration minus the time its children cover
   (children of one parent never overlap here: the code is sequential).
   Summed per layer, where [layer_of] maps a span name to its layer. *)
let self_seconds_by_layer t ~layer_of =
  let spans = all t in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt child_ns sp.parent) in
        Hashtbl.replace child_ns sp.parent (prev + dur_ns sp))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let children = Option.value ~default:0 (Hashtbl.find_opt child_ns sp.id) in
      let layer = layer_of sp.name in
      let prev = Option.value ~default:0 (Hashtbl.find_opt totals layer) in
      Hashtbl.replace totals layer (prev + dur_ns sp - children))
    spans;
  fun layer ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt totals layer)) /. 1e9

let write_chrome t ~path =
  let spans = all t in
  let origin =
    List.fold_left (fun acc sp -> Int64.min acc sp.start_ns) Int64.max_int spans
  in
  let us ns = Int64.to_float ns /. 1e3 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i sp ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
            (Json.to_string (Json.Str sp.name))
            (us (Int64.sub sp.start_ns origin))
            (us (Int64.sub sp.stop_ns sp.start_ns))
            sp.id sp.parent sp.req)
        spans;
      output_string oc "\n]}\n")
