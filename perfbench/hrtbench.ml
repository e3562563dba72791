(* Benchmark worker processes, started by perfbench/run.py. Each command
   prints one JSON object per line on stdout. A worker whose start-up or
   warm-up is a set-up sample prints a "calib" line just after it
   ({!Calib.emit}).

     hrtbench ready                          start-up only (set-up samples)
     hrtbench repro --seconds S              repro passes
     hrtbench bsp --seed N --seconds S       bsp-obs runs
     hrtbench daemon --socket P              the serving daemon (jobs=1)
     hrtbench load --socket P --seed N --seconds S --mode warm|full|trace
                   --daemon-pid PID --clk-tck HZ [--flip]
                                             the open-loop generator
     hrtbench trace --seed N --trace-out F   traced per-layer breakdown *)

(* The layer a span belongs to, for self time: "serve.protocol.decode"
   is in "serve.protocol", "repro.fig6" in "repro". *)
let layer_of name =
  match String.split_on_char '.' name with
  | [ "serve"; "request" ] -> name
  | (("serve" | "analysis") as first) :: second :: _ -> first ^ "." ^ second
  | first :: _ -> first
  | [] -> name

let traced_layers =
  [
    "repro";
    "bsp";
    "engine";
    "serve.request";
    "serve.protocol";
    "analysis.taskset";
    "analysis.service";
    "analysis.oracle";
  ]

let trace ~seed ~trace_out =
  let spans = Span.create () in
  let sim_metrics, sim_checks = Sim.traced ~seed ~spans in
  let serve_metrics, serve_checks = Load.traced ~seed ~spans in
  let self = Span.self_seconds_by_layer spans ~layer_of in
  let self_metrics = List.map (fun l -> ("trace.self_s." ^ l, self l)) traced_layers in
  Span.write_chrome spans ~path:trace_out;
  Json.emit "layers"
    [
      ( "metrics",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Num v)) (sim_metrics @ serve_metrics @ self_metrics)) );
      ("checks", Json.Obj (sim_checks @ serve_checks));
      ("spans", Json.Int (List.length (Span.all spans)));
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let value name ~default = Util.arg_value args name ~default in
  let seed () = Int64.of_string (value "--seed" ~default:"42") in
  let seconds () = float_of_string (value "--seconds" ~default:"10") in
  match args with
  | "ready" :: _ ->
    Util.ready ();
    Calib.emit ()
  | "repro" :: _ -> Sim.repro ~seconds:(seconds ())
  | "bsp" :: _ -> Sim.bsp ~seed:(seed ()) ~seconds:(seconds ())
  | "daemon" :: _ -> Load.daemon ~socket:(value "--socket" ~default:"hrtbench.sock")
  | "load" :: _ ->
    Load.generate
      ~socket:(value "--socket" ~default:"hrtbench.sock")
      ~seed:(seed ()) ~seconds:(seconds ())
      ~mode:(value "--mode" ~default:"full")
      ~daemon_pid:(int_of_string (value "--daemon-pid" ~default:"0"))
      ~clk_tck:(float_of_string (value "--clk-tck" ~default:"100"))
      ~flip:(Util.has_flag args "--flip")
  | "trace" :: _ -> trace ~seed:(seed ()) ~trace_out:(value "--trace-out" ~default:"trace.json")
  | _ ->
    prerr_endline "usage: hrtbench ready|repro|bsp|daemon|load|trace [options]";
    exit 2

