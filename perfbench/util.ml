(* Host-side measurement helpers shared by the workloads. *)

module Clock = Hrt_harness.Clock

let read_proc path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

(* Peak resident set (VmHWM) of a process, by default this one, in kB. *)
let vm_hwm_kb ?pid () =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  read_proc path (fun ic ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      scan ())

(* CPU seconds (user + system, every thread) of another process. *)
let proc_cpu_seconds ~pid ~clk_tck =
  let line = read_proc (Printf.sprintf "/proc/%d/stat" pid) input_line in
  let close_paren = String.rindex line ')' in
  let rest = String.sub line (close_paren + 2) (String.length line - close_paren - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clk_tck

(* Cumulative (steal, total) clock ticks of the host's CPUs, from the
   first line of /proc/stat: steal is time the hypervisor gave to other
   guests while this one wanted to run. *)
let host_ticks () =
  let line = read_proc "/proc/stat" input_line in
  match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = Array.of_list (List.map float_of_string fields) in
    let total = Array.fold_left ( +. ) 0. (Array.sub v 0 (min 8 (Array.length v))) in
    ((if Array.length v > 7 then v.(7) else 0.), total)
  | _ -> (0., 0.)

let percentile xs q =
  if Array.length xs = 0 then 0.
  else Hrt_stats.Percentile.value (Hrt_stats.Percentile.of_array xs) q

let median xs = percentile xs 50.

(* Run [unit_of_work] until [seconds] have passed, at least [min_units]
   times. *)
let repeat_for ~seconds ~min_units unit_of_work =
  let t0 = Clock.now () in
  let n = ref 0 in
  while !n < min_units || Clock.now () -. t0 < seconds do
    unit_of_work ();
    incr n
  done

let arg_value args name ~default =
  let rec find = function
    | k :: v :: _ when String.equal k name -> v
    | _ :: rest -> find rest
    | [] -> default
  in
  find args

let has_flag args name = List.exists (String.equal name) args

(* The line every worker prints once it is ready to work. *)
let ready () = Json.emit "ready" [ ("ocaml", Json.Str Sys.ocaml_version) ]
