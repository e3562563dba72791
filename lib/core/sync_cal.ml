open Hrt_engine
open Hrt_hw

type result = {
  residual_cycles : float array;
  residual_ns : Time.ns array;
}

let calibrate (m : Machine.t) =
  let plat = m.Machine.platform in
  let n = Machine.num_cpus m in
  let rng = Rng.split m.Machine.rng in
  let now = Engine.now m.Machine.engine in
  let ref_tsc = (Machine.cpu m 0).Machine.tsc in
  let ref_read = Tsc.read ref_tsc ~now in
  let residual_cycles = Array.make n 0. in
  for i = 1 to n - 1 do
    let tsc = (Machine.cpu m i).Machine.tsc in
    let true_delta = Int64.sub (Tsc.read tsc ~now) ref_read in
    (* The round-trip measurement has error whose magnitude follows the
       platform's calibration error model; sign is symmetric. *)
    let magnitude =
      Float.abs
        (Rng.gaussian rng ~mu:plat.Platform.cal_error_mu
           ~sigma:plat.Platform.cal_error_sigma)
    in
    let sign = if Rng.int rng 2 = 0 then 1. else -1. in
    let error = sign *. magnitude in
    let measured = Int64.add true_delta (Int64.of_float error) in
    Tsc.adjust tsc (Int64.neg measured);
    residual_cycles.(i) <- Int64.to_float (Int64.sub (Tsc.read tsc ~now) ref_read)
  done;
  let residual_ns =
    Array.map
      (fun c -> Int64.of_float (Float.round (c /. plat.Platform.ghz)))
      residual_cycles
  in
  { residual_cycles; residual_ns }
