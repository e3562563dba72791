let render_all tables =
  String.concat "\n" (List.map Hrt_stats.Table.render tables)

(* One entry at jobs=1 then at [ctx.jobs]: its timing rows, and whether
   the rendered tables came out byte-identical. *)
let measure_entry ctx entry =
  let seq_tables, seq_seconds =
    Registry.time_run ~ctx:(Exp.Ctx.with_jobs ctx 1) entry
  in
  let par_tables, par_seconds = Registry.time_run ~ctx entry in
  let metric q = entry.Registry.name ^ "." ^ q in
  ( [
      Bench.lower (metric "seq_seconds") ~unit:"s" seq_seconds;
      Bench.lower (metric "par_seconds") ~unit:"s" par_seconds;
      Bench.higher (metric "speedup") ~unit:"ratio"
        (if par_seconds > 0. then seq_seconds /. par_seconds else 0.);
    ],
    String.equal (render_all seq_tables) (render_all par_tables) )

let measure ?ctx entries =
  let ctx = Exp.or_default ctx in
  let samples = List.map (measure_entry ctx) entries in
  List.concat_map fst samples
  @ [
      Bench.higher "identical" ~unit:"flag"
        (if List.for_all snd samples then 1. else 0.);
    ]
