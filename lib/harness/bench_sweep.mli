(** Sweep-parallelism benchmark behind [hrt_sim bench sweep].

    For each registry entry this runs the sweep twice — sequentially
    (jobs=1) and at the context's job count — times both, and checks the
    rendered tables are byte-identical (the determinism guarantee of
    {!Exp.parallel_map}). *)

val measure : ?ctx:Exp.Ctx.t -> Registry.entry list -> Bench.row list
(** Rows per entry: [<name>.seq_seconds] (wall time at jobs=1),
    [<name>.par_seconds] (at [ctx.jobs]) and [<name>.speedup]; then one
    [identical] row, 1 when every entry's tables matched. [ctx] defaults
    to {!Exp.or_default}[ None] (so jobs comes from [HRT_JOBS]). *)
