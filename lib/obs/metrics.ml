open Hrt_stats

type counter = { mutable n : int }
type gauge = { mutable g : float; mutable touched : bool }
(* A histogram keeps every sample (exact percentiles) plus its running
   mean (Welford's update, the same arithmetic as [Summary.add]) and max.
   [stats] holds floats only, so OCaml stores it flat and an update
   writes in place rather than boxing a float per field. *)
type stats = { mutable seen : float; mutable mean : float; mutable max : float }
type histo = { samples : Percentile.t; stats : stats }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histo of histo

type key = { name : string; cpu : int option }

type t = {
  tbl : (key, instrument) Hashtbl.t;
  mutable order : key list; (* reverse creation order *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }

let new_histo () =
  {
    samples = Percentile.create ();
    stats = { seen = 0.; mean = 0.; max = neg_infinity };
  }

let find_or_add t ~name ~cpu make =
  let key = { name; cpu } in
  match Hashtbl.find_opt t.tbl key with
  | Some i -> i
  | None ->
    let i = make () in
    Hashtbl.add t.tbl key i;
    t.order <- key :: t.order;
    i

let counter t ?cpu name =
  match find_or_add t ~name ~cpu (fun () -> Counter { n = 0 }) with
  | Counter c -> c
  | Gauge _ | Histo _ ->
    invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)

let gauge t ?cpu name =
  match
    find_or_add t ~name ~cpu (fun () -> Gauge { g = 0.; touched = false })
  with
  | Gauge g -> g
  | Counter _ | Histo _ ->
    invalid_arg (Printf.sprintf "Metrics.gauge: %S is not a gauge" name)

let histo t ?cpu name =
  match
    find_or_add t ~name ~cpu (fun () ->
        Histo (new_histo ()))
  with
  | Histo h -> h
  | Counter _ | Gauge _ ->
    invalid_arg (Printf.sprintf "Metrics.histo: %S is not a histogram" name)

let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let counter_value c = c.n

let set g v =
  g.g <- v;
  g.touched <- true

let watermark g v = if (not g.touched) || v > g.g then set g v
let gauge_value g = g.g

let observe h v =
  Percentile.add h.samples v;
  let s = h.stats in
  s.seen <- s.seen +. 1.;
  s.mean <- s.mean +. ((v -. s.mean) /. s.seen);
  if v > s.max then s.max <- v

let histo_count h = Percentile.count h.samples
let histo_mean h = if h.stats.seen > 0. then h.stats.mean else 0.
let histo_max h = h.stats.max

let histo_percentile h p =
  if Percentile.count h.samples = 0 then 0. else Percentile.value h.samples p

let size t = Hashtbl.length t.tbl

(* Fold [src] into [dst], instrument by instrument, in [src]'s creation
   order. A key already present in [dst] is updated through the existing
   handle — it is NOT appended to [dst.order] again (find_or_add only
   records first creation), so repeated merges cannot duplicate rows.
   Counters add, gauges take the source value (the source is the later
   stream), histograms replay every sample so percentiles stay exact. *)
let merge dst src =
  if not (dst == src) then
    List.iter
      (fun key ->
        let mismatch what =
          invalid_arg
            (Printf.sprintf "Metrics.merge: %S is not a %s in both registries"
               key.name what)
        in
        match Hashtbl.find src.tbl key with
        | Counter c -> (
          match
            find_or_add dst ~name:key.name ~cpu:key.cpu (fun () ->
                Counter { n = 0 })
          with
          | Counter d -> d.n <- d.n + c.n
          | Gauge _ | Histo _ -> mismatch "counter")
        | Gauge g -> (
          match
            find_or_add dst ~name:key.name ~cpu:key.cpu (fun () ->
                Gauge { g = 0.; touched = false })
          with
          | Gauge d -> if g.touched then set d g.g
          | Counter _ | Histo _ -> mismatch "gauge")
        | Histo h -> (
          match
            find_or_add dst ~name:key.name ~cpu:key.cpu (fun () ->
                Histo (new_histo ()))
          with
          | Histo d -> Percentile.iter h.samples (fun v -> observe d v)
          | Counter _ | Gauge _ -> mismatch "histogram"))
      (List.rev src.order)

let header =
  [ "metric"; "cpu"; "kind"; "count"; "value"; "mean"; "p50"; "p90"; "p99"; "max" ]

let f v = Printf.sprintf "%.6g" v

let rows t =
  let keys =
    List.sort
      (fun a b ->
        match String.compare a.name b.name with
        | 0 -> Stdlib.compare a.cpu b.cpu
        | c -> c)
      (List.rev t.order)
  in
  List.map
    (fun key ->
      let cpu = match key.cpu with None -> "" | Some c -> string_of_int c in
      match Hashtbl.find t.tbl key with
      | Counter c ->
        [ key.name; cpu; "counter"; string_of_int c.n; ""; ""; ""; ""; ""; "" ]
      | Gauge g ->
        [ key.name; cpu; "gauge"; ""; f g.g; ""; ""; ""; ""; "" ]
      | Histo h ->
        let n = histo_count h in
        [
          key.name;
          cpu;
          "histogram";
          string_of_int n;
          "";
          f (histo_mean h);
          f (histo_percentile h 50.);
          f (histo_percentile h 90.);
          f (histo_percentile h 99.);
          f (if n = 0 then 0. else histo_max h);
        ])
    keys
