(* hrt_lint test suite: fixture goldens, mutation tests proving each
   rule fires, config-parser semantics, budget enforcement, a self-scan
   of the real tree, and focused regression tests for the code the lint
   flagged (sink default, APIC timer probe, fig10 accumulation order). *)

open Hrt_lint

let diag_lines diags = List.map Diag.to_string diags

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* ---- fixture corpus ---- *)

let fixture_files () =
  Sys.readdir "lint" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort String.compare

let is_waived_twin f = Filename.check_suffix (Filename.chop_extension f) "_waived"

let test_fixture_goldens () =
  let fixtures = fixture_files () in
  Alcotest.(check int) "fixture corpus size" 24 (List.length fixtures);
  List.iter
    (fun f ->
      let src = In_channel.with_open_text (Filename.concat "lint" f) In_channel.input_all in
      let expected = read_lines (Filename.concat "lint" (Filename.chop_extension f ^ ".expected")) in
      let diags = Driver.scan_string ~config:Config.all_on ~path:f src in
      Alcotest.(check (list string)) (f ^ " diagnostics") expected (diag_lines diags))
    fixtures

let test_fixture_waiver_split () =
  List.iter
    (fun f ->
      let src = In_channel.with_open_text (Filename.concat "lint" f) In_channel.input_all in
      let diags = Driver.scan_string ~config:Config.all_on ~path:f src in
      let unwaived = List.filter (fun d -> not (Diag.waived d)) diags in
      let waived = List.filter Diag.waived diags in
      if is_waived_twin f then (
        Alcotest.(check int) (f ^ ": no unwaived findings") 0 (List.length unwaived);
        Alcotest.(check bool) (f ^ ": carries a waived finding") true (waived <> []))
      else
        Alcotest.(check bool) (f ^ ": has an unwaived finding") true (unwaived <> []))
    (fixture_files ())

(* ---- mutation tests: a clean hot module, plus one injected defect per
   rule, must trip exactly that rule ---- *)

let clean_base = "[@@@hrt.hot]\n\nlet add a b = a + b\n\nlet scale k x = k * x\n"

let scan src = Driver.scan_string ~config:Config.all_on ~path:"mutant.ml" src

let test_clean_base () =
  Alcotest.(check (list string)) "clean base scans empty" [] (diag_lines (scan clean_base))

let mutations =
  [
    ("dom-mutable-global", "let cache = Hashtbl.create 8\n");
    ("det-wallclock", "let stamp () = Unix.gettimeofday ()\n");
    ("det-entropy", "let flip () = Random.bool ()\n");
    ("det-hashtbl-order", "let digest x = Hashtbl.hash x\n");
    ("det-float-polycmp", "let clamp x = min x 0.5\n");
    ("alloc-closure", "let apply x = (fun y -> y + x) x\n");
    ("alloc-partial", "let bump = List.map succ\n");
    ("alloc-tuple", "let pair x = (x, x)\n");
    ("alloc-option", "let boxed x = Some (x * 2)\n");
    ("alloc-list", "let singleton x = [ x ]\n");
    ("alloc-format", "let show x = Format.asprintf \"%d\" x\n");
    ("alloc-append", "let double s = s ^ s\n");
  ]

let test_mutations () =
  List.iter
    (fun (rule, snippet) ->
      let diags = scan (clean_base ^ snippet) in
      let hit = List.exists (fun d -> d.Diag.rule = rule) diags in
      Alcotest.(check bool)
        (Printf.sprintf "injected %s trips %s (got: %s)" snippet rule
           (String.concat "; " (diag_lines diags)))
        true hit)
    mutations

let test_bare_waiver_is_a_finding () =
  let diags = scan (clean_base ^ "let w = ref 1 [@@hrt.unsynchronized]\n") in
  Alcotest.(check bool) "bare waiver flagged" true
    (List.exists (fun d -> d.Diag.rule = "dom-waiver-reason") diags);
  Alcotest.(check bool) "underlying finding still unwaived" true
    (List.exists (fun d -> d.Diag.rule = "dom-mutable-global" && not (Diag.waived d)) diags)

let test_parse_error_diag () =
  match scan "let = = =\n" with
  | [ d ] ->
    Alcotest.(check string) "rule" "parse-error" d.Diag.rule;
    Alcotest.(check bool) "unwaivable" false (Diag.waived d)
  | ds -> Alcotest.failf "expected one parse-error, got %d diags" (List.length ds)

(* ---- config parsing and scoping ---- *)

let parse_ok s =
  match Config.parse_string s with
  | Ok c -> c
  | Error m -> Alcotest.failf "config parse failed: %s" m

let test_config_parse () =
  let c =
    parse_ok
      "# comment\n\
       waiver-budget nondet 3\n\
       [determinism]\n\
       include lib\n\
       exclude lib/vendor\n\
       allow det-wallclock lib/harness\n\
       [alloc]\n\
       include lib/engine\n"
  in
  Alcotest.(check (option int)) "budget" (Some 3) (Config.budget c "nondet");
  Alcotest.(check (option int)) "unset budget unlimited" None (Config.budget c "alloc_ok");
  let det = Config.scope c Config.Determinism in
  Alcotest.(check bool) "in scope" true (Config.in_scope det ~path:"lib/core/x.ml");
  Alcotest.(check bool) "excluded" false (Config.in_scope det ~path:"lib/vendor/x.ml");
  Alcotest.(check bool) "out of scope" false (Config.in_scope det ~path:"bin/x.ml");
  Alcotest.(check bool) "allow disables rule under prefix" false
    (Config.rule_enabled det ~rule:"det-wallclock" ~path:"lib/harness/bench.ml");
  Alcotest.(check bool) "other rules unaffected" true
    (Config.rule_enabled det ~rule:"det-entropy" ~path:"lib/harness/bench.ml");
  Alcotest.(check bool) "rule on elsewhere" true
    (Config.rule_enabled det ~rule:"det-wallclock" ~path:"lib/core/x.ml");
  let alloc = Config.scope c Config.Alloc in
  Alcotest.(check bool) "domain family untouched" false
    (Config.in_scope (Config.scope c Config.Domain) ~path:"lib/core/x.ml");
  (* Prefixes match whole path components, not raw string prefixes. *)
  Alcotest.(check bool) "component prefix matches" true
    (Config.in_scope alloc ~path:"lib/engine/event_queue.ml");
  Alcotest.(check bool) "no partial-component match" false
    (Config.in_scope alloc ~path:"lib/engine2/event_queue.ml")

let test_config_errors () =
  (match Config.parse_string "frobnicate lib\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown directive accepted");
  match Config.parse_string "waiver-budget nondet many\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric budget accepted"

let test_waiver_budget_exceeded () =
  let config = { Config.all_on with Config.budgets = [ ("alloc_ok", 0) ] } in
  let report = Driver.run ~config ~root:"lint" [ "alloc_closure_waived.ml" ] in
  Alcotest.(check bool) "budget breach is dirty" false (Driver.clean report);
  Alcotest.(check bool) "synthetic waiver-budget finding" true
    (List.exists (fun d -> d.Diag.rule = "waiver-budget") (Driver.unwaived report));
  (* Within budget the same waived file is clean. *)
  let config = { Config.all_on with Config.budgets = [ ("alloc_ok", 1) ] } in
  let report = Driver.run ~config ~root:"lint" [ "alloc_closure_waived.ml" ] in
  Alcotest.(check bool) "within budget is clean" true (Driver.clean report)

(* ---- self-scan: the committed tree must lint clean under the
   committed configuration ---- *)

let rec find_repo_root dir depth =
  if depth > 16 then None
  else if Sys.file_exists (Filename.concat dir ".git")
          && Sys.file_exists (Filename.concat dir ".hrt-lint")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_repo_root parent (depth + 1)

let test_self_scan () =
  match find_repo_root (Sys.getcwd ()) 0 with
  | None -> Alcotest.fail "repository root (.git + .hrt-lint) not found"
  | Some root ->
    let config =
      match Config.load (Filename.concat root ".hrt-lint") with
      | Ok c -> c
      | Error m -> Alcotest.failf "config load failed: %s" m
    in
    let report = Driver.run ~config ~root [ "lib"; "bin" ] in
    let offenders = diag_lines (Driver.unwaived report) in
    Alcotest.(check (list string)) "tree is lint-clean" [] offenders;
    Alcotest.(check bool) "scanned a real tree" true (report.Driver.files > 50)

(* The enabled sink's per-event path sits in the committed [alloc] scope
   and is marked hot: putting the per-event series-name concatenation the
   handle table replaced back into [update_metrics] must trip
   [alloc-append]. *)
let test_sink_emit_mutation () =
  match find_repo_root (Sys.getcwd ()) 0 with
  | None -> Alcotest.fail "repository root (.git + .hrt-lint) not found"
  | Some root ->
    let config =
      match Config.load (Filename.concat root ".hrt-lint") with
      | Ok c -> c
      | Error m -> Alcotest.failf "config load failed: %s" m
    in
    let path = "lib/obs/sink.ml" in
    let src =
      In_channel.with_open_text (Filename.concat root path) In_channel.input_all
    in
    let site = "incr t (find_phase t phase h.phases) ~cpu" in
    let at =
      let n = String.length site in
      let rec find i =
        if i + n > String.length src then
          Alcotest.failf "%s: mutation site %S not found" path site
        else if String.sub src i n = site then i
        else find (i + 1)
      in
      find 0
    in
    let mutant =
      String.sub src 0 at
      ^ "incr t (row (\"group.phase.\" ^ phase)) ~cpu"
      ^ String.sub src (at + String.length site)
          (String.length src - at - String.length site)
    in
    let appends src =
      List.filter
        (fun d -> d.Diag.rule = "alloc-append" && not (Diag.waived d))
        (Driver.scan_string ~config ~path src)
    in
    Alcotest.(check (list string)) "committed sink is clean" []
      (diag_lines (appends src));
    Alcotest.(check bool) "mutant trips alloc-append" true (appends mutant <> [])

(* ---- reachability: every module under lib/ must be named by another
   .ml in lib/, bin/ or perfbench/, so none lives only for its own
   tests ---- *)

let rec ml_files root rel =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun e -> ml_files root (Filename.concat rel e))
  else if Filename.check_suffix rel ".ml" then [ rel ]
  else []

(* Module names [src] uses outside comments and literals: each
   capitalized path component followed by a dot ([Mod.x], [Mod.(e)]) and
   every component of an [open] path. *)
let named_modules src =
  let n = String.length src in
  let is_id = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  let rec comment i depth =
    if i + 1 >= n then n
    else if src.[i] = '(' && src.[i + 1] = '*' then comment (i + 2) (depth + 1)
    else if src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
    else comment (i + 1) depth
  in
  let rec string i =
    if i >= n then n
    else
      match src.[i] with
      | '\\' -> string (i + 2)
      | '"' -> i + 1
      | _ -> string (i + 1)
  in
  let rec ident_end j = if j < n && is_id src.[j] then ident_end (j + 1) else j in
  let rec go i ~after_open acc =
    if i >= n then acc
    else
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
        go (comment (i + 2) 1) ~after_open acc
      | '"' -> go (string (i + 1)) ~after_open acc
      | '\'' when i + 1 < n && src.[i + 1] = '\\' ->
        go (String.index_from src (i + 3) '\'' + 1) ~after_open acc
      | '\'' when i + 2 < n && src.[i + 2] = '\'' -> go (i + 3) ~after_open acc
      | 'A' .. 'Z' -> path i ~after_open acc
      | c when is_id c ->
        let j = ident_end i in
        go j ~after_open:(String.sub src i (j - i) = "open") acc
      | _ -> go (i + 1) ~after_open acc
  and path i ~after_open acc =
    let j = ident_end i in
    let comp = String.sub src i (j - i) in
    if j < n && src.[j] = '.' then
      if j + 1 < n && 'A' <= src.[j + 1] && src.[j + 1] <= 'Z' then
        path (j + 1) ~after_open (comp :: acc)
      else go (j + 1) ~after_open:false (comp :: acc)
    else go j ~after_open:false (if after_open then comp :: acc else acc)
  in
  go 0 ~after_open:false [] |> List.sort_uniq String.compare

let test_lib_modules_reached () =
  match find_repo_root (Sys.getcwd ()) 0 with
  | None -> Alcotest.fail "repository root (.git + .hrt-lint) not found"
  | Some root ->
    let named =
      List.concat_map (ml_files root) [ "lib"; "bin"; "perfbench" ]
      |> List.map (fun rel ->
             ( rel,
               named_modules
                 (In_channel.with_open_text (Filename.concat root rel)
                    In_channel.input_all) ))
    in
    let modules = ml_files root "lib" in
    let unreached =
      List.filter
        (fun rel ->
          let m =
            String.capitalize_ascii
              (Filename.remove_extension (Filename.basename rel))
          in
          not
            (List.exists
               (fun (user, ms) -> user <> rel && List.mem m ms)
               named))
        modules
    in
    Alcotest.(check bool) "scanned a real tree" true (List.length modules > 50);
    Alcotest.(check (list string)) "every lib module is reached" [] unreached

let test_summary_line () =
  let report = Driver.run ~config:Config.all_on ~root:"lint" [ "alloc_tuple.ml" ] in
  Alcotest.(check string) "summary format"
    "hrt-lint: files=1 findings=1 waived=0 status=dirty"
    (Driver.summary_line report)

(* ---- regressions for the defects the lint surfaced ---- *)

(* lib/hw/apic.ml: the armed-timer probe the scheduler polls every
   decision is now the allocation-free [timer_armed]; it must agree with
   the option-building diagnostic accessor across arm/fire/cancel. *)
let test_apic_timer_armed () =
  let open Hrt_engine in
  let eng = Engine.create () in
  let apic =
    Hrt_hw.Apic.create ~engine:eng ~rng:(Rng.create 5L) ~tick_ns:25
      ~tsc_deadline:false ~jitter_max_cycles:0. ~ghz:1.3
  in
  let agree label =
    Alcotest.(check bool) (label ^ ": probe matches accessor")
      (Hrt_hw.Apic.timer_armed apic)
      (Hrt_hw.Apic.timer_armed_at apic <> None)
  in
  Alcotest.(check bool) "initially disarmed" false (Hrt_hw.Apic.timer_armed apic);
  agree "initial";
  Hrt_hw.Apic.set_timer_handler apic (fun _ -> ());
  Hrt_hw.Apic.arm apic ~at:100L;
  Alcotest.(check bool) "armed" true (Hrt_hw.Apic.timer_armed apic);
  agree "armed";
  Hrt_hw.Apic.cancel_timer apic;
  Alcotest.(check bool) "cancelled" false (Hrt_hw.Apic.timer_armed apic);
  agree "cancelled";
  Hrt_hw.Apic.arm apic ~at:200L;
  Engine.run eng;
  Alcotest.(check bool) "disarmed after fire" false (Hrt_hw.Apic.timer_armed apic);
  agree "fired"

(* lib/harness/fig10.ml: per-mark accumulation now folds in thread-id
   order instead of Hashtbl order, so the float sums — and therefore the
   rendered tables — are identical run to run. *)
let test_fig10_repeatable () =
  let render () =
    Hrt_harness.Fig10.run ~ctx:(Hrt_harness.Exp.Ctx.default ()) ()
    |> List.map Hrt_stats.Table.render
    |> String.concat "\n"
  in
  let a = render () in
  Alcotest.(check bool) "produced output" true (String.length a > 0);
  Alcotest.(check string) "identical reruns" a (render ())

let suite =
  [
    Alcotest.test_case "fixture goldens" `Quick test_fixture_goldens;
    Alcotest.test_case "fixture waiver split" `Quick test_fixture_waiver_split;
    Alcotest.test_case "clean base" `Quick test_clean_base;
    Alcotest.test_case "mutations trip rules" `Quick test_mutations;
    Alcotest.test_case "bare waiver is a finding" `Quick test_bare_waiver_is_a_finding;
    Alcotest.test_case "parse error diag" `Quick test_parse_error_diag;
    Alcotest.test_case "config parse" `Quick test_config_parse;
    Alcotest.test_case "config errors" `Quick test_config_errors;
    Alcotest.test_case "waiver budget" `Quick test_waiver_budget_exceeded;
    Alcotest.test_case "summary line" `Quick test_summary_line;
    Alcotest.test_case "self scan clean" `Quick test_self_scan;
    Alcotest.test_case "sink emit mutation trips alloc-append" `Quick
      test_sink_emit_mutation;
    Alcotest.test_case "lib modules reached" `Quick test_lib_modules_reached;
    Alcotest.test_case "apic timer armed" `Quick test_apic_timer_armed;
    Alcotest.test_case "fig10 repeatable" `Quick test_fig10_repeatable;
  ]
