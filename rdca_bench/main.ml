(* The rdca benchmark driver.

     main.exe --workload synth|testability|campaign --seed N --seconds S
              --trace 0|1

   One fresh process per run.  Set-up prepares round 0, drawn from the
   reference seed, nine times and reports the median; then a number of
   whole rounds fixed by S runs, every item distinct.  Every item's outputs are checked against the
   reference model outside the timed region.  The
   last line of standard output is one JSON object: correct, attempted,
   failed and the metrics — end-to-end ones with --trace 0, per-layer
   ones with --trace 1.  With --trace 1 even rounds run with a span
   around each layer call and odd rounds without, so the run can report
   its own tracing overhead. *)

open Common
module J = Rdca_json.Jsonout

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--bench-worker" then begin
    Parallel.Pool.set_default_jobs 1;
    Resilient.Worker.serve ~handler:Distrib.dispatch ~input:Unix.stdin
      ~output:Unix.stdout ();
    exit 0
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload synth|testability|campaign --seed N --seconds S \
     --trace 0|1";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some n -> go { acc with seed = n } rest
        | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x > 0.0 -> go { acc with seconds = x } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | _ -> usage ()
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 10.0;
      trace = false;
    }
    (List.tl (Array.to_list Sys.argv))

let workload = function
  | "synth" -> (module Synth : WORKLOAD)
  | "testability" -> (module Testability : WORKLOAD)
  | "campaign" -> (module Campaign : WORKLOAD)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Provenance *)

(* Reads to end of file: files under /proc report a length of 0. *)
let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (String.trim (In_channel.input_all ic)))
  with Sys_error _ -> None

(* The checked-out revision, read from .git when there is one. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed -> (
              match
                List.find_opt
                  (fun l ->
                    let n = String.length l and k = String.length r in
                    n > k && String.sub l (n - k) k = r)
                  (String.split_on_char '\n' packed)
              with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown")))
  | Some rev -> rev
  | None -> "unknown"

let rdca_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 5 && String.sub kv 0 5 = "RDCA_")
  |> List.sort compare

(* Peak resident set of this process, from the kernel's own account. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> Float.nan
  | Some status -> (
      match
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (String.split_on_char '\n' status)
      with
      | None -> Float.nan
      | Some l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
              kb /. 1024.0))

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  if n = 0 then Float.nan else a.(max 0 (min (n - 1) (k - 1)))

(* Compact one-line JSON for the result line. *)
let rec compact = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Int i -> string_of_int i
  | J.Float f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | J.String s -> Printf.sprintf "%S" s
  | J.List l -> "[" ^ String.concat ", " (List.map compact l) ^ "]"
  | J.Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (compact v)) kv)
      ^ "}"

(* ------------------------------------------------------------------ *)
(* The run *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* The host's speed drifts by a quarter and more over minutes (a plain
   arithmetic loop shows it), far beyond what any change to the program
   would move.  So before every item, outside the timed region, the run
   times a fixed loop of its own, and every reported time is scaled by
   [calibration_ref_ms / median loop time]: times at the reference
   speed of the machine the benchmark was tuned on.  The loop is
   benchmark code, so no change to the program moves it.  The raw
   figures go into the provenance line.  The item times of workloads
   whose items mostly wait on other processes are not scaled; their
   set-up, in-process, is (see [setup_reps]). *)
let calibration_ref_ms = 0.75

let calibration_table = Array.init 65536 (fun i -> (i * 2654435761) land 0xffff)

let calibrate () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 and j = ref 0 in
  for _ = 1 to 200_000 do
    j := ((!j * 1103515245) + 12345) land 0xffff;
    acc := !acc + calibration_table.(!j) + (!acc lsr 3)
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

(* Set-up is the process's own computation in every workload, so its
   time is always scaled, each copy by the mean of the calibration
   loops timed just before and just after it: the host's speed moves
   within a run, and a set-up copy lasts a fraction of a second.  The
   median of several copies damps what scaling leaves. *)
let setup_reps = 9

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable quality : quality;
  mutable times : float list;  (** untraced item seconds *)
  mutable traced_times : float list;
  mutable prof : (string * float) list;  (** counter and span deltas, traced items *)
}

(* An item fails on a failed check or on any exception the program
   raises. *)
let failure = function
  | Check_failed m -> m
  | e -> "exception " ^ Printexc.to_string e

let prof_deltas ~before ~after =
  let d = Prof.diff ~before ~after in
  List.map (fun (n, v) -> (n, float_of_int v)) d.Prof.counters
  @ List.map (fun (n, s, _) -> (n ^ "_s", s)) d.Prof.spans

let merge a b =
  List.fold_left
    (fun acc (k, v) ->
      (k, v +. Option.value ~default:0.0 (List.assoc_opt k acc))
      :: List.remove_assoc k acc)
    a b

let main () =
  let args = parse_args () in
  let (module W) = workload args.workload in
  let t_start = Unix.gettimeofday () in
  Parallel.Pool.set_default_jobs (W.jobs ());
  Prof.set_enabled false;
  (* Set-up: round 0, [setup_reps] times from cold memos; the last
     copy is kept.  With --trace 1 the last one is traced for its
     layers.  Round 0 comes from the reference seed in every run: how
     many draws it takes to find items of the wanted size depends on
     the seed, and set-up time would follow it.  So set-up is the same
     work whatever the seed, and the later rounds come from --seed. *)
  let calibrations = ref [] in
  let calibrate () =
    let c = calibrate () in
    calibrations := c :: !calibrations;
    c
  in
  let setups =
    List.init setup_reps (fun k ->
        let before = calibrate () in
        Aig.Cut.clear_memo ();
        Trace.enabled := args.trace && k = setup_reps - 1;
        let items, dt =
          time (fun () ->
              Trace.with_span "setup" (fun () -> W.round ~seed:reference_seed ~round:0))
        in
        Trace.enabled := false;
        let after = calibrate () in
        (items, dt, dt *. calibration_ref_ms /. (500.0 *. (before +. after))))
  in
  let setup_s = median (List.map (fun (_, _, s) -> s) setups) in
  let round0, _, _ = List.nth setups (setup_reps - 1) in
  let tally =
    {
      attempted = 0;
      failed = 0;
      quality = zero;
      times = [];
      traced_times = [];
      prof = [];
    }
  in
  (* Every run with the same --seconds makes the same rounds, so runs
     with one seed do the same work and runs with different seeds work
     of the same make-up; the number comes from each workload's
     round_seconds (see README.md). *)
  let rounds =
    (* A traced run needs an untraced round to compare against. *)
    max (if args.trace then 2 else 1)
      (int_of_float (Float.round (args.seconds /. W.round_seconds)))
  in
  (* The highest percentile with ten items beyond it. *)
  let tail_pct =
    let n = float_of_int (rounds * Array.length round0) in
    List.find
      (fun p -> (1.0 -. (p /. 100.0)) *. n >= 10.0)
      [ 99.0; 95.0; 90.0; 85.0; 80.0; 75.0; 50.0; 0.0 ]
  in
  for round = 0 to rounds - 1 do
    let items = if round = 0 then round0 else W.round ~seed:args.seed ~round in
    let traced = args.trace && round mod 2 = 0 in
    Array.iter
      (fun it ->
        tally.attempted <- tally.attempted + 1;
        ignore (calibrate ());
        let result =
          if traced then begin
            Prof.set_enabled true;
            Trace.enabled := true;
            let before = Prof.snapshot () in
            let r =
              time (fun () ->
                  Trace.with_span "item"
                    ~on_close:(fun s ->
                      let d = prof_deltas ~before ~after:(Prof.snapshot ()) in
                      s.Trace.args <- d;
                      tally.prof <- merge tally.prof d)
                    (fun () ->
                      try Ok (W.run_traced it) with e -> Error (failure e)))
            in
            Trace.enabled := false;
            Prof.set_enabled false;
            r
          end
          else
            time (fun () -> try Ok (W.run it) with e -> Error (failure e))
        in
        let outcome =
          match result with
          | Error m, _ -> Error m
          | Ok out, dt -> (
              if traced then tally.traced_times <- dt :: tally.traced_times
              else tally.times <- dt :: tally.times;
              Printf.eprintf "item %d %.3f ms %s\n" round (1000.0 *. dt) (W.label it);
              try
                if traced && round = 0 then W.check_breakdown it out;
                Ok (W.check it out)
              with e -> Error (failure e))
        in
        match outcome with
        | Ok q -> tally.quality <- add tally.quality q
        | Error m ->
            tally.failed <- tally.failed + 1;
            Printf.eprintf "FAILED %s: %s\n%!" (W.label it) m)
      items
  done;
  W.finish ();
  let calibration_ms = 1000.0 *. median !calibrations in
  let scale = if W.scaled then calibration_ref_ms /. calibration_ms else 1.0 in
  let items_per_s times =
    let n = List.length times in
    if n = 0 then Float.nan else float_of_int n /. List.fold_left ( +. ) 0.0 times
  in
  let raw = tally.times in
  let provenance =
    J.Obj
      [
        ("workload", J.String W.name);
        ("seed", J.Int args.seed);
        ("seconds", J.Float args.seconds);
        ("trace", J.Bool args.trace);
        ("git_rev", J.String (git_rev ()));
        ("ocaml", J.String Sys.ocaml_version);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("jobs", J.Int (W.jobs ()));
        ("workers", J.Int (W.workers ()));
        ("rdca_env", J.List (List.map (fun s -> J.String s) (rdca_env ())));
        ("rounds", J.Int rounds);
        ("items_per_round", J.Int (Array.length round0));
        ("tail_percentile", J.Float tail_pct);
        ("wall_s", J.Float (Unix.gettimeofday () -. t_start));
        ("calibration_ms", J.Float calibration_ms);
        ("time_scale", J.Float scale);
        ( "unscaled",
          J.Obj
            [
              ("setup_s", J.Float (median (List.map (fun (_, dt, _) -> dt) setups)));
              ("setup_reps_s", J.List (List.map (fun (_, dt, _) -> J.Float dt) setups));
              ("items_per_s", J.Float (items_per_s raw));
              ("item_p50_ms", J.Float (1000.0 *. median raw));
              ("item_tail_ms", J.Float (1000.0 *. percentile tail_pct raw));
            ] );
      ]
  in
  Printf.printf "provenance %s\n" (compact provenance);
  let metric name unit value = (name, value, unit) in
  let metrics =
    if not args.trace then
      let times = List.map (fun t -> t *. scale) tally.times in
      let q = tally.quality in
      [
        metric "setup_s" "s" setup_s;
        metric "items_per_s" "1/s" (items_per_s times);
        metric "item_p50_ms" "ms" (1000.0 *. median times);
        metric "item_tail_ms" "ms" (1000.0 *. percentile tail_pct times);
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
        metric "area" "um2" q.area;
        metric "delay" "ns" q.delay;
        metric "power" "fF" q.power;
        metric "error_events" "count" (float_of_int q.events);
      ]
    else begin
      let traced_items = float_of_int (List.length tally.traced_times) in
      let per_item v = if traced_items = 0.0 then 0.0 else v /. traced_items in
      let span name = per_item (fst (Trace.total name)) in
      let prof name = per_item (Option.value ~default:0.0 (List.assoc_opt name tally.prof)) in
      let counted name = per_item (Trace.counted name) in
      let setup_span name = fst (Trace.total name) in
      let sat_conflicts = Option.value ~default:0.0 (List.assoc_opt "sat.conflicts" tally.prof) in
      let classes = Option.value ~default:0.0 (List.assoc_opt "atpg.classes" tally.prof) in
      let file = Printf.sprintf "_bench_out/trace-%s-%d.json" W.name args.seed in
      (try
         if not (Sys.file_exists "_bench_out") then Sys.mkdir "_bench_out" 0o755;
         J.write_file file (Trace.to_json ~t0:t_start);
         Printf.printf "trace written to %s\n" file
       with Sys_error e -> Printf.eprintf "could not write the trace: %s\n" e);
      [
        metric "pla.parse_s" "s" (setup_span "pla.parse");
        metric "setup.generate_s" "s" (setup_span "setup.generate");
        metric "setup.synth_s" "s" (setup_span "setup.synth");
        metric "core.assign_s" "s/item" (span "core.assign");
        metric "espresso.implement_s" "s/item" (span "espresso.implement");
        metric "reliability.error_s" "s/item" (span "reliability.error");
        metric "aig.build_s" "s/item" (span "aig.build");
        metric "aig.balance_s" "s/item" (span "aig.balance");
        metric "techmap.map_s" "s/item" (span "techmap.map");
        metric "techmap.report_s" "s/item" (span "techmap.report");
        metric "cut.enumerate_s" "s/item" (prof "cut.enumerate_s");
        metric "core.dc_assigned" "count/item" (counted "core.dc_assigned");
        metric "espresso.cubes" "count/item" (counted "espresso.cubes");
        metric "aig.ands" "count/item" (counted "aig.ands");
        metric "aig.depth" "count/item" (counted "aig.depth");
        metric "techmap.gates" "count/item" (counted "techmap.gates");
        metric "cut.memo_hits" "count/item" (prof "cut.memo_hits");
        metric "cut.memo_misses" "count/item" (prof "cut.memo_misses");
        metric "map.index_hits" "count/item" (prof "map.index_hits");
        metric "map.index_misses" "count/item" (prof "map.index_misses");
        metric "spec.plane_builds" "count/item" (prof "spec.plane_builds");
        metric "pool.batches" "count/item" (prof "pool.batches");
        metric "pool.tiny_skips" "count/item" (prof "pool.tiny_skips");
        metric "pool.seq_regions" "count/item" (prof "pool.seq_regions");
        metric "pool.domains_spawned" "count/item" (prof "pool.domains_spawned");
        metric "pool.drain_s" "s/item" (prof "pool.drain_s");
        metric "check.implementation_s" "s/item" (span "check.implementation");
        metric "atpg.analyze_s" "s/item" (span "atpg.analyze");
        metric "atpg.scoap_s" "s/item" (span "atpg.scoap");
        metric "atpg.diagnostics_s" "s/item" (span "atpg.diagnostics");
        metric "atpg.remove_s" "s/item" (span "atpg.remove");
        metric "atpg.classes" "count/item" (counted "atpg.classes");
        metric "atpg.passes" "count/item" (counted "atpg.passes");
        metric "atpg.reanalysed_classes" "count/item" (counted "atpg.reanalysed_classes");
        metric "atpg.lines_removed" "count/item" (counted "atpg.lines_removed");
        metric "sat.conflicts" "count/item" (prof "sat.conflicts");
        metric "sat.decisions" "count/item" (prof "sat.decisions");
        metric "sat.propagations" "count/item" (prof "sat.propagations");
        metric "sat.restarts" "count/item" (prof "sat.restarts");
        metric "sat.conflicts_per_class" "count"
          (if classes = 0.0 then 0.0 else sat_conflicts /. classes);
        metric "dc.optimize_s" "s/item" (span "dc.optimize");
        metric "dc.nodes_analyzed" "count/item" (counted "dc.nodes_analyzed");
        metric "dc.dc_patterns" "count/item" (counted "dc.dc_patterns");
        metric "dc.rewritten" "count/item" (counted "dc.rewritten");
        metric "reliability.campaign_s" "s/item" (span "reliability.campaign");
        metric "reliability.sites" "count/item" (counted "reliability.sites");
        metric "reliability.trials" "count/item" (counted "reliability.trials");
        metric "resilient.events" "count/item" (counted "resilient.events");
        metric "resilient.retries" "count/item" (counted "resilient.retries");
        metric "resilient.worker_spawns" "count/item" (counted "resilient.worker_spawns");
        metric "trace.items_per_s" "1/s" (items_per_s tally.traced_times /. scale);
        metric "trace.untraced_items_per_s" "1/s" (items_per_s tally.times /. scale);
        metric "trace.coverage" "fraction" (Trace.coverage "item");
      ]
    end
  in
  List.iter
    (fun (n, v, u) -> Printf.printf "%-28s %14.6g %s\n" n v u)
    metrics;
  let correct = tally.failed = 0 in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int tally.attempted);
        ("failed", J.Int tally.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
               metrics) );
      ]
  in
  print_endline (compact result);
  exit (if correct then 0 else 1)

let () = main ()
