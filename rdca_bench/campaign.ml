(* campaign: supervised fault-injection campaigns through
   Distrib.campaign_run with nproc Exec'd worker processes.  Every
   site is swept for all three fault kinds with a fixed trial count:
   the reliability layer reached through Monte-Carlo sampling over
   scalar netlist evaluation, plus the resilient frames and
   supervisor. *)

open Common

type item = {
  label : string;
  path : string;
  spec : Pla.Spec.t;
  strategy : Flow.strategy;
  mode : Techmap.Mapper.mode;
  netlist : Netlist.t;
  config : Reliability.Campaign.config;
}

type output = Reliability.Campaign.report Distrib.distributed

let name = "campaign"
let workers () = Domain.recommended_domain_count ()
let jobs () = 1
let per_round = 12
(* Campaign items mostly wait on worker processes being started and
   fed; measured, their raw times are steadier than scaled ones. *)
let scaled = false
let round_seconds = 3.0
let trials = 256
let shard_size = 4

(* Where set-up writes the .pla files the worker processes read. *)
let dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf "_bench_work/%d" (Unix.getpid ()))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let round ~seed ~round =
  mkdir_p dir;
  Array.init per_round (fun i ->
      (* Even items come from the reference seed. *)
      let seed = if i mod 2 = 0 then reference_seed else seed in
      let rng = stream ~seed ~round ~index:i in
      let path = Filename.concat dir (Printf.sprintf "r%d_%d.pla" round i) in
      let strategy = strategies.(i mod 9) and mode = modes.(i mod 3) in
      let r, spec =
        sized rng ~gates:(20, 50) (fun rng ->
            let generated =
              let ni = 5 + (i mod 3) in
              gen_spec rng ~ni ~no:(if ni = 7 then 1 else 1 + (i / 3 mod 2))
                ~dc:(grid i 5 0.3 0.6) ~cf:None
            in
            Pla.write_file path generated;
            let spec =
              Trace.with_span "pla.parse" (fun () -> (Pla.parse_file path).Pla.spec)
            in
            if not (Pla.Spec.equal spec generated) then
              fail "%s: .pla round trip changed the spec" path;
            (Trace.with_span "setup.synth" (fun () -> Flow.synthesize ~mode ~strategy spec), spec))
      in
      {
        label =
          Printf.sprintf "c%d.%d %s %s %s, %d gates" round i (spec_label spec)
            (Flow.strategy_name strategy) (Techmap.Mapper.mode_name mode)
            (Netlist.gate_count r.Flow.netlist);
        path;
        spec;
        strategy;
        mode;
        netlist = r.Flow.netlist;
        config =
          {
            Reliability.Campaign.default_config with
            seed = Synthetic.Splittable.int rng 1_000_000_000;
            trials_per_site = trials;
          };
      })

let label it = it.label

let opts () =
  {
    Distrib.default_campaign_opts with
    sup =
      {
        Resilient.Supervisor.default with
        workers = workers ();
        spawn = Resilient.Supervisor.Exec [| Sys.executable_name; "--bench-worker" |];
      };
    shard_size;
  }

(* One function serves both runs: spans and counts cost nothing when
   tracing is off. *)
let run it =
  let d =
    Trace.with_span "reliability.campaign" (fun () ->
        match
          Distrib.campaign_run (opts ()) ~input:it.path ~strategy:it.strategy
            ~mode:it.mode it.config it.spec it.netlist
        with
        | Ok d -> d
        | Error e -> fail "%s" e)
  in
  let count = Trace.count in
  let report = d.Distrib.value in
  let events code =
    List.length
      (List.filter (fun e -> e.Resilient.Event.code = code) d.Distrib.events)
  in
  let sites = report.Reliability.Campaign.sites_total in
  count "reliability.sites" (float_of_int sites);
  count "reliability.trials"
    (float_of_int
       (List.fold_left
          (fun acc r -> acc + r.Reliability.Campaign.trials)
          0 report.Reliability.Campaign.results));
  count "resilient.events" (float_of_int (List.length d.Distrib.events));
  count "resilient.retries" (float_of_int (events "task-retry"));
  count "resilient.worker_spawns" (float_of_int (events "worker-spawned"));
  d

let run_traced = run

(* Bernstein's inequality for a sum of independent variables within
   [no] of their means and total variance [v]: a deviation beyond the
   returned bound has probability below [delta]. *)
let bernstein ~v ~no ~delta =
  let l = log (2.0 /. delta) and m = float_of_int no in
  let b = 2.0 *. l *. m /. 3.0 in
  (b +. sqrt ((b *. b) +. (8.0 *. l *. v))) /. 2.0

let ref_fault kind node =
  match kind with
  | Reliability.Inject.Stuck_at_0 -> R.Stem (node, false)
  | Reliability.Inject.Stuck_at_1 -> R.Stem (node, true)
  | Reliability.Inject.Transient -> R.Flip node

let check it (d : output) =
  let report = d.Distrib.value in
  let module C = Reliability.Campaign in
  if d.Distrib.interrupted || not report.C.complete then
    fail "the campaign is incomplete";
  (match d.Distrib.exec_mode with
  | Resilient.Supervisor.Processes n when n = workers () -> ()
  | _ -> fail "the campaign did not run in %d worker processes" (workers ()));
  let spec = R.spec_of_pla it.spec in
  let t = R.of_netlist it.netlist in
  let sites = R.sites t in
  if report.C.sites_total <> List.length sites || report.C.sites_done <> List.length sites
  then
    fail "%d of %d sites swept, reference has %d" report.C.sites_done
      report.C.sites_total (List.length sites);
  (* Each kind's pooled count against the exact reference: a miss
     happens by chance with probability under 1e-9. *)
  let good = R.output_tables t in
  List.iter
    (fun (p : C.pooled) ->
      let mean, var =
        List.fold_left
          (fun (m, v) site ->
            let m', v' = R.propagation_moments ~good spec t (ref_fault p.C.p_kind site) in
            (m +. m', v +. v'))
          (0.0, 0.0) sites
      in
      let n = float_of_int trials in
      let expected = n *. mean and bound = bernstein ~v:(n *. var) ~no:spec.R.s_no ~delta:1e-9 in
      let got = float_of_int p.C.p_propagated in
      if p.C.p_sites <> List.length sites || Float.abs (got -. expected) > bound then
        fail "%s pooled %d propagations over %d sites, reference expects %.1f +- %.1f"
          (Reliability.Inject.kind_name p.C.p_kind) p.C.p_propagated p.C.p_sites
          expected bound)
    (C.pooled report);
  let _, q =
    audit ~spec ~report:(Techmap.Report.of_netlist it.netlist) it.netlist
  in
  q

let check_breakdown _ _ = ()

let finish () =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir;
    (try Sys.rmdir (Filename.dirname dir) with Sys_error _ -> ())
  end
