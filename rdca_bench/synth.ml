(* synth: the paper's own use.  Each item is one (spec, strategy, map
   mode) through Flow.synthesize: the Table 1 suite with a strategy/mode
   pair that changes every round, plus seeded generated specs. *)

open Common

type item = {
  label : string;
  spec : Pla.Spec.t;
  strategy : Flow.strategy;
  mode : Techmap.Mapper.mode;
}

type output = Flow.result

let name = "synth"
(* One job, unless RDCA_JOBS says otherwise: the way to measure the
   pool's speed-up.  At two jobs on a 2-vCPU host the same item's time
   moved by 10-30% from run to run, at one job by 3-10%; only at one
   job do runs repeat closely enough to show a change to the program. *)
let jobs () =
  match Sys.getenv_opt "RDCA_JOBS" with
  | Some _ -> Parallel.Pool.default_jobs ()
  | None -> 1
let generated_per_round = 36
let workers () = 0
let scaled = true
let round_seconds = 1.6

(* The suite is loaded by the round-0 set-up and copied for later
   rounds (a copy starts with cold phase-plane caches, like a fresh
   load). *)
let suite : (string * Pla.Spec.t) list ref = ref []

let combos =
  Array.concat
    (Array.to_list
       (Array.map (fun s -> Array.map (fun m -> (s, m)) modes) strategies))

let make label spec (strategy, mode) =
  {
    label =
      Printf.sprintf "%s %s %s" label (Flow.strategy_name strategy) (Techmap.Mapper.mode_name mode);
    spec;
    strategy;
    mode;
  }

let round ~seed ~round =
  if round = 0 then
    suite :=
      List.map
        (fun (e, s) -> (e.Synthetic.Suite.name, s))
        (Trace.with_span "setup.generate" Synthetic.Suite.load_all);
  (* Suite entry [i] takes combo [i + round]: distinct in each of the
     first 27 rounds, and the same in round 0 whatever the seed. *)
  let suite_items =
    List.mapi
      (fun i (n, s) ->
        make n (via_pla (Pla.Spec.copy s))
          combos.((i + round) mod Array.length combos))
      !suite
  in
  let generated =
    List.init generated_per_round (fun i ->
        let rng = stream ~seed ~round ~index:i in
        let spec =
          via_pla
            (gen_spec rng ~ni:(6 + (i mod 5)) ~no:(2 + (i / 5 mod 5))
               ~dc:(grid i 6 0.3 0.8)
               ~cf:(if i mod 2 = 0 then None else Some (grid (i / 2) 4 0.5 0.85)))
        in
        make (Printf.sprintf "gen%d.%d %s" round i (spec_label spec)) spec
          (strategies.(i mod 9), modes.(i / 9 mod 3)))
  in
  Array.of_list (suite_items @ generated)

let label it = it.label
let run it = Flow.synthesize ~mode:it.mode ~strategy:it.strategy it.spec
let count = Trace.count
let span = Trace.with_span

(* What Flow.synthesize does to implement a spec without a budget:
   espresso on each output as a parallel map over the pool, then the
   DCs assigned by the covers in output order. *)
let implement spec =
  let ni = Pla.Spec.ni spec in
  let covers =
    Array.to_list
      (Parallel.Pool.init ~chunk:1 (Pla.Spec.no spec) (fun o ->
           Espresso.Dense.minimize ~n:ni ~on:(Pla.Spec.on_bv spec ~o)
             ~dc:(Pla.Spec.dc_bv spec ~o)))
  in
  let full = Pla.Spec.copy spec in
  List.iteri
    (fun o cover ->
      Pla.Spec.iter_dc spec ~o (fun m ->
          Pla.Spec.assign_dc full ~o ~m (Twolevel.Cover.eval cover m)))
    covers;
  (full, covers)

(* The public calls Flow.synthesize makes, one span each. *)
let run_traced it =
  let spec = it.spec in
  let partial = span "core.assign" (fun () -> Flow.apply_strategy it.strategy spec) in
  let dcs s =
    List.fold_left ( + ) 0
      (List.init (Pla.Spec.no s) (fun o -> Pla.Spec.dc_count s ~o))
  in
  count "core.dc_assigned" (float_of_int (dcs spec - dcs partial));
  let full, covers = span "espresso.implement" (fun () -> implement partial) in
  let error_rate =
    span "reliability.error" (fun () -> Flow.measured_error ~original:spec full)
  in
  let aig =
    span "aig.build" (fun () -> Aig.of_covers ~ni:(Pla.Spec.ni spec) covers)
  in
  let aig = span "aig.balance" (fun () -> Aig.Opt.balance aig) in
  let nl =
    span "techmap.map" (fun () ->
        Techmap.Mapper.map ~mode:it.mode
          ~lib:(Techmap.Stdcell.default_library ())
          aig)
  in
  let report = span "techmap.report" (fun () -> Techmap.Report.of_netlist nl) in
  let sop_cubes =
    List.fold_left (fun acc c -> acc + Twolevel.Cover.size c) 0 covers
  in
  count "espresso.cubes" (float_of_int sop_cubes);
  count "aig.ands" (float_of_int (Aig.num_ands aig));
  count "aig.depth" (float_of_int (Aig.depth aig));
  count "techmap.gates" (float_of_int report.Techmap.Report.gates);
  {
      Flow.error_rate;
      report;
      sop_cubes;
      assigned_fraction =
        Rdca_core.Assign.assigned_dc_fraction ~before:spec ~after:partial;
      netlist = nl;
      covers;
      degradations = [];
  }

let check_breakdown it (r : output) =
  let whole = run it in
  if whole.Flow.report <> r.Flow.report || whole.Flow.error_rate <> r.Flow.error_rate
  then fail "the traced breakdown differs from Flow.synthesize"

let check it (r : output) =
  let spec = R.spec_of_pla it.spec in
  let _, q = audit ~spec ~report:r.Flow.report r.Flow.netlist in
  let ni = spec.R.s_ni and no = spec.R.s_no in
  let from_rate = r.Flow.error_rate *. float_of_int (no * ni * (1 lsl ni)) in
  if Float.abs (from_rate -. float_of_int q.events) > 1e-6 *. Float.max 1.0 from_rate
  then
    fail "error rate gives %.6f events, reference counts %d" from_rate
      q.events;
  let lower, upper =
    List.fold_left
      (fun (l, u) o ->
        let l', u' = R.dc_bounds spec ~o in
        (l + l', u + u'))
      (0, 0)
      (List.init no Fun.id)
  in
  if q.events < lower || q.events > upper then
    fail "%d error events outside the DC bounds [%d, %d]" q.events
      lower upper;
  if it.strategy = Flow.Complete && q.events <> lower then
    fail "complete assignment gives %d events, lower bound %d"
      q.events lower;
  q

let finish () = ()
