(* testability: the verification side at one job.  Small mapped
   netlists synthesised during set-up, half from espresso-minimised
   covers (irredundant) and half through the flow's cube budget with
   unminimised covers (redundant).  Each item runs the implementation
   audit, SAT test generation with SCOAP and diagnostics, checked
   redundancy removal, then checked don't-care rewriting. *)

open Common

type item = {
  label : string;
  spec : Pla.Spec.t;
  covers : Twolevel.Cover.t list;
  netlist : Netlist.t;
}

type output = {
  impl_diags : Check.Diag.t list;
  report : Atpg.Engine.report;
  removed : Atpg.Redundancy.result;
  optimized : Rdca_dc.Dc.opt_result;
}

let name = "testability"
let jobs () = 1
let per_round = 30
let workers () = 0
let scaled = true
(* A round costs about 10 s; budgeting 6.25 s gives a 25 s run 120
   items: with 90 items the median and tail spread 0.11 from seed to
   seed, and 150 items made the run outlast the time a benchmark of
   three workloads may take. *)
let round_seconds = 6.25
let sat = { Atpg.Engine.default_config with backend = Atpg.Engine.Sat_engine }
let unminimised = { Flow.max_cubes = Some 0; max_seconds = None }

(* Item [i]: even items irredundant, 6-7 inputs, one output; odd items
   redundant, 5 inputs, one output.  Of each kind, every other item
   comes from the reference seed. *)
let round ~seed ~round =
  Array.init per_round (fun i ->
      let seed = if i / 2 mod 2 = 0 then reference_seed else seed in
      let rng = stream ~seed ~round ~index:i in
      let redundant = i mod 2 = 1 and k = i / 2 in
      let strategy = strategies.(k mod 9) and mode = modes.(k mod 3) in
      let r, spec =
        sized rng ~gates:(if redundant then (25, 40) else (40, 70)) (fun rng ->
            let spec =
              if redundant then
                via_pla (gen_spec rng ~ni:5 ~no:1 ~dc:(grid k 5 0.3 0.5) ~cf:None)
              else
                via_pla
                  (gen_spec rng ~ni:(6 + (k mod 2)) ~no:1 ~dc:(grid k 5 0.45 0.65)
                     ~cf:None)
            in
            ( Trace.with_span "setup.synth" (fun () ->
                  if redundant then Flow.synthesize ~budget:unminimised ~mode ~strategy spec
                  else Flow.synthesize ~mode ~strategy spec),
              spec ))
      in
      {
        label =
          Printf.sprintf "t%d.%d %s %s %s%s, %d gates" round i (spec_label spec)
            (Flow.strategy_name strategy) (Techmap.Mapper.mode_name mode)
            (if redundant then " unminimised" else "")
            (Netlist.gate_count r.Flow.netlist);
        spec;
        covers = r.Flow.covers;
        netlist = r.Flow.netlist;
      })

let label it = it.label

let ok what = function
  | Ok (v, _) -> v
  | Error e -> fail "%s: %s" what (Flow.error_to_string e)

let remove it nl =
  ok "redundancy removal" (Flow.remove_redundant_checked ~config:sat ~spec:it.spec nl)

let optimize it nl = ok "dc optimisation" (Flow.optimize_checked ~spec:it.spec nl)

let classes_counter = Prof.counter "atpg.classes"

(* Every call here is a layer call, so one function serves both runs:
   spans and counts cost nothing when tracing is off. *)
let run it =
  let span = Trace.with_span and count = Trace.count in
  let impl_diags =
    span "check.implementation" (fun () ->
        Check.implementation ~spec:it.spec ~covers:it.covers ~netlist:it.netlist ())
  in
  let report = span "atpg.analyze" (fun () -> Atpg.Engine.analyze ~config:sat it.netlist) in
  span "atpg.scoap" (fun () ->
      ignore (Atpg.Scoap.summarize (Atpg.Scoap.compute it.netlist)));
  span "atpg.diagnostics" (fun () ->
      ignore (Atpg.Testability_check.diagnostics it.netlist report));
  let before = Prof.value classes_counter in
  let removed = span "atpg.remove" (fun () -> remove it it.netlist) in
  let decided = Prof.value classes_counter - before in
  let optimized =
    span "dc.optimize" (fun () -> optimize it removed.Atpg.Redundancy.netlist)
  in
  let opt = optimized.Rdca_dc.Dc.opt_report in
  count "atpg.classes" (float_of_int report.Atpg.Engine.classes);
  count "atpg.passes" (float_of_int removed.Atpg.Redundancy.iterations);
  (* The first pass of the removal loop decides the same classes as the
     analysis above; everything after it is re-analysis. *)
  count "atpg.reanalysed_classes"
    (float_of_int (decided - report.Atpg.Engine.classes));
  count "atpg.lines_removed"
    (float_of_int (List.length removed.Atpg.Redundancy.removed));
  count "dc.nodes_analyzed" (float_of_int opt.Rdca_dc.Dc.analyzed);
  count "dc.dc_patterns"
    (float_of_int (opt.Rdca_dc.Dc.sdc_patterns + opt.Rdca_dc.Dc.odc_patterns));
  count "dc.rewritten" (float_of_int (List.length optimized.Rdca_dc.Dc.rewritten));
  { impl_diags; report; removed; optimized }

let run_traced = run

let ref_fault (f : Atpg.Fault.t) =
  match f.Atpg.Fault.pin with
  | Atpg.Fault.Stem -> R.Stem (f.Atpg.Fault.node, f.Atpg.Fault.stuck)
  | Atpg.Fault.Branch j -> R.Branch (f.Atpg.Fault.node, j, f.Atpg.Fault.stuck)

let check it o =
  if Check.Diag.has_errors o.impl_diags then
    fail "the implementation audit reports errors";
  let t = R.of_netlist it.netlist in
  List.iter
    (fun (r : Atpg.Engine.fault_result) ->
      match (r.Atpg.Engine.verdict, r.Atpg.Engine.witness) with
      | Atpg.Engine.Testable, Some m ->
          if not (R.detects t (ref_fault r.Atpg.Engine.rep) m) then
            fail "witness %d does not detect %s" m
              (Atpg.Fault.to_string r.Atpg.Engine.rep)
      | Atpg.Engine.Testable, None ->
          fail "testable %s has no witness"
            (Atpg.Fault.to_string r.Atpg.Engine.rep)
      | Atpg.Engine.Untestable, _ ->
          List.iter
            (fun f ->
              if R.testable t (ref_fault f) then
                fail "%s is testable, reported untestable"
                  (Atpg.Fault.to_string f))
            r.Atpg.Engine.members)
    o.report.Atpg.Engine.results;
  let final = o.optimized.Rdca_dc.Dc.netlist in
  let after_removal = R.gates (R.of_netlist o.removed.Atpg.Redundancy.netlist) in
  let t_final, q =
    audit ~spec:(R.spec_of_pla it.spec)
      ~report:(Techmap.Report.of_netlist final) final
  in
  if after_removal > R.gates t || R.gates t_final > after_removal then
    fail "gate count grew (%d -> %d -> %d)" (R.gates t)
      after_removal (R.gates t_final);
  q

let check_breakdown _ _ = ()

let finish () = ()
