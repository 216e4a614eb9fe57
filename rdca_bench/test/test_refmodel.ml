(* Tests of the benchmark's reference model: hand-built netlists with
   values worked out by hand, then agreement with the program's own
   simulators and reports on mapped netlists of random specs. *)

module R = Refmodel
module G = Netlist.Gate
module Spec = Pla.Spec

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let cell ~name ~tt ~arity ~area ~delay ~cap =
  G.Cell
    {
      G.cell_name = name;
      tt;
      arity;
      area;
      delay;
      input_cap = cap;
    }

(* y = x0 and x1 *)
let and2 () =
  let nl = Netlist.create ~ni:2 in
  let a = Netlist.add nl G.And [| 0; 1 |] in
  Netlist.set_outputs nl [| a |];
  nl

(* y = x0 or (x0 and x1): the AND is redundant. *)
let absorbed () =
  let nl = Netlist.create ~ni:2 in
  let a = Netlist.add nl G.And [| 0; 1 |] in
  let o = Netlist.add nl G.Or [| 0; a |] in
  Netlist.set_outputs nl [| o |];
  nl

let spec_of ~ni phases =
  {
    R.s_ni = ni;
    s_no = List.length phases;
    phases = Array.of_list (List.map Array.of_list phases);
  }

let test_simulation () =
  let t = R.of_netlist (and2 ()) in
  check "and2 table"
    ((R.output_tables t).(0) = [| false; false; false; true |]);
  check "and2 gates" (R.gates t = 1);
  (* A 3-input MUX cell: pin 0 selects pin 2 (when 1) or pin 1. *)
  let mux =
    Logic.Truth.of_fun 3 (fun idx ->
        if idx land 1 = 1 then idx land 4 <> 0 else idx land 2 <> 0)
  in
  let nl = Netlist.create ~ni:3 in
  let m =
    Netlist.add nl
      (cell ~name:"MUX2" ~tt:mux ~arity:3 ~area:4.0 ~delay:0.3 ~cap:1.0)
      [| 0; 1; 2 |]
  in
  let x = Netlist.add nl G.Xnor [| m; 0 |] in
  Netlist.set_outputs nl [| m; x |];
  let tables = R.output_tables (R.of_netlist nl) in
  for v = 0 to 7 do
    let sel = v land 1 = 1 in
    let mv = if sel then v land 4 <> 0 else v land 2 <> 0 in
    check (Printf.sprintf "mux %d" v) (tables.(0).(v) = mv);
    check (Printf.sprintf "xnor %d" v) (tables.(1).(v) = (mv = sel))
  done

let test_error_events () =
  let t = R.of_netlist (and2 ()) in
  let full = spec_of ~ni:2 [ [ R.Off; R.Off; R.Off; R.On ] ] in
  (* 00 -> none; 01 and 10 -> one flip each reaches 11; 11 -> both. *)
  check "and2 events" (R.error_events full (R.output_tables t) = 4);
  check "and2 bounds (no DC)" (R.dc_bounds full ~o:0 = (4, 4));
  (* On, On, On, DC at 11: the DC's two on-neighbours count only if it
     is assigned 0. *)
  let dc = spec_of ~ni:2 [ [ R.On; R.On; R.On; R.Dc ] ] in
  check "dc bounds" (R.dc_bounds dc ~o:0 = (0, 2));
  let lower = [| [| true; true; true; true |] |]
  and upper = [| [| true; true; true; false |] |] in
  check "lower attained" (R.error_events dc lower = 0);
  check "upper attained" (R.error_events dc upper = 2);
  check "care mismatch found"
    (R.care_mismatch full [| [| false; false; false; false |] |] = Some (0, 3));
  check "dc not a mismatch" (R.care_mismatch dc upper = None)

let test_cost () =
  (* NAND2 (area 2, delay 0.5, cap 1.5) into INV (area 1, delay 0.2,
     cap 1.0).  Inputs: p = 1/2, each drives one NAND pin, 2p(1-p) *
     1.5 = 0.75.  NAND: p = 3/4, drives the INV pin: 0.375.  INV:
     p = 1/4, drives the output load: 0.375. *)
  let nl = Netlist.create ~ni:2 in
  let n =
    Netlist.add nl
      (cell ~name:"NAND2" ~tt:0b0111 ~arity:2 ~area:2.0 ~delay:0.5 ~cap:1.5)
      [| 0; 1 |]
  in
  let i =
    Netlist.add nl
      (cell ~name:"INV" ~tt:0b01 ~arity:1 ~area:1.0 ~delay:0.2 ~cap:1.0)
      [| n |]
  in
  Netlist.set_outputs nl [| i |];
  let t = R.of_netlist nl in
  check "area" (close (R.area t) 3.0);
  check "delay" (close (R.delay t) 0.7);
  check "power" (close (R.power t) 2.25)

let test_faults () =
  let t = R.of_netlist (absorbed ()) in
  check "absorbed and s-a-0 untestable" (not (R.testable t (R.Stem (2, false))));
  check "absorbed or pin s-a-0 untestable"
    (not (R.testable t (R.Branch (3, 1, false))));
  check "absorbed and s-a-1 testable" (R.testable t (R.Stem (2, true)));
  check "s-a-1 detected at 00" (R.detects t (R.Stem (2, true)) 0);
  check "s-a-1 not detected at 01" (not (R.detects t (R.Stem (2, true)) 1));
  check "input stem testable" (R.testable t (R.Stem (0, false)));
  check "flip detected at 00" (R.detects t (R.Flip 2) 0);
  let a = R.of_netlist (and2 ()) in
  let full = spec_of ~ni:2 [ [ R.Off; R.Off; R.Off; R.On ] ] in
  check "flip moments"
    (R.propagation_moments full a (R.Flip 2) = (1.0, 0.0));
  let dc = spec_of ~ni:2 [ [ R.Dc; R.Off; R.Off; R.On ] ] in
  let mean, var = R.propagation_moments dc a (R.Flip 2) in
  check "flip moments with a DC" (close mean 0.75 && close var 0.1875)

(* Mapped netlists of random specs: the model agrees with the
   program's simulators, reports, testability engine and error rate. *)
let test_against_program () =
  let lib = Techmap.Stdcell.default_library () in
  let rng = Random.State.make [| 2011 |] in
  for k = 0 to 11 do
    let ni = 3 + (k mod 5) and no = 1 + (k mod 3) in
    let spec = Synthetic.Synth_gen.random_spec ~rng ~ni ~no ~f1:0.35 ~f0:0.35 in
    let covers =
      List.init no (fun o ->
          Spec.on_cover spec ~o)
    in
    let nl =
      Techmap.Mapper.map ~mode:Techmap.Mapper.Area ~lib
        (Aig.Opt.balance (Aig.of_covers ~ni covers))
    in
    let t = R.of_netlist nl in
    let name s = Printf.sprintf "random %d: %s" k s in
    let tables = R.output_tables t in
    let prog = Netlist.output_tables nl in
    check (name "tables")
      (Array.for_all2
         (fun row bv ->
           Array.for_all Fun.id
             (Array.mapi (fun m v -> v = Bitvec.Bv.get bv m) row))
         tables prog);
    check (name "area") (close (R.area t) (Netlist.area nl));
    check (name "delay") (close (R.delay t) (Netlist.delay nl));
    check (name "power") (close (R.power t) (Netlist.dynamic_power nl));
    check (name "gates") (R.gates t = Netlist.gate_count nl);
    let rs = R.spec_of_pla spec in
    let rate = Reliability.Error_rate.of_netlist spec nl in
    let scaled = rate *. float_of_int (no * ni * (1 lsl ni)) in
    check (name "error events")
      (close (float_of_int (R.error_events rs tables)) scaled);
    let report =
      Atpg.Engine.analyze
        ~config:
          { Atpg.Engine.default_config with backend = Atpg.Engine.Exhaustive }
        nl
    in
    List.iter
      (fun r ->
        let f = r.Atpg.Engine.rep in
        let fault =
          match f.Atpg.Fault.pin with
          | Atpg.Fault.Stem -> R.Stem (f.Atpg.Fault.node, f.Atpg.Fault.stuck)
          | Atpg.Fault.Branch j ->
              R.Branch (f.Atpg.Fault.node, j, f.Atpg.Fault.stuck)
        in
        check (name "testability verdict")
          (R.testable t fault = (r.Atpg.Engine.verdict = Atpg.Engine.Testable)))
      report.Atpg.Engine.results;
    List.iter
      (fun site ->
        let mean, _ = R.propagation_moments rs t (R.Flip site) in
        let exact =
          Reliability.Inject.exact_rate spec nl
            { Reliability.Inject.node = site; kind = Reliability.Inject.Transient }
        in
        check (name "transient rate") (close (mean /. float_of_int no) exact))
      (R.sites t)
  done

let () =
  test_simulation ();
  test_error_events ();
  test_cost ();
  test_faults ();
  test_against_program ();
  if !failures > 0 then begin
    Printf.printf "%d reference-model check(s) failed\n" !failures;
    exit 1
  end
