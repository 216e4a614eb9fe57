(* What every workload shares: the per-item quality figures, the
   reference audit of a final netlist, and the workload interface. *)

module R = Refmodel
module Flow = Rdca_flow.Flow
module Distrib = Rdca_flow.Distrib

type quality = { area : float; delay : float; power : float; events : int }

let zero = { area = 0.0; delay = 0.0; power = 0.0; events = 0 }

let add a b =
  {
    area = a.area +. b.area;
    delay = a.delay +. b.delay;
    power = a.power +. b.power;
    events = a.events + b.events;
  }

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let same_float a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* The final netlist realises the spec on its care set, and the
   program's area/delay/power report matches the reference
   recomputation; returns the item's quality figures. *)
let audit ~spec ~(report : Techmap.Report.t) nl =
  let t = R.of_netlist nl in
  let tables = R.output_tables t in
  (match R.care_mismatch spec tables with
  | Some (o, m) -> fail "output %d differs from the spec at care minterm %d" o m
  | None -> ());
  let area = R.area t and delay = R.delay t and power = R.power t in
  if not (same_float report.Techmap.Report.area area) then
    fail "area %.17g, reference %.17g" report.Techmap.Report.area area;
  if not (same_float report.Techmap.Report.delay delay) then
    fail "delay %.17g, reference %.17g" report.Techmap.Report.delay delay;
  if not (same_float report.Techmap.Report.power power) then
    fail "power %.17g, reference %.17g" report.Techmap.Report.power power;
  if report.Techmap.Report.gates <> R.gates t then
    fail "%d gates, reference %d" report.Techmap.Report.gates (R.gates t);
  (t, { area; delay; power; events = R.error_events spec tables })

(* A seeded stream per (seed, round, item): items never repeat within
   a run, and the same seed gives the same items. *)
let stream ~seed ~round ~index =
  Synthetic.Splittable.stream ~seed ~index:((round * 100_003) + index)

(* Workloads whose items are all generated draw half of them from this
   fixed seed instead of the run's: the same in every run, they halve
   how much a run's figures depend on its seed. *)
let reference_seed = 2011

let strategies =
  Flow.
    [|
      Conventional;
      Ranking 0.25;
      Ranking 0.5;
      Ranking 0.75;
      Ranking 1.0;
      Lcf 0.45;
      Lcf 0.55;
      Lcf 0.65;
      Complete;
    |]

let modes = Techmap.Mapper.[| Delay; Area; Power |]

(* A generated spec: [no] outputs over [ni] inputs, a [dc] share of
   don't cares, the care set split evenly between on and off, and, with
   [cf], annealed to that complexity factor.  Only the function's bits
   come from [rng]; a workload fixes the parameters by item index, so
   every seed gives a run of the same make-up. *)
let gen_spec rng ~ni ~no ~dc ~cf =
  let params = Synthetic.Synth_gen.default_params ~ni ~dc_frac:dc ~target_cf:cf in
  Trace.with_span "setup.generate" (fun () ->
      Synthetic.Synth_gen.spec ~rng:(Synthetic.Splittable.to_random_state rng) ~no params)

(* The [k]-th of [n] evenly spaced values from [lo] to [hi]. *)
let grid k n lo hi = lo +. ((hi -. lo) *. float_of_int (k mod n) /. float_of_int (n - 1))

(* Draw specs from [rng] and synthesise each until the netlist's gate
   count lies in [lo, hi]: keeps every item of a workload of a similar
   size, so that no single item dominates a run. *)
let sized rng ~gates:(lo, hi) draw =
  let rec go attempt =
    let v = draw rng in
    let g = Netlist.gate_count (fst v).Flow.netlist in
    if (g >= lo && g <= hi) || attempt >= 100 then v else go (attempt + 1)
  in
  go 1

(* The round trip every input takes: the spec is printed as a .pla and
   read back by the program's parser. *)
let via_pla spec =
  let text = Pla.to_string spec in
  let parsed =
    Trace.with_span "pla.parse" (fun () -> (Pla.parse_string text).Pla.spec)
  in
  if not (Pla.Spec.equal parsed spec) then fail "pla round trip changed the spec";
  parsed

let spec_label spec =
  Printf.sprintf "%dx%d dc=%.2f" (Pla.Spec.ni spec) (Pla.Spec.no spec)
    (Pla.Spec.dc_fraction spec)

module type WORKLOAD = sig
  type item
  type output

  val name : string

  val jobs : unit -> int
  (** Pool domains for set-up and the timed items. *)

  val workers : unit -> int
  (** Worker processes per item (0: in-process only). *)

  val scaled : bool
  (** Whether the item times are the process's own computation, and so
      are scaled to the reference speed (see main.ml). *)

  val round_seconds : float
  (** The time budgeted for one round's items: a run makes
      [--seconds / round_seconds] rounds. *)

  val round : seed:int -> round:int -> item array
  (** The prepared inputs of one round.  Round 0 is the set-up the
      benchmark times; every item of every round is distinct. *)

  val label : item -> string

  val run : item -> output
  (** The timed work of one item, as a user would call it. *)

  val run_traced : item -> output
  (** The same work with a span around each layer call.  Where {!run}
      is itself the sequence of layer calls, with its spans (which cost
      nothing when tracing is off), the two are one function. *)

  val check_breakdown : item -> output -> unit
  (** Where {!run_traced} splits {!run}'s single entry point into its
      calls, check that both give the same result; raise
      [Check_failed] otherwise.  Called outside the timed region. *)

  val check : item -> output -> quality
  (** Check the outputs against the reference model; raise
      [Check_failed] on any disagreement. *)

  val finish : unit -> unit
  (** Release what set-up made (files, processes). *)
end
