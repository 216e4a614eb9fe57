(** An independent reference model of the quantities the benchmark
    checks.

    It reads a netlist only through [Netlist.iter_nodes], [gate],
    [fanins] and [outputs], and a specification only through
    [Pla.Spec.get]; everything else — simulation, error events, the
    exact don't-care bounds, area, delay, the power proxy and fault
    simulation — is computed here from first principles, so a fault in
    the program's own simulators, kernels or reports cannot hide
    behind itself.  Simulation is gate by gate over every minterm,
    [width] minterms per machine word. *)

type t
(** A snapshot of a netlist's structure and cell data. *)

val of_netlist : Netlist.t -> t

val ni : t -> int
val no : t -> int

val gates : t -> int
(** Non-input, non-constant nodes: the instance count. *)

val sites : t -> int list
(** The gate nodes, ascending: where a campaign injects faults. *)

(** A fault in the netlist.  [Stem] forces a node's output (an input
    node included), [Branch (n, j, v)] forces only what gate [n] reads
    on its fanin pin [j], [Flip n] inverts node [n]'s output. *)
type fault = Stem of int * bool | Branch of int * int * bool | Flip of int

val output_tables : ?fault:fault -> t -> bool array array
(** [output_tables t] is [tables.(o).(m)], the value of output [o] on
    minterm [m] (bit [i] of [m] is input [i]), for all [2^ni]
    minterms. *)

val detects : t -> fault -> int -> bool
(** [detects t f m] — some output differs on minterm [m] under [f]. *)

val testable : t -> fault -> bool
(** Some minterm detects [f] (exhaustive). *)

(** {1 Specifications} *)

type phase = On | Off | Dc

type spec = { s_ni : int; s_no : int; phases : phase array array }
(** [phases.(o).(m)] *)

val spec_of_pla : Pla.Spec.t -> spec

val care_mismatch : spec -> bool array array -> (int * int) option
(** The first [(output, minterm)] where the tables contradict a care
    phase of the spec, if any. *)

val error_events : spec -> bool array array -> int
(** Single-bit input-error events that change the output: triples
    (output [o], care minterm [m] of [o], input [i]) with
    [tables.(o).(m) <> tables.(o).(m lxor 2^i)]. *)

val dc_bounds : spec -> o:int -> int * int
(** The exact lower and upper error-event counts of output [o] over
    every assignment of its don't cares: the care–care pairs that
    differ, plus, for each don't-care minterm, the smaller or larger of
    its on- and off-neighbour counts. *)

(** {1 Cost} *)

val area : t -> float
(** Sum of cell areas; a primitive gate counts 1.0, a constant 0. *)

val delay : t -> float
(** Critical-path arrival time with cell delays (primitives 1.0). *)

val power : t -> float
(** [sum over nets of 2p(1-p) * C]: [p] the exact probability the net
    is 1 under uniform inputs, [C] the input capacitance it drives
    (primitive pins 1.0) plus one unit per primary output it feeds. *)

(** {1 Fault campaigns} *)

val propagation_moments :
  ?good:bool array array -> spec -> t -> fault -> float * float
(** For a uniformly drawn minterm [m], let [X] count the outputs [o]
    for which [m] is a care minterm and the fault changes output [o].
    Returns the exact mean and variance of [X].  [good], when given, is
    [output_tables t], computed once for many faults. *)
