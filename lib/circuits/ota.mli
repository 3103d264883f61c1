(** The symmetrical OTA benchmark circuit (paper §4, Figure 5).

    Canonical three-current-mirror topology:

    - M1/M2: NMOS differential input pair (fixed dimensions);
    - M3/M4: PMOS diode loads of the pair;
    - M5/M6: PMOS mirror outputs — mirror factor
      [B = (w2/l2) / (w1/l1)];
    - M7/M8: NMOS output mirror (returns M5's current to the output);
    - M9/M10: NMOS tail-current mirror fed by the bias current.

    The eight designable parameters are the shared W and L of each symmetric
    pair, constrained exactly as the paper's Table 1:
    W in [10 um, 60 um], L in [0.35 um, 4 um]. *)

type params = {
  w1 : float;  (** M3/M4 width, m *)
  l1 : float;
  w2 : float;  (** M5/M6 *)
  l2 : float;
  w3 : float;  (** M7/M8 *)
  l3 : float;
  w4 : float;  (** M9/M10 *)
  l4 : float;
}

val w_min : float
(** 10 um. *)

val w_max : float
(** 60 um. *)

val l_min : float
(** 0.35 um. *)

val param_ranges : Yield_ga.Genome.range array
(** Table 1 as GA ranges, order [w1; l1; w2; l2; w3; l3; w4; l4]. *)

val params_of_array : float array -> params
(** @raise Invalid_argument unless exactly 8 values. *)

val params_to_array : params -> float array

val param_names : string array

val name : string
(** ["ota"] *)

val default_params : params
(** A sensible mid-range starting design. *)

val mirror_factor : params -> float
(** [B = (w2/l2) / (w1/l1)]. *)

val input_pair_w : float
(** Fixed M1/M2 width (30 um). *)

val input_pair_l : float
(** Fixed M1/M2 length (1 um). *)

val bias_current : float
(** Reference bias current (20 uA into the M9 diode). *)

val symmetric_pairs : (string * string) list
(** The topology's matched pairs — input pair, diode loads, mirror outputs,
    output mirror, tail mirror — asserted by the preflight netlist lint. *)

val add :
  Yield_spice.Circuit.t -> prefix:string -> tech:Yield_process.Tech.t ->
  params:params -> inp:string -> inn:string -> out:string -> vdd:string ->
  vss:string -> unit
(** Instantiate the OTA into a circuit.  Internal nodes and device names are
    prefixed with [prefix] (e.g. ["ota1."]).  Adds the bias current source.
    Nodesets for the internal nodes are registered to help DC convergence. *)
