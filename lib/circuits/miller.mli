(** A two-stage Miller-compensated OTA (textbook Allen–Holberg topology):
    the second benchmark circuit, demonstrating that the paper's flow is not
    specific to the symmetrical OTA.

    - M1/M2: NMOS input pair (fixed dimensions);
    - M3/M4: PMOS mirror load (diode on the inverting side);
    - M5/M8: tail / bias mirror fed by the reference current;
    - M6: PMOS common-source second stage;
    - M7: NMOS output current sink (mirrored from M8);
    - Cc + Rz: Miller compensation with a nulling resistor (fixed values).

    Designable parameters, following the Table 1 style (W in [10, 60] um,
    L in [0.35, 4] um): (w1,l1) = M3/M4, (w2,l2) = M6, (w3,l3) = M7,
    (w4,l4) = M5/M8.

    The module satisfies {!Amplifier.S}; characterise it with
    {!Miller_testbench}. *)

type params = {
  w1 : float;  (** M3/M4, m *)
  l1 : float;
  w2 : float;  (** M6 *)
  l2 : float;
  w3 : float;  (** M7 *)
  l3 : float;
  w4 : float;  (** M5/M8 *)
  l4 : float;
}

val param_ranges : Yield_ga.Genome.range array

val param_names : string array

val name : string
(** ["miller"] *)

val params_of_array : float array -> params

val params_to_array : params -> float array

val default_params : params

val bias_current : float
(** Reference current into the M8 diode (20 uA). *)

val symmetric_pairs : (string * string) list
(** Matched pairs (input pair, mirror loads, bias mirror) asserted by the
    preflight netlist lint. *)

val add :
  Yield_spice.Circuit.t -> prefix:string -> tech:Yield_process.Tech.t ->
  params:params -> inp:string -> inn:string -> out:string -> vdd:string ->
  vss:string -> unit
(** [inp] is the inverting input (M1's gate). *)
