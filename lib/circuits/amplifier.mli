(** The interface a circuit topology must provide to be characterised by the
    generic {!Testbench}: a parameter vector with designer-imposed ranges and
    a netlist builder.  {!Ota} (the paper's symmetrical OTA) and {!Miller}
    (a two-stage Miller-compensated OTA) both satisfy it. *)

module type S = sig
  val name : string
  (** The topology's name, as [yieldlab flow --topology] spells it.  It
      tells one amplifier's flow checkpoints from another's. *)

  type params

  val param_ranges : Yield_ga.Genome.range array

  val param_names : string array

  val params_of_array : float array -> params
  (** @raise Invalid_argument on arity mismatch. *)

  val params_to_array : params -> float array

  val default_params : params

  val symmetric_pairs : (string * string) list
  (** Device-name pairs (unprefixed, e.g. [("M3", "M4")]) whose W/L must
      match for the topology to be what it claims — the invariant the
      preflight netlist lint asserts on the built testbench. *)

  val add :
    Yield_spice.Circuit.t -> prefix:string -> tech:Yield_process.Tech.t ->
    params:params -> inp:string -> inn:string -> out:string -> vdd:string ->
    vss:string -> unit
  (** Instantiate the amplifier.  [inp] must be the {e inverting} input and
      [inn] the non-inverting one (matching {!Ota.add}). *)
end
