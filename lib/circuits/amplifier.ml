module type S = sig
  val name : string

  type params

  val param_ranges : Yield_ga.Genome.range array

  val param_names : string array

  val params_of_array : float array -> params

  val params_to_array : params -> float array

  val default_params : params

  val symmetric_pairs : (string * string) list

  val add :
    Yield_spice.Circuit.t -> prefix:string -> tech:Yield_process.Tech.t ->
    params:params -> inp:string -> inn:string -> out:string -> vdd:string ->
    vss:string -> unit
end
