(** First-order sensitivity of a performance function to the global process
    components, by central finite differences at +-1 sigma, and the variance
    decomposition it implies.  A cheap complement to Monte Carlo: it tells
    the designer {e which} process parameter drives a spread. *)

type component = Vth_n | Vth_p | Kp_n | Kp_p | Lambda

val all : component list

val to_string : component -> string

type result = {
  component : component;
  per_sigma : float;  (** response change for a +1 sigma shift *)
  variance_share : float;  (** fraction of the (first-order) total variance *)
}

val analyse :
  spec:Variation.spec ->
  eval:(Variation.global_draw -> float option) ->
  (result list, string) Stdlib.result
(** [eval] evaluates the performance under a given global draw (mismatch
    excluded); 11 evaluations total.  [Error] if any evaluation fails. *)
