(** Measurements on sampled transfer functions: the quantities the paper's
    objective functions are built from. *)

val magnitude_db : Complex.t -> float

val set_magnitude_db : float array -> int -> Complex.t -> unit
(** [set_magnitude_db a i z] is [a.(i) <- magnitude_db z], with the
    magnitude never boxed: a caller in another unit that needs the value
    in a loop reads it back from [a]. *)

val phase_deg : Complex.t -> float
(** Principal-value phase in degrees, (-180, 180]. *)

val magnitudes_db : Ac.bode -> float array

val phases_deg_unwrapped : Ac.bode -> float array
(** Phase with 360-degree jumps removed, anchored at the first point. *)

val dc_gain_db : Ac.bode -> float
(** Magnitude at the lowest sampled frequency. *)

val unity_gain_freq : Ac.bode -> float option
(** First 0 dB downward crossing, log-interpolated between samples; [None]
    when the magnitude never reaches unity from above. *)

val phase_margin_deg : Ac.bode -> float option
(** [180 + phase(f_unity)] using the unwrapped phase; [None] when there is no
    unity crossing. *)

val f3db : Ac.bode -> float option
(** Frequency of the first 3 dB drop below the DC gain. *)

val crossing :
  xs:float array -> ys:float array -> level:float -> ?log_x:bool -> unit ->
  float option
(** First downward crossing of [ys] through [level], interpolated on [xs]
    (log-spaced interpolation when [log_x]); exposed for tests and reuse. *)

val interp_at : xs:float array -> ys:float array -> float -> log_x:bool -> float
(** [interp_at ~xs ~ys x ~log_x]: [ys] interpolated at [x] (on a log axis
    when [log_x]), clamped to the sampled range.  With {!crossing} it lets
    a caller measure magnitudes and phases it computed once, with the
    same floating-point operations as {!phase_margin_deg}. *)
