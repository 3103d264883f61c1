(** Measurements on sampled transfer functions: the quantities the paper's
    objective functions are built from. *)

val magnitude_db : Complex.t -> float

val set_magnitude_db : Mna.response -> int -> unit
(** [set_magnitude_db r k] writes the {!magnitude_db} of point [k]'s
    response ([r.re.(k)], [r.im.(k)]) into [r.mag_db.(k)], with the
    magnitude never boxed: a caller in another unit reads it back from
    there.  A stop rule of {!Ac.sweep} computes each magnitude once this
    way, and the measurements read it back. *)

val phase_deg : Complex.t -> float
(** Principal-value phase in degrees, (-180, 180]. *)

val magnitudes_db : Ac.bode -> float array

val phases_deg_unwrapped : Ac.bode -> float array
(** Phase with 360-degree jumps removed, anchored at the first point. *)

val set_phases_deg_unwrapped : Mna.response -> int -> unit
(** [set_phases_deg_unwrapped r n] writes {!phases_deg_unwrapped} of the
    first [n] points of [r]'s response into [r.phase_deg.(0 .. n-1)],
    with the same floats and nothing allocated. *)

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
  ?n:int -> xs:float array -> ys:float array -> level:float -> ?log_x:bool ->
  unit -> float option
(** First downward crossing of [ys] through [level], interpolated on [xs]
    (log-spaced interpolation when [log_x]); exposed for tests and reuse.
    With [n] it reads the first [n] points only, as if both arrays ended
    there: how a measurement reads a stopped sweep in place.
    @raise Invalid_argument without [n] when the lengths differ, with it
    when [n] is negative or past either array. *)

val interp_at :
  ?n:int -> xs:float array -> ys:float array -> float -> log_x:bool -> float
(** [interp_at ~xs ~ys x ~log_x]: [ys] interpolated at [x] (on a log axis
    when [log_x]), clamped to the sampled range, which [n] (default the
    whole of [xs]) ends.  With {!crossing} it lets a caller measure
    magnitudes and phases it computed once, with the same floating-point
    operations as {!phase_margin_deg}. *)
