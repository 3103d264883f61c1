(** Time-domain measurements on transient waveforms: the step-response
    figures of merit (slew rate, settling, overshoot) that complement the
    paper's frequency-domain objectives. *)

val final_value : values:float array -> float
(** Mean of the last 5 % of samples (settling estimate). *)

val slew_rate : times:float array -> values:float array -> float
(** Maximum |dv/dt| over the waveform, V/s. *)

val settling_time :
  ?tolerance:float -> times:float array -> values:float array -> unit ->
  float option
(** Time after which the waveform stays within [tolerance] (default 1 %,
    relative to the total transition) of its final value; [None] if it never
    settles. *)

val overshoot_pct : times:float array -> values:float array -> float
(** Peak excursion beyond the final value, as a percentage of the transition
    amplitude (0 when the response is monotonic or the transition is
    degenerate). *)
