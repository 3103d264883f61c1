(** Verilog-A [$table_model] control strings.

    One token per table dimension, comma separated.  A token is an optional
    interpolation degree digit followed by an optional extrapolation letter:

    - degree: ['1'] linear, ['2'] quadratic, ['3'] cubic (default linear);
      as an extension beyond Verilog-A, ['M'] selects monotone cubic
      (Fritsch–Carlson), which cannot ring through noisy tables
    - extrapolation: ['C'] clamp to the end value, ['L'] extend linearly with
      the end slope, ['E'] error — queries outside the sampled range are
      rejected (default clamp)
    - ['I'] ignore this dimension entirely

    The paper's models use ["3E"]: cubic splines, no extrapolation. *)

type degree = Linear | Quadratic | Cubic | Monotone

type extrapolation = Clamp | Extend | Error

type axis = Interpolate of { degree : degree; extrapolation : extrapolation } | Ignore

val default_axis : axis
(** Linear interpolation, clamped extrapolation. *)

val parse : string -> axis list
(** @raise Invalid_argument on malformed tokens. *)

val parse_axis : string -> axis

val to_string : axis list -> string
