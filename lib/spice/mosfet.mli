(** MOS transistor model.

    A single-equation EKV-style model: smooth from weak to strong inversion,
    with slope factor, body effect, and channel-length modulation.  It stands
    in for the BSim3v3 foundry models of the paper (see DESIGN.md §2): the
    quantities the optimisation flow depends on — gm, gds, gmb and the device
    capacitances as functions of W, L and bias — have the correct first-order
    behaviour.

    All voltages in the [eval] interface are source-referenced NMOS-convention
    values; PMOS devices are handled by the device layer flipping signs. *)

type polarity = Nmos | Pmos

type model = {
  polarity : polarity;
  vth0 : float;  (** zero-bias threshold magnitude, V (positive for both) *)
  kp : float;  (** transconductance parameter mu*Cox, A/V^2 *)
  gamma : float;  (** body-effect coefficient, sqrt(V) *)
  phi : float;  (** surface potential, V *)
  lambda0 : float;  (** channel-length modulation, um/V: lambda = lambda0/L[um] *)
  n_slope : float;  (** subthreshold slope factor *)
  cox : float;  (** gate-oxide capacitance, F/m^2 *)
  cgso : float;  (** gate-source overlap, F/m *)
  cgdo : float;  (** gate-drain overlap, F/m *)
  cj : float;  (** junction area capacitance, F/m^2 *)
  cjsw : float;  (** junction sidewall capacitance, F/m *)
  ext : float;  (** source/drain diffusion extension, m *)
}

val temperature_voltage : float
(** kT/q at 300 K. *)

type region = Cutoff | Weak | Saturation | Triode

type op = {
  ids : float;  (** drain current, A (NMOS convention: positive into drain) *)
  gm : float;  (** dIds/dVgs, S *)
  gds : float;  (** dIds/dVds, S *)
  gmb : float;  (** dIds/dVbs, S *)
  vth : float;  (** body-adjusted threshold, V *)
  vdsat : float;  (** saturation voltage, V *)
  vgs : float;
  vds : float;
  vbs : float;
  region : region;
  cgs : float;  (** F *)
  cgd : float;
  cdb : float;
  csb : float;
}

val region_to_string : region -> string

val eval : model -> w:float -> l:float -> vgs:float -> vds:float -> vbs:float -> op
(** Evaluate at a bias point.  [w] and [l] in metres.  Handles [vds < 0] by
    source/drain exchange so Newton iterations may pass through reversal.
    Built on {!linearise}, which gives every field but the region and the
    capacitances; only [eval] computes those.
    @raise Invalid_argument unless [w] and [l] are finite and positive. *)

val valid_geometry : float -> float -> bool
(** [valid_geometry w l] holds when both are finite and positive: the
    guard of {!eval} and {!linearise}, and the netlist lint's N004 test. *)

(** {1 The allocation-free core}

    {!eval} returns a record of boxed floats, which a Newton iteration
    would allocate for every device it stamps.  [linearise] is the EKV
    core [eval] is built on: it passes the bias and the results through a
    caller-owned float buffer and keeps every intermediate a local float,
    so it allocates nothing, even when the caller sits in another unit
    compiled without cross-module inlining.  Its equations are the float
    instance of the device body that the corner proof also instantiates
    over intervals (DESIGN.md §4a, "One text, two instances"). *)

val buffer : unit -> float array
(** A fresh zeroed buffer of the 9 floats {!linearise} reads and writes.  A caller owns it
    and may reuse it for any number of calls; never share one across
    domains. *)

val eval_with :
  float array -> model -> w:float -> l:float -> vgs:float -> vds:float ->
  vbs:float -> op
(** [eval_with buf m ~w ~l ~vgs ~vds ~vbs] is {!eval} with [buf] (a
    {!buffer}, overwritten) as its scratch instead of a fresh one, so it
    allocates only the record it returns.  {!eval} is [eval_with] on a
    fresh buffer.
    @raise Invalid_argument as {!eval}, or when [buf] holds fewer than 9
    floats. *)

val small_signal : model -> w:float -> l:float -> float array -> unit
(** [small_signal m ~w ~l buf] reads the bias from [buf.(0)], [buf.(1)],
    [buf.(2)] as {!linearise} does, and leaves the small-signal model
    that {!eval} returns for that bias in the buffer: [gm], [gds], [gmb]
    in [buf.(4)], [buf.(5)], [buf.(6)], and [cgs], [cgd] and the junction
    capacitance ([cdb] = [csb]) in [buf.(0)], [buf.(1)], [buf.(2)], each
    the float of {!eval}'s field.  It allocates nothing: the AC assembly
    evaluates each MOSFET at the DC solution this way.  {!eval_with} is
    this plus the record.
    @raise Invalid_argument as {!linearise}. *)

val small_signal_at :
  model -> float array -> w_at:int -> l_at:int -> float array -> unit
(** {!small_signal} with the geometry read from [design.(w_at)] and
    [design.(l_at)], as {!linearise_at}. *)

val linearise : model -> w:float -> l:float -> float array -> unit
(** [linearise m ~w ~l buf] reads the NMOS-convention, source-referenced
    bias [vgs], [vds], [vbs] from [buf.(0)], [buf.(1)], [buf.(2)] and
    writes [ids], [gm], [gds], [gmb], [vth] and [vdsat] to [buf.(3)] …
    [buf.(8)]: exactly the floats of the same fields of {!eval}.  It
    leaves the vgs and vds of the forward device it evaluated (the
    exchanged terminals' when [vds < 0]) in [buf.(0)] and [buf.(1)]; a
    caller re-writes the bias before each call.  A buffer longer than 9
    floats also receives d ids / d lambda0 in [buf.(9)] (the corner
    proof's lambda partial).
    @raise Invalid_argument unless [w] and [l] are finite and positive, or
    when [buf] holds fewer than 9 floats. *)

val linearise_at :
  model -> float array -> w_at:int -> l_at:int -> float array -> unit
(** [linearise_at m design ~w_at ~l_at buf] is
    [linearise m ~w:design.(w_at) ~l:design.(l_at) buf] with the
    geometry never boxed: how the assembly evaluates a MOSFET whose W and
    L are entries of an evaluation's design vector ({!Mna.sizes}) rather
    than its device record's.
    @raise Invalid_argument as {!linearise}. *)

(** {1 Scalar helpers}

    The transcendental functions the device equations call: overflow-safe
    [softplus x = ln (1 + e^x)] and its derivative [sigmoid].  The interval
    instance's images ([Yield_analyse.Device_interval]) evaluate exactly
    these floats at their endpoints. *)

val softplus : float -> float
val sigmoid : float -> float

val with_deltas : model -> dvth:float -> dkp_rel:float -> dlambda_rel:float -> model
(** [with_deltas m ~dvth ~dkp_rel ~dlambda_rel] is [m] with threshold shifted
    by [dvth] volts, [kp] scaled by [1 + dkp_rel] and [lambda0] scaled by
    [1 + dlambda_rel]; the hook used by process-variation sampling. *)

val with_deltas_in : float array -> model -> model
(** [with_deltas_in d m] is [with_deltas m ~dvth:d.(0) ~dkp_rel:d.(1)
    ~dlambda_rel:d.(2)], with no delta boxed on its way in: it allocates
    only the model it returns (14 words and the 3 new floats).  The Monte
    Carlo sampler writes each device's deltas into one buffer.
    {!with_deltas} is this on a fresh buffer. *)
