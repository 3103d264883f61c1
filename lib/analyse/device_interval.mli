(** The simulator's device equations and MNA stamps over outward-rounded
    intervals: the text of [lib/spice/device_body.ml] and
    [lib/spice/stamp_body.ml], which {!Yield_spice.Mosfet} and
    {!Yield_spice.Mna} run over floats, built over {!Interval} (see
    DESIGN.md §4a, "One text, two instances").  Each function is the
    float function of the same name in those bodies; given intervals that
    contain the float operands, its results contain the float results. *)

module Mosfet := Yield_spice.Mosfet
module Device := Yield_spice.Device

(** {1 Device equations} *)

val perturbed_vth0 : Mosfet.model -> Interval.t -> Interval.t
(** [vth0 + dvth]: {!Yield_spice.Mosfet.with_deltas}'s threshold. *)

val perturbed_kp : Mosfet.model -> Interval.t -> Interval.t
(** [kp (1 + dkp_rel)]. *)

val perturbed_lambda0 : Mosfet.model -> Interval.t -> Interval.t
(** [lambda0 (1 + dlambda_rel)]. *)

val ekv_into :
  Mosfet.model -> vth0:Interval.t -> kp:Interval.t -> lambda0:Interval.t ->
  w:float -> l:float -> Interval.t array -> bool
(** {!Yield_spice.Mosfet.linearise} with the model's vth0, kp and lambda0
    replaced: reads vgs, vds, vbs from slots 0-2, writes ids, gm, gds,
    gmb, vth, vdsat to slots 3-8, leaves the forward device's vgs and vds
    in slots 0 and 1 and, in a buffer of 10, d ids / d lambda0 in slot 9.
    Returns whether it reversed source and drain.
    @raise Invalid_argument when the vds range straddles zero: split it. *)

val meyer_into :
  Mosfet.model -> w:float -> l:float -> reversed:bool -> Interval.t array ->
  unit
(** After {!ekv_into}: cgs, cgd and cdb = csb into slots 0, 1 and 2. *)

(** {1 MNA stamps}

    Value arrays are indexed by the slots of {!Yield_spice.Mna.plan}. *)

val polar : Mosfet.polarity -> Interval.t -> Interval.t -> Interval.t
(** [polar p vx vs]: terminal x's NMOS-convention bias against the source. *)

val drain_current : Mosfet.polarity -> Interval.t -> Interval.t
(** The current into the drain terminal of an NMOS-convention current. *)

val inject : Interval.t array -> Device.node -> Interval.t -> unit

val stamp_diag : Interval.t array -> int array -> Interval.t -> unit

val leak : float
(** {!Yield_spice.Mna.leak}. *)

val stamp_mos_g :
  Interval.t array -> int array -> gm:Interval.t -> gds:Interval.t ->
  gmb:Interval.t -> unit

val stamp_mos_c :
  Interval.t array -> int array -> cgs:Interval.t -> cgd:Interval.t ->
  cdb:Interval.t -> csb:Interval.t -> unit

val stamp_linear_dc : Interval.t array -> int array -> Device.t -> unit

val stamp_linear_ac :
  Interval.t array -> Interval.t array -> int array -> Device.t -> unit

val source_dc :
  Interval.t array -> branch:int -> Device.t -> scale:Interval.t -> unit

val source_ac :
  lift:(bool -> float -> 'a) -> add:('a -> 'a -> 'a) -> 'a array -> branch:int ->
  Device.t -> unit
