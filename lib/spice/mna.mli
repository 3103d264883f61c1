(** Modified nodal analysis: system layout, structural pattern, and matrix
    stamping.

    Unknown vector layout: entries [0 .. n_nodes-1] are the voltages of nodes
    [1 .. n_nodes] (ground is eliminated), followed by one branch current per
    voltage source, in device order. *)

type layout
(** The unknown layout of a {!sys}, with its stamp plan (see {!sys}).
    Only {!sys_layout} makes one. *)

val size : layout -> int

val n_nodes : layout -> int

val branch_index : layout -> string -> int
(** Unknown-vector index of the branch current of the named voltage source.
    @raise Not_found if there is no such source. *)

val voltage : Yield_numeric.Vec.t -> Device.node -> float
(** Node voltage under the layout convention; ground reads 0. *)

(** {1 Per-sample model overrides}

    The batch-first Monte Carlo loop instantiates a circuit once per front
    point and patches device models per sample instead of rebuilding the
    circuit.  [models.(di)] (indexed by position in [Circuit.devices])
    replaces the MOSFET model of that device when [Some]; [None] slots — and
    an absent array — mean the nominal model baked into the circuit. *)

type models = Mosfet.model option array

val model_override : models option -> int -> Mosfet.model -> Mosfet.model
(** [model_override models di nominal] resolves the effective model of
    device index [di]. *)

(** {1 Solver sessions}

    A [sys] pairs a layout with a compiled {!Yield_numeric.Linsys} system,
    built once per topology: every analysis ({!Dcop}, {!Ac}, {!Noise},
    {!Tran}, {!Dcsweep}) solves in one, and every sample only
    re-assembles numeric values.  It also carries its topology's
    structural issues ({!Topology.dc_issues} and {!Topology.ac_issues}),
    computed once when it is built, which {!Dcop.solve} and {!Ac.transfer}
    read instead of re-running the checks per call.  A [sys] is immutable
    and safe to share across domains; the per-worker numeric workspaces
    come from {!sys_real} / {!sys_complex}. *)

type sys

val pattern : Circuit.t -> layout -> Yield_numeric.Linsys.Pattern.t
(** Union of every structural position any analysis stamps for this
    topology (DC Newton, AC, transient companion models), so one cached
    symbolic factorisation serves them all. *)

val sys : ?backend:Yield_numeric.Linsys.backend -> Circuit.t -> sys
(** Build the layout, compile it, build the stamp plan and run the
    structural checks.  [backend] defaults to [Dense], which needs only
    the system size; [Csr] also builds the {!pattern} and analyses it
    symbolically.  Valid for every circuit sharing this topology (any
    [Circuit.map_devices] image: same nodes, same device order, same
    device kinds).  A structurally singular circuit still gets a dense
    [sys] (its solves report the issues); the csr backend may refuse its
    pattern with {!Yield_numeric.Lu.Singular}.

    {b The stamp plan.}  Which value slot a stamp lands on depends on the
    topology alone, so [sys] resolves every slot once
    ({!Yield_numeric.Linsys.slot}): for each device, in device order, the
    slot of every DC and AC stamp it writes, in the order the assembly
    writes them, and -1 where a ground row or column drops a stamp; the
    slot of each node's diagonal; and each voltage source's branch row.
    A MOSFET has 28 stamps (12 conductive, 16 capacitive), a two-terminal
    element or a controlled source 4.  The plan belongs to the compiled
    system it was resolved against: {!assemble_dc_into},
    {!assemble_ac_into} and {!stamp_device_dc} replay it only into
    workspaces of this [sys] ({!sys_real}, {!sys_complex}) and raise
    [Invalid_argument] for any other — an O(1) identity check. *)

val default_sys : sys option -> Circuit.t -> sys
(** [default_sys sys circuit] is the given session, else a fresh dense
    {!sys} of [circuit]: how an engine called without [?sys] gets the one
    session it solves in. *)

val sys_layout : sys -> layout

val sys_dc_issues : sys -> Topology.issue list
(** {!Topology.dc_issues} of the circuit the [sys] was built from. *)

val sys_ac_issues : sys -> Topology.issue list
(** {!Topology.ac_issues} of the circuit the [sys] was built from. *)

val sys_real : sys -> Yield_numeric.Linsys.real
(** Allocate a mutable real workspace (call once per worker). *)

val sys_complex : sys -> Yield_numeric.Linsys.complex_sys
(** Allocate a mutable complex workspace (call once per worker). *)

val sys_solver_name : sys -> string

(** {1 Assembly}

    Every assembly replays the {!sys}'s stamp plan: it adds each stamp's
    value to its precomputed slot of the workspace's value arrays, with no
    closure, slot search or boxed float, and evaluates MOSFETs through
    {!Mosfet.linearise}.  The values and their order per slot are those
    of stamping entry by entry through the workspace's [add], so the
    assembled systems are bit-identical to it. *)

val assemble_dc_into :
  Yield_numeric.Linsys.real ->
  ?models:models ->
  Circuit.t -> layout -> x:Yield_numeric.Vec.t -> source_scale:float ->
  gmin:float -> Yield_numeric.Vec.t
(** Newton-linearised DC system around the guess [x], assembled into the
    workspace (reset first); returns the right-hand side, so that solving
    it yields the next iterate.  [source_scale] scales all independent
    sources (for source-stepping homotopy); [gmin] is a conductance added
    from every node to ground.  Allocates the right-hand side and one
    {!Mosfet.buffer}, nothing per device.
    @raise Invalid_argument when the workspace is not of the [sys] whose
    layout this is, or the circuit has another device count. *)

val stamp_device_dc :
  Yield_numeric.Linsys.real -> layout -> ?models:models -> Circuit.t -> int ->
  x:Yield_numeric.Vec.t -> scratch:float array -> Yield_numeric.Vec.t -> unit
(** [stamp_device_dc rs layout circuit di ~x ~scratch rhs] replays device
    [di]'s share of {!assemble_dc_into} into the workspace without
    resetting it: its matrix stamps and, for a MOSFET, the equivalent
    current of its linearisation at [x] in [rhs].  Source values are left
    to the caller (the transient engine drives them by waveform).
    [scratch] is a {!Mosfet.buffer}.
    @raise Invalid_argument as {!assemble_dc_into}. *)

val mos_operating_points :
  ?models:models ->
  Circuit.t -> x:Yield_numeric.Vec.t -> (string * Mosfet.op) list
(** Device-convention operating point of every MOSFET at the solution [x]
    (PMOS currents and voltages reported NMOS-normalised, as produced by
    {!Mosfet.eval} on the flipped bias). *)

val assemble_ac_into :
  Yield_numeric.Linsys.complex_sys ->
  Circuit.t -> layout -> ops:(string -> Mosfet.op) -> Complex.t array
(** Small-signal system [ (G + jw C) x = rhs ] assembled into the
    workspace (reset first); returns [rhs], which carries the AC
    magnitudes of the independent sources.  [ops] maps MOSFET names to
    their DC operating points.
    @raise Invalid_argument as {!assemble_dc_into}. *)

(** {1 Primitives shared with the transient engine} *)

val stamp_capacitance :
  Yield_numeric.Linsys.real -> layout -> int -> group:int -> float -> unit
(** [stamp_capacitance rs layout di ~group g] adds the conductance [g] on
    the capacitive stamp group of device [di] that starts at offset
    [group] of its plan slots: 0 for a capacitor, 12, 16, 20 and 24 for a
    MOSFET's gs, gd, db and sb capacitances.  The transient engine's
    companion models.
    @raise Invalid_argument as {!assemble_dc_into}. *)

val mos_operating_point :
  Mosfet.model -> w:float -> l:float -> d:Device.node -> g:Device.node ->
  s:Device.node -> b:Device.node -> Yield_numeric.Vec.t -> Mosfet.op
(** The operating point of one MOSFET at the solution [x], as
    {!mos_operating_points} reports it. *)

val inject : Yield_numeric.Vec.t -> Device.node -> float -> unit
(** Add a current injection into a node's KCL right-hand side. *)

(** {1 The stamp plan, read-only}

    The corner proof ([Yield_analyse.Corner_lint]) replays a dense
    {!sys}'s plan into its own interval arrays through the interval
    instance of the same stamps, at slot [i*n + j] of the n x n system.
    Callers must not mutate the arrays. *)

type plan = private {
  owner : Yield_numeric.Linsys.t;  (** the compiled system the slots index *)
  diag : int array;  (** [diag.(i)]: the slot of node unknown i's diagonal *)
  slots : int array array;
      (** [slots.(di)]: device [di]'s stamp slots in write order, -1 where a
          ground row or column drops one (28 for a MOSFET: 12 conductive,
          then the gs, gd, db and sb capacitive groups of 4) *)
  branch : int array;  (** a voltage source's branch row, -1 otherwise *)
}

val plan : layout -> plan
(** The layout's stamp plan (see {!sys}). *)
