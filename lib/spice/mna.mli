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

(** {1 Per-sample models}

    The Monte Carlo loop instantiates a circuit once per front point and
    gives each sample its own MOSFET models without rebuilding the
    circuit or building a model record.  A sample varies three parameters
    of each MOSFET's model, [vth0], [kp] and [lambda0], and keeps them in
    one flat buffer: device [di]'s (its position in [Circuit.devices]) at
    [models.(3 * di)], [models.(3 * di + 1)] and [models.(3 * di + 2)];
    the slots of other devices are not read.  Every assembly that takes
    [?models] evaluates each MOSFET with its model's other fields and
    these three ({!Mosfet.linearise_varied}, {!Mosfet.small_signal_varied}),
    which read them inside the inlined device equations, as {!sizes}
    passes W and L, so no float crosses a call boxed.  So the floats are
    those of a circuit built with {!Mosfet.with_params} of each model.
    Without [?models] every MOSFET has its own model.

    A Monte Carlo sample does not allocate its buffer: it borrows one from
    its {!sys} ({!borrow_models}) and draws into it in place
    ([Yield_process.Variation.draw_into]). *)

type models = float array

type sizes = { design : float array; at : int array }
(** Per-evaluation MOSFET geometry: a design vector and, indexed by
    device like {!models}, where in it device [di]'s W and L are:
    [design.(at.(2 * di))] and [design.(at.(2 * di + 1))], in place of
    its record's, where those indices are not -1 (entries of other
    devices are not read).  A testbench template passes each design this
    way, at assembly, instead of rebuilding its circuit; the assembly
    reads the two from the vector ({!Mosfet.linearise_at},
    {!Mosfet.small_signal_at}), so the floats are those of a circuit
    built with them and none is boxed. *)

(** {1 Solver sessions}

    A [sys] pairs a layout with a compiled {!Yield_numeric.Linsys} system,
    built once per topology: every analysis ({!Dcop}, {!Ac}, {!Noise},
    {!Tran}, {!Dcsweep}) solves in one, and every sample only
    re-assembles numeric values.  It also carries its topology's
    structural issues ({!Topology.dc_issues} and {!Topology.ac_issues}),
    computed once when it is built, which {!Dcop.solve} and {!Ac.transfer}
    read instead of re-running the checks per call.  A [sys] is safe to
    share across domains.  Its only mutable parts are its shelves of
    numeric workspaces, which {!Dcop.solve}, {!Tran.run} and
    {!Ac.transfer} borrow from ({!with_dc}, {!with_ac}) by
    compare-and-set, and of Monte Carlo samples' {!models} buffers
    ({!borrow_models}); other callers allocate their own with
    {!sys_real} / {!sys_complex}. *)

type sys

val pattern : Circuit.t -> layout -> Yield_numeric.Linsys.Pattern.t
(** Union of every structural position any analysis stamps for this
    topology (DC Newton, AC, transient companion models), so one cached
    symbolic factorisation serves them all. *)

val sys : ?backend:Yield_numeric.Linsys.backend -> Circuit.t -> sys
(** Build the layout, compile it with its {!pattern}, build the stamp
    plan and run the structural checks.  [backend] defaults to [Dense],
    which builds the pattern for the pivot-path plan its AC sweep grows
    ({!Yield_numeric.Pivot_path}) when the first sweep needs it; [Csr]
    builds it now and analyses it symbolically.  Valid for every circuit
    sharing this topology (any
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
(** Allocate a fresh mutable real workspace, owned by the caller, who
    keeps it for as many solves as it likes (the corner proof).
    {!Dcop.solve} and {!Tran.run} do not allocate one: they borrow the
    sys's ({!with_dc}). *)

val sys_complex : sys -> Yield_numeric.Linsys.complex_sys
(** Allocate a fresh mutable complex workspace, owned by the caller (the
    noise analysis).  {!Ac.transfer} does not allocate one per call: it
    borrows the sys's ({!with_ac}). *)

val sys_solver_name : sys -> string

(** {1 Borrowed workspaces}

    A [sys] keeps the workspaces its solves and transfers have used on a
    shelf, and lends them out again: a call borrows one for its duration
    and gives it back when it returns or raises.  Borrowing is a
    compare-and-set on the workspace's busy flag, so two domains never
    hold one workspace; a borrower that finds none free (the first call,
    a domain racing another, or a call nested inside one that holds the
    workspace) allocates its own and shelves it.  So the shelf never
    holds more workspaces than were ever borrowed at once, and it is
    collected with its [sys].  No setting sizes it.  Borrowing a shelved
    workspace and giving it back allocate nothing.

    Reuse is invisible: every user writes what it reads before reading
    it (an assembly resets the system and zero-fills its right-hand side,
    a factorisation overwrites its buffers), so a borrowed workspace
    gives the bits a fresh one gives, also after a call that raised. *)

type dc_work = private {
  rs : Yield_numeric.Linsys.real;  (** the real system *)
  rhs : Yield_numeric.Vec.t;  (** the right-hand side {!assemble_dc} writes *)
  scratch : float array;  (** the {!Mosfet.buffer} its MOSFETs evaluate in *)
  x : Yield_numeric.Vec.t;  (** Newton's iterate *)
  x0 : Yield_numeric.Vec.t;  (** Newton's starting guess *)
  x_new : Yield_numeric.Vec.t;  (** the linearised system's solution *)
  layout : layout;  (** the layout of the [sys] it belongs to *)
  mutable circuit : Circuit.t;  (** what {!assemble_dc} linearises ({!aim_dc}) *)
  mutable models : models option;
  mutable sizes : sizes option;
  mutable source_scale : float;
  mutable gmin : float;
  busy : bool Atomic.t;  (** set while a call holds it *)
}
(** A DC solve's workspace: the system and every vector a damped Newton
    run writes, all of the system's size, and the circuit, overrides and
    homotopy point its assembly linearises, so that an iteration
    allocates nothing and a Newton loop needs no closure.  The contents
    belong to the borrower. *)

type response = {
  mutable re : float array;  (** the real part of point k's response *)
  mutable im : float array;  (** its imaginary part *)
  mutable mag_db : float array;  (** its magnitude in dB, where a measurement wrote it *)
  mutable phase_deg : float array;  (** its phase, where a measurement wrote it *)
  marks : int array;
      (** two ints a stop rule keeps between the points of one sweep; the
          rule sets them at point 0 *)
}
(** A sweep's points, indexed by frequency: what a sweep writes
    ([re], [im]) and what the measurements on it write ([mag_db],
    [phase_deg]).  The four arrays have one length, at least the grid's. *)

val response : int -> response
(** Zeroed room for [n] points. *)

val reserve : response -> int -> unit
(** [reserve r n] gives [r] room for [n] points, with fresh arrays when
    it has less; it keeps the arrays otherwise, so a workspace allocates
    them once for the longest grid it sweeps. *)

type ac_work = private {
  cs : Yield_numeric.Linsys.complex_sys;  (** the complex system *)
  crhs : Complex.t array;  (** the right-hand side {!assemble_ac} writes *)
  ss : float array;
      (** the {!Mosfet.buffer} each MOSFET's small-signal model is
          evaluated in *)
  points : response;  (** where {!Ac.sweep} leaves the response *)
  ac_busy : bool Atomic.t;  (** set while a call holds it *)
}
(** An AC transfer's workspace.  The assembly, the sweep and the
    measurements of one transfer all write into it, so a sweep allocates
    none of the floats it computes. *)

val with_dc : sys -> (dc_work -> 'a) -> 'a
(** [with_dc sys f] is [f w] for a DC workspace [w] of [sys] borrowed for
    the call (see above); [w] goes back on the shelf when [f] returns or
    raises. *)

val with_ac : sys -> (ac_work -> 'a) -> 'a
(** {!with_dc} for an AC workspace. *)

val borrow_dc : sys -> dc_work
(** {!with_dc} without the closure: a DC workspace of [sys], held until
    {!return_dc}, which the borrower must call however it leaves,
    exception or not. *)

val return_dc : dc_work -> unit

val borrow_ac : sys -> ac_work
(** {!borrow_dc} for an AC workspace. *)

val return_ac : ac_work -> unit

type model_work = private {
  models : models;
      (** three floats a device of the [sys]'s topology, their contents
          the borrower's *)
  models_busy : bool Atomic.t;  (** set while a call holds it *)
}
(** A sample's {!models}, lent like a workspace: a Monte Carlo sample
    draws its models into the buffer and assembles from it while it holds
    it. *)

val borrow_models : sys -> model_work
(** {!borrow_dc} for a {!models} buffer, held until {!return_models}.
    Like the workspaces, a buffer is never lent to two borrowers at once,
    and borrowing a shelved one allocates nothing. *)

val return_models : model_work -> unit

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
    {!Mosfet.buffer}, nothing per device: it is {!assemble_dc} into a
    fresh right-hand side and buffer.
    @raise Invalid_argument when the workspace is not of the [sys] whose
    layout this is, or the circuit has another device count. *)

val aim_dc :
  dc_work -> ?models:models -> ?sizes:sizes -> Circuit.t ->
  source_scale:float -> gmin:float -> unit
(** [aim_dc w circuit ~source_scale ~gmin] sets what {!assemble_dc}
    linearises in [w]: [circuit] (of the workspace's [sys]) under
    [models] and [sizes], at that source scaling and [gmin].  Allocates
    nothing. *)

val assemble_dc : dc_work -> Yield_numeric.Vec.t -> unit
(** [assemble_dc w x] is {!assemble_dc_into} of what {!aim_dc} set,
    linearised at [x], into the borrowed workspace: the system into its
    [rs] and the right-hand side into its [rhs], each MOSFET evaluated in
    its [scratch].  Allocates nothing.  [x] may be the workspace's own
    [x].  A top-level function of the workspace, so a Newton loop takes
    it without a closure ({!Dcop.iterate}).
    @raise Invalid_argument as {!assemble_dc_into}. *)

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
    {!Mosfet.eval} on the flipped bias), in device order.  Every device
    evaluates in one buffer, so the call allocates the list, its pairs,
    the records and one {!Mosfet.buffer}. *)

type small_signal =
  | Operating_points of (string -> Mosfet.op)
      (** each MOSFET's [gm], [gds], [gmb], [cgs], [cgd], [cdb] and [csb]
          read from its operating point, looked up by name *)
  | Solution of dc_work
      (** each MOSFET's small-signal model evaluated at the DC workspace's
          [x], under the models and sizes of its last {!aim_dc} (those a
          converged solve linearised), the bias {!mos_operating_point}
          gives it: the floats of the operating point's fields, with no
          operating point built *)
(** Where the AC assembly takes each MOSFET's seven small-signal values
    from.  A testbench evaluation passes the DC workspace it solved in
    straight to the assembly ([Solution]); {!Dcop.t}'s [mos_ops] are for
    callers that keep an operating point. *)

val assemble_ac_into :
  Yield_numeric.Linsys.complex_sys ->
  Circuit.t -> layout -> ops:(string -> Mosfet.op) -> Complex.t array
(** Small-signal system [ (G + jw C) x = rhs ] assembled into the
    workspace (reset first); returns [rhs], which carries the AC
    magnitudes of the independent sources.  [ops] maps MOSFET names to
    their DC operating points.  It is {!assemble_ac} of
    [Operating_points ops] into a fresh right-hand side.
    @raise Invalid_argument as {!assemble_dc_into}. *)

val assemble_ac : ac_work -> Circuit.t -> layout -> small_signal -> unit
(** The one AC assembly, into a borrowed workspace: the pencil into its
    [cs] and the right-hand side into its [crhs], each MOSFET's values
    from the source given.  A [Solution] evaluates every MOSFET in the
    workspace's [ss] and allocates nothing.
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
