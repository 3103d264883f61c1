(** Modified nodal analysis: system layout, structural pattern, and matrix
    stamping.

    Unknown vector layout: entries [0 .. n_nodes-1] are the voltages of nodes
    [1 .. n_nodes] (ground is eliminated), followed by one branch current per
    voltage source, in device order. *)

type layout

val layout : Circuit.t -> layout

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
(** Build the layout, compile it, and run the structural checks.
    [backend] defaults to [Dense], which needs only the system size; [Csr]
    also builds the {!pattern} and analyses it symbolically.  Valid for
    every circuit sharing this topology (any [Circuit.map_devices] image:
    same nodes, same device order, same device kinds).  A structurally
    singular circuit still gets a dense [sys] (its solves report the
    issues); the csr backend may refuse its pattern with
    {!Yield_numeric.Lu.Singular}. *)

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

(** {1 Assembly} *)

val assemble_dc :
  ?models:models ->
  Circuit.t -> layout -> x:Yield_numeric.Vec.t -> source_scale:float ->
  gmin:float -> Yield_numeric.Mat.t * Yield_numeric.Vec.t
(** Newton-linearised DC system around the guess [x]: returns [(g, rhs)] such
    that solving [g x' = rhs] yields the next iterate.  [source_scale] scales
    all independent sources (for source-stepping homotopy); [gmin] is a
    conductance added from every node to ground. *)

val assemble_dc_into :
  Yield_numeric.Linsys.real ->
  ?models:models ->
  Circuit.t -> layout -> x:Yield_numeric.Vec.t -> source_scale:float ->
  gmin:float -> Yield_numeric.Vec.t
(** Same stamps through a {!Yield_numeric.Linsys.real} workspace (resetting
    it first); returns the right-hand side.  With a dense workspace this is
    byte-identical to {!assemble_dc}. *)

val mos_operating_points :
  ?models:models ->
  Circuit.t -> x:Yield_numeric.Vec.t -> (string * Mosfet.op) list
(** Device-convention operating point of every MOSFET at the solution [x]
    (PMOS currents and voltages reported NMOS-normalised, as produced by
    {!Mosfet.eval} on the flipped bias). *)

val assemble_ac_into :
  Yield_numeric.Linsys.complex_sys ->
  Circuit.t -> layout -> ops:(string -> Mosfet.op) -> Complex.t array
(** Small-signal system [ (G + jw C) x = rhs ] stamped through a
    {!Yield_numeric.Linsys.complex_sys} workspace (resetting it first);
    returns [rhs], which carries the AC magnitudes of the independent
    sources.  [ops] maps MOSFET names to their DC operating points. *)

(** {1 Low-level stamping primitives, shared with the transient engine}

    Each stamps through a generic [add row col value] accumulator (a
    {!Yield_numeric.Linsys} workspace); ground rows and columns are
    skipped. *)

val stamp_conductance_into :
  (int -> int -> float -> unit) -> Device.node -> Device.node -> float -> unit
(** Two-terminal conductance between two nodes. *)

val stamp_transconductance_into :
  (int -> int -> float -> unit) -> out_p:Device.node -> out_n:Device.node ->
  in_p:Device.node -> in_n:Device.node -> float -> unit
(** Current [g * v(in_p, in_n)] leaving [out_p], entering [out_n]. *)

val stamp_branch_into :
  (int -> int -> float -> unit) -> layout -> name:string ->
  npos:Device.node -> nneg:Device.node -> unit
(** Voltage-source branch rows/columns (without the RHS value). *)

val inject : Yield_numeric.Vec.t -> Device.node -> float -> unit
(** Add a current injection into a node's KCL right-hand side. *)

val stamp_mosfet_dc_into :
  (int -> int -> float -> unit) -> Yield_numeric.Vec.t ->
  x:Yield_numeric.Vec.t -> d:Device.node -> g:Device.node -> s:Device.node ->
  b:Device.node -> model:Mosfet.model -> w:float -> l:float -> Mosfet.op
