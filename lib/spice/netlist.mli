(** SPICE-like netlist text format — the frontend facade.

    The paper's flow starts at "netlist and objective function generation";
    this module gives circuits a concrete textual form.  [parse] is a thin
    wrapper over the real frontend: {!Netlist_lexer} (spanned tokens,
    [+] continuation lines, [*] and [;] comments, case-insensitivity,
    engineering suffixes f p n u m k meg g t), {!Netlist_parser} (typed AST,
    every node carrying a source span), and {!Netlist_elab} (hierarchy
    flattening, [.param] arithmetic).

    Supported cards:

    {v
    .param <name>=<value|{expr}> ...     arithmetic over earlier parameters
    .model <name> nmos|pmos vth0=.. kp=.. gamma=.. phi=.. lambda0=.. n=..
                  cox=.. cgso=.. cgdo=.. cj=.. cjsw=.. ext=..
    R<id> n1 n2 <ohms>
    C<id> n1 n2 <farads>
    V<id> n+ n- <dc> [ac=<mag>]
    I<id> n+ n- <dc> [ac=<mag>]
    G<id> out+ out- in+ in- <gm>
    M<id> d g s b <model> w=<m> l=<m>
    .subckt <name> <port>...
      <cards>
    .ends
    X<id> <node>... <subckt-name>
    .nodeset v(<node>)=<volts>
    .op
    .ac dec <points-per-decade> <f_lo> <f_hi> <out-node>
    .tran <dt> <t_stop> <out-node>
    .dc <source> <start> <stop> <step> <out-node>
    .end
    v}

    Any card may continue on following lines that start with [+].  Value
    fields accept [{...}] expressions over previously assigned parameters
    ([+ - * / ( )], engineering suffixes).  Subcircuits are kept
    hierarchical in the AST and expanded at elaboration: internal nodes and
    device names of instance [X1] of subckt [amp] appear as [X1.<name>].
    Nested subcircuit definitions are not supported; instantiating a subckt
    from inside another is. *)

exception Parse_error of { span : Netlist_ast.span; message : string }
(** Every malformed input — lexical, syntactic or semantic — surfaces as
    this one typed error with a precise source {!Netlist_ast.span}.  It is
    the same exception as {!Netlist_ast.Parse_error} (a rebinding), so
    matching either name catches both. *)

type analysis = Netlist_elab.analysis =
  | Op  (** [.op] — DC operating point *)
  | Ac_analysis of { per_decade : int; f_lo : float; f_hi : float; out : string }
      (** [.ac dec <pts> <f_lo> <f_hi> <node>] *)
  | Tran_analysis of { dt : float; t_stop : float; out : string }
      (** [.tran <dt> <t_stop> <node>] *)
  | Dc_analysis of {
      source : string;
      start : float;
      stop : float;
      step : float;
      out : string;
    }  (** [.dc <source> <start> <stop> <step> <node>] *)

val parse_value : string -> float
(** Engineering-notation scalar ("10k", "3.3", "120p", "2meg").
    @raise Failure on malformed input. *)

val parse : string -> Circuit.t
(** @raise Parse_error with a source span on malformed input.  Analysis
    cards are accepted and ignored; {!Netlist_elab.elaborate} returns
    them, in order.  Analysis cards are only allowed at the top level (not
    inside [.subckt]). *)

val to_string : Circuit.t -> string
(** Render a circuit back to netlist text.  MOS models registered via
    {!Circuit.name_model} (every [.model] card the reader saw) keep their
    original names; only unnamed, programmatically built models are
    deduplicated into generated [mod1], [mod2], ... cards. *)
