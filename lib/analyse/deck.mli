(** A netlist deck, read, parsed and elaborated once for every pass and
    command that looks at it: {!Netlist_lint}, {!Ac_tran_lint},
    {!Corner_lint} and [yieldlab netlist] all take the result of one
    {!load}. *)

type elaborated = {
  circuit : Yield_spice.Circuit.t;
  origin : Yield_spice.Netlist_elab.origin;
      (** provenance of every flattened device and node *)
  analyses :
    (Yield_spice.Netlist_elab.analysis * Yield_spice.Netlist_ast.span) list;
      (** the analysis cards in card order, each with its card's span *)
}

type t = {
  path : string;
  ast : Yield_spice.Netlist_ast.t;
  elaborated : (elaborated, Diagnostic.t) result;
      (** the flattened circuit, or the [N000] finding of a deck that
          parses but does not elaborate (an undefined subckt or model, a
          port-arity mismatch, ...) *)
}

val load : string -> (t, Diagnostic.t) result
(** Read ({!Yield_resilience.Atomic_io.read_file}), parse and elaborate
    the netlist file at [path].  A file that cannot be read or parsed
    comes back as one [N000] error finding carrying the file and, for a
    parse error, the line and column, instead of raising.  [N000] is
    {!Netlist_lint}'s code: {!Ac_tran_lint} says nothing about such a
    deck. *)
