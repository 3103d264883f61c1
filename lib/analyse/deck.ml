module Ast = Yield_spice.Netlist_ast
module Elab = Yield_spice.Netlist_elab

type elaborated = {
  circuit : Yield_spice.Circuit.t;
  origin : Elab.origin;
  analyses : (Elab.analysis * Ast.span) list;
}

type t = { path : string; ast : Ast.t; elaborated : (elaborated, Diagnostic.t) result }

let n000 ~path ?span message =
  Diagnostic.make ~file:path ?span ~code:"N000" ~severity:Diagnostic.Error
    ~subject:path message

(* the frontend raises typed errors only; a [Failure] would break that
   contract, and degrades to a spanless N000 instead of a backtrace *)
let guarded ~path f =
  match f () with
  | v -> Ok v
  | exception Ast.Parse_error { span; message } ->
      Error (n000 ~path ~span:(Diagnostic.span_of_ast span) message)
  | exception Failure message -> Error (n000 ~path message)

let load path =
  match Yield_resilience.Atomic_io.read_file ~path with
  | exception Sys_error msg -> Error (n000 ~path msg)
  | text ->
      Result.map
        (fun ast ->
          let origin = Elab.create_origin () in
          let elaborated =
            guarded ~path (fun () ->
                let circuit, analyses = Elab.elaborate ~origin ast in
                { circuit; origin; analyses })
          in
          { path; ast; elaborated })
        (guarded ~path (fun () -> Yield_spice.Netlist_parser.parse text))
