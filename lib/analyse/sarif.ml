module Json = Yield_obs.Json

let schema_uri = "https://json.schemastore.org/sarif-2.1.0.json"

let sarif_version = "2.1.0"

(* one line per stable code; the authoritative prose lives in README.md and
   the .mli of the pass that owns the family *)
let rule_descriptions =
  [
    ("N000", "netlist file unreadable or unparseable");
    ("N001", "node referenced by only one device terminal");
    ("N002", "node with no DC path to ground (singular MNA system)");
    ("N003", "voltage sources forming a loop (singular MNA system)");
    ("N004", "MOSFET with non-finite or non-positive geometry");
    ("N005", "resistor with non-finite or non-positive resistance");
    ("N006", "capacitor with non-finite or negative capacitance");
    ("N007", "MOSFET below the technology's minimum channel length");
    ("N008", "symmetric pair with mismatched geometry");
    ("N009", "duplicate device name in one scope");
    ("N010", "instantiation of an undefined .subckt");
    ("N011", ".subckt defined but never instantiated");
    ("N012", "X-instance connection count differing from the port count");
    ("N013", ".param assigned but never referenced");
    ("N014", ".param assignment shadowing an earlier one");
    ("T001", "table file unreadable or malformed");
    ("T002", "non-finite table cell");
    ("T003", "axis column not strictly increasing");
    ("T004", "malformed or inconsistent table-model control string");
    ("T005", "too few data rows to interpolate");
    ("T006", "duplicate table column name");
    ("T007", "spec point outside the table domain under an E policy");
    ("C001", "non-positive GA/MC scale field");
    ("C002", "mc_samples at or below the degradation threshold");
    ("C003", "front_stride leaving two or fewer front points");
    ("C004", "malformed table-model control string in config");
    ("C005", "checkpoint dry-run failure");
    ("C006", "jobs below 1 or above the recommended domain count");
    ("C007", "unknown solver name");
    ("C008", "malformed setting refused (env variable or CLI flag)");
    ("F001", "unparseable fault spec");
    ("F002", "fault spec naming an unknown injection point");
    ("F003", "fault schedule that can never fire");
    ("A001", ".ac analysis with no AC-excited source");
    ("A002", ".ac output node unknown or ground");
    ("A003", ".ac output node unreachable from every AC-excited source");
    ("A004", "malformed .ac sweep");
    ("A005", ".ac sweep provably disjoint from the circuit's pole band");
    ("R001", "degenerate .tran card");
    ("R002", ".tran timestep provably overstepping the fastest time constant");
    ("R003", ".tran analysis with no time-varying stimulus");
    ("R004", ".tran output node unknown");
    ("V000", "Verilog-A file unreadable or unparseable");
    ("V001", "port, direction or discipline inconsistency");
    ("V002", "malformed $table_model call");
    ("V003", "unparseable table-model control string");
    ("V004", "query arity disagreeing with the control token count");
    ("V005", "referenced table missing, malformed or mis-shaped");
    ("V006", "query window not provably inside the sampled table domain");
    ("V007", "use of an unassigned or undeclared identifier");
    ("V008", "variable declared but never read");
    ("D001", "MOSFET provably in saturation across the variation box");
    ("D002", "MOSFET not provably in saturation across the variation box");
    ("D003", "no verified DC operating-point enclosure for the variation box");
    ("Y001", "spec window provably missed across the variation box (yield 0)");
    ("Y002", "spec window provably met across the truncated variation box");
    ("Y003", "corner verdict undecided (enclosure straddles the spec window)");
  ]

let level_of_severity = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

let rule json_code =
  let text =
    match List.assoc_opt json_code rule_descriptions with
    | Some d -> d
    | None -> "yieldlab preflight finding"
  in
  Json.Obj
    [
      ("id", Json.String json_code);
      ("shortDescription", Json.Obj [ ("text", Json.String text) ]);
    ]

let location (d : Diagnostic.t) =
  match d.Diagnostic.file with
  | None -> []
  | Some file ->
      let physical =
        ("artifactLocation", Json.Obj [ ("uri", Json.String file) ])
        ::
        (match (d.Diagnostic.span, d.Diagnostic.line) with
        | Some s, _ ->
            [
              ( "region",
                Json.Obj
                  [
                    ("startLine", Json.Int s.Diagnostic.start_line);
                    ("startColumn", Json.Int s.Diagnostic.start_col);
                    ("endLine", Json.Int s.Diagnostic.end_line);
                    ("endColumn", Json.Int s.Diagnostic.end_col);
                  ] );
            ]
        | None, Some line ->
            [ ("region", Json.Obj [ ("startLine", Json.Int line) ]) ]
        | None, None -> [])
      in
      [
        ( "locations",
          Json.List [ Json.Obj [ ("physicalLocation", Json.Obj physical) ] ] );
      ]

(* secondary spans (N009's first definition, a D-code's device card) become
   SARIF relatedLocations so viewers can jump to both ends of the finding *)
let related_locations (d : Diagnostic.t) =
  match d.Diagnostic.related with
  | [] -> []
  | rs ->
      let one (r : Diagnostic.related) =
        let file =
          match (r.Diagnostic.rel_file, d.Diagnostic.file) with
          | Some f, _ -> Some f
          | None, f -> f
        in
        match file with
        | None -> None
        | Some file ->
            let s = r.Diagnostic.rel_span in
            Some
              (Json.Obj
                 [
                   ( "physicalLocation",
                     Json.Obj
                       [
                         ( "artifactLocation",
                           Json.Obj [ ("uri", Json.String file) ] );
                         ( "region",
                           Json.Obj
                             [
                               ("startLine", Json.Int s.Diagnostic.start_line);
                               ("startColumn", Json.Int s.Diagnostic.start_col);
                               ("endLine", Json.Int s.Diagnostic.end_line);
                               ("endColumn", Json.Int s.Diagnostic.end_col);
                             ] );
                       ] );
                   ( "message",
                     Json.Obj [ ("text", Json.String r.Diagnostic.note) ] );
                 ])
      in
      begin
        match List.filter_map one rs with
        | [] -> []
        | locs -> [ ("relatedLocations", Json.List locs) ]
      end

let result ~suppressed (d : Diagnostic.t) =
  Json.Obj
    ([
       ("ruleId", Json.String d.Diagnostic.code);
       ("level", Json.String (level_of_severity d.Diagnostic.severity));
       ( "message",
         Json.Obj
           [
             ( "text",
               Json.String
                 (Printf.sprintf "[%s] %s" d.Diagnostic.subject
                    d.Diagnostic.message) );
           ] );
       ( "partialFingerprints",
         Json.Obj [ ("yieldlab/v1", Json.String (Baseline.fingerprint d)) ] );
     ]
    @ location d
    @ related_locations d
    @
    if suppressed then
      [
        ( "suppressions",
          Json.List [ Json.Obj [ ("kind", Json.String "external") ] ] );
      ]
    else [])

let render ?(tool_version = "") ?(suppressed = []) diags =
  let all = Diagnostic.sort diags @ Diagnostic.sort suppressed in
  let codes =
    List.sort_uniq String.compare (List.map (fun d -> d.Diagnostic.code) all)
  in
  let driver =
    [ ("name", Json.String "yieldlab") ]
    @ (if tool_version <> "" then
         [ ("version", Json.String tool_version) ]
       else [])
    @ [ ("rules", Json.List (List.map rule codes)) ]
  in
  Json.Obj
    [
      ("$schema", Json.String schema_uri);
      ("version", Json.String sarif_version);
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ("tool", Json.Obj [ ("driver", Json.Obj driver) ]);
                ( "results",
                  Json.List
                    (List.map (result ~suppressed:false) (Diagnostic.sort diags)
                    @ List.map (result ~suppressed:true)
                        (Diagnostic.sort suppressed)) );
              ];
          ] );
    ]

let save ?tool_version ?suppressed ~path diags =
  Yield_resilience.Atomic_io.write_file ~path
    (Json.to_string (render ?tool_version ?suppressed diags) ^ "\n")
