module Tbl_io = Yield_table.Tbl_io

let param_names = [| "lp1"; "lp2"; "lp3"; "lp4"; "lp5"; "lp6"; "lp7"; "lp8" |]

(* ---------- typed AST ---------- *)

type binop = Add | Sub | Mul | Div

type expr =
  | Num of string
  | Ident of string
  | Str of string
  | Access of string * string
  | Call of string * expr list
  | Neg of expr
  | Paren of expr
  | Bin of binop * expr * expr

type stmt =
  | Comment of string
  | Assign_group of (string * expr) list
  | Sys_call of string * expr list
  | Contribution of { access : string; node : string; rhs : expr }

type port_dir = Input | Output | Inout

type param = { pname : string; default : string; pcomment : string option }

type item =
  | Port_decl of port_dir * string list
  | Discipline_decl of string * string list
  | Param_group of param list
  | Real_decl of string list
  | Integer_decl of string list
  | Blank
  | Analog of stmt list

type module_def = { module_name : string; ports : string list; items : item list }

type source = {
  header : string list;
  includes : string list;
  modules : module_def list;
}

(* ---------- printer ---------- *)

let rec expr_to_string = function
  | Num s | Ident s -> s
  | Str s -> "\"" ^ s ^ "\""
  | Access (f, n) -> f ^ "(" ^ n ^ ")"
  | Call (f, args) ->
      f ^ "(" ^ String.concat ", " (List.map expr_to_string args) ^ ")"
  | Neg e -> "-" ^ expr_to_string e
  | Paren e -> "(" ^ expr_to_string e ^ ")"
  | Bin (op, a, b) ->
      let glue =
        match op with Add -> " + " | Sub -> " - " | Mul -> "*" | Div -> "/"
      in
      expr_to_string a ^ glue ^ expr_to_string b

let pad width s = s ^ String.make (width - String.length s) ' '

let max_width names =
  List.fold_left (fun m s -> Stdlib.max m (String.length s)) 0 names

let stmt_lines = function
  | Comment text -> [ "    // " ^ text ]
  | Assign_group binds ->
      let width = max_width (List.map fst binds) in
      List.map
        (fun (lhs, rhs) ->
          Printf.sprintf "    %s = %s;" (pad width lhs) (expr_to_string rhs))
        binds
  | Sys_call (f, args) ->
      [
        Printf.sprintf "    %s(%s);" f
          (String.concat ", " (List.map expr_to_string args));
      ]
  | Contribution { access; node; rhs } ->
      [ Printf.sprintf "    %s(%s) <+ %s;" access node (expr_to_string rhs) ]

let dir_keyword = function Input -> "input" | Output -> "output" | Inout -> "inout"

let item_lines = function
  | Port_decl (dir, names) ->
      [ Printf.sprintf "  %s %s;" (dir_keyword dir) (String.concat ", " names) ]
  | Discipline_decl (discipline, names) ->
      [ Printf.sprintf "  %s %s;" discipline (String.concat ", " names) ]
  | Param_group params ->
      let width = max_width (List.map (fun p -> p.pname) params) in
      List.map
        (fun p ->
          let comment =
            match p.pcomment with Some c -> "  // " ^ c | None -> ""
          in
          Printf.sprintf "  parameter real %s = %s;%s" (pad width p.pname)
            p.default comment)
        params
  | Real_decl names -> [ Printf.sprintf "  real %s;" (String.concat ", " names) ]
  | Integer_decl names ->
      [ Printf.sprintf "  integer %s;" (String.concat ", " names) ]
  | Blank -> [ "" ]
  | Analog stmts ->
      ("  analog begin" :: List.concat_map stmt_lines stmts) @ [ "  end" ]

let module_lines m =
  Printf.sprintf "module %s(%s);" m.module_name (String.concat ", " m.ports)
  :: (List.concat_map item_lines m.items @ [ "endmodule" ])

let print_source src =
  let lines =
    List.map (fun c -> "// " ^ c) src.header
    @ List.map (fun inc -> Printf.sprintf "`include \"%s\"" inc) src.includes
    @ [ "" ]
    @ List.concat (List.map module_lines src.modules)
  in
  String.concat "\n" lines ^ "\n"

(* ---------- the paper's module, as an AST ---------- *)

let table_model_1d ~axis ~file ~control =
  Call ("$table_model", [ Ident axis; Str file; Str control ])

let table_model_2d ~file ~control =
  Call
    ( "$table_model",
      [ Ident "gain_prop"; Ident "pm_prop"; Str file; Str (control ^ "," ^ control) ] )

let module_ast ?(name = "ota_behavioural") ~control () =
  let lps = Array.to_list param_names in
  let inflate delta base =
    Bin
      ( Add,
        Paren (Bin (Mul, Paren (Bin (Div, Ident delta, Num "100")), Ident base)),
        Ident base )
  in
  let analog =
    [
      Comment "variation interpolated at the requested performance";
      Assign_group
        [
          ("gain_delta", table_model_1d ~axis:"gain" ~file:"gain_delta.tbl" ~control);
          ("pm_delta", table_model_1d ~axis:"pm" ~file:"pm_delta.tbl" ~control);
        ];
      Comment "proposed performance: inflate so the spec survives variation";
      Assign_group
        [
          ("gain_prop", inflate "gain_delta" "gain");
          ("pm_prop", inflate "pm_delta" "pm");
        ];
      Sys_call ("$display", [ Str "Propose Gain : %e"; Ident "gain_prop" ]);
      Sys_call ("$display", [ Str "Propose PM   : %e"; Ident "pm_prop" ]);
      Comment "designable parameters interpolated from the Pareto tables";
      Assign_group
        (List.mapi
           (fun i p ->
             (p, table_model_2d ~file:(Printf.sprintf "lp%d_data.tbl" (i + 1)) ~control))
           lps);
      Assign_group [ ("ro", table_model_2d ~file:"ro_data.tbl" ~control) ];
      Assign_group [ ("fptr", Call ("$fopen", [ Str "params.dat" ])) ];
      Sys_call
        ("$fwrite", [ Ident "fptr"; Str "\\n Generated Design Parameters\\n " ]);
      Sys_call
        ( "$fwrite",
          Ident "fptr" :: Str "%e %e %e %e %e %e %e %e"
          :: List.map (fun p -> Ident p) lps );
      Sys_call ("$fclose", [ Ident "fptr" ]);
      Comment "output stage";
      Assign_group
        [
          ( "gain_in_v",
            Call ("pow", [ Num "10"; Bin (Div, Ident "gain_prop", Num "20") ]) );
        ];
      Contribution
        {
          access = "V";
          node = "out";
          rhs =
            Bin
              ( Sub,
                Bin (Mul, Access ("V", "inp"), Paren (Neg (Ident "gain_in_v"))),
                Bin (Mul, Access ("I", "out"), Ident "ro") );
        };
    ]
  in
  {
    header =
      [
        "generated by yieldlab: combined performance and variation model";
        "(paper section 4.4)";
      ];
    includes = [ "constants.vams"; "disciplines.vams" ];
    modules =
      [
        {
          module_name = name;
          ports = [ "inp"; "out" ];
          items =
            [
              Port_decl (Input, [ "inp" ]);
              Port_decl (Output, [ "out" ]);
              Discipline_decl ("electrical", [ "inp"; "out" ]);
              Blank;
              Param_group
                [
                  {
                    pname = "gain";
                    default = "50.0";
                    pcomment = Some "requested open-loop gain, dB";
                  };
                  {
                    pname = "pm";
                    default = "70.0";
                    pcomment = Some "requested phase margin, deg";
                  };
                ];
              Blank;
              Real_decl [ "gain_delta"; "pm_delta"; "gain_prop"; "pm_prop" ];
            ]
            @ List.map (fun p -> Real_decl [ p ]) lps
            @ [
                Real_decl [ "ro"; "gain_in_v" ];
                Integer_decl [ "fptr" ];
                Blank;
                Analog analog;
              ];
        };
      ];
  }

let module_text ?(name = "ota_behavioural") ~control () =
  print_source (module_ast ~name ~control ())

(* ---------- parser for the emitted subset ---------- *)

exception Parse_error of { line : int; message : string }

type token =
  | Tok_ident of string
  | Tok_num of string
  | Tok_str of string
  | Tok_punct of string
  | Tok_directive of string

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

(* tokenize, keeping the line of each token; comments are skipped (the
   parser is for linting, not for byte-faithful round-trips of foreign
   files — only {!module_ast} + {!print_source} make that guarantee) *)
let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '`' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      if !i = start then fail !line "dangling ` directive marker";
      push (Tok_directive (String.sub text start (!i - start)))
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while
        !i < n && text.[!i] <> '"'
        && not (text.[!i] = '\n')
      do
        if text.[!i] = '\\' && !i + 1 < n then i := !i + 2 else incr i
      done;
      if !i >= n || text.[!i] <> '"' then fail !line "unterminated string";
      push (Tok_str (String.sub text start (!i - start)));
      incr i
    end
    else if is_ident_start c then begin
      let start = !i in
      incr i;
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      push (Tok_ident (String.sub text start (!i - start)))
    end
    else if is_digit c then begin
      let start = !i in
      while
        !i < n
        && (is_digit text.[!i]
           || text.[!i] = '.'
           || text.[!i] = 'e'
           || text.[!i] = 'E'
           || ((text.[!i] = '+' || text.[!i] = '-')
              && !i > start
              && (text.[!i - 1] = 'e' || text.[!i - 1] = 'E')))
      do
        incr i
      done;
      push (Tok_num (String.sub text start (!i - start)))
    end
    else if c = '<' && !i + 1 < n && text.[!i + 1] = '+' then begin
      push (Tok_punct "<+");
      i := !i + 2
    end
    else if String.contains "(),;=*/+-" c then begin
      push (Tok_punct (String.make 1 c));
      incr i
    end
    else fail !line "unexpected character %C" c
  done;
  Array.of_list (List.rev !toks)

type cursor = { toks : (token * int) array; mutable pos : int }

let cur_line cur =
  if cur.pos < Array.length cur.toks then snd cur.toks.(cur.pos)
  else if Array.length cur.toks = 0 then 1
  else snd cur.toks.(Array.length cur.toks - 1)

let peek cur =
  if cur.pos < Array.length cur.toks then Some (fst cur.toks.(cur.pos)) else None

let advance cur = cur.pos <- cur.pos + 1

let token_desc = function
  | Tok_ident s | Tok_num s | Tok_punct s -> s
  | Tok_str s -> "\"" ^ s ^ "\""
  | Tok_directive s -> "`" ^ s

let expect_punct cur p =
  match peek cur with
  | Some (Tok_punct q) when q = p -> advance cur
  | Some t -> fail (cur_line cur) "expected %S, found %S" p (token_desc t)
  | None -> fail (cur_line cur) "expected %S, found end of input" p

let expect_ident cur =
  match peek cur with
  | Some (Tok_ident s) ->
      advance cur;
      s
  | Some t -> fail (cur_line cur) "expected identifier, found %S" (token_desc t)
  | None -> fail (cur_line cur) "expected identifier, found end of input"

let accept_punct cur p =
  match peek cur with
  | Some (Tok_punct q) when q = p ->
      advance cur;
      true
  | _ -> false

let ident_list cur =
  let first = expect_ident cur in
  let rec more acc =
    if accept_punct cur "," then more (expect_ident cur :: acc)
    else List.rev acc
  in
  let names = more [ first ] in
  expect_punct cur ";";
  names

let rec parse_expr cur = parse_additive cur

and parse_additive cur =
  let lhs = parse_multiplicative cur in
  let rec loop lhs =
    if accept_punct cur "+" then loop (Bin (Add, lhs, parse_multiplicative cur))
    else if accept_punct cur "-" then
      loop (Bin (Sub, lhs, parse_multiplicative cur))
    else lhs
  in
  loop lhs

and parse_multiplicative cur =
  let lhs = parse_unary cur in
  let rec loop lhs =
    if accept_punct cur "*" then loop (Bin (Mul, lhs, parse_unary cur))
    else if accept_punct cur "/" then loop (Bin (Div, lhs, parse_unary cur))
    else lhs
  in
  loop lhs

and parse_unary cur =
  if accept_punct cur "-" then Neg (parse_unary cur) else parse_primary cur

and parse_primary cur =
  match peek cur with
  | Some (Tok_num s) ->
      advance cur;
      Num s
  | Some (Tok_str s) ->
      advance cur;
      Str s
  | Some (Tok_punct "(") ->
      advance cur;
      let e = parse_expr cur in
      expect_punct cur ")";
      Paren e
  | Some (Tok_ident f) ->
      advance cur;
      if accept_punct cur "(" then begin
        let args = parse_args cur in
        match (f, args) with
        | ("V" | "I"), [ Ident node ] -> Access (f, node)
        | _ -> Call (f, args)
      end
      else Ident f
  | Some t -> fail (cur_line cur) "expected expression, found %S" (token_desc t)
  | None -> fail (cur_line cur) "expected expression, found end of input"

and parse_args cur =
  if accept_punct cur ")" then []
  else begin
    let first = parse_expr cur in
    let rec more acc =
      if accept_punct cur "," then more (parse_expr cur :: acc)
      else begin
        expect_punct cur ")";
        List.rev acc
      end
    in
    more [ first ]
  end

let parse_stmt cur name =
  if name.[0] = '$' then begin
    expect_punct cur "(";
    let args = parse_args cur in
    expect_punct cur ";";
    Sys_call (name, args)
  end
  else if accept_punct cur "=" then begin
    let rhs = parse_expr cur in
    expect_punct cur ";";
    Assign_group [ (name, rhs) ]
  end
  else if accept_punct cur "(" then begin
    let node = expect_ident cur in
    expect_punct cur ")";
    expect_punct cur "<+";
    let rhs = parse_expr cur in
    expect_punct cur ";";
    Contribution { access = name; node; rhs }
  end
  else
    fail (cur_line cur) "expected '=', '(' or a system call after %S" name

let parse_analog cur =
  let begin_kw = expect_ident cur in
  if begin_kw <> "begin" then
    fail (cur_line cur) "expected 'begin' after 'analog', found %S" begin_kw;
  let rec stmts acc =
    match peek cur with
    | Some (Tok_ident "end") ->
        advance cur;
        List.rev acc
    | Some (Tok_ident name) ->
        advance cur;
        stmts (parse_stmt cur name :: acc)
    | Some t ->
        fail (cur_line cur) "expected statement or 'end', found %S"
          (token_desc t)
    | None -> fail (cur_line cur) "unterminated analog block"
  in
  Analog (stmts [])

let parse_item cur name =
  match name with
  | "input" -> Port_decl (Input, ident_list cur)
  | "output" -> Port_decl (Output, ident_list cur)
  | "inout" -> Port_decl (Inout, ident_list cur)
  | "real" -> Real_decl (ident_list cur)
  | "integer" -> Integer_decl (ident_list cur)
  | "analog" -> parse_analog cur
  | "parameter" ->
      let kind = expect_ident cur in
      if kind <> "real" then
        fail (cur_line cur) "only 'parameter real' is supported, found %S" kind;
      let pname = expect_ident cur in
      expect_punct cur "=";
      let default =
        match peek cur with
        | Some (Tok_num s) ->
            advance cur;
            s
        | Some (Tok_punct "-") ->
            advance cur;
            (match peek cur with
            | Some (Tok_num s) ->
                advance cur;
                "-" ^ s
            | _ -> fail (cur_line cur) "expected number after '-'")
        | _ -> fail (cur_line cur) "expected default value for parameter %S" pname
      in
      expect_punct cur ";";
      Param_group [ { pname; default; pcomment = None } ]
  | discipline -> Discipline_decl (discipline, ident_list cur)

let parse_module cur =
  let module_name = expect_ident cur in
  expect_punct cur "(";
  let first = expect_ident cur in
  let rec more acc =
    if accept_punct cur "," then more (expect_ident cur :: acc)
    else begin
      expect_punct cur ")";
      List.rev acc
    end
  in
  let ports = more [ first ] in
  expect_punct cur ";";
  let rec items acc =
    match peek cur with
    | Some (Tok_ident "endmodule") ->
        advance cur;
        List.rev acc
    | Some (Tok_ident name) ->
        advance cur;
        items (parse_item cur name :: acc)
    | Some t ->
        fail (cur_line cur) "expected declaration or 'endmodule', found %S"
          (token_desc t)
    | None -> fail (cur_line cur) "unterminated module %S" module_name
  in
  { module_name; ports; items = items [] }

let parse text =
  let cur = { toks = tokenize text; pos = 0 } in
  let rec includes acc =
    match peek cur with
    | Some (Tok_directive "include") ->
        advance cur;
        (match peek cur with
        | Some (Tok_str s) ->
            advance cur;
            includes (s :: acc)
        | _ -> fail (cur_line cur) "expected a quoted path after `include")
    | Some (Tok_directive d) -> fail (cur_line cur) "unsupported directive `%s" d
    | _ -> List.rev acc
  in
  let includes = includes [] in
  let rec modules acc =
    match peek cur with
    | None -> List.rev acc
    | Some (Tok_ident "module") ->
        advance cur;
        modules (parse_module cur :: acc)
    | Some t ->
        fail (cur_line cur) "expected 'module', found %S" (token_desc t)
  in
  let modules = modules [] in
  { header = []; includes; modules }

(* ---------- data files ---------- *)

(* the 1-D delta tables are interpolation tables: their axis must be
   strictly increasing for any $table_model consumer (and for the T003
   lint), so sort by abscissa and pool duplicates by averaging — the same
   treatment Var_model applies when it builds its own splines *)
let sorted_1d ~columns pairs =
  let pairs = Array.copy pairs in
  Array.sort (fun (xa, _) (xb, _) -> Float.compare xa xb) pairs;
  let merged = ref [] in
  Array.iter
    (fun (x, y) ->
      match !merged with
      | (px, py, pn) :: rest when px = x ->
          merged := (px, py +. y, pn + 1) :: rest
      | _ -> merged := (x, y, 1) :: !merged)
    pairs;
  let rows =
    List.rev_map (fun (x, y, n) -> [| x; y /. float_of_int n |]) !merged
    |> Array.of_list
  in
  Tbl_io.create ~columns ~rows

let data_files model =
  let perf = Macromodel.perf_model model in
  let var = Macromodel.var_model model in
  let var_points = Var_model.points var in
  let gain_delta =
    sorted_1d ~columns:[| "gain"; "gain_delta" |]
      (Array.map
         (fun (p : Var_model.point) ->
           (p.Var_model.gain_db, p.Var_model.dgain_pct))
         var_points)
  in
  let pm_delta =
    sorted_1d ~columns:[| "pm"; "pm_delta" |]
      (Array.map
         (fun (p : Var_model.point) ->
           (p.Var_model.pm_deg, p.Var_model.dpm_pct))
         var_points)
  in
  let perf_points = Perf_model.points perf in
  let lp i =
    Tbl_io.create ~columns:[| "gain"; "pm"; param_names.(i) |]
      ~rows:
        (Array.map
           (fun (p : Perf_model.point) ->
             [| p.Perf_model.gain_db; p.Perf_model.pm_deg; p.Perf_model.params.(i) |])
           perf_points)
  in
  let ro =
    Tbl_io.create ~columns:[| "gain"; "pm"; "ro" |]
      ~rows:
        (Array.map
           (fun (p : Perf_model.point) ->
             [| p.Perf_model.gain_db; p.Perf_model.pm_deg; p.Perf_model.rout |])
           perf_points)
  in
  [ ("gain_delta.tbl", gain_delta); ("pm_delta.tbl", pm_delta) ]
  @ List.init (Array.length param_names) (fun i ->
        (Printf.sprintf "lp%d_data.tbl" (i + 1), lp i))
  @ [ ("ro_data.tbl", ro) ]

let save ?(name = "ota_behavioural") ?(control = "3E") model ~dir =
  let module_path = Filename.concat dir (name ^ ".va") in
  Yield_resilience.Atomic_io.write_file ~path:module_path
    (module_text ~name ~control ());
  let table_paths =
    List.map
      (fun (filename, table) ->
        let path = Filename.concat dir filename in
        Tbl_io.write ~path table;
        path)
      (data_files model)
  in
  module_path :: table_paths
