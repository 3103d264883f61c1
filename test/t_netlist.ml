(* Tests for the SPICE frontend: the spanned lexer, the typed AST parser,
   the byte-idempotent printer (shipped fixtures, a seeded random corpus,
   hostile bytes) and the AST-level lint codes N009-N014. *)

module Ast = Yield_spice.Netlist_ast
module Lexer = Yield_spice.Netlist_lexer
module Parser = Yield_spice.Netlist_parser
module Netlist = Yield_spice.Netlist
module Diagnostic = Yield_analyse.Diagnostic
module Netlist_lint = Yield_analyse.Netlist_lint
module Deck = Yield_analyse.Deck

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* dune runtest runs inside _build/default/test and the example fixtures are
   not part of any dune target, so resolve them against the source root *)
let fixture rel =
  let rec go dir =
    let cand = Filename.concat dir rel in
    if Sys.file_exists cand then cand
    else
      let parent = Filename.dirname dir in
      if parent = dir then rel else go parent
  in
  go (Sys.getcwd ())

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_span name (expect : int * int) (s : Ast.span) =
  Alcotest.(check (pair int int))
    name expect
    (s.Ast.start_line, s.Ast.start_col)

(* ---------- lexer ---------- *)

let test_lexer_logical_lines () =
  let lines =
    Lexer.tokenize "R1 a b 1k\n+ 2k ; tail comment\n* whole-line comment\nC1 x 0 {1p * 2}\n"
  in
  Alcotest.(check int) "two logical lines" 2 (List.length lines);
  let l1 = List.nth lines 0 and l2 = List.nth lines 1 in
  Alcotest.(check (list string))
    "continuation joined, ; comment dropped"
    [ "R1"; "a"; "b"; "1k"; "2k" ]
    (List.map (fun (t : Lexer.token) -> t.text) l1.Lexer.tokens);
  (* the continued token keeps its own physical position *)
  let t2k = List.nth l1.Lexer.tokens 4 in
  check_span "2k span" (2, 3) t2k.Lexer.span;
  Alcotest.(check (list string))
    "braces swallow spaces"
    [ "C1"; "x"; "0"; "{1p * 2}" ]
    (List.map (fun (t : Lexer.token) -> t.text) l2.Lexer.tokens);
  let brace = List.nth l2.Lexer.tokens 3 in
  check_span "brace span" (4, 8) brace.Lexer.span

let test_lexer_errors () =
  (match Lexer.tokenize "+ orphan continuation\n" with
  | exception Ast.Parse_error { span; _ } ->
      Alcotest.(check int) "orphan + line" 1 span.Ast.start_line
  | _ -> Alcotest.fail "leading continuation must not lex");
  match Lexer.tokenize "R1 a 0 {1k\n" with
  | exception Ast.Parse_error { span; _ } ->
      Alcotest.(check int) "unterminated brace col" 8 span.Ast.start_col
  | _ -> Alcotest.fail "unterminated brace must not lex"

(* ---------- parser ---------- *)

let hier_deck =
  "* divider with hierarchy\n\
   .param rbase=1k\n\
   .subckt blk in out\n\
   Rtop in out {rbase}\n\
   Rbot out 0 {rbase*2}\n\
   .ends\n\
   V1 in 0 1.0 ac=1\n\
   X1 in mid blk\n\
   C1 mid 0 1p\n\
   .op\n\
   .ac dec 10 1 1meg mid\n\
   .end\n"

let test_parser_ast_shape () =
  let ast = Parser.parse hier_deck in
  Alcotest.(check int) "statement count" 8 (List.length ast.Ast.statements);
  (match List.nth ast.Ast.statements 1 with
  | Ast.Subckt { name; ports; body; span } ->
      Alcotest.(check string) "subckt name" "blk" name.Ast.id;
      check_span "subckt name span" (3, 9) name.Ast.ispan;
      Alcotest.(check (list string))
        "ports" [ "in"; "out" ]
        (List.map (fun (p : Ast.ident) -> p.Ast.id) ports);
      Alcotest.(check int) "body cards" 2 (List.length body);
      Alcotest.(check int) "subckt span reaches .ends" 6 span.Ast.end_line
  | _ -> Alcotest.fail "statement 1 should be the subckt");
  (match List.nth ast.Ast.statements 3 with
  | Ast.Card { card = Ast.Instance { name; conns; sub }; _ } ->
      Alcotest.(check string) "instance name" "X1" name.Ast.id;
      Alcotest.(check int) "connections" 2 (List.length conns);
      Alcotest.(check string) "subckt ref" "blk" sub.Ast.id
  | _ -> Alcotest.fail "statement 3 should be the X instance");
  match List.nth ast.Ast.statements 6 with
  | Ast.Card { card = Ast.Analysis (Ast.Ac { out; _ }); _ } ->
      Alcotest.(check string) "ac out" "mid" out.Ast.id
  | _ -> Alcotest.fail "statement 6 should be the .ac card"

let test_parser_expr_refs () =
  let v = Parser.value_of_text Ast.dummy_span "{w*2+1u}" in
  Alcotest.(check (list string)) "refs" [ "w" ] (Ast.value_refs v);
  Alcotest.(check string) "verbatim text" "{w*2+1u}" v.Ast.text

let expect_error_at name (line, col) text =
  match Parser.parse text with
  | exception Ast.Parse_error { span; _ } ->
      check_span name (line, col) span
  | _ -> Alcotest.failf "%s: expected a parse error" name

let test_parser_error_spans () =
  expect_error_at "unknown card letter" (1, 1) "Q1 a b c\n";
  expect_error_at "bad value column" (1, 8) "R1 a 0 bogus\n";
  expect_error_at "orphan .ends" (2, 1) "R1 a 0 1k\n.ends\n";
  expect_error_at "analysis inside subckt" (2, 1) ".subckt s a\n.op\nR1 a 0 1k\n.ends\n";
  expect_error_at "unterminated subckt" (1, 1) ".subckt s a\nR1 a 0 1k\n";
  expect_error_at "unknown source key" (1, 10) "V1 a 0 1 sin=2\n"

(* ---------- printer: canonical form and fixture idempotence ---------- *)

(* the canonical layout: the AST printed back *)
let canonical text =
  Yield_spice.Netlist_printer.to_string (Yield_spice.Netlist_parser.parse text)

let test_print_canonical () =
  Alcotest.(check string)
    "normalises whitespace, comments, case"
    "R1 in out 1k\nC1 out 0 1p\n.ac dec 10 1 1meg out\n"
    (canonical "R1  in   out  1k\nC1 out 0 1p ; load\n.AC dec 10 1 1meg out\n")

let assert_fixpoint name text =
  let c1 = canonical text in
  let c2 = canonical c1 in
  Alcotest.(check string) (name ^ " byte-fixpoint") c1 c2;
  (* the canonical form must also elaborate to the same flat circuit;
     negative fixtures (e.g. xarity_bad.cir) parse but refuse to
     elaborate, which is fine — idempotence already held above *)
  match Netlist.parse text with
  | exception Netlist.Parse_error _ -> ()
  | circuit ->
      Alcotest.(check string)
        (name ^ " same elaborated circuit")
        (Netlist.to_string circuit)
        (Netlist.to_string (Netlist.parse c1))

let test_fixture_idempotence () =
  let dir = fixture "examples/netlists" in
  let fixtures =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cir")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "found fixtures" true (List.length fixtures >= 3);
  List.iter
    (fun f -> assert_fixpoint f (read_file (Filename.concat dir f)))
    fixtures

let test_model_name_preserved () =
  let text =
    ".model mydev nmos vth0=0.5 kp=110u\n\
     V1 d 0 1\nV2 g 0 1\nM1 d g 0 0 mydev w=10u l=1u\n"
  in
  let printed = Netlist.to_string (Netlist.parse text) in
  Alcotest.(check bool)
    "original .model name survives" true
    (contains ~sub:".model mydev nmos" printed);
  Alcotest.(check bool)
    "no generated mod1 alias" false
    (contains ~sub:"mod1" printed);
  (* and the rendering itself round-trips *)
  assert_fixpoint "model-name deck" printed

(* ---------- seeded random corpus ---------- *)

let gen_deck st =
  let rnd n = Random.State.int st n in
  let pick arr = arr.(rnd (Array.length arr)) in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let sp () = String.make (1 + rnd 3) ' ' in
  let rval () =
    pick [| "1k"; "2.2k"; "470"; "1meg"; "{rb}"; "{rb*2}"; "{rb+0.5k}" |]
  in
  let cval () = pick [| "1p"; "10p"; "{cl}"; "{cl/2}" |] in
  if rnd 2 = 0 then line "* corpus deck %d" (rnd 1000);
  (* parameters first so every {ref} is in scope, sometimes continued *)
  if rnd 2 = 0 then line ".param rb=1k cl=2p"
  else line ".PARAM rb=1k\n+ cl=2p";
  let with_mos = rnd 2 = 0 in
  if with_mos then line ".model m1 nmos vth0=0.5 kp=110u lambda0=0.04";
  let with_sub = rnd 2 = 0 in
  if with_sub then begin
    line ".subckt stage a b";
    line "R1 a%sb %s" (sp ()) (rval ());
    line "R2 b 0 %s" (rval ());
    if rnd 2 = 0 then line "C1 b 0 %s" (cval ());
    line ".ends"
  end;
  if rnd 2 = 0 then line "V1 in 0 1.0 ac=1" else line "v1 in%s0\n+ 1.0" (sp ());
  if with_sub then line "X1 in n1 stage"
  else begin
    line "Rt1 in n1 %s" (rval ());
    line "Rt2 n1 0 %s" (rval ())
  end;
  if rnd 2 = 0 then line "Ct1 n1 0 %s" (cval ());
  if with_mos then line "M1 n1 in 0 0 m1 w=10u l=1u";
  if rnd 2 = 0 then line ".op";
  if rnd 2 = 0 then line ".ac dec 10 1 1meg n1";
  if rnd 2 = 0 then line ".end";
  Buffer.contents buf

let test_corpus_roundtrip () =
  let st = Random.State.make [| 0x5f1ce |] in
  for i = 1 to 60 do
    let deck = gen_deck st in
    match assert_fixpoint (Printf.sprintf "corpus %d" i) deck with
    | () -> ()
    | exception Ast.Parse_error { span; message } ->
        Alcotest.failf "corpus %d must parse, got %s at %s:\n%s" i message
          (Ast.span_to_string span) deck
  done

(* ---------- hostile bytes ---------- *)

(* the frontend contract: any byte sequence either parses or raises the one
   typed Parse_error — no Failure, no Stack_overflow, no Invalid_argument *)
let assert_typed_failure name input =
  (match Parser.parse input with
  | _ -> ()
  | exception Ast.Parse_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: parser leaked %s" name (Printexc.to_string e));
  match Netlist.parse input with
  | _ -> ()
  | exception Netlist.Parse_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: elaborator leaked %s" name (Printexc.to_string e)

let test_hostile_cases () =
  List.iter
    (fun (name, input) -> assert_typed_failure name input)
    [
      ("orphan continuation", "+ a b c\n");
      ("truncated continuation", "R1 a 0 1k\n+");
      ("binary garbage", "\x00\x01\xffgarbage\xfe\n");
      ("unterminated brace", "R1 a 0 {1k\n");
      ("empty braces", "R1 a 0 {}\n");
      ("10k-char line", "R1 a 0 " ^ String.make 10_000 '9' ^ "\n");
      ("10k-char token soup", String.make 10_000 'x' ^ "\n");
      ( "deep parens",
        "R1 a 0 {" ^ String.make 400 '(' ^ "1" ^ String.make 400 ')' ^ "}\n" );
      ("unbalanced parens", "R1 a 0 {((((1}\n");
      ("empty ac value", "V1 a 0 1 ac=\n");
      ("duplicate device", "R1 a 0 1k\nR1 a 0 2k\nV1 a 0 1\n");
      ("unknown param", "R1 a 0 {nope}\n");
      ("truncated .ac", ".ac dec\n");
      ("nested subckt", ".subckt a x\n.subckt b y\n.ends\n.ends\n");
      ("division in expr", ".param z=0\nR1 a 0 {1k/z}\nV1 a 0 1\n");
    ]

let test_hostile_random_bytes () =
  let st = Random.State.make [| 0xbadca5e |] in
  for i = 1 to 300 do
    let len = Random.State.int st 120 in
    let input =
      String.init len (fun _ -> Char.chr (Random.State.int st 256))
    in
    assert_typed_failure (Printf.sprintf "random bytes %d" i) input
  done

(* ---------- AST lint: N009-N014 ---------- *)

let codes diags = List.map (fun d -> d.Diagnostic.code) (Diagnostic.sort diags)

let has_code code diags = List.exists (fun d -> d.Diagnostic.code = code) diags

let find_code code diags =
  match List.find_opt (fun d -> d.Diagnostic.code = code) diags with
  | Some d -> d
  | None -> Alcotest.failf "expected a %s finding, got [%s]" code
              (String.concat "; " (codes diags))

let lint text = Netlist_lint.check_ast (Parser.parse text)

let test_lint_duplicate_device () =
  let d = find_code "N009" (lint "R1 a 0 1k\nR1 a 0 2k\nV1 a 0 1\n") in
  Alcotest.(check string) "subject" "R1" d.Diagnostic.subject;
  (match d.Diagnostic.span with
  | Some s -> Alcotest.(check int) "at the second card" 2 s.Diagnostic.start_line
  | None -> Alcotest.fail "N009 must carry a span");
  Alcotest.(check bool)
    "message points at the first" true
    (contains ~sub:"line 1:1" d.Diagnostic.message);
  (* same name in different scopes is fine *)
  Alcotest.(check bool)
    "scopes are separate" false
    (has_code "N009"
       (lint ".subckt s a\nR1 a 0 1k\n.ends\nR1 b 0 1k\nV1 b 0 1\nX1 b s\n"))

let test_lint_subckt_codes () =
  let d = find_code "N010" (lint "V1 a 0 1\nR1 a 0 1k\nX1 a b nosuch\n") in
  Alcotest.(check string) "undefined subckt subject" "nosuch" d.Diagnostic.subject;
  let d =
    find_code "N011" (lint ".subckt s a\nR1 a 0 1k\n.ends\nV1 b 0 1\nR2 b 0 1k\n")
  in
  Alcotest.(check string) "unused subckt subject" "s" d.Diagnostic.subject;
  let d =
    find_code "N012"
      (lint ".subckt div in out com\nR1 in out 1k\nR2 out com 1k\n.ends\nV1 a 0 1\nX1 a b div\n")
  in
  Alcotest.(check string) "arity subject is the instance" "X1" d.Diagnostic.subject;
  match d.Diagnostic.span with
  | Some s ->
      Alcotest.(check int) "reported at the instantiation site" 6
        s.Diagnostic.start_line
  | None -> Alcotest.fail "N012 must carry a span"

let test_lint_param_codes () =
  let diags = lint ".param unused=1 used=2k\nV1 a 0 1\nR1 a 0 {used}\n" in
  let d = find_code "N013" diags in
  Alcotest.(check string) "unused param subject" "unused" d.Diagnostic.subject;
  Alcotest.(check bool) "used param not flagged" false
    (List.exists
       (fun d -> d.Diagnostic.code = "N013" && d.Diagnostic.subject = "used")
       diags);
  let d =
    find_code "N014" (lint ".param r=1k\n.param r=2k\nV1 a 0 1\nR1 a 0 {r}\n")
  in
  Alcotest.(check string) "shadowed subject" "r" d.Diagnostic.subject;
  match d.Diagnostic.span with
  | Some s -> Alcotest.(check int) "at the second .param" 2 s.Diagnostic.start_line
  | None -> Alcotest.fail "N014 must carry a span"

let test_lint_file_spans () =
  (* circuit-level findings acquire source spans through the elaboration
     provenance tables when linting a file *)
  let path = Filename.temp_file "yieldlab" ".cir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "V1 in 0 1\nR1 in out 1k\nR2 out 0 1k\nC1 out flt 1p\n";
      close_out oc;
      let diags = Netlist_lint.check_deck (Deck.load path) in
      let d = find_code "N002" diags in
      match d.Diagnostic.span with
      | Some s ->
          Alcotest.(check int) "flt first referenced on line 4" 4
            s.Diagnostic.start_line
      | None -> Alcotest.fail "origin table should give N002 a span")

let test_lint_file_arity_fixture () =
  let diags =
    Netlist_lint.check_deck (Deck.load (fixture "examples/netlists/xarity_bad.cir"))
  in
  Alcotest.(check bool) "N012 found" true (has_code "N012" diags);
  Alcotest.(check bool) "no cascading N000" false (has_code "N000" diags);
  Alcotest.(check int) "exit code" 2 (Diagnostic.exit_code diags)

let suites =
  [
    ( "netlist.lexer",
      [
        Alcotest.test_case "logical lines and spans" `Quick
          test_lexer_logical_lines;
        Alcotest.test_case "lexical errors" `Quick test_lexer_errors;
      ] );
    ( "netlist.parser",
      [
        Alcotest.test_case "AST shape" `Quick test_parser_ast_shape;
        Alcotest.test_case "expression refs" `Quick test_parser_expr_refs;
        Alcotest.test_case "error spans" `Quick test_parser_error_spans;
      ] );
    ( "netlist.printer",
      [
        Alcotest.test_case "canonical form" `Quick test_print_canonical;
        Alcotest.test_case "fixture idempotence" `Quick test_fixture_idempotence;
        Alcotest.test_case "model names preserved" `Quick
          test_model_name_preserved;
        Alcotest.test_case "seeded corpus round-trip" `Quick
          test_corpus_roundtrip;
      ] );
    ( "netlist.fuzz",
      [
        Alcotest.test_case "hostile cases" `Quick test_hostile_cases;
        Alcotest.test_case "random bytes" `Quick test_hostile_random_bytes;
      ] );
    ( "netlist.astlint",
      [
        Alcotest.test_case "N009 duplicate device" `Quick
          test_lint_duplicate_device;
        Alcotest.test_case "N010/N011/N012 subckts" `Quick
          test_lint_subckt_codes;
        Alcotest.test_case "N013/N014 params" `Quick test_lint_param_codes;
        Alcotest.test_case "check_file origin spans" `Quick
          test_lint_file_spans;
        Alcotest.test_case "xarity fixture fails" `Quick
          test_lint_file_arity_fixture;
      ] );
  ]
