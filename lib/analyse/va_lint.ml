module Va = Yield_behavioural.Verilog_a
module Tbl_io = Yield_table.Tbl_io
module Control = Yield_table.Control

let diag = Diagnostic.make

(* ---------- V001: ports and disciplines ---------- *)

let port_diags ?file (m : Va.module_def) =
  let out = ref [] in
  let push d = out := d :: !out in
  let directed = Hashtbl.create 8 in
  let disciplined = Hashtbl.create 8 in
  List.iter
    (fun item ->
      match item with
      | Va.Port_decl (_, names) ->
          List.iter
            (fun n ->
              if Hashtbl.mem directed n then
                push
                  (diag ?file ~code:"V001" ~severity:Diagnostic.Error ~subject:n
                     (Printf.sprintf
                        "port %s has more than one direction declaration" n))
              else Hashtbl.add directed n ();
              if not (List.mem n m.Va.ports) then
                push
                  (diag ?file ~code:"V001" ~severity:Diagnostic.Error ~subject:n
                     (Printf.sprintf
                        "direction declared for %s, which is not in module \
                         %s's port list"
                        n m.Va.module_name)))
            names
      | Va.Discipline_decl (_, names) ->
          List.iter (fun n -> Hashtbl.replace disciplined n ()) names
      | _ -> ())
    m.Va.items;
  List.iter
    (fun p ->
      if not (Hashtbl.mem directed p) then
        push
          (diag ?file ~code:"V001" ~severity:Diagnostic.Error ~subject:p
             (Printf.sprintf "port %s has no input/output/inout declaration" p));
      if not (Hashtbl.mem disciplined p) then
        push
          (diag ?file ~code:"V001" ~severity:Diagnostic.Warning ~subject:p
             (Printf.sprintf
                "port %s has no discipline (e.g. electrical) declaration — \
                 branch access through it will not elaborate"
                p)))
    m.Va.ports;
  (* branch accesses must target a disciplined net *)
  let rec expr_accesses acc = function
    | Va.Access (_, node) -> node :: acc
    | Va.Call (_, args) -> List.fold_left expr_accesses acc args
    | Va.Neg e | Va.Paren e -> expr_accesses acc e
    | Va.Bin (_, a, b) -> expr_accesses (expr_accesses acc a) b
    | Va.Num _ | Va.Ident _ | Va.Str _ -> acc
  in
  let stmt_accesses acc = function
    | Va.Assign_group binds ->
        List.fold_left (fun acc (_, e) -> expr_accesses acc e) acc binds
    | Va.Sys_call (_, args) -> List.fold_left expr_accesses acc args
    | Va.Contribution { node; rhs; _ } -> expr_accesses (node :: acc) rhs
    | Va.Comment _ -> acc
  in
  let accesses =
    List.fold_left
      (fun acc item ->
        match item with
        | Va.Analog stmts -> List.fold_left stmt_accesses acc stmts
        | _ -> acc)
      [] m.Va.items
  in
  let reported = Hashtbl.create 4 in
  List.iter
    (fun node ->
      if not (Hashtbl.mem disciplined node) && not (Hashtbl.mem reported node)
      then begin
        Hashtbl.add reported node ();
        push
          (diag ?file ~code:"V001" ~severity:Diagnostic.Error ~subject:node
             (Printf.sprintf
                "branch access references %s, which has no discipline \
                 declaration"
                node))
      end)
    (List.rev accesses);
  List.rev !out

(* ---------- V007/V008: straight-line use-def over the analog block ---------- *)

let use_def_diags ?file (m : Va.module_def) =
  let out = ref [] in
  let push d = out := d :: !out in
  let params = Hashtbl.create 8 in
  let declared = Hashtbl.create 8 in
  let assigned = Hashtbl.create 8 in
  let read = Hashtbl.create 8 in
  List.iter
    (fun item ->
      match item with
      | Va.Param_group ps ->
          List.iter (fun p -> Hashtbl.replace params p.Va.pname ()) ps
      | Va.Real_decl names | Va.Integer_decl names ->
          List.iter (fun n -> Hashtbl.replace declared n ()) names
      | _ -> ())
    m.Va.items;
  let read_ident n =
    Hashtbl.replace read n ();
    if Hashtbl.mem params n then ()
    else if Hashtbl.mem declared n then begin
      if not (Hashtbl.mem assigned n) then
        push
          (diag ?file ~code:"V007" ~severity:Diagnostic.Error ~subject:n
             (Printf.sprintf "%s is read before any assignment reaches it" n))
    end
    else
      push
        (diag ?file ~code:"V007" ~severity:Diagnostic.Error ~subject:n
           (Printf.sprintf "%s is read but never declared" n))
  in
  let rec eval_reads = function
    | Va.Ident n -> read_ident n
    | Va.Call (_, args) -> List.iter eval_reads args
    | Va.Neg e | Va.Paren e -> eval_reads e
    | Va.Bin (_, a, b) ->
        eval_reads a;
        eval_reads b
    | Va.Num _ | Va.Str _ | Va.Access _ -> ()
  in
  let do_stmt = function
    | Va.Comment _ -> ()
    | Va.Assign_group binds ->
        List.iter
          (fun (lhs, rhs) ->
            eval_reads rhs;
            if Hashtbl.mem declared lhs then Hashtbl.replace assigned lhs ()
            else
              push
                (diag ?file ~code:"V007" ~severity:Diagnostic.Error ~subject:lhs
                   (if Hashtbl.mem params lhs then
                      Printf.sprintf
                        "%s is a parameter — parameters cannot be assigned \
                         in the analog block"
                        lhs
                    else
                      Printf.sprintf "%s is assigned but never declared" lhs)))
          binds
    | Va.Sys_call (_, args) -> List.iter eval_reads args
    | Va.Contribution { rhs; _ } -> eval_reads rhs
  in
  List.iter
    (fun item -> match item with Va.Analog stmts -> List.iter do_stmt stmts | _ -> ())
    m.Va.items;
  Hashtbl.iter
    (fun n () ->
      if not (Hashtbl.mem read n) then
        push
          (diag ?file ~code:"V008" ~severity:Diagnostic.Warning ~subject:n
             (Printf.sprintf "%s is declared but never read" n)))
    declared;
  List.rev !out |> Diagnostic.sort

(* ---------- V002..V006: table-model calls, interval-evaluated ---------- *)

(* pow with a positive constant base is monotone in the exponent *)
let pow_interval base (e : Interval.t) =
  if base > 0. then
    Interval.of_bounds (Float.pred (base ** e.Interval.lo)) (Float.succ (base ** e.Interval.hi))
  else Interval.whole

let column_hull rows c =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun row ->
      let v = row.(c) in
      if v < !lo then lo := v;
      if v > !hi then hi := v)
    rows;
  if !lo <= !hi then Some (Interval.of_bounds !lo !hi) else None

type table_env = {
  file : string option;  (** the .va path, for diagnostics *)
  dir : string option;  (** where referenced [.tbl] files live *)
  cache : (string, Tbl_io.table option) Hashtbl.t;
  mutable findings : Diagnostic.t list;
}

let push env d = env.findings <- d :: env.findings

(* load a referenced table once; V005 on missing/malformed, then the full
   Table_lint pass on its contents (axis checks only for 1-D tables — the
   2-D tables are scattered Pareto points, deliberately unsorted) *)
let load_table env ~arity name =
  match Hashtbl.find_opt env.cache name with
  | Some t -> t
  | None ->
      let result =
        match env.dir with
        | None -> None
        | Some dir -> begin
            let path = Filename.concat dir name in
            match Tbl_io.read_result ~path with
            | Error e ->
                push env
                  (diag ?file:env.file ~code:"V005" ~severity:Diagnostic.Error
                     ~subject:name
                     (Printf.sprintf "referenced table %s is unusable: %s" name
                        (Tbl_io.read_error_to_string e)));
                None
            | Ok t ->
                let axes =
                  if arity = 1 && Array.length t.Tbl_io.columns > 0 then
                    Some [ t.Tbl_io.columns.(0) ]
                  else Some []
                in
                env.findings <-
                  List.rev_append (Table_lint.check ~file:path ?axes t)
                    env.findings;
                if Array.length t.Tbl_io.columns < arity + 1 then begin
                  push env
                    (diag ?file:env.file ~code:"V005" ~severity:Diagnostic.Error
                       ~subject:name
                       (Printf.sprintf
                          "%s has %d column(s) but the $table_model call \
                           queries %d dimension(s) and reads one output"
                          name
                          (Array.length t.Tbl_io.columns)
                          arity));
                  None
                end
                else Some t
          end
      in
      Hashtbl.add env.cache name result;
      result

let control_axes env ~subject control =
  match Control.parse control with
  | exception Invalid_argument msg ->
      push env
        (diag ?file:env.file ~code:"V003" ~severity:Diagnostic.Error ~subject msg);
      None
  | axes -> Some axes

let table_model_call env vars queries file_arg control_arg =
  let arity = List.length queries in
  let q_intervals =
    List.map (fun q -> Option.value q ~default:Interval.whole) queries
  in
  let axes =
    match control_axes env ~subject:file_arg control_arg with
    | None -> []
    | Some axes ->
        if List.length axes <> arity then begin
          push env
            (diag ?file:env.file ~code:"V004" ~severity:Diagnostic.Error
               ~subject:file_arg
               (Printf.sprintf
                  "$table_model call on %s passes %d query argument(s) but \
                   control string %S has %d token(s)"
                  file_arg arity control_arg (List.length axes)));
          []
        end
        else axes
  in
  match load_table env ~arity file_arg with
  | None -> Interval.whole
  | Some t ->
      (* V006: each query window must stay inside the sampled domain of its
         axis column whenever that dimension's policy is E (reject) *)
      List.iteri
        (fun dim q ->
          let rejects =
            match List.nth_opt axes dim with
            | Some (Control.Interpolate { extrapolation = Control.Error; _ }) ->
                true
            | _ -> false
          in
          match column_hull t.Tbl_io.rows dim with
          | None -> ()
          | Some domain ->
              if rejects && not (Interval.subset q domain) then
                push env
                  (diag ?file:env.file ~code:"V006"
                     ~severity:Diagnostic.Warning ~subject:file_arg
                     (Printf.sprintf
                        "query window %s on axis %s of %s %s the sampled \
                         domain %s — the \"E\" policy rejects out-of-range \
                         queries at runtime"
                        (Interval.to_string q)
                        t.Tbl_io.columns.(dim) file_arg
                        (if Interval.disjoint q domain then
                           "is provably outside"
                         else "is not provably inside")
                        (Interval.to_string domain))))
        q_intervals;
      ignore vars;
      Option.value (column_hull t.Tbl_io.rows arity) ~default:Interval.whole

(* abstract interpretation of the straight-line analog block: every
   variable carries an interval; parameters start at their spec window
   (when given) or their declared default.  Table outputs are approximated
   by the hull of the sampled output column — splines can overshoot that
   hull slightly, so V006 speaks about the sampled domain, which is exact. *)
let rec eval_expr env vars e =
  match e with
  | Va.Num s -> begin
      match float_of_string_opt s with
      | Some v -> Interval.point v
      | None -> Interval.whole
    end
  | Va.Ident n -> (
      match Hashtbl.find_opt vars n with Some i -> i | None -> Interval.whole)
  | Va.Str _ | Va.Access _ -> Interval.whole
  | Va.Neg e -> Interval.neg (eval_expr env vars e)
  | Va.Paren e -> eval_expr env vars e
  | Va.Bin (op, a, b) -> (
      let ia = eval_expr env vars a and ib = eval_expr env vars b in
      match op with
      | Va.Add -> Interval.add ia ib
      | Va.Sub -> Interval.sub ia ib
      | Va.Mul -> Interval.mul ia ib
      | Va.Div -> Interval.div ia ib)
  | Va.Call (name, args) -> eval_call env vars name args

and eval_call env vars name args =
  match (name, args) with
  | "$table_model", _ -> begin
      match List.rev args with
      | Va.Str control_arg :: Va.Str file_arg :: rev_queries
        when rev_queries <> [] ->
          let queries =
            List.rev_map (fun q -> Some (eval_expr env vars q)) rev_queries
          in
          table_model_call env vars queries file_arg control_arg
      | _ ->
          push env
            (diag ?file:env.file ~code:"V002" ~severity:Diagnostic.Error
               ~subject:name
               "$table_model call is malformed: expected query argument(s) \
                followed by a table-file string and a control string");
          Interval.whole
    end
  | "pow", [ Va.Num base; e ] -> begin
      match float_of_string_opt base with
      | Some b when b > 0. -> pow_interval b (eval_expr env vars e)
      | _ ->
          List.iter (fun a -> ignore (eval_expr env vars a)) args;
          Interval.whole
    end
  | _ ->
      List.iter (fun a -> ignore (eval_expr env vars a)) args;
      Interval.whole

let table_diags ?file ?dir ?(specs = []) (m : Va.module_def) =
  let env = { file; dir; cache = Hashtbl.create 8; findings = [] } in
  let vars : (string, Interval.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun item ->
      match item with
      | Va.Param_group ps ->
          List.iter
            (fun p ->
              let window =
                match List.assoc_opt p.Va.pname specs with
                | Some (lo, hi) -> Some (Interval.of_bounds lo hi)
                | None ->
                    Option.map Interval.point
                      (float_of_string_opt p.Va.default)
              in
              match window with
              | Some w -> Hashtbl.replace vars p.Va.pname w
              | None -> ())
            ps
      | _ -> ())
    m.Va.items;
  let do_stmt = function
    | Va.Comment _ -> ()
    | Va.Assign_group binds ->
        List.iter
          (fun (lhs, rhs) -> Hashtbl.replace vars lhs (eval_expr env vars rhs))
          binds
    | Va.Sys_call (_, args) ->
        List.iter (fun a -> ignore (eval_expr env vars a)) args
    | Va.Contribution { rhs; _ } -> ignore (eval_expr env vars rhs)
  in
  List.iter
    (fun item -> match item with Va.Analog stmts -> List.iter do_stmt stmts | _ -> ())
    m.Va.items;
  List.rev env.findings

let check ?file ?dir ?specs (src : Va.source) =
  List.concat_map
    (fun m ->
      port_diags ?file m @ use_def_diags ?file m @ table_diags ?file ?dir ?specs m)
    src.Va.modules

let check_file ?dir ?specs path =
  let dir = match dir with Some d -> d | None -> Filename.dirname path in
  match Yield_resilience.Atomic_io.read_file ~path with
  | exception Sys_error msg ->
      [ diag ~file:path ~code:"V000" ~severity:Diagnostic.Error ~subject:path msg ]
  | text -> begin
      match Va.parse text with
      | exception Va.Parse_error { line; message } ->
          [
            diag ~file:path ~line ~code:"V000" ~severity:Diagnostic.Error
              ~subject:path message;
          ]
      | src -> check ~file:path ~dir ?specs src
    end
