module Fault = Yield_resilience.Fault
module Atomic_io = Yield_resilience.Atomic_io

type table = { columns : string array; rows : float array array }

type read_error = { path : string option; line : int option; message : string }

let read_error_to_string e =
  let where =
    match (e.path, e.line) with
    | Some p, Some l -> Printf.sprintf "%s:%d: " p l
    | Some p, None -> p ^ ": "
    | None, Some l -> Printf.sprintf "line %d: " l
    | None, None -> ""
  in
  where ^ e.message

exception Parse of read_error

let create ~columns ~rows =
  let k = Array.length columns in
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Tbl_io.create: ragged rows")
    rows;
  { columns; rows }

let column_index t name =
  let rec find i =
    if i >= Array.length t.columns then raise Not_found
    else if t.columns.(i) = name then i
    else find (i + 1)
  in
  find 0

let column t name =
  let i = column_index t name in
  Array.map (fun row -> row.(i)) t.rows

let column_opt t name =
  match column t name with v -> Some v | exception Not_found -> None

let n_rows t = Array.length t.rows

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# columns:";
  Array.iter (fun c -> Buffer.add_string buf (" " ^ c)) t.columns;
  Buffer.add_char buf '\n';
  Array.iter
    (fun row ->
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (Printf.sprintf "%.12g" v))
        row;
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

let of_string_result ?path text =
  let err ?line fmt =
    Printf.ksprintf (fun message -> raise (Parse { path; line; message })) fmt
  in
  let parse_all () =
    let lines = String.split_on_char '\n' text in
    let columns = ref None in
    let rows = ref [] in
    List.iteri
      (fun lineno line ->
        let trimmed = String.trim line in
        if trimmed = "" then ()
        else if String.length trimmed > 0 && trimmed.[0] = '#' then begin
          let prefix = "# columns:" in
          if
            String.length trimmed >= String.length prefix
            && String.sub trimmed 0 (String.length prefix) = prefix
          then begin
            let names =
              String.sub trimmed (String.length prefix)
                (String.length trimmed - String.length prefix)
              |> String.split_on_char ' '
              |> List.filter (fun s -> s <> "")
            in
            columns := Some (Array.of_list names)
          end
        end
        else begin
          let fields =
            String.split_on_char ' ' trimmed
            |> List.concat_map (String.split_on_char '\t')
            |> List.filter (fun s -> s <> "")
          in
          let parse s =
            match float_of_string_opt s with
            | Some v -> v
            | None -> err ~line:(lineno + 1) "bad number %S" s
          in
          rows := (Array.of_list (List.map parse fields), lineno + 1) :: !rows
        end)
      lines;
    let rows = Array.of_list (List.rev !rows) in
    let width = if Array.length rows = 0 then 0 else Array.length (fst rows.(0)) in
    Array.iter
      (fun (row, line) ->
        if Array.length row <> width then
          err ~line "ragged row: %d fields where the first data row has %d"
            (Array.length row) width)
      rows;
    let columns =
      match !columns with
      | Some c ->
          if Array.length rows > 0 && Array.length c <> width then
            err "header names %d columns but the data rows have %d"
              (Array.length c) width;
          c
      | None -> Array.init width (Printf.sprintf "c%d")
    in
    { columns; rows = Array.map fst rows }
  in
  match parse_all () with t -> Ok t | exception Parse e -> Error e

let of_string text =
  match of_string_result text with
  | Ok t -> t
  | Error e -> failwith ("Tbl_io.of_string: " ^ read_error_to_string e)

(* every [.tbl] lands atomically ([tbl.write] is the torn-write injection
   point: it crashes after a half-written temp, never a half-written table) *)
let fp_write = Fault.point "tbl.write"

let write ~path t =
  let contents = to_string t in
  if Fault.fire fp_write then begin
    let tmp = Atomic_io.temp_path path in
    let oc = open_out tmp in
    output_string oc (String.sub contents 0 (String.length contents / 2));
    close_out oc;
    raise (Fault.Injected ("tbl.write: " ^ path))
  end;
  Atomic_io.write_file ~path contents

let read_result ~path =
  match Atomic_io.read_file ~path with
  | exception Sys_error msg -> Error { path = Some path; line = None; message = msg }
  | text -> of_string_result ~path text

let read ~path =
  match read_result ~path with
  | Ok t -> t
  | Error e -> failwith ("Tbl_io.read: " ^ read_error_to_string e)

let monotone_column ?path t name =
  match column t name with
  | exception Not_found ->
      Error
        {
          path;
          line = None;
          message = Printf.sprintf "axis column %S not present" name;
        }
  | xs ->
      let rec walk i =
        if i >= Array.length xs then Ok ()
        else if xs.(i) > xs.(i - 1) then walk (i + 1)
        else
          Error
            {
              path;
              line = None;
              message =
                Printf.sprintf
                  "axis column %S not strictly increasing at data row %d: %g \
                   after %g"
                  name (i + 1) xs.(i)
                  xs.(i - 1);
            }
      in
      if Array.length xs = 0 then Ok () else walk 1

let read_strict ~path ~axes =
  match read_result ~path with
  | Error _ as err -> err
  | Ok t ->
      let rec check = function
        | [] -> Ok t
        | axis :: rest -> begin
            match monotone_column ~path t axis with
            | Ok () -> check rest
            | Error _ as err -> err
          end
      in
      check axes

let sort_by t name =
  let i = column_index t name in
  let rows = Array.copy t.rows in
  Array.sort (fun a b -> Float.compare a.(i) b.(i)) rows;
  { t with rows }
