let table ~header rows =
  let ncols = List.length header in
  let pad row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell))
        row)
    (header :: rows);
  let render row =
    String.concat "  "
      (List.mapi
         (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell)
         row)
  in
  let rule =
    String.concat "  "
      (List.init ncols (fun i -> String.make widths.(i) '-'))
  in
  String.concat "\n" ((render header :: rule :: List.map render rows) @ [ "" ])

let float_cell v = if Float.is_nan v then "n/a" else Printf.sprintf "%.2f" v

let si v =
  if v = 0. then "0"
  else begin
    let abs = Float.abs v in
    let scaled, prefix =
      if abs >= 1e9 then (v /. 1e9, "G")
      else if abs >= 1e6 then (v /. 1e6, "M")
      else if abs >= 1e3 then (v /. 1e3, "k")
      else if abs >= 1. then (v, "")
      else if abs >= 1e-3 then (v /. 1e-3, "m")
      else if abs >= 1e-6 then (v /. 1e-6, "u")
      else if abs >= 1e-9 then (v /. 1e-9, "n")
      else if abs >= 1e-12 then (v /. 1e-12, "p")
      else (v /. 1e-15, "f")
    in
    Printf.sprintf "%.3g%s" scaled prefix
  end

let section title =
  let width = 72 in
  let dashes = Stdlib.max 0 (width - String.length title - 6) in
  Printf.sprintf "\n==== %s %s\n" title (String.make dashes '=')
