module Json = Yield_obs.Json

(* FNV-1a 64-bit over the identity fields only — code, file, subject.  The
   message and line are deliberately excluded: editing a message or shifting
   a line must not orphan a baselined finding. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let fnv1a_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let fingerprint (d : Diagnostic.t) =
  let h = fnv_offset in
  let h = fnv1a_string h d.Diagnostic.code in
  let h = fnv1a_string h "\x00" in
  let h = fnv1a_string h (Option.value d.Diagnostic.file ~default:"") in
  let h = fnv1a_string h "\x00" in
  let h = fnv1a_string h d.Diagnostic.subject in
  Printf.sprintf "%016Lx" h

type t = (string, unit) Hashtbl.t

let empty () : t = Hashtbl.create 16

let mem (t : t) d = Hashtbl.mem t (fingerprint d)

let of_diags diags =
  let t = empty () in
  List.iter (fun d -> Hashtbl.replace t (fingerprint d) ()) diags;
  t

let fingerprints (t : t) =
  Hashtbl.fold (fun fp () acc -> fp :: acc) t [] |> List.sort String.compare

let partition (t : t) diags =
  List.partition (fun d -> not (mem t d)) diags

let to_json (t : t) =
  Json.Obj
    [
      ("version", Json.Int 1);
      ( "fingerprints",
        Json.List (List.map (fun fp -> Json.String fp) (fingerprints t)) );
    ]

let save ~path (t : t) =
  Yield_resilience.Atomic_io.write_file ~path
    (Json.to_string (to_json t) ^ "\n")

let load ~path =
  match Yield_resilience.Atomic_io.read_file ~path with
  | exception Sys_error msg -> Error msg
  | text -> begin
      match Json.parse text with
      | exception Json.Parse_error msg -> Error (path ^ ": " ^ msg)
      | json -> begin
          match Json.member "version" json with
          | Some (Json.Int 1) -> begin
              match Json.member "fingerprints" json with
              | Some (Json.List fps) ->
                  let t = empty () in
                  let bad = ref None in
                  List.iter
                    (fun fp ->
                      match fp with
                      | Json.String s -> Hashtbl.replace t s ()
                      | _ -> bad := Some "non-string fingerprint")
                    fps;
                  (match !bad with
                  | Some msg -> Error (path ^ ": " ^ msg)
                  | None -> Ok t)
              | _ -> Error (path ^ ": missing \"fingerprints\" list")
            end
          | Some _ -> Error (path ^ ": unsupported baseline version")
          | None -> Error (path ^ ": missing \"version\" field")
        end
    end
