module Metrics = Yield_obs.Metrics

exception Injected of string

type mode =
  | Rate of { p : float; seed : int }
  | Count of int
  | Every of int
  | At of int

type point = {
  name : string;
  mutable mode : mode option;
  hits : int Atomic.t;
  c_injected : Metrics.counter;
  c_hits : Metrics.counter;
}

let lock = Mutex.create ()

let points : (string, point) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let point name =
  with_lock (fun () ->
      match Hashtbl.find_opt points name with
      | Some p -> p
      | None ->
          let p =
            {
              name;
              mode = None;
              hits = Atomic.make 0;
              c_injected = Metrics.counter ("fault." ^ name ^ ".injected");
              c_hits = Metrics.counter ("fault." ^ name ^ ".hits");
            }
          in
          Hashtbl.add points name p;
          p)

let name p = p.name

let arm pname mode = (point pname).mode <- Some mode

let disarm pname =
  match with_lock (fun () -> Hashtbl.find_opt points pname) with
  | Some p -> p.mode <- None
  | None -> ()

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ p ->
          p.mode <- None;
          Atomic.set p.hits 0)
        points)

let known () =
  with_lock (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) points [])
  |> List.sort String.compare

let armed () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun name p acc ->
          match p.mode with Some m -> (name, m) :: acc | None -> acc)
        points [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* splitmix64 finaliser: the decision for hit [n] of a rate-armed point is a
   pure function of (seed, point name, n), so an injection schedule replays
   identically regardless of domain interleaving *)
let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hash01 ~seed ~salt n =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.add (Int64.mul (Int64.of_int salt) 0xD1B54A32D192ED03L)
         (Int64.of_int n))
  in
  let bits = Int64.shift_right_logical (mix z) 11 in
  Int64.to_float bits *. 0x1.0p-53

let salt_of_name s =
  (* stable across processes (Hashtbl.hash is not guaranteed to be) *)
  String.fold_left (fun acc c -> (acc * 131) + Char.code c) 7 s land 0x3FFFFFFF

let decide p ~index:n =
  match p.mode with
  | None -> false
  | Some (Rate { p = prob; seed }) ->
      hash01 ~seed ~salt:(salt_of_name p.name) n < prob
  | Some (Count k) -> n < k
  | Some (Every k) -> k > 0 && (n + 1) mod k = 0
  | Some (At k) -> n + 1 = k

let record p fired =
  Metrics.incr p.c_hits;
  if fired then Metrics.incr p.c_injected;
  fired

let fire_at p ~index = record p (decide p ~index)

let fire p =
  let n = Atomic.fetch_and_add p.hits 1 in
  record p (decide p ~index:n)

let advance p ~by = Atomic.fetch_and_add p.hits by

let raise_if p = if fire p then raise (Injected p.name)

(* ---------- the --fault-spec grammar ---------- *)

let parse_entry entry =
  match String.index_opt entry ':' with
  | None ->
      Error
        (Printf.sprintf
           "fault-spec entry %S: expected NAME:key=value[,key=value]" entry)
  | Some i -> begin
      let name = String.trim (String.sub entry 0 i) in
      if name = "" then Error "fault-spec: empty injection-point name"
      else begin
        let kvs =
          String.sub entry (i + 1) (String.length entry - i - 1)
          |> String.split_on_char ','
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        let rate = ref None
        and count = ref None
        and every = ref None
        and at = ref None
        and seed = ref 1 in
        let bad = ref None in
        List.iter
          (fun kv ->
            match String.index_opt kv '=' with
            | None -> bad := Some (Printf.sprintf "bad key=value %S" kv)
            | Some j -> begin
                let k = String.sub kv 0 j in
                let v = String.sub kv (j + 1) (String.length kv - j - 1) in
                match k with
                | "rate" -> begin
                    match float_of_string_opt v with
                    | Some r when r >= 0. && r <= 1. -> rate := Some r
                    | _ -> bad := Some (Printf.sprintf "bad rate %S" v)
                  end
                | "count" | "every" | "at" -> begin
                    match int_of_string_opt v with
                    | Some n when n > 0 ->
                        let slot =
                          match k with
                          | "count" -> count
                          | "every" -> every
                          | _ -> at
                        in
                        slot := Some n
                    | _ -> bad := Some (Printf.sprintf "bad %s %S" k v)
                  end
                | "seed" -> begin
                    match int_of_string_opt v with
                    | Some s -> seed := s
                    | None -> bad := Some (Printf.sprintf "bad seed %S" v)
                  end
                | _ -> bad := Some (Printf.sprintf "unknown key %S" k)
              end)
          kvs;
        match !bad with
        | Some msg -> Error (Printf.sprintf "fault-spec %S: %s" name msg)
        | None -> begin
            match (!rate, !count, !every, !at) with
            | Some p, None, None, None -> Ok (name, Rate { p; seed = !seed })
            | None, Some n, None, None -> Ok (name, Count n)
            | None, None, Some n, None -> Ok (name, Every n)
            | None, None, None, Some n -> Ok (name, At n)
            | None, None, None, None ->
                Error
                  (Printf.sprintf
                     "fault-spec %S: one of rate/count/every/at is required"
                     name)
            | _ ->
                Error
                  (Printf.sprintf
                     "fault-spec %S: rate, count, every and at are mutually \
                      exclusive"
                     name)
          end
      end
    end

let parse_spec spec =
  let entries =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if entries = [] then
    Error "fault-spec: no entries (expected NAME:key=value[;NAME:...])"
  else
  let rec walk acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> begin
        match parse_entry e with
        | Ok pair -> walk (pair :: acc) rest
        | Error _ as err -> err
      end
  in
  walk [] entries

let arm_spec spec =
  match parse_spec spec with
  | Error _ as err -> err
  | Ok pairs ->
      List.iter (fun (name, mode) -> arm name mode) pairs;
      Ok ()

let mode_to_string = function
  | Rate { p; seed } -> Printf.sprintf "rate=%g,seed=%d" p seed
  | Count n -> Printf.sprintf "count=%d" n
  | Every n -> Printf.sprintf "every=%d" n
  | At n -> Printf.sprintf "at=%d" n
