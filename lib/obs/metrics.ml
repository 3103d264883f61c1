type counter = int Atomic.t

let lock = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add counters name c;
          c)

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n)

let value c = Atomic.get c

let histogram ?capacity name =
  with_lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h = Histogram.create ?capacity () in
          Hashtbl.add histograms name h;
          h)

let observe h v = Histogram.observe h v

let observe_int h n = Histogram.observe_int h n

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Histogram.summary) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  with_lock (fun () ->
      {
        counters = sorted_bindings counters Atomic.get;
        histograms = sorted_bindings histograms Histogram.summarize;
      })

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
      Hashtbl.iter (fun _ h -> Histogram.reset h) histograms)
