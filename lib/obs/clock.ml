external monotonic_ns : unit -> int64 = "yieldlab_clock_monotonic_ns"

let now_s () = Int64.to_float (monotonic_ns ()) /. 1e9

let now_us () = Int64.to_float (monotonic_ns ()) /. 1e3
