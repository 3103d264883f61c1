include Testbench.Make (Miller)

let conditions =
  { Testbench.default_conditions with Testbench.min_unity_gain_hz = 5e6 }
