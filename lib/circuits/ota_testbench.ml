(* Testbench's records, with their fields, and measurements, then its
   testbenches for the OTA *)

include Testbench
include Testbench.Make (Ota)
