(** The generic characterisation testbenches instantiated for the two-stage
    Miller OTA; see {!Testbench} for the interface and {!Ota_testbench} for
    the paper's primary circuit. *)

include Testbench.S with type params = Miller.params

val conditions : Testbench.conditions
(** The Miller stage's characterisation conditions: the paper's, with the
    unity-gain floor lowered to 5 MHz, since the stage's unity gain
    [gm1 / (2 pi Cc)] is about 7 MHz.  Every Miller flow runs under them,
    and every existing Miller checkpoint was written under them. *)
