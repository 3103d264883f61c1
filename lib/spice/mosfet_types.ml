(* The first piece of mosfet.ml, which lib/spice/dune splices together:
   this text, the float scalar (scalar_float.ml), the device equations
   (device_body.ml) and the model's entry points (mosfet_eval.ml).  It
   defines what the equations read: the model record and kT/q. *)

type polarity = Nmos | Pmos

type model = {
  polarity : polarity;
  vth0 : float;
  kp : float;
  gamma : float;
  phi : float;
  lambda0 : float;
  n_slope : float;
  cox : float;
  cgso : float;
  cgdo : float;
  cj : float;
  cjsw : float;
  ext : float;
}

let temperature_voltage = 0.025852

type region = Cutoff | Weak | Saturation | Triode

type op = {
  ids : float;
  gm : float;
  gds : float;
  gmb : float;
  vth : float;
  vdsat : float;
  vgs : float;
  vds : float;
  vbs : float;
  region : region;
  cgs : float;
  cgd : float;
  cdb : float;
  csb : float;
}

let region_to_string = function
  | Cutoff -> "cutoff"
  | Weak -> "weak"
  | Saturation -> "saturation"
  | Triode -> "triode"
