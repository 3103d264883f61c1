(** GA strings.

    The paper's WBGA encodes each individual as a concatenation of the
    normalised designable parameters and the objective weights (Figure 4 /
    Figure 6).  All genes live in [0, 1]; parameters are mapped onto their
    designer-imposed ranges when decoded and weights are normalised to sum to
    one (equation 4). *)

type scale = Linear | Log

type range = { name : string; lo : float; hi : float; scale : scale }

val range : string -> lo:float -> hi:float -> range
(** A linearly mapped parameter.  @raise Invalid_argument unless [lo < hi]. *)

val log_range : string -> lo:float -> hi:float -> range
(** A logarithmically mapped parameter (for quantities spanning decades,
    e.g. capacitances).  @raise Invalid_argument unless [0 < lo < hi]. *)

type encoding = { param_ranges : range array; n_weights : int }

val encoding : range array -> n_weights:int -> encoding
(** @raise Invalid_argument for negative weight counts or empty parameters. *)

val length : encoding -> int
(** Total gene count. *)

type t = float array
(** Genes in [0, 1]; length must equal [length encoding]. *)

val random : encoding -> Yield_stats.Rng.t -> t

val clamp : t -> unit
(** Clip all genes into [0, 1] in place. *)

val params : encoding -> t -> float array
(** Decoded physical parameter values. *)

val weights : encoding -> t -> float array
(** Equation (4): genes normalised to sum to one.  A degenerate all-zero
    weight section decodes to uniform weights. *)

val of_params : encoding -> params:float array -> weights:float array -> t
(** Inverse encoding (parameters clamped into their ranges); useful for
    seeding known-good designs. *)
