(** Array access without a bounds check, for the solver kernels of this
    library only: the module is private to [yield_numeric].

    A kernel may read or write [a.!(i)] only where [i] is proven in range
    once, outside the loop: by the size its workspace was built with, or
    by the schedule [Csr.analyse] validated (DESIGN.md, "Numeric kernels
    index flat arrays").  An array a caller hands in keeps [a.(i)].

    The operators are [external]: declared as values they would compile,
    under the dev profile's [-opaque], to calls that box every float they
    read. *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"

external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
