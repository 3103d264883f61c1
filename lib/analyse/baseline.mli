(** Baseline suppression: accept a known set of findings so CI only fails
    on {e new} ones.

    A finding's identity is its {!fingerprint} — an FNV-1a hash of code,
    file and subject.  Messages and line numbers are excluded on purpose:
    rewording a diagnostic or inserting a line above a finding must not
    orphan its suppression.  Two findings that genuinely collide (same code,
    same file, same subject) are treated as one, which is the useful
    behaviour for repeated structural findings.

    The on-disk format is one JSON object,
    [{"version": 1, "fingerprints": ["<16 hex chars>", ...]}], sorted, so
    baselines diff cleanly in review. *)

type t

val fingerprint : Diagnostic.t -> string
(** 16 lowercase hex characters, stable across sessions and platforms. *)

val empty : unit -> t

val of_diags : Diagnostic.t list -> t

val mem : t -> Diagnostic.t -> bool

val fingerprints : t -> string list
(** Sorted. *)

val partition : t -> Diagnostic.t list -> Diagnostic.t list * Diagnostic.t list
(** [partition t diags] is [(fresh, suppressed)], preserving order.  Exit
    codes and CI gates should be computed from [fresh] only. *)

val to_json : t -> Yield_obs.Json.t

val save : path:string -> t -> unit
(** Write the baseline atomically ([Atomic_io.write_file]). *)

val load : path:string -> (t, string) result
(** [Error] carries a human-readable reason (unreadable file, bad JSON,
    wrong version). *)
