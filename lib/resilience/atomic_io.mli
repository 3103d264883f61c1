(** Crash-safe file writes.

    [write_file] writes the full contents to a process-unique temporary
    sibling and renames it over the target, so a crash (or an injected
    fault) at any instant leaves either the old file or the new one on
    disk — never a torn mixture.  Every persistent artefact goes through
    this pattern: [.tbl] tables, checkpoints, the Verilog-A module, lint
    baselines and SARIF reports, the bench's JSON.  The telemetry stream
    is the exception: it appends by design, one flushed line per event.

    Durability, not just atomicity: the temporary is [fsync]ed before the
    rename (the data must be on disk before the name points at it) and the
    parent directory is [fsync]ed after it (the directory entry is the
    parent's metadata) — so a published write also survives power loss,
    not only process kills.  Both syncs are best-effort: filesystems that
    reject them are treated as not needing them. *)

val write_file : path:string -> string -> unit
(** Atomic, durable whole-file write (temp + fsync + rename + parent-dir
    fsync).  On failure the temporary is removed and the target is
    untouched. *)

val read_file : path:string -> string
(** The whole file, read in binary mode: netlists, tables, lint baselines
    and Verilog-A sources are read through it.
    @raise Sys_error when the file cannot be opened or read; for a
    directory, one that names the path and says it is a directory. *)

val mkdir_p : string -> unit
(** Create the directory and any missing parents. *)

val temp_path : string -> string
(** The temporary sibling name [write_file] uses (exposed for tests). *)
