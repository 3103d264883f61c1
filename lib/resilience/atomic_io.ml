let temp_path path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

(* Directory entries are metadata of the *parent*: after a rename, the new
   name only survives a power loss once the directory itself is synced.
   Best-effort — some filesystems refuse fsync on a directory fd (EINVAL),
   which is fine: they are the ones that do not need it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write_file ~path contents =
  let tmp = temp_path path in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc contents;
         Out_channel.flush oc;
         (* the data must be durable before the rename publishes the name:
            rename-then-sync can survive a crash as a complete name pointing
            at unwritten blocks *)
         try Unix.fsync (Unix.descr_of_out_channel oc)
         with Unix.Unix_error _ -> ())
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* a directory opens for reading on Linux, and its length is refused with
   the bare EOVERFLOW text, so it is named here first *)
let read_file ~path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": is a directory, not a file"));
  In_channel.with_open_bin path (fun ic ->
      really_input_string ic (in_channel_length ic))

let mkdir_p dir =
  let rec walk d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      walk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  walk dir
