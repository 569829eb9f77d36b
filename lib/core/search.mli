(** Module search strategies (§3 "The Linkers").

    At static link time lds looks in (1) the current directory, (2) the
    [-L] command-line path, (3) [LD_LIBRARY_PATH], (4) the default
    library directories.

    At run time ldl looks in (1) the [LD_LIBRARY_PATH] current at
    execution, then (2) everywhere lds searched at static link time —
    which lds records in the load image.  Changing [LD_LIBRARY_PATH]
    between link and exec therefore redirects dynamic modules, the hook
    the Presto-style parallel applications use. *)

type ctx = {
  fs : Hemlock_sfs.Fs.t;
  cwd : Hemlock_sfs.Path.t;
  env : (string * string) list;
}

val default_dirs : string list

(** Kill switch for the LD_LIBRARY_PATH memo and the {!locate} cache
    (set from [HEMLOCK_NO_SYMHASH] at start-up).  Results are identical
    either way; both caches are epoch-validated against
    {!Hemlock_sfs.Fs.generation}. *)
val cache_enabled : bool ref

(** Split a colon-separated LD_LIBRARY_PATH value from [env]. *)
val ld_library_path : (string * string) list -> string list

(** The static-link-time search directory list (absolute strings). *)
val static_dirs : ctx -> cli_dirs:string list -> string list

(** The run-time list: exec-time LD_LIBRARY_PATH then the recorded
    static dirs. *)
val runtime_dirs : ctx -> recorded:string list -> string list

(** [locate ctx ~dirs name] finds a module template.  An absolute (or
    explicitly relative) [name] is resolved against [ctx.cwd] directly;
    a bare name is tried in each directory in order.  Returns the path
    {e as found} — a symlink is not chased, so a public module created
    from it lands in the symlink's directory (the temp-directory trick
    of §4). *)
val locate : ctx -> dirs:string list -> string -> string option

(** Drop the calling domain's {!locate} cache and LD_LIBRARY_PATH memo
    (reboot). *)
val clear_locate_cache : unit -> unit
