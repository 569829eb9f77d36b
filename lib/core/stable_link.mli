(** Stable linking: the link-plan store's copy under [/shared/.stable].

    The in-memory {!Link_plan} store is the only plan store, and it dies
    with [Kernel.reboot].  This module keeps an exact copy of it in the
    shared partition — one file per plan, named by a digest of its key,
    and one HOB2 symbol-index file per live template, named by its
    content identity — so a reboot can refill the store.  [Ldl] records
    the {!Hemlock_sfs.Fs.generation} each copy was made at and reads
    plans back only while it has not moved.  Writes go through the
    journalled [Fs] path, all-or-nothing per file under [Fs.fsck] (the
    [fs.stable] fault site).  Loads are host-side segment reads, never
    billed; a corrupt file is reaped on its first failed load.  See
    DESIGN.md, "Stable linking". *)

(** The reserved namespace, ["/shared/.stable"]. *)
val dir : string

(** Create {!dir} if missing. *)
val ensure_dir : Hemlock_sfs.Fs.t -> unit

(** Path of the plan file for a plan key (named by a digest of the key). *)
val plan_path : string -> string

type sync_report = {
  sync_plans : int;  (** plan files written or already present *)
  sync_objs : int;  (** symbol-index files written or already present *)
  sync_skipped : int;  (** files that failed to write or to unlink *)
}

(** [sync fs ~plans ~objs] makes {!dir} an exact copy of the plans and
    of the symbol indexes of the templates [objs] (located path,
    (segment id, version), template) whose file still holds that
    version: it keeps the index files and the files of plans that are
    not [Unsaved], unlinks every other file, then writes each missing
    one through the journalled path and marks each plan it writes
    [Saved].  The flag is [false] iff an unlink failed, leaving a file
    outside the copy.  An injected error or FS failure skips that file;
    a {!Hemlock_util.Fault.Crash} propagates (the machine stopped). *)
val sync :
  Hemlock_sfs.Fs.t ->
  plans:(string * Modinst.scope Link_plan.plan) list ->
  objs:(string * (int * int) * Hemlock_obj.Objfile.t) list ->
  sync_report * bool

(** One-pass sweep of {!dir}: decode and digest-verify every plan file,
    reaping the ones that no longer parse or whose embedded key does not
    name them.  Each plan comes back [Loaded].  Unbilled. *)
val load_plans :
  Hemlock_sfs.Fs.t -> (string * Modinst.scope Link_plan.plan) list

(** Count one [Loaded] plan's first verified replay ([stable_loads]). *)
val note_load : unit -> unit

(** [reject fs ~key] reaps the plan file after a failed replay of a
    plan the file holds (it no longer matches the live world). *)
val reject : Hemlock_sfs.Fs.t -> key:string -> unit

(** Warm the per-domain template decode and export-index caches from
    every persisted symbol index whose backing template still has the
    recorded content identity; stale or corrupt index files are reaped.
    Unbilled. *)
val seed_indexes : Hemlock_sfs.Fs.t -> unit

(** The deterministic bytes {!persist_raw} writes for [key] — exposed
    so the crash sweep's oracle can predict post-recovery contents. *)
val raw_blob : key:string -> Bytes.t

(** Crash-sweep entry point: persist a trivial plan blob for [key]
    through the ordinary write path, raising through on injected
    failures and crashes. *)
val persist_raw : Hemlock_sfs.Fs.t -> key:string -> unit

(** Whether a segment holds a well-formed stable-link file (plan or
    index) — the janitor keeps such files and reaps the rest of
    [/shared/.stable]. *)
val valid_segment : Hemlock_vm.Segment.t -> bool
