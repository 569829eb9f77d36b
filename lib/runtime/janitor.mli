(** Manual cleanup of shared segments (§5 "Garbage Collection").

    The paper sees "no alternative in the general case but to rely on
    manual cleanup", and leans on the crucial property that the shared
    file system provides "the ability to peruse all of the segments in
    existence".  This module is that perusal: a survey of every live
    slot, classifying each segment (created module, segment heap, plain
    data) with enough detail for a human or a policy script to decide
    what to delete. *)

module Kernel = Hemlock_os.Kernel

type kind =
  | Module  (** a created Hemlock module (HMOD header) *)
  | Heap  (** a formatted segment heap *)
  | Template  (** a module template (.o contents) *)
  | Executable  (** an a.out image *)
  | Stable
      (** a stable-link file under [/shared/.stable] (a persisted link
          plan) — classified by path, so truncated wrecks are still
          recognized as stable-link state *)
  | Plain  (** anything else *)

type entry = {
  j_slot : int;
  j_path : string;
  j_addr : int;
  j_bytes : int;  (** current file size *)
  j_kind : kind;
  j_heap_live : int option;  (** live allocation bytes, for heaps *)
  j_template : string option;  (** source template, for modules *)
}

val kind_to_string : kind -> string

(** Every live shared segment, in slot order. *)
val survey : Kernel.t -> entry list

(** [remove k path] unlinks a shared segment (freeing its slot). *)
val remove : Kernel.t -> string -> unit

(** Segments whose recorded template no longer exists — created modules
    orphaned by a deleted template; prime cleanup candidates. *)
val orphaned_modules : Kernel.t -> entry list

(** {1 Reaping policy}

    The paper's "manual cleanup" gets a mechanical assistant: a policy
    decides which surveyed entries to delete, and {!reap} applies it.
    The janitor never decides on its own — callers choose the policy. *)

type policy = entry -> bool

(** The conservative default: modules whose template is missing (or
    whose header is unreadable), plus [Plain] files in [flagged] —
    typically {!Hemlock_sfs.Fs.fsck}'s [fsck_orphans], creations a crash
    left unacknowledged.  Published modules are never flagged this way,
    so a module whose creator crashed after the commit point survives.
    [Stable] files are reaped iff they no longer decode (truncated or
    corrupt); well-formed ones are judged at load time instead. *)
val orphan_policy : Kernel.t -> flagged:string list -> policy

(** [reap k ~policy] removes every surveyed entry the policy selects and
    returns the removed entries. *)
val reap : Kernel.t -> policy:policy -> entry list
