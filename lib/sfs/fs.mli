(** The simulated file system.

    An ordinary in-memory Unix tree, plus the paper's dedicated shared
    partition mounted at [/shared]:

    - exactly 1024 inodes (slots), each file at most 1 MB;
    - a kernel-maintained one-one mapping between inodes and path names
      (hard links other than "." and ".." are prohibited there);
    - file [i]'s data occupies the fixed global address range
      [Layout.addr_of_slot i .. +1 MB), so {!addr_of_path} /
      {!path_of_addr} translate back and forth and pointers into shared
      files mean the same thing in every process.

    Every regular file is backed by a {!Hemlock_vm.Segment.t}; mapping a
    file and writing the mapped memory writes the file, which is what
    makes Hemlock's sharing genuine. *)

type t

type err_kind =
  | Not_found
  | Not_a_directory
  | Is_a_directory
  | Already_exists
  | No_space  (** shared partition out of inodes *)
  | Not_shared  (** address/op requires the shared partition *)
  | Hard_links_prohibited
  | Symlink_loop
  | Not_empty
  | Cross_partition  (** rename between /shared and the normal partition *)

exception Error of { op : string; path : string; kind : err_kind }

val err_kind_to_string : err_kind -> string

type file_kind = Regular | Directory | Symlink

type stat = {
  st_kind : file_kind;
  st_size : int;
  st_ino : int;
  st_addr : int option;  (** base address when on the shared partition *)
}

(** A fresh file system containing [/], [/shared], [/tmp], [/usr/lib],
    [/etc] and [/home]. *)
val create : unit -> t

(** Mutation epoch: bumped by every path-level mutation ([mkdir],
    [create_file], [write_file], [append_file], [symlink], [hard_link],
    [unlink], [rmdir], [rename]).  Host-side caches of derived data
    (search-path resolution, link plans) validate against it.

    Writes to a mapped file {e segment} deliberately do not bump it —
    mapped stores into shared data are the paper's common case, and
    bumping here would invalidate every link cache on every store (the
    linkers themselves write relocations through module-file segments).
    The consequence is a contract, not an exemption: the generation
    witnesses only the {e namespace}, so any cache whose value depends
    on file {e contents} (decoded templates, recorded symbol addresses)
    must additionally key on or verify the backing segment's
    ([Segment.id], [Segment.version]), which every content write does
    bump.  See {!Hemlock_linker.Link_plan} for the discipline. *)
val generation : t -> int

(** {1 Path-level operations}

    All take paths as strings resolved against [cwd] (default root).
    Symlinks in intermediate components are always followed; final
    components follow symlinks unless stated otherwise.  One resolver
    serves every call, chasing at most 40 symlinks; a path that goes
    through a regular file raises [Not_a_directory], and one that
    chases more links (a loop) raises [Symlink_loop]. *)

val mkdir : t -> ?cwd:Path.t -> string -> unit

(** [create_file t p] creates an empty regular file (truncates if it
    already exists as a file).  Under [/shared] this allocates an inode
    slot and hence a global address.  A final symlink is chased and
    its target created, within the same 40-link bound: through a loop
    it raises [Symlink_loop]. *)
val create_file : t -> ?cwd:Path.t -> string -> unit

(** [lookup t p] is [Some (spelled, st)] when [p] resolves: [st] is
    what {!stat} answers, and [spelled] is [p] with its directories
    resolved and its last component as found (a final symlink is
    chased for [st] but not for [spelled]).  It never raises: a path
    that is missing, goes through a file or loops is [None]. *)
val lookup : t -> ?cwd:Path.t -> string -> (string * stat) option

(** [exists] and [is_dir] answer as {!lookup} does, and never raise. *)
val exists : t -> ?cwd:Path.t -> string -> bool
val is_dir : t -> ?cwd:Path.t -> string -> bool
val stat : t -> ?cwd:Path.t -> string -> stat

(** [lstat] does not follow a final symlink. *)
val lstat : t -> ?cwd:Path.t -> string -> stat

(** Backing segment of a regular file — the mmap interface. *)
val segment_of : t -> ?cwd:Path.t -> string -> Hemlock_vm.Segment.t

(** [read_file] bills a read of the whole file ([bytes_copied] += its
    size, [files_opened] += 1) and returns a copy of its contents. *)
val read_file : t -> ?cwd:Path.t -> string -> Bytes.t

(** [read_segment] bills exactly what {!read_file} bills and returns the
    file's backing segment instead of a copy, for a caller that may not
    need the bytes (a decode memo keyed on the segment's id and
    version).  Bytes it does need it copies out itself. *)
val read_segment : t -> ?cwd:Path.t -> string -> Hemlock_vm.Segment.t

val write_file : t -> ?cwd:Path.t -> string -> Bytes.t -> unit

(** [append_file] appends at end of file. *)
val append_file : t -> ?cwd:Path.t -> string -> Bytes.t -> unit

val symlink : t -> ?cwd:Path.t -> target:string -> string -> unit

(** [hard_link t ~existing p] — allowed on the normal partition,
    rejected with [Hard_links_prohibited] when either side is under
    [/shared] (preserving the one-one inode/path mapping). *)
val hard_link : t -> ?cwd:Path.t -> existing:string -> string -> unit

val unlink : t -> ?cwd:Path.t -> string -> unit

(** [rmdir] removes an empty directory. *)
val rmdir : t -> ?cwd:Path.t -> string -> unit

(** [rename t ~src dst] moves a file, symlink or directory.  The
    destination must not exist.  Renames may not cross the shared
    partition boundary (a shared file's identity {e is} its slot
    address; a normal file has none), but within [/shared] the
    kernel's addr->path table is updated, preserving every file's
    address. *)
val rename : t -> ?cwd:Path.t -> src:string -> string -> unit

(** Directory entries, sorted. *)
val readdir : t -> ?cwd:Path.t -> string -> string list

(** {1 The new kernel calls of the paper} *)

(** [addr_of_path t p] is the global base address of a shared file.
    Raises [Error {kind = Not_shared}] for files outside [/shared]. *)
val addr_of_path : t -> ?cwd:Path.t -> string -> int

(** [path_of_addr t a] is the path of the shared file whose address
    range contains [a] — the new syscall used by the SIGSEGV handler,
    answered by indexing the slot table with [a]'s slot. *)
val path_of_addr : t -> int -> string

(** Rebuild the in-kernel slot->path table by scanning the
    whole shared partition, as done at boot time.  Idempotent; used to
    show the mapping survives "crashes". *)
val rescan_shared : t -> unit

(** {1 Crash consistency}

    Multi-step [/shared] mutations (create = publish slot + insert
    entry; rename = insert dst + remove src; a fresh-file write; module
    creation over in {!Hemlock_linker.Modinst}) are bracketed by an
    {e intent journal}.  The journal is part of [t] — the same place as
    the simulated disk — so it survives a simulated {!Hemlock_util.Fault.Crash};
    an entry still pending at recovery time is exactly an operation that
    began and was never acknowledged.  {!fsck} rolls each pending intent
    forward (when the visible state shows the operation completed) or
    back (removing partial state), then sweeps the slot↔path invariants.

    Interaction with the {!generation} contract: [journal_begin] and
    [journal_end] do {e not} bump the generation — intents carry no
    namespace content, so caches keyed on the generation need not
    invalidate when an intent is filed or retired.  Every {e repair}
    fsck makes goes through the ordinary mutation helpers and therefore
    does bump it, exactly as if a program had performed the fix. *)

type intent =
  | Intent_create of { path : string }
      (** shared file creation: slot published, entry inserted *)
  | Intent_rename of { src : string; dst : string }
      (** shared rename: dst inserted first, src removed second *)
  | Intent_write of { path : string; digest : string }
      (** fresh-file write: [digest] of the intended full contents
          decides replay (contents match) vs. roll back (partial) *)
  | Intent_module of { module_path : string }
      (** module creation: create → sections/relocs → publish magic *)
  | Intent_pageout of { path : string; page : int; digest : string }
      (** pager eviction flushing a dirty page of a mapped shared file,
          filed only by a crash at the barrier: [digest] of the page as
          it stood there decides completed vs. withdrawn *)

(** File an intent; returns a journal id to retire with {!journal_end}. *)
val journal_begin : t -> intent -> int

(** Retire (acknowledge) a journal entry.  Idempotent. *)
val journal_end : t -> int -> unit

(** Pending entries, oldest first (normally empty). *)
val journal_pending : t -> (int * intent) list

(** [page_writeback t ~path ~seg ~page] is the pager's durability
    barrier for one dirty page of a mapped shared file ([seg] {e is}
    the file's segment, so contents are already in place by
    construction).  It passes the [fs.pageout] fault site and returns:
    a flush that does not crash copies, hashes and journals nothing, so
    {!journal_pending} is unchanged.  A [Fault.Crash] there files an
    {!Intent_pageout} carrying the page's digest as it stands at the
    barrier and re-raises; {!fsck} digest-checks the page to decide
    completed vs. withdrawn.  A transient injected failure re-raises
    with no journal residue (the pager aborts that eviction). *)
val page_writeback :
  t -> path:string -> seg:Hemlock_vm.Segment.t -> page:int -> unit

type fsck_report = {
  fsck_replayed : int;  (** pending intents rolled forward *)
  fsck_rolled_back : int;  (** pending intents rolled back *)
  fsck_repairs : string list;  (** human-readable repair log *)
  fsck_orphans : string list;
      (** files whose creation was never acknowledged — candidates for
          the janitor's reaping policy, not removed by fsck itself *)
  fsck_clean : bool;  (** nothing replayed, rolled back or repaired *)
}

(** [fsck t] = {!rescan_shared} + journal recovery + invariant sweep
    (every shared file has an in-range slot, no slot claimed by two
    paths, no dangling table entries).  Idempotent: a second run on the
    result always reports [fsck_clean = true].

    Recovery takes the pending intents oldest first and retires each
    with {!journal_end} as soon as it is resolved, passing the
    [fs.fsck] fault site before each one.  A [Fault.Crash] there
    (a machine dying during recovery) leaves exactly the unprocessed
    intents for the next [fsck]; an injected errno there is ignored.
    The report of a crashed run is lost, so an orphan it would have
    flagged goes unreported. *)
val fsck : t -> fsck_report

(** Number of free inode slots on the shared partition. *)
val shared_free_slots : t -> int

(** All live (slot, path) pairs, in slot order. *)
val shared_table : t -> (int * string) list
