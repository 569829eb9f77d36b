(** The 64-bit address→segment translation design (§3 "Address Space and
    File System Organization", forward-looking part).

    On the 32-bit prototype every shared file occupies a fixed 1 MB slot
    and the kernel keeps a linear table indexed by slot.  The paper's
    64-bit plan gives {e every} segment a unique system-wide address of
    arbitrary size, with the inodes "linked into a lookup structure —
    most likely a B-tree".  This module implements the translation index
    with both backends so the trade-off can be measured (experiment
    E12).  The kernel's [/shared] table is not this module: {!Fs} keeps
    the prototype's array indexed by slot, since the 32-bit layout has
    1024 fixed slots. *)

type backend = Linear | Btree_index

type t

(** [create backend] makes an empty index. *)
val create : backend -> t

val size : t -> int

(** [register t ~base ~bytes path] records a segment.
    @raise Invalid_argument when it overlaps an existing registration. *)
val register : t -> base:int -> bytes:int -> string -> unit

(** [unregister t ~base] removes the segment registered at [base];
    returns whether one was. *)
val unregister : t -> base:int -> bool

(** [translate t addr] is the (path, offset within segment) for the
    segment containing [addr] — the query the SIGSEGV handler makes.
    Counts one probe per inspected entry in {!probes}. *)
val translate : t -> int -> (string * int) option

(** All registrations as [(base, bytes, path)], sorted by base.  Costs
    no probes — this is the maintenance walk, not the hot path. *)
val to_list : t -> (int * int * string) list

(** Drop every registration.  The probe counter is preserved. *)
val clear : t -> unit

(** Cumulative number of entries inspected by [translate] calls (the
    deterministic cost measure for E12). *)
val probes : t -> int

val reset_probes : t -> unit
