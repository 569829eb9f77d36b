(** Applying relocations to placed module images.

    The engine is address-based: a {!sink} reads and writes 32-bit words
    at absolute virtual addresses, whether backed by an in-construction
    [Bytes.t] image (lds) or a live {!Hemlock_vm.Segment.t} (ldl).

    Out-of-range [Jump26] targets are routed through {e veneers}: 16-byte
    code fragments ("jumps to new, nearby code fragments that load the
    appropriate target address into a register and jump indirectly", §3)
    allocated from a per-module pool. *)

exception Link_error of string

type sink = { get32 : int -> int; set32 : int -> int -> unit }

(** A veneer pool: [vp_base] is the absolute address of the first slot;
    the next-free counter is accessed through the closures so it can
    live either in OCaml state (private modules) or in the shared module
    header (public modules). *)
type veneer_pool = {
  vp_base : int;
  vp_cap : int;
  vp_get_next : unit -> int;
  vp_set_next : int -> unit;
}

(** Bytes per veneer slot (lui/ori/jr/nop). *)
val veneer_slot_bytes : int

(** Monotone count of veneers emitted, for the E11 harness. *)
val veneers_created : unit -> int

val reset_veneer_count : unit -> unit

(** [alloc_veneer sink pool ~target] writes a veneer jumping to [target]
    and returns its address.  Reuses an existing slot with the same
    target.  @raise Link_error when the pool is exhausted. *)
val alloc_veneer : sink -> veneer_pool -> target:int -> int

(** [apply sink ~at ~kind ~value ~gp ~veneer] patches the word at
    absolute address [at].  [value] is the resolved symbol address plus
    addend.  [gp] is required for [Gprel16]; [veneer] for out-of-range
    [Jump26].  @raise Link_error on range violations. *)
val apply :
  sink ->
  at:int ->
  kind:Hemlock_obj.Objfile.reloc_kind ->
  value:int ->
  gp:int option ->
  veneer:veneer_pool option ->
  unit

(** A relocation list grouped by symbol, built once per decoded
    template (ldl keeps it beside its decode memo): the relocations in
    their recorded order, and each one's symbol as a number, one per
    distinct name, from 0 to [rl_symbols - 1]. *)
type relocs = {
  rl_all : Hemlock_obj.Objfile.reloc array;
  rl_symbol_of : int array;
  rl_symbols : int;
}

val group : Hemlock_obj.Objfile.reloc list -> relocs

(** A pass over a grouped relocation list.

    [link_pass ~relocs ~bases ~resolve ~epoch ~already ~mark sink ~gp
    ~veneer] visits each relocation by index, in recorded order, so
    veneer slots are handed out as a per-relocation pass would hand
    them out; [bases] gives the absolute base address of each section
    of the placed module; [resolve] maps a symbol name to an absolute
    address ([None] leaves the relocation pending); [already]/[mark]
    track per-relocation completion.  [resolve] is asked once per
    distinct symbol, and again only after [epoch] moved: a caller whose
    answers hang on the namespace passes [Fs.generation], one whose
    answers never change a constant.  Every applied relocation bills
    one [symbols_resolved] and one [relocs_applied], as if it had been
    resolved alone.  Returns the indices that remain unresolved. *)
val link_pass :
  relocs:relocs ->
  bases:(Hemlock_obj.Objfile.section -> int) ->
  resolve:(string -> int option) ->
  epoch:(unit -> int) ->
  already:(int -> bool) ->
  mark:(int -> unit) ->
  sink ->
  gp:int option ->
  veneer:veneer_pool option ->
  int list
