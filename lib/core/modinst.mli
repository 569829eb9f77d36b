(** Module instances, linking scopes, and the on-segment header of
    created public modules.

    A {e template} is a [.o] file; an {e instance} is a module placed at
    an address: either a fresh private copy in the process's arena, or
    the single public copy living in a shared file whose slot address is
    its permanent global base.

    Public module files carry a one-page header recording the template
    they were created from, which relocations have been applied (shared
    link state — a second process must not re-apply them), and the
    veneer-pool allocation cursor. *)

module Objfile = Hemlock_obj.Objfile
module Segment = Hemlock_vm.Segment

exception Link_error of string

(** A node of the scoped-linking DAG (§3, Figure 2).  Resolution works
    up from a module's own list toward the root. *)
type scope = {
  sc_label : string;  (** for diagnostics: module or program name *)
  sc_modules : string list;  (** this node's own module list *)
  sc_search : string list;  (** this node's own search directories *)
  sc_parent : scope option;
}

type t = {
  inst_key : string;  (** located template path — the instance identity *)
  inst_module_file : string option;  (** public module file, if public *)
  inst_obj : Objfile.t;
  inst_src : int * int;
      (** content identity of [inst_obj]: ([Segment.id], [Segment.version])
          of the template file at decode time, or [(-1, -1)] when the
          object did not come from the file system.  Two instances with
          equal [inst_src] decoded identical template bytes, even if the
          file was later rewritten through a mapping (which bumps the
          segment version but not {!Hemlock_sfs.Fs.generation}). *)
  inst_base : int;  (** mapping base (slot base when public) *)
  inst_image_off : int;  (** header page for public modules, 0 private *)
  inst_seg : Segment.t;
  inst_public : bool;
  inst_scope : scope;
  mutable inst_linked : bool;  (** this process finished its link pass *)
  (* veneer state for private instances (public state is in the header) *)
  mutable inst_veneer_next : int;
  inst_veneer_off : int;  (** relative to [inst_base] *)
  inst_veneer_cap : int;
  (* per-relocation completion for private instances (public modules
     keep this in their shared header) *)
  inst_applied : bool array;
}

(** Absolute address of the placed image (sections start here). *)
val image_base : t -> int

(** End of the instance's address range (veneer pool included). *)
val limit : t -> int

val contains : t -> int -> bool

(** Absolute address of a symbol of this instance. *)
val symbol_addr : t -> Objfile.symbol -> int

(** Exported (global, defined) symbol lookup. *)
val find_export : t -> string -> int option

(** Defined symbol lookup including locals (for internal relocations). *)
val find_own : t -> string -> int option

(** [iter_exports t f] calls [f name addr] once for each name that
    [find_export] answers, in symbol-table order: the first symbol of a
    name decides, so a Local hides a later Global of the same name. *)
val iter_exports : t -> (string -> int -> unit) -> unit

(** A sink writing through a segment, where segment offset 0 backs
    virtual address [vaddr_base]. *)
val sink_of_segment : Segment.t -> vaddr_base:int -> Reloc_engine.sink

(** Veneer-slot count to reserve for a template. *)
val veneer_capacity : Objfile.t -> int

(** Total placed size: image plus veneer pool, from [image_off]. *)
val placed_size : Objfile.t -> int

(** Veneer pool of this instance (reads/writes the header for public
    instances, OCaml state for private ones). *)
val veneer_pool : t -> Reloc_engine.veneer_pool

(** {1 Public module files} *)

module Header : sig
  val size : int  (** one page *)

  val is_module_file : Segment.t -> bool
  val template : Segment.t -> string
  val nrelocs : Segment.t -> int
  val applied : Segment.t -> int -> bool
  val set_applied : Segment.t -> int -> unit
  val fully_linked : Segment.t -> bool
end

(** [create_public_file ctx ~template_path ~obj ~module_path] creates
    the module file, writes the header and the placed image, applies
    the template's {e internal} relocations (those whose symbol the
    template itself defines), and returns the module's base address.

    Creation is transactional: the header magic is written {e last} (the
    commit point — until then [Header.is_module_file] is false), the
    whole sequence is bracketed by an [Fs.Intent_module] journal entry,
    and a recoverable failure mid-way removes the partial file before
    re-raising.  A simulated crash leaves the partial file plus the
    pending intent for [Fs.fsck] to roll back.
    @raise Link_error if the paths are off the shared partition, the
    template uses $gp, or the image exceeds the 1 MB slot. *)
val create_public_file :
  Search.ctx -> template_path:string -> obj:Objfile.t -> module_path:string -> int

(** [public_instance ctx ~module_path ~scope] builds the instance
    record for an existing module file (parsing its template for the
    symbol table). *)
val public_instance : Search.ctx -> module_path:string -> scope:scope -> t

(** [private_instance ~located ~obj ~base ~scope ()] copies the template
    into a fresh segment placed at [base] (caller maps it).  [src] is the
    template's content identity (see [inst_src]); callers that resolve
    symbols through link plans must supply it.

    With [Segment.cow_enabled] and a known [src], the placed image is
    built once per template identity and every instance gets a
    refcount-sharing [Segment.copy] of that pristine master: O(pages)
    instead of re-placing the sections, with relocation writes
    diverging pages copy-on-write. *)
val private_instance :
  ?src:int * int -> located:string -> obj:Objfile.t -> base:int -> scope:scope -> unit -> t

(** Drop the calling domain's placed-master memo (reboot: masters are
    kernel-resident host state; dropping them only costs future COW
    sharing). *)
val clear_placed_masters : unit -> unit
