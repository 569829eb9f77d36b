(** The object-file format — the "lowest common denominator for language
    implementations" on which Hemlock's linkers operate (§3).

    A template [.o] holds three sections (text, data, bss), a symbol
    table, and relocation records.  Modules are created from templates by
    relocating them to an address and resolving cross-module references.

    The on-disk encoding is a compact little-endian binary with magic
    "HOBJ"; see {!serialize} / {!parse}. *)

(** Which section a definition lives in. *)
type section = Text | Data | Bss

type binding = Local | Global

(** A defined symbol: [offset] is relative to its section's start. *)
type symbol = { sym_name : string; sym_section : section; sym_offset : int; sym_binding : binding }

(** Relocation kinds understood by the linkers:
    - [Abs32]: a 32-bit data word holding an absolute address (pointers,
      jump tables, [.word sym]);
    - [Hi16] / [Lo16]: the LUI/ORI pair of an address load;
    - [Jump26]: the 26-bit word-target field of J/JAL — only reachable
      within the enclosing 256 MB region, the R3000 limit that forces
      the linker to insert veneers (§3);
    - [Gprel16]: a 16-bit gp-relative displacement — incompatible with a
      large sparse address space, so the linkers reject it in public
      modules (§3). *)
type reloc_kind = Abs32 | Hi16 | Lo16 | Jump26 | Gprel16

(** A relocation: patch the word at [rel_offset] within [rel_section]
    using the address of [rel_symbol] plus [rel_addend].  [rel_symbol]
    may be defined locally or be an undefined external reference. *)
type reloc = {
  rel_section : section;
  rel_offset : int;
  rel_kind : reloc_kind;
  rel_symbol : string;
  rel_addend : int;
}

type t = {
  obj_name : string;  (** provenance, e.g. the template's path *)
  text : Bytes.t;
  data : Bytes.t;
  bss_size : int;
  symbols : symbol list;
  relocs : reloc list;
  uses_gp : bool;  (** compiled with gp-relative addressing enabled *)
  own_modules : string list;
      (** scoped-linking metadata optionally embedded by lds -r: the
          module's own module list (§2) *)
  own_search_path : string list;  (** ... and its own search path *)
}

val section_to_string : section -> string
val reloc_kind_to_string : reloc_kind -> string

val empty : name:string -> t

(** Total loaded size: text + data + bss, each padded to 4 bytes. *)
val load_size : t -> int

(** Offsets of each section within the loaded image (text at 0, then
    data, then bss), each aligned to 4. *)
val section_bases : t -> int * int * int

(** First defined symbol with this name, in declaration order (so a
    Local can shadow a later Global): a scan of the symbol table. *)
val find_symbol : t -> string -> symbol option

(** Global defined symbols, i.e. this module's exports. *)
val exports : t -> symbol list

(** Names referenced by relocations but not defined here — the module's
    undefined external references. *)
val undefined : t -> string list

(** [serialize t] emits the ["HOBJ"] encoding. *)
val serialize : t -> Bytes.t

(** @raise Failure on bad magic (anything but ["HOBJ"]), truncation, or
    an out-of-range section or relocation code. *)
val parse : Bytes.t -> t

val pp : Format.formatter -> t -> unit
