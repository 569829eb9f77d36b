(** Disassembly of encoded text sections, for objdump-style tooling and
    linker debugging. *)

(** [line ~pc word] is one listing line: address, raw word, mnemonic.
    Undecodable words render as [<data?>]. *)
val line : pc:int -> int -> string

(** [text ~base bytes] disassembles a whole text section laid out at
    virtual address [base]. *)
val text : base:int -> Bytes.t -> string

(** [jump_targets bytes] is the set of word offsets that are targets of
    direct jumps within the section (useful for spotting veneers). *)
val jump_targets : base:int -> Bytes.t -> int list
