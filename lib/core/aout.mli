(** The executable (a.out) format produced by lds.

    Besides the merged private static image, the file carries everything
    the paper says lds must "save in an explicit data structure" because
    the stock IRIX ld would not: retained relocation records for the
    image, the dynamic-module descriptors, the static public module
    addresses, and the static-link-time search directory list for ldl's
    run-time search rule. *)

type dyn_descr = {
  dd_name : string;  (** as given to lds: bare name or path *)
  dd_class : Sharing.t;  (** Dynamic_private or Dynamic_public *)
}

type static_pub = {
  sp_template : string;  (** template path as located by lds *)
  sp_module : string;  (** created module file (template minus ".o") *)
  sp_base : int;  (** its global base address *)
}

type t = {
  entry_off : int;  (** image offset of _start *)
  text : Bytes.t;  (** merged text, veneer pool included *)
  data : Bytes.t;
  bss_size : int;
  veneer_off : int;  (** veneer pool offset within the image *)
  veneer_cap : int;  (** number of 16-byte veneer slots *)
  symbols : (string * int) list;  (** exported name -> image offset *)
  pending : Hemlock_obj.Objfile.reloc list;
      (** retained relocations lds could not resolve statically;
          [rel_offset] is image-relative *)
  dynamics : dyn_descr list;
  static_pubs : static_pub list;
  static_dirs : string list;  (** where lds searched, for ldl *)
  gp_base_off : int option;  (** image offset $gp points at, if any *)
}

(** Base virtual address at which the image is mapped (page 0 is left
    unmapped to catch null dereferences). *)
val image_base : int

(** Region of the private address space in which ldl places dynamic
    private module instances. *)
val private_arena_lo : int

val private_arena_hi : int

(** text + data + bss extent of the image in bytes. *)
val image_size : t -> int

(** Image offset of the first binding of this name in [symbols]. *)
val find_symbol : t -> string -> int option

val serialize : t -> Bytes.t

(** @raise Failure on bad magic/truncation. *)
val parse : Bytes.t -> t

(** Quick magic check, for the binfmt loader. *)
val looks_like : Bytes.t -> bool

(** Human-readable summary (the exedump view). *)
val pp : Format.formatter -> t -> unit
