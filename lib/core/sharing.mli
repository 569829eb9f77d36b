(** The four sharing classes of Table 1.

    {v
    Sharing class     When linked       New instance    Default portion
                                        per process?    of address space
    --------------    ---------------   ------------    ----------------
    Static private    static link time  yes             private
    Dynamic private   run time          yes             private
    Static public     static link time  no              public
    Dynamic public    run time          no              public
    v} *)

type t = Static_private | Dynamic_private | Static_public | Dynamic_public

type link_time = Static_link_time | Run_time

type portion = Private | Public

val link_time : t -> link_time

(** Whether each process gets (and destroys) its own instance. *)
val instance_per_process : t -> bool

val portion : t -> portion
val is_public : t -> bool
val to_string : t -> string

(** Parse "static-private", "dp", "sp", ... as accepted by the lds
    command line. *)
val of_string : string -> t option

val pp : Format.formatter -> t -> unit

(** The rows of Table 1, for the E1 harness. *)
val all : t list
