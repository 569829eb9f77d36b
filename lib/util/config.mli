(** The switchboard: one record with a field per simulator fast path,
    and the only reader of the process environment in the libraries.

    Each fast path has a reference path it must be indistinguishable
    from: programs see the same consoles, exit codes and [/shared]
    tree, and every {!Stats.cycles} term is billed the same.  The one
    exception is [cow], which moves fork and exec copies from
    [bytes_copied] into [bytes_saved] and so lowers [cycles] by exactly
    the [bytes_copied] it saves.  {!oracle} runs every reference path;
    the oracle test compares it with generated configurations on
    generated kernel workloads. *)

type t = {
  mutable tlb : bool;  (** software TLB, read by [Address_space.create] *)
  mutable jit : bool;  (** trace JIT ([Trace]) *)
  mutable symhash : bool;
      (** ldl's per-scope export index; off, each lookup walks the
          scope's module list linearly *)
  mutable plans : bool;  (** link-plan record and replay ([Link_plan]) *)
  mutable cow : bool;  (** copy-on-write fork, clone and exec *)
  mutable pager : bool;
      (** demand paging and bounded RAM ([Vm_object]); off, every page
          is resident *)
}

(** Every fast path on: the default. *)
val all_on : t

(** Every fast path off: the reference configuration. *)
val oracle : t

(** The live switchboard the fast paths read.  It starts as {!oracle}
    under [HEMLOCK_ORACLE=1] and as {!all_on} otherwise.  Change it only
    through {!with_}. *)
val current : t

(** [with_ c f] copies [c]'s fields into {!current}, runs [f], and puts
    the previous values back when [f] returns or raises. *)
val with_ : t -> (unit -> 'a) -> 'a

(** The settings a CI row may export. *)
type env = {
  use_oracle : bool;  (** [HEMLOCK_ORACLE]: unset, empty or [1] *)
  jit_threshold : int option;  (** [HEMLOCK_JIT_THRESHOLD], an integer >= 1 *)
  ram_pages : int option;
      (** [HEMLOCK_RAM_PAGES], an integer >= 1; unset means unbounded RAM *)
  domains : int;  (** [HEMLOCK_DOMAINS], an integer >= 1; default 1 *)
  net_profile : string;
      (** [HEMLOCK_NET_PROFILE]: [ideal] (default), [lan], [wan] or [lossy] *)
}

(** [parse lookup] reads the five variables through [lookup].  Blank
    values count as unset.
    @raise Invalid_argument naming the variable and its value when a
    value is malformed or out of range. *)
val parse : (string -> string option) -> env

(** [parse Sys.getenv_opt], taken once at startup. *)
val env : env
