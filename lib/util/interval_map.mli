(** Maps over half-open integer intervals [\[lo, hi)] with non-overlapping
    keys.  Used for address-space mapping tables and ldl's per-process
    index of module instances.  All operations are purely functional. *)

type 'a t

val empty : 'a t

val is_empty : 'a t -> bool

val cardinal : 'a t -> int

(** [add ~lo ~hi v t] binds the interval [\[lo, hi)] to [v].
    @raise Invalid_argument if [lo >= hi] or the interval overlaps an
    existing binding. *)
val add : lo:int -> hi:int -> 'a -> 'a t -> 'a t

(** [overlaps ~lo ~hi t] is [true] iff [\[lo, hi)] intersects any bound
    interval. *)
val overlaps : lo:int -> hi:int -> 'a t -> bool

(** [find p t] returns the binding whose interval contains point [p]. *)
val find : int -> 'a t -> (int * int * 'a) option

val mem : int -> 'a t -> bool

(** [remove p t] removes the binding whose interval contains [p] (no-op
    when there is none). *)
val remove : int -> 'a t -> 'a t

(** [update p f t] replaces the value of the binding containing [p].
    @raise Not_found when no binding contains [p]. *)
val update : int -> ('a -> 'a) -> 'a t -> 'a t

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Bindings in increasing interval order as [(lo, hi, v)]. *)
val to_list : 'a t -> (int * int * 'a) list

(** [first_gap ~lo ~hi ~size t] finds the lowest [base >= lo] such that
    [\[base, base+size)] fits inside [\[lo, hi)] without overlapping any
    binding, if one exists. *)
val first_gap : lo:int -> hi:int -> size:int -> 'a t -> int option
