(** An SPMD pool over OCaml 5 domains with lockstep rounds.

    The calling domain is worker [0]; [create ~domains:n] spawns [n - 1]
    additional domains that sleep between rounds.  [round] runs one job
    on every worker and acts as a full barrier: it returns only after
    all [n] shares have completed, so consecutive rounds never overlap.

    With [domains = 1] the pool spawns nothing and [round] is a plain
    call — the deterministic single-domain oracle costs no
    synchronisation at all.

    Each worker domain accumulates into its own {!Stats.cur} record;
    {!shutdown} joins the workers in index order and merges their
    records into the caller's, so merged totals are reproducible for
    any domain count given the same work partition. *)

type t

(** [create ~domains] spawns [domains - 1] worker domains.
    @raise Invalid_argument if [domains < 1]. *)
val create : domains:int -> t

(** [round t f] runs [f w] for every worker index [w] in
    [0 .. domains - 1] — [f 0] on the calling domain, the rest on the
    pool's domains — and returns once all have finished.  If any share
    raises, [round] still waits for the full barrier, then re-raises
    the exception from the lowest worker index (deterministic under
    races).  Jobs must not call [round] or [shutdown] on the same
    pool. *)
val round : t -> (int -> unit) -> unit

(** Ask the workers to exit, join them in index order, and fold each
    worker's {!Stats.cur} record into the calling domain's via
    {!Stats.merge_into}.  Idempotent.  The pool is unusable
    afterwards. *)
val shutdown : t -> unit
