(** Deterministic fault injection.

    The simulator's failure story has to be as reproducible as its happy
    path: a fault either fires at a precisely chosen point or not at
    all, so a failing seed can be replayed forever.  The engine keeps a
    per-site hit counter; a {e plan} arms a site to fire at its Nth hit,
    either as a recoverable error ([Injected], which every kernel
    boundary maps to an errno) or as a simulated {e crash} ([Crash],
    which abandons the operation mid-flight — whatever was mutated so
    far stays mutated, exactly like power loss between disk writes).

    When no plan is armed, {!hit} is a single branch on a [bool ref] —
    the fault layer compiles into production paths at zero simulated and
    near-zero host cost, and E1–E13 outputs are byte-identical.

    Plans come from {!configure}/{!configure_random}, called by the
    test suite.  Every firing is counted in {!Stats.t.faults_injected}.

    Canonical site names (the boundaries that inject; see DESIGN.md):
    [fs.create], [fs.create.mid], [fs.create.commit], [fs.write],
    [fs.append], [fs.rename], [fs.rename.mid], [fs.rename.commit],
    [fs.unlink], [fs.unlink.mid], [vfs.open], [vfs.read], [vfs.write],
    [vfs.lseek], [vfs.close], [seg.grow], [ldl.instantiate],
    [ldl.instantiate.mid], [plan.replay], [mod.create],
    [mod.create.mid], [ipc.send], [fs.stable], [fs.pageout],
    [net.send], [net.deliver], and [fs.fsck] (before each intent
    [Fs.fsck] recovers). *)

type failure = Eio | Enospc | Eagain

(** A recoverable injected failure.  Kernel boundaries catch this and
    answer with the mapped errno; it must never escape the trap
    pipeline. *)
exception Injected of { site : string; failure : failure }

(** A simulated crash: the operation stops dead between two of its
    steps.  Raising disarms the engine (the machine has stopped), so
    unwind code runs injection-free.  Harnesses catch this at the
    operation boundary and then model reboot: [Fs.rescan_shared]
    followed by [Fs.fsck]. *)
exception Crash of { site : string }

(** [hit site] advances [site]'s counter and fires the armed action, if
    any, whose countdown has expired.

    Hit counters are {e per-domain} (the armed plan itself is shared,
    written only between parallel regions): each domain advances an
    independent deterministic stream of ordinals, so ["site@3=crash"]
    fires at the third hit on whichever domain reaches three first —
    reproducible under any fixed machine-to-domain partition. *)
val hit : string -> unit

(** Hits so far at a site on the calling domain (0 when the engine is
    idle). *)
val hits : string -> int

(** [configure plan] arms a plan and resets all counters.  Grammar:
    [site@N=kind] joined by [,] or [;], where [N ≥ 1] is the hit ordinal
    and [kind] is [eio], [enospc], [eagain] or [crash] — e.g.
    ["fs.write@3=eio,plan.replay@1=crash"].
    @raise Invalid_argument on a malformed plan. *)
val configure : string -> unit

(** [configure_random ~sites seed] derives a small plan (1–2 arms over
    [sites]) from the PRNG — the seed alone reproduces the run. *)
val configure_random : sites:string array -> int -> unit

(** Disarm and reset the calling domain's counters.  Call only between
    parallel regions (the plan tables are read-only while worker
    domains run). *)
val clear : unit -> unit

val failure_name : failure -> string
