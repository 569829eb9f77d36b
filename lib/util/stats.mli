(** Deterministic cost accounting for the simulator.

    The paper reports wall-clock effects of replacing files and messages
    with shared memory; our substrate is an interpreter, so experiments
    report these deterministic counters (perfbench times the simulator
    itself).  Counters are global; the benchmark harness resets them
    around each measured region. *)

type t = {
  mutable instructions : int;  (** ISA instructions retired *)
  mutable syscalls : int;  (** kernel traps *)
  mutable bytes_copied : int;  (** memcpy work: file I/O, messages, fork *)
  mutable faults : int;  (** access faults delivered to handlers *)
  mutable pages_mapped : int;  (** pages added to an address space *)
  mutable modules_linked : int;  (** modules relocated+resolved *)
  mutable relocs_applied : int;
  mutable symbols_resolved : int;
  mutable files_opened : int;
  mutable messages_sent : int;
  mutable context_switches : int;
  mutable tlb_hits : int;
      (** software-TLB hits in [Address_space] (observability only) *)
  mutable tlb_misses : int;
      (** software-TLB misses, i.e. full interval-map lookups *)
  mutable decode_hits : int;
      (** words [Cpu.step] fetched and decoded: every instruction no
          compiled trace ran, and again each load or store retried
          after a pager or COW fault (observability only) *)
  mutable sym_hash_hits : int;
      (** scope lookups answered by ldl's per-scope export index
          (observability only) *)
  mutable sym_hash_misses : int;
      (** always 0: a scope-index miss walks on instead.  Kept while
          perfbench reports it as [objfile.sym_hash_misses] *)
  mutable plan_hits : int;  (** link passes replayed from a memoized plan *)
  mutable plan_misses : int;
      (** link passes that ran cold (no plan, or plan rejected) *)
  mutable search_cache_hits : int;
      (** always 0: [Search.locate] keeps no cache.  Kept while
          perfbench reports it as [search.cache_hits] *)
  mutable stable_persists : int;
      (** link plans written under [/shared/.stable]
          by a stable-link sync (the writes themselves are billed as
          ordinary file writes; this counts the persisted files) *)
  mutable stable_loads : int;
      (** plans read back from [/shared/.stable] at a reboot, counted
          at each one's first verified replay (observability only) *)
  mutable stable_rejects : int;
      (** persisted plan files rejected — corrupt, truncated,
          key/digest mismatch, or a replay that fails verification — and
          reaped *)
  mutable faults_injected : int;
      (** {!Fault} firings (injected errors and simulated crashes);
          zero unless a fault plan is armed *)
  mutable journal_replays : int;
      (** intent-journal entries [Fs.fsck] rolled forward at recovery *)
  mutable journal_rollbacks : int;
      (** intent-journal entries [Fs.fsck] rolled back at recovery *)
  mutable link_rollbacks : int;
      (** partial module instantiations the linker unwound after a
          mid-instantiation failure *)
  mutable plan_fallbacks : int;
      (** link-plan replays abandoned mid-way for the cold path *)
  mutable ipc_retries : int;  (** [pd_call] retries after transient EAGAIN *)
  mutable net_retransmits : int;
      (** reliable-send retransmissions after an ack timeout.  Each
          datagram's fate (delivered, dropped, duplicated) is counted
          per machine by [Net.telemetry] alone *)
  mutable cow_faults : int;
      (** protection faults resolved inside the kernel by breaking a
          copy-on-write mapping (never delivered to user handlers, never
          billed to [faults]) *)
  mutable pages_copied : int;
      (** 4 KiB pages physically copied when a write diverged from a
          COW-shared page (observability only — excluded from [cycles]) *)
  mutable bytes_saved : int;
      (** bytes a [Segment.copy] shared by reference counting instead of
          copying (fork, exec and module-instantiation images) *)
  mutable jit_compiles : int;
      (** traces compiled by the trace JIT, recompiles included
          (observability only — excluded from [cycles]) *)
  mutable jit_hits : int;
      (** trace-cache entries that ran a compiled trace, resumes of a
          trace stopped at the end of a quantum included *)
  mutable jit_exits : int;
      (** guard side exits taken out of compiled traces back into the
          interpreter (conditional branches, unknown indirect targets,
          code-version changes); running out of fuel is not one *)
  mutable jit_invalidations : int;
      (** compiled traces discarded because their code bytes or mapping
          geometry changed (self-modifying code, remapping, COW breaks) *)
  mutable major_faults : int;
      (** pager faults whose page had backing content to "read in" (a
          file-backed page already written on the shared partition);
          resolved inside the kernel like COW — never delivered, never
          billed to [faults], excluded from [cycles] *)
  mutable minor_faults : int;
      (** pager faults satisfied by zero-fill or an in-memory page
          (anonymous stacks/heaps, untouched file tails) *)
  mutable pages_evicted : int;
      (** resident pages reclaimed by the clock hand under a bounded
          [HEMLOCK_RAM_PAGES] budget *)
  mutable pages_written_back : int;
      (** evicted dirty file-backed pages pushed through the intent
          journal's durability barrier before reclaim *)
  mutable resident_pages : int;
      (** gauge (not cumulative): pageable pages currently resident.
          [diff] reports the [after] side's gauge, and [reset] leaves
          it alone — it tracks live pager state, not a measured delta. *)
  mutable peak_resident_pages : int;
      (** high-water mark of [resident_pages] since [Vm_object.reset],
          which zeroes both; [diff] and [reset] treat it like the gauge.
          Not in {!to_json}: perfbench reports it as
          [vm_object.peak_resident]. *)
}

(** The main domain's counter set.  On the main domain [cur () == global];
    tests and benchmarks that read [global] directly keep working. *)
val global : t

(** The calling domain's counter record.  The main domain's record is
    [global]; each worker domain gets an independent zeroed record, so
    counting never contends across domains.  Worker records are merged
    into the spawner's record — in worker-index order — when a
    {!Domain_pool} shuts down. *)
val cur : unit -> t

(** [merge_into ~into t] adds every counter of [t] into [into], adds
    [t]'s [resident_pages] gauge to [into]'s (the sum of the domains'
    live resident sets), and raises [into]'s peak to the merged gauge.
    The totals are order-independent; the pool still fixes worker-index
    order as the documented contract. *)
val merge_into : into:t -> t -> unit

(** Zero every counter of {!global}; the [resident_pages] gauge and its
    peak are left alone. *)
val reset : unit -> unit

(** An independent snapshot of the current totals. *)
val snapshot : unit -> t

(** [diff ~before ~after] is a fresh record holding each counter's
    difference, and [after]'s [resident_pages] gauge and peak. *)
val diff : before:t -> after:t -> t

(** Abstract "simulated time" of a snapshot: a fixed linear cost model
    over the counters (instructions + weighted syscall/copy/fault costs),
    in simulated cycles.  Used to compare alternatives on one axis. *)
val cycles : t -> int

val pp : Format.formatter -> t -> unit

(** [measure f] runs [f ()] and returns its result together with the
    counter deltas it produced. *)
val measure : (unit -> 'a) -> 'a * t

(** Flat JSON object mapping every counter name to its value, then the
    [resident_pages] gauge (not its peak), e.g.
    [{ "instructions": 123, ... }].  Embedded by perfbench's traces and
    by the linkstat dump. *)
val to_json : t -> string
