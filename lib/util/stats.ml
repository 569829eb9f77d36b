type t = {
  mutable instructions : int;
  mutable syscalls : int;
  mutable bytes_copied : int;
  mutable faults : int;
  mutable pages_mapped : int;
  mutable modules_linked : int;
  mutable relocs_applied : int;
  mutable symbols_resolved : int;
  mutable files_opened : int;
  mutable messages_sent : int;
  mutable context_switches : int;
  (* Fast-path observability.  These count host-side cache behaviour of
     the simulator itself and are deliberately excluded from [cycles]:
     the simulated cost model must be byte-identical with the caches on
     or off. *)
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable decode_hits : int;
  mutable sym_hash_hits : int;
  mutable sym_hash_misses : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable search_cache_hits : int;
  (* Stable-linking observability.  Persisted link plans and symbol
     indexes under /shared/.stable: files written by an explicit sync,
     loaded lazily after a reboot, rejected (and reaped) when stale or
     corrupt.  The persisted writes are billed like any other file
     write at sync time; these counters are host-side observability and
     excluded from [cycles]. *)
  mutable stable_persists : int;
  mutable stable_loads : int;
  mutable stable_rejects : int;
  (* Robustness observability.  Counted by the fault-injection engine
     and the recovery machinery; all zero when no plan is armed, and —
     like the fast-path counters — excluded from [cycles]. *)
  mutable faults_injected : int;
  mutable journal_replays : int;
  mutable journal_rollbacks : int;
  mutable link_rollbacks : int;
  mutable plan_fallbacks : int;
  mutable ipc_retries : int;
  (* Network observability.  Counted by the simulated network layer
     ([Net]/[Cluster]): datagram fates and reliable-send retransmits.
     Excluded from [cycles] — delivered traffic is already billed as
     [messages_sent]/[bytes_copied] on the delivering domain, and the
     default [ideal] profile must leave the cost model byte-identical
     to the loss-free bus it replaces. *)
  mutable net_delivered : int;
  mutable net_dropped : int;
  mutable net_duplicated : int;
  mutable net_retransmits : int;
  (* Copy-on-write observability.  [pages_copied]/[bytes_saved] measure
     how much copying COW actually performed vs avoided; [cow_faults]
     counts the kernel-internal protection faults that break mapping-level
     sharing.  All three are excluded from [cycles]: COW is a semantic
     optimization whose *billed* costs show up as the bytes_copied and
     faults it no longer incurs, and the golden transcripts must stay
     byte-identical with HEMLOCK_NO_COW on or off. *)
  mutable cow_faults : int;
  mutable pages_copied : int;
  mutable bytes_saved : int;
  (* Trace-JIT observability.  Host-side compilation behaviour of the
     trace compiler; excluded from [cycles] — the JIT must leave the
     simulated cost model byte-identical to the interpreter. *)
  mutable jit_compiles : int;
  mutable jit_hits : int;
  mutable jit_exits : int;
  mutable jit_invalidations : int;
  (* Demand-paging observability.  The pager resolves [Not_resident]
     faults inside the kernel, like COW: user programs never observe
     them, [faults] never counts them, and they consume no fuel — so
     all five stay excluded from [cycles] and the golden transcripts
     are byte-identical with HEMLOCK_NO_PAGER on or off and under any
     HEMLOCK_RAM_PAGES.  [resident_pages] is a gauge (current pageable
     resident set), not a cumulative count. *)
  mutable major_faults : int;
  mutable minor_faults : int;
  mutable pages_evicted : int;
  mutable pages_written_back : int;
  mutable resident_pages : int;
}

let zero () =
  {
    instructions = 0;
    syscalls = 0;
    bytes_copied = 0;
    faults = 0;
    pages_mapped = 0;
    modules_linked = 0;
    relocs_applied = 0;
    symbols_resolved = 0;
    files_opened = 0;
    messages_sent = 0;
    context_switches = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    decode_hits = 0;
    sym_hash_hits = 0;
    sym_hash_misses = 0;
    plan_hits = 0;
    plan_misses = 0;
    search_cache_hits = 0;
    stable_persists = 0;
    stable_loads = 0;
    stable_rejects = 0;
    faults_injected = 0;
    journal_replays = 0;
    journal_rollbacks = 0;
    link_rollbacks = 0;
    plan_fallbacks = 0;
    ipc_retries = 0;
    net_delivered = 0;
    net_dropped = 0;
    net_duplicated = 0;
    net_retransmits = 0;
    cow_faults = 0;
    pages_copied = 0;
    bytes_saved = 0;
    jit_compiles = 0;
    jit_hits = 0;
    jit_exits = 0;
    jit_invalidations = 0;
    major_faults = 0;
    minor_faults = 0;
    pages_evicted = 0;
    pages_written_back = 0;
    resident_pages = 0;
  }

let global = zero ()

(* --- per-domain counters ---------------------------------------------
   Every domain owns a private counter record reached through [cur];
   the main domain's record {e is} [global], so single-domain code (and
   every existing test and benchmark) observes exactly the seed's
   behaviour.  Worker domains start from zero and are merged into the
   spawner's record in worker-index order when a domain pool shuts
   down — all fields are sums, so the merged totals are independent of
   the host interleaving. *)

let dls_key = Domain.DLS.new_key zero

let () = Domain.DLS.set dls_key global

let cur () = Domain.DLS.get dls_key

let merge_into ~into t =
  into.instructions <- into.instructions + t.instructions;
  into.syscalls <- into.syscalls + t.syscalls;
  into.bytes_copied <- into.bytes_copied + t.bytes_copied;
  into.faults <- into.faults + t.faults;
  into.pages_mapped <- into.pages_mapped + t.pages_mapped;
  into.modules_linked <- into.modules_linked + t.modules_linked;
  into.relocs_applied <- into.relocs_applied + t.relocs_applied;
  into.symbols_resolved <- into.symbols_resolved + t.symbols_resolved;
  into.files_opened <- into.files_opened + t.files_opened;
  into.messages_sent <- into.messages_sent + t.messages_sent;
  into.context_switches <- into.context_switches + t.context_switches;
  into.tlb_hits <- into.tlb_hits + t.tlb_hits;
  into.tlb_misses <- into.tlb_misses + t.tlb_misses;
  into.decode_hits <- into.decode_hits + t.decode_hits;
  into.sym_hash_hits <- into.sym_hash_hits + t.sym_hash_hits;
  into.sym_hash_misses <- into.sym_hash_misses + t.sym_hash_misses;
  into.plan_hits <- into.plan_hits + t.plan_hits;
  into.plan_misses <- into.plan_misses + t.plan_misses;
  into.search_cache_hits <- into.search_cache_hits + t.search_cache_hits;
  into.stable_persists <- into.stable_persists + t.stable_persists;
  into.stable_loads <- into.stable_loads + t.stable_loads;
  into.stable_rejects <- into.stable_rejects + t.stable_rejects;
  into.faults_injected <- into.faults_injected + t.faults_injected;
  into.journal_replays <- into.journal_replays + t.journal_replays;
  into.journal_rollbacks <- into.journal_rollbacks + t.journal_rollbacks;
  into.link_rollbacks <- into.link_rollbacks + t.link_rollbacks;
  into.plan_fallbacks <- into.plan_fallbacks + t.plan_fallbacks;
  into.ipc_retries <- into.ipc_retries + t.ipc_retries;
  into.net_delivered <- into.net_delivered + t.net_delivered;
  into.net_dropped <- into.net_dropped + t.net_dropped;
  into.net_duplicated <- into.net_duplicated + t.net_duplicated;
  into.net_retransmits <- into.net_retransmits + t.net_retransmits;
  into.cow_faults <- into.cow_faults + t.cow_faults;
  into.pages_copied <- into.pages_copied + t.pages_copied;
  into.bytes_saved <- into.bytes_saved + t.bytes_saved;
  into.jit_compiles <- into.jit_compiles + t.jit_compiles;
  into.jit_hits <- into.jit_hits + t.jit_hits;
  into.jit_exits <- into.jit_exits + t.jit_exits;
  into.jit_invalidations <- into.jit_invalidations + t.jit_invalidations;
  into.major_faults <- into.major_faults + t.major_faults;
  into.minor_faults <- into.minor_faults + t.minor_faults;
  into.pages_evicted <- into.pages_evicted + t.pages_evicted;
  into.pages_written_back <- into.pages_written_back + t.pages_written_back;
  (* the gauge is per-domain clock state; the merged gauge is the sum of
     the domains' live resident sets *)
  into.resident_pages <- into.resident_pages + t.resident_pages

let reset () =
  global.instructions <- 0;
  global.syscalls <- 0;
  global.bytes_copied <- 0;
  global.faults <- 0;
  global.pages_mapped <- 0;
  global.modules_linked <- 0;
  global.relocs_applied <- 0;
  global.symbols_resolved <- 0;
  global.files_opened <- 0;
  global.messages_sent <- 0;
  global.context_switches <- 0;
  global.tlb_hits <- 0;
  global.tlb_misses <- 0;
  global.decode_hits <- 0;
  global.sym_hash_hits <- 0;
  global.sym_hash_misses <- 0;
  global.plan_hits <- 0;
  global.plan_misses <- 0;
  global.search_cache_hits <- 0;
  global.stable_persists <- 0;
  global.stable_loads <- 0;
  global.stable_rejects <- 0;
  global.faults_injected <- 0;
  global.journal_replays <- 0;
  global.journal_rollbacks <- 0;
  global.link_rollbacks <- 0;
  global.plan_fallbacks <- 0;
  global.ipc_retries <- 0;
  global.net_delivered <- 0;
  global.net_dropped <- 0;
  global.net_duplicated <- 0;
  global.net_retransmits <- 0;
  global.cow_faults <- 0;
  global.pages_copied <- 0;
  global.bytes_saved <- 0;
  global.jit_compiles <- 0;
  global.jit_hits <- 0;
  global.jit_exits <- 0;
  global.jit_invalidations <- 0;
  global.major_faults <- 0;
  global.minor_faults <- 0;
  global.pages_evicted <- 0;
  global.pages_written_back <- 0
  (* [resident_pages] deliberately survives [reset]: it is a gauge of
     live pager state, not a count accumulated inside a measured
     region. *)

let snapshot () = { global with instructions = global.instructions }

let diff ~before ~after =
  {
    instructions = after.instructions - before.instructions;
    syscalls = after.syscalls - before.syscalls;
    bytes_copied = after.bytes_copied - before.bytes_copied;
    faults = after.faults - before.faults;
    pages_mapped = after.pages_mapped - before.pages_mapped;
    modules_linked = after.modules_linked - before.modules_linked;
    relocs_applied = after.relocs_applied - before.relocs_applied;
    symbols_resolved = after.symbols_resolved - before.symbols_resolved;
    files_opened = after.files_opened - before.files_opened;
    messages_sent = after.messages_sent - before.messages_sent;
    context_switches = after.context_switches - before.context_switches;
    tlb_hits = after.tlb_hits - before.tlb_hits;
    tlb_misses = after.tlb_misses - before.tlb_misses;
    decode_hits = after.decode_hits - before.decode_hits;
    sym_hash_hits = after.sym_hash_hits - before.sym_hash_hits;
    sym_hash_misses = after.sym_hash_misses - before.sym_hash_misses;
    plan_hits = after.plan_hits - before.plan_hits;
    plan_misses = after.plan_misses - before.plan_misses;
    search_cache_hits = after.search_cache_hits - before.search_cache_hits;
    stable_persists = after.stable_persists - before.stable_persists;
    stable_loads = after.stable_loads - before.stable_loads;
    stable_rejects = after.stable_rejects - before.stable_rejects;
    faults_injected = after.faults_injected - before.faults_injected;
    journal_replays = after.journal_replays - before.journal_replays;
    journal_rollbacks = after.journal_rollbacks - before.journal_rollbacks;
    link_rollbacks = after.link_rollbacks - before.link_rollbacks;
    plan_fallbacks = after.plan_fallbacks - before.plan_fallbacks;
    ipc_retries = after.ipc_retries - before.ipc_retries;
    net_delivered = after.net_delivered - before.net_delivered;
    net_dropped = after.net_dropped - before.net_dropped;
    net_duplicated = after.net_duplicated - before.net_duplicated;
    net_retransmits = after.net_retransmits - before.net_retransmits;
    cow_faults = after.cow_faults - before.cow_faults;
    pages_copied = after.pages_copied - before.pages_copied;
    bytes_saved = after.bytes_saved - before.bytes_saved;
    jit_compiles = after.jit_compiles - before.jit_compiles;
    jit_hits = after.jit_hits - before.jit_hits;
    jit_exits = after.jit_exits - before.jit_exits;
    jit_invalidations = after.jit_invalidations - before.jit_invalidations;
    major_faults = after.major_faults - before.major_faults;
    minor_faults = after.minor_faults - before.minor_faults;
    pages_evicted = after.pages_evicted - before.pages_evicted;
    pages_written_back = after.pages_written_back - before.pages_written_back;
    resident_pages = after.resident_pages;
  }

(* Cost model, in simulated cycles.  The weights are the conventional
   order-of-magnitude ratios for early-90s RISC workstations: a syscall
   trap costs ~hundreds of instructions, a page fault delivered to a
   user-level handler ~a thousand, copies run at ~1 cycle/byte, and a
   mapping costs a VMA update (pages are populated lazily, so the
   per-page cost is small). *)
let cycles t =
  t.instructions + (400 * t.syscalls) + t.bytes_copied + (1200 * t.faults)
  + (2 * t.pages_mapped)
  + (30 * t.relocs_applied)
  + (60 * t.symbols_resolved)
  + (250 * t.files_opened)
  + (500 * t.messages_sent)
  + (150 * t.context_switches)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>instructions      %8d@,\
     syscalls          %8d@,\
     bytes copied      %8d@,\
     faults            %8d@,\
     pages mapped      %8d@,\
     modules linked    %8d@,\
     relocs applied    %8d@,\
     symbols resolved  %8d@,\
     files opened      %8d@,\
     messages sent     %8d@,\
     context switches  %8d@,\
     ~cycles           %8d@]"
    t.instructions t.syscalls t.bytes_copied t.faults t.pages_mapped
    t.modules_linked t.relocs_applied t.symbols_resolved t.files_opened
    t.messages_sent t.context_switches (cycles t)

let measure f =
  let before = snapshot () in
  let result = f () in
  let after = snapshot () in
  (result, diff ~before ~after)

(* --- JSON encoding ----------------------------------------------------
   One row per counter, so a counter added to the record needs one row
   here.  perfbench traces embed [to_json] snapshots; linkstat dumps
   embed them next to per-symbol resolution provenance. *)

let fields : (string * (t -> int)) list =
  [
    ("instructions", fun t -> t.instructions);
    ("syscalls", fun t -> t.syscalls);
    ("bytes_copied", fun t -> t.bytes_copied);
    ("faults", fun t -> t.faults);
    ("pages_mapped", fun t -> t.pages_mapped);
    ("modules_linked", fun t -> t.modules_linked);
    ("relocs_applied", fun t -> t.relocs_applied);
    ("symbols_resolved", fun t -> t.symbols_resolved);
    ("files_opened", fun t -> t.files_opened);
    ("messages_sent", fun t -> t.messages_sent);
    ("context_switches", fun t -> t.context_switches);
    ("tlb_hits", fun t -> t.tlb_hits);
    ("tlb_misses", fun t -> t.tlb_misses);
    ("decode_hits", fun t -> t.decode_hits);
    ("sym_hash_hits", fun t -> t.sym_hash_hits);
    ("sym_hash_misses", fun t -> t.sym_hash_misses);
    ("plan_hits", fun t -> t.plan_hits);
    ("plan_misses", fun t -> t.plan_misses);
    ("search_cache_hits", fun t -> t.search_cache_hits);
    ("stable_persists", fun t -> t.stable_persists);
    ("stable_loads", fun t -> t.stable_loads);
    ("stable_rejects", fun t -> t.stable_rejects);
    ("faults_injected", fun t -> t.faults_injected);
    ("journal_replays", fun t -> t.journal_replays);
    ("journal_rollbacks", fun t -> t.journal_rollbacks);
    ("link_rollbacks", fun t -> t.link_rollbacks);
    ("plan_fallbacks", fun t -> t.plan_fallbacks);
    ("ipc_retries", fun t -> t.ipc_retries);
    ("net_delivered", fun t -> t.net_delivered);
    ("net_dropped", fun t -> t.net_dropped);
    ("net_duplicated", fun t -> t.net_duplicated);
    ("net_retransmits", fun t -> t.net_retransmits);
    ("cow_faults", fun t -> t.cow_faults);
    ("pages_copied", fun t -> t.pages_copied);
    ("bytes_saved", fun t -> t.bytes_saved);
    ("jit_compiles", fun t -> t.jit_compiles);
    ("jit_hits", fun t -> t.jit_hits);
    ("jit_exits", fun t -> t.jit_exits);
    ("jit_invalidations", fun t -> t.jit_invalidations);
    ("major_faults", fun t -> t.major_faults);
    ("minor_faults", fun t -> t.minor_faults);
    ("pages_evicted", fun t -> t.pages_evicted);
    ("pages_written_back", fun t -> t.pages_written_back);
    ("resident_pages", fun t -> t.resident_pages);
  ]

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{ ";
  List.iteri
    (fun i (name, get) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" name (get t)))
    fields;
  Buffer.add_string b " }";
  Buffer.contents b
