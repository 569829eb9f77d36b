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
  (* Stable-linking observability.  Persisted link plans under
     /shared/.stable: files written by an explicit sync, read back after
     a reboot, rejected (and reaped) when stale or corrupt.  The
     persisted writes are billed like any other file write at sync
     time; these counters are host-side observability and excluded
     from [cycles]. *)
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
  (* Network observability.  Reliable-send retransmits, counted by
     [Cluster]; each datagram's fate is counted per machine by [Net]'s
     own telemetry.  Excluded from [cycles] — the default [ideal]
     profile must leave the cost model byte-identical to the loss-free
     bus it replaces. *)
  mutable net_retransmits : int;
  (* Copy-on-write observability.  [pages_copied]/[bytes_saved] measure
     how much copying COW actually performed vs avoided; [cow_faults]
     counts the kernel-internal protection faults that break mapping-level
     sharing.  All three are excluded from [cycles]: COW shows up in the
     bill only as the fork and exec copies it moves from [bytes_copied]
     into [bytes_saved], and the golden transcripts must stay
     byte-identical with the [cow] switch on or off. *)
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
     all six stay excluded from [cycles] and the golden transcripts
     are byte-identical with the [pager] switch on or off and under any
     RAM budget.  [resident_pages] is a gauge (current pageable
     resident set), not a cumulative count, and [peak_resident_pages]
     its high-water mark since [Vm_object.reset]. *)
  mutable major_faults : int;
  mutable minor_faults : int;
  mutable pages_evicted : int;
  mutable pages_written_back : int;
  mutable resident_pages : int;
  mutable peak_resident_pages : int;
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
    peak_resident_pages = 0;
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

(* The cumulative counters, each once: its [to_json] name, how to read
   it and how to set it.  [merge_into], [reset], [diff] and [to_json]
   walk this table, so a counter added to the record needs one row
   here.  The [resident_pages] gauge and its peak are not counters and
   keep their own rules below. *)
let counters : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("instructions", (fun t -> t.instructions), fun t v -> t.instructions <- v);
    ("syscalls", (fun t -> t.syscalls), fun t v -> t.syscalls <- v);
    ("bytes_copied", (fun t -> t.bytes_copied), fun t v -> t.bytes_copied <- v);
    ("faults", (fun t -> t.faults), fun t v -> t.faults <- v);
    ("pages_mapped", (fun t -> t.pages_mapped), fun t v -> t.pages_mapped <- v);
    ("modules_linked", (fun t -> t.modules_linked), fun t v -> t.modules_linked <- v);
    ("relocs_applied", (fun t -> t.relocs_applied), fun t v -> t.relocs_applied <- v);
    ("symbols_resolved", (fun t -> t.symbols_resolved), fun t v -> t.symbols_resolved <- v);
    ("files_opened", (fun t -> t.files_opened), fun t v -> t.files_opened <- v);
    ("messages_sent", (fun t -> t.messages_sent), fun t v -> t.messages_sent <- v);
    ("context_switches", (fun t -> t.context_switches), fun t v -> t.context_switches <- v);
    ("tlb_hits", (fun t -> t.tlb_hits), fun t v -> t.tlb_hits <- v);
    ("tlb_misses", (fun t -> t.tlb_misses), fun t v -> t.tlb_misses <- v);
    ("decode_hits", (fun t -> t.decode_hits), fun t v -> t.decode_hits <- v);
    ("sym_hash_hits", (fun t -> t.sym_hash_hits), fun t v -> t.sym_hash_hits <- v);
    ("sym_hash_misses", (fun t -> t.sym_hash_misses), fun t v -> t.sym_hash_misses <- v);
    ("plan_hits", (fun t -> t.plan_hits), fun t v -> t.plan_hits <- v);
    ("plan_misses", (fun t -> t.plan_misses), fun t v -> t.plan_misses <- v);
    ("search_cache_hits", (fun t -> t.search_cache_hits), fun t v -> t.search_cache_hits <- v);
    ("stable_persists", (fun t -> t.stable_persists), fun t v -> t.stable_persists <- v);
    ("stable_loads", (fun t -> t.stable_loads), fun t v -> t.stable_loads <- v);
    ("stable_rejects", (fun t -> t.stable_rejects), fun t v -> t.stable_rejects <- v);
    ("faults_injected", (fun t -> t.faults_injected), fun t v -> t.faults_injected <- v);
    ("journal_replays", (fun t -> t.journal_replays), fun t v -> t.journal_replays <- v);
    ("journal_rollbacks", (fun t -> t.journal_rollbacks), fun t v -> t.journal_rollbacks <- v);
    ("link_rollbacks", (fun t -> t.link_rollbacks), fun t v -> t.link_rollbacks <- v);
    ("plan_fallbacks", (fun t -> t.plan_fallbacks), fun t v -> t.plan_fallbacks <- v);
    ("ipc_retries", (fun t -> t.ipc_retries), fun t v -> t.ipc_retries <- v);
    ("net_retransmits", (fun t -> t.net_retransmits), fun t v -> t.net_retransmits <- v);
    ("cow_faults", (fun t -> t.cow_faults), fun t v -> t.cow_faults <- v);
    ("pages_copied", (fun t -> t.pages_copied), fun t v -> t.pages_copied <- v);
    ("bytes_saved", (fun t -> t.bytes_saved), fun t v -> t.bytes_saved <- v);
    ("jit_compiles", (fun t -> t.jit_compiles), fun t v -> t.jit_compiles <- v);
    ("jit_hits", (fun t -> t.jit_hits), fun t v -> t.jit_hits <- v);
    ("jit_exits", (fun t -> t.jit_exits), fun t v -> t.jit_exits <- v);
    ("jit_invalidations", (fun t -> t.jit_invalidations), fun t v -> t.jit_invalidations <- v);
    ("major_faults", (fun t -> t.major_faults), fun t v -> t.major_faults <- v);
    ("minor_faults", (fun t -> t.minor_faults), fun t v -> t.minor_faults <- v);
    ("pages_evicted", (fun t -> t.pages_evicted), fun t v -> t.pages_evicted <- v);
    ("pages_written_back", (fun t -> t.pages_written_back), fun t v -> t.pages_written_back <- v);
  ]

let merge_into ~into t =
  List.iter (fun (_, get, set) -> set into (get into + get t)) counters;
  (* the merged gauge is the sum of the domains' live resident sets *)
  into.resident_pages <- into.resident_pages + t.resident_pages;
  into.peak_resident_pages <- max into.peak_resident_pages into.resident_pages

(* [resident_pages] and its peak deliberately survive [reset]: the gauge
   tracks live pager state, not a count accumulated inside a measured
   region. *)
let reset () = List.iter (fun (_, _, set) -> set global 0) counters

let snapshot () = { global with instructions = global.instructions }

(* A fresh record: the counters' differences, [after]'s gauge and peak. *)
let diff ~before ~after =
  let d = { after with instructions = 0 } in
  List.iter (fun (_, get, set) -> set d (get after - get before)) counters;
  d

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
   One row per counter, then the gauge ([peak_resident_pages] is left
   out: perfbench reports it as [vm_object.peak_resident]).  perfbench
   traces embed [to_json] snapshots; linkstat dumps embed them next to
   per-symbol resolution provenance. *)

let to_json t =
  let field name v = Printf.sprintf "\"%s\": %d" name v in
  Printf.sprintf "{ %s }"
    (String.concat ", "
       (List.map (fun (name, get, _) -> field name (get t)) counters
       @ [ field "resident_pages" t.resident_pages ]))
