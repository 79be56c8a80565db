(** Multithreaded sweep: the staged engine fanned out over OCaml 5
    domains. The outermost loop — level 0 of the DAG, exactly where the
    paper says parallelization belongs (Section X-B) — is decomposed
    into contiguous blocks with {!Plan.chunk_outer}; many more chunks
    than domains are produced and a shared atomic cursor hands them out,
    so a domain whose chunk was pruned empty immediately steals the next
    one instead of idling while a skewed sibling finishes. Each chunk
    run is traced as its own [sweep:chunk] span, making the load balance
    visible in a Chrome/Perfetto trace.

    Completed chunks land in a ledger that can be checkpointed to disk
    and resumed from. Steps placed before the first loop (depth-0
    derived variables and constraints) execute once per chunk; their
    prune counters are de-duplicated by {!merge}, so the reported
    statistics match a sequential run exactly — totals, per-constraint
    fired counts and loop iterations are all identical to
    {!Engine_staged.run}. *)

val chunks_per_domain : int
(** 8: enough chunks that one skewed block cannot dominate a domain,
    few enough that per-chunk compilation stays invisible. A fresh run
    splits the outer loop into [domains * chunks_per_domain] chunks. *)

val merge : Plan.t -> Engine.stats list -> Engine.stats
(** Combine the statistics of disjoint outer-loop pieces of [plan]
    (chunks from {!Plan.chunk_outer} or slices from {!Plan.slice_outer})
    into those of one sweep over [plan]: counters are summed, except
    that depth-0 constraints, which every piece evaluates, keep the
    largest single count.
    @raise Invalid_argument on an empty list. *)

val interrupt : unit -> unit
(** Request a graceful stop of the {!run} in flight: each worker
    finishes the chunk it is running (the ledger only ever holds
    complete chunks), a final checkpoint is flushed, and the run returns
    {!Engine_intf.Interrupted}. Async-signal-safe — this is what the
    CLI's SIGINT/SIGTERM handlers call. *)

val run :
  ?on_hit:Engine.on_hit ->
  ?checkpoint:Engine_intf.checkpoint_sink ->
  ?resume:Checkpoint.t ->
  ?fault:Run_config.fault ->
  domains:int ->
  Plan.t ->
  Engine_intf.outcome
(** Chunked work-stealing sweep over [domains] domains. [on_hit] may be
    invoked from any domain but invocations are serialized behind an
    internal mutex, so the callback need not be thread-safe (it must not
    call back into the sweep, or it will deadlock).

    [resume] seeds the ledger with the checkpoint's completed chunks
    (and fixes the chunk-split arity to the file's [n_chunks], so a
    resume may use a different domain count); only the missing chunks
    are swept. [checkpoint] snapshots the ledger atomically at most once
    per [ck_every_s] seconds, and once more on interruption. Because
    chunk merging is commutative and associative, an
    interrupted-then-resumed run produces stats equal to an
    uninterrupted one — byte-identical through {!Stats_io.to_json}.
    [fault] makes chunk attempts crash deterministically (drawn from the
    seed, chunk id and attempt number, decided {e before} the chunk runs
    so [on_hit] stays exactly-once); crashed chunks are retried until
    they complete.

    If a chunk raises, the other workers stop after the chunk they are
    running, every domain is joined, and the first exception is
    re-raised with its backtrace: no [on_hit] call happens after [run]
    has raised, and a failure is never reported as [Interrupted].
    @raise Invalid_argument on bad [domains] or crash probability.
    @raise Failure if one chunk crashes 1000 attempts in a row. *)
