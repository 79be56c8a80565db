(** The staged engine: the loop-nest plan compiled to nested OCaml
    closures ahead of the sweep, so the enumeration hot path executes no
    interpretive dispatch on names — the in-process equivalent of the
    paper's generated C backend (Section XI-D).

    Expressions become [unit -> int] closures over a shared slot array;
    loops become [while] closures; a firing constraint abandons the
    continuation for its subtree. [And]/[Or]/[If] keep short-circuit
    semantics (Section VIII-A).

    Without tracing, metrics or provenance installed, a loop that
    {!Plan.solved_loop} recognizes jumps to the one value its first
    check lets through and accounts the skipped values as entered and
    fired, so statistics and [on_hit] order equal an iterating
    engine's. *)

val run : ?on_hit:Engine.on_hit -> Plan.t -> Engine.stats
(** One full sweep. Raises [Expr.Eval_error] on a zero-step range and
    [Division_by_zero] if a body divides by zero. *)

val run_space : ?on_hit:Engine.on_hit -> Space.t -> Engine.stats
(** Convenience: plan (with hoisting) and run.
    @raise Plan.Error if the space does not plan. *)
