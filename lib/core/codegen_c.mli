(** Translation of a plan to standard C — the paper's headline backend
    (Sections X–XI): "a translation system that converts that description
    to a standard C code, which can then be compiled with a C compiler,
    executed at high speed, and multithreaded for extra performance."

    The emitted translation unit contains:
    - with [threads = 1], [beast_sweep_slice(slice_index, slice_count,
      prune_counts, loop_iterations)] called as slice 0 of 1: the plain
      nest, whose outer loop the compiler folds;
    - with [threads > 1], [beast_sweep_worker(worker, prune_counts,
      loop_iterations)]: each depth-0 loop has one [static int64_t]
      cursor, and every worker claims the next outer position with
      [__atomic_fetch_add] (relaxed) until the cursor passes the trip
      count, so each outer value runs exactly once, on whichever
      worker is free. [main] runs worker 0 itself and spawns
      [threads - 1] helpers; a helper that fails to start is skipped
      (the others drain its share) and reported on stderr;
    - steps before the first loop execute in every worker, but only
      the first pass (slice 0, worker 0) counts their statistics
      (depth-0 constraint firings and [Static_prune] replays, the
      yield of a loop-free plan), so per-worker totals sum to exactly
      the sequential run's — the invariant {!Engine_native} relies on
      for byte-identical multithreaded stats;
    - a [main] that prints the statistics in a stable, parseable
      format: one [survivors N] line, one [iterations N] line and one
      [pruned <name> N] line per constraint.

    The [threads = 1] unit is standard C99. A [threads > 1] unit also
    uses POSIX threads and the GCC-style [__atomic] builtins, which gcc
    and clang provide (still under [-std=c99]).

    Restrictions (mirroring the translatable subset of the paper's
    Python): opaque OCaml bodies ([Space.derived_f] / [Space.constrain_f])
    and closure iterators that depend on other iterators cannot be
    translated and yield [Unsupported]. Closure iterators over settings
    only have already been tabulated by the planner and translate as
    static arrays. *)

type error = Unsupported of string

val sanitize : string -> string
(** Map a parameter name to a valid C identifier fragment (shared with
    the other language backends in {!Codegen}). *)

val pp_error : Format.formatter -> error -> unit

val generate :
  ?threads:int -> ?emit_survivors:bool -> Plan.t -> (string, error) result
(** [generate plan] returns the C source. [threads] (default 1) selects
    the pthread fan-out compiled into [main]; the single-threaded
    source never touches the cursor. [emit_survivors] (default
    false) additionally prints one [hit <v0> <v1> ...] line per survivor
    (iterator values in loop order). *)

val generate_exn : ?threads:int -> ?emit_survivors:bool -> Plan.t -> string

exception Error of error
