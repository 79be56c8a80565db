(* The native engine end to end: compile-cache behaviour, subprocess
   stats parsing (strict grammar, hostile inputs), byte-identity with
   the staged engine, on_hit round-trips, graceful degradation and
   crash hygiene (no stale temp binaries after an aborted run). *)

open Beast_core

let full_stats_equal a b =
  a.Engine.survivors = b.Engine.survivors
  && a.Engine.loop_iterations = b.Engine.loop_iterations
  && a.Engine.pruned = b.Engine.pruned

let check_stats msg a b =
  Alcotest.(check bool) msg true (full_stats_equal a b)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let in_workdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "beast_test_native_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let small_gemm () =
  let device =
    Beast_gpu.Device.scale ~max_dim:16 ~max_threads:64
      Beast_gpu.Device.tesla_k40c
  in
  let settings = { Beast_kernels.Gemm.default_settings with device } in
  Beast_kernels.Gemm.space ~settings ()

(* ------------------------------------------------------------------ *)
(* Byte-identity with the staged engine                                *)
(* ------------------------------------------------------------------ *)

let test_matches_staged_triangle () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let expected = Engine_staged.run plan in
      check_stats "threads=1" expected (Engine_native.run ~workdir plan);
      check_stats "threads=3" expected
        (Engine_native.run ~workdir ~threads:3 plan))

let test_matches_staged_gemm () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (small_gemm ()) in
      let expected = Engine_staged.run plan in
      check_stats "threads=1" expected (Engine_native.run ~workdir plan);
      check_stats "threads=4" expected
        (Engine_native.run ~workdir ~threads:4 plan))

let depth0_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"depth0" () in
  Space.setting_i sp "enabled" 0;
  Space.iterator sp "x" (Iter.range_i 0 50);
  Space.constrain sp "disabled_space" (Expr.var "enabled" =: Expr.int 0);
  sp

let pointlike_space () =
  let sp = Space.create ~name:"pointlike" () in
  Space.setting_i sp "n" 3;
  sp

let test_depth0_constraint_threads () =
  (* A constraint evaluable before the first loop executes in every
     worker but must be counted once — by worker 0. With the space
     disabled it fires in all 3 workers; pruned must still read 1,
     survivors 0. *)
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (depth0_space ()) in
      let expected = Engine_staged.run plan in
      check_stats "threads=3" expected
        (Engine_native.run ~workdir ~threads:3 plan))

let test_loop_free_plan_threads () =
  (* No loops at all: the single point belongs to worker 0 alone, so a
     multithreaded binary must not count it once per thread. *)
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (pointlike_space ()) in
      let expected = Engine_staged.run plan in
      check_stats "threads=4" expected
        (Engine_native.run ~workdir ~threads:4 plan))

let test_sharded_matches_unsharded () =
  (* chunk_outer (the CLI's --shard) composed with the native engine:
     merged shard stats must reproduce the unsharded run exactly
     (depth-0 dedup is Stats_io.merge's job; these plans have none). *)
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let whole = Engine_native.run ~workdir plan in
      let parts =
        List.init 3 (fun index ->
            Engine_native.run ~workdir (Plan.chunk_outer plan ~index ~of_:3))
      in
      let merged =
        List.fold_left Engine.merge (List.hd parts) (List.tl parts)
      in
      check_stats "3 shards merge to the whole" whole merged)

(* ------------------------------------------------------------------ *)
(* The atomic outer cursor of multithreaded binaries                  *)
(* ------------------------------------------------------------------ *)

(* Thread counts every cursor test runs: a few small ones and one far
   above any outer trip count used here, so most helpers find the
   cursor already drained. *)
let cursor_threads = [ 2; 3; 8; 97 ]

let check_threads msg plan workdir =
  let expected = Engine_staged.run plan in
  List.iter
    (fun threads ->
      check_stats
        (Printf.sprintf "%s, threads=%d" msg threads)
        expected
        (Engine_native.run ~workdir ~threads plan))
    cursor_threads

let outer_iter (plan : Plan.t) =
  match List.find_opt (function Plan.Loop _ -> true | _ -> false) plan.Plan.steps with
  | Some (Plan.Loop { l_iter; _ }) -> l_iter
  | _ -> Alcotest.fail "plan has no outer loop"

let test_cursor_skewed_outer () =
  (* Only x = 0 mod 4 survives the first inner constraint, so a
     round-robin split over 2 or 4 threads would hand all the deep work
     to one residue class; with the cursor it runs wherever it is
     claimed, and the statistics must not notice. *)
  let open Expr.Infix in
  let sp = Space.create ~name:"skewed" () in
  Space.iterator sp "x" (Iter.range_i 0 40);
  Space.constrain sp "off_residue" (Expr.var "x" %: Expr.int 4 <>: Expr.int 0);
  Space.iterator sp "y" (Iter.range (Expr.int 0) (Expr.var "x" +: Expr.int 30));
  Space.constrain sp "odd" (Expr.var "y" %: Expr.int 2 =: Expr.int 1);
  in_workdir (fun workdir -> check_threads "skewed" (Plan.make_exn sp) workdir)

let test_cursor_outer_values () =
  let open Expr.Infix in
  let sp = Space.create ~name:"outer_values" () in
  Space.iterator sp "x" (Iter.ints [ 7; -2; 30; 0; 11; 5 ]);
  Space.iterator sp "y" (Iter.range (Expr.int 0) (Expr.var "x"));
  Space.constrain sp "big" (Expr.var "x" +: Expr.var "y" >: Expr.int 35);
  let plan = Plan.make_exn sp in
  (match outer_iter plan with
  | Plan.CValues _ -> ()
  | _ -> Alcotest.fail "outer iterator is not a value table");
  in_workdir (fun workdir -> check_threads "outer values" plan workdir)

let test_cursor_negative_step () =
  (* The outer range counts down from a depth-0 derived bound. *)
  let open Expr.Infix in
  let sp = Space.create ~name:"countdown" () in
  Space.setting_i sp "n" 20;
  Space.derived sp "hi" (Expr.var "n" *: Expr.int 2);
  Space.iterator sp "x"
    (Iter.range ~step:(Expr.int (-3)) (Expr.var "hi") (Expr.int (-11)));
  Space.iterator sp "y" (Iter.range (Expr.var "x") (Expr.var "x" +: Expr.int 5));
  Space.constrain sp "neg" (Expr.var "x" *: Expr.var "y" <: Expr.int 0);
  let plan = Plan.make_exn sp in
  (match outer_iter plan with
  | Plan.CRange (_, _, Plan.CLit step) when step < 0 -> ()
  | _ -> Alcotest.fail "outer iterator is not a descending range");
  in_workdir (fun workdir -> check_threads "negative step" plan workdir)

let test_cursor_depth0 () =
  in_workdir (fun workdir ->
      check_threads "depth-0 constraint" (Plan.make_exn (depth0_space ()))
        workdir;
      check_threads "loop-free plan" (Plan.make_exn (pointlike_space ()))
        workdir)

(* Propagation drops the outer values x >= 20 and leaves a depth-0
   Static_prune replay of them before the outer loop. *)
let outer_prune_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"outer_prune" () in
  Space.iterator sp "x" (Iter.range_i 0 30);
  Space.constrain sp "x_big" (Expr.var "x" >=: Expr.int 20);
  Space.iterator sp "y" (Iter.range (Expr.var "x") (Expr.int 25));
  Space.constrain sp "odd_sum"
    ((Expr.var "x" +: Expr.var "y") %: Expr.int 2 =: Expr.int 1);
  sp

let test_cursor_static_prune () =
  (* Every worker passes the replay; worker 0 alone must count it. *)
  let plan = Propagate.pass (Plan.make_exn (outer_prune_space ())) in
  let rec depth0_prune = function
    | Plan.Static_prune _ :: _ -> true
    | Plan.Loop _ :: _ | [] -> false
    | _ :: rest -> depth0_prune rest
  in
  Alcotest.(check bool) "plan replays a static prune at depth 0" true
    (depth0_prune plan.Plan.steps);
  in_workdir (fun workdir -> check_threads "outer static prune" plan workdir)

let test_cursor_shards () =
  (* Plan.chunk_outer blocks, each run on 3 threads, merge to the whole
     sequential run. *)
  in_workdir (fun workdir ->
      List.iter
        (fun (msg, plan) ->
          let whole = Engine_staged.run plan in
          let parts =
            List.init 3 (fun index ->
                Engine_native.run ~workdir ~threads:3
                  (Plan.chunk_outer plan ~index ~of_:3))
          in
          check_stats (msg ^ ": 3 shards on 3 threads merge to the whole")
            whole
            (List.fold_left Engine.merge (List.hd parts) (List.tl parts)))
        [
          ("triangle", Plan.make_exn (Support.triangle_space ()));
          ("propagated gemm", Propagate.pass (Plan.make_exn (small_gemm ())));
          ("outer static prune", Propagate.pass (Plan.make_exn (outer_prune_space ())));
        ])

let test_single_thread_source_has_no_atomics () =
  (* The single-threaded translation unit keeps the plain outer loop
     the compiler can fold; only multithreaded ones use the cursor. *)
  let plan = Plan.make_exn (small_gemm ()) in
  Alcotest.(check bool) "threads=1 has no __atomic" false
    (contains (Codegen_c.generate_exn plan) "__atomic");
  Alcotest.(check bool) "threads=2 claims through __atomic_fetch_add" true
    (contains (Codegen_c.generate_exn ~threads:2 plan) "__atomic_fetch_add")

let test_failed_thread_start () =
  (* Under a virtual-memory limit most of the 64 thread stacks cannot
     be mapped. Workers that did start (the main thread always does)
     drain the cursor, so the statistics are still the sequential ones,
     and the binary says on stderr how many helpers it lost. *)
  let device =
    Beast_gpu.Device.scale ~max_dim:32 ~max_threads:128
      Beast_gpu.Device.tesla_k40c
  in
  let settings = { Beast_kernels.Gemm.default_settings with device } in
  let plan = Plan.make_exn (Beast_kernels.Gemm.space ~settings ()) in
  in_workdir (fun workdir ->
      let exe = Engine_native.compile ~workdir ~threads:64 plan in
      let out = Filename.concat workdir "limited.out"
      and err = Filename.concat workdir "limited.err" in
      let rc =
        Sys.command
          (Filename.quote_command "/bin/sh"
             [ "-c"; "ulimit -s 8192; ulimit -v 120000; exec \"$0\""; exe ]
             ~stdout:out ~stderr:err)
      in
      let read f = In_channel.with_open_text f In_channel.input_all in
      let stdout = read out and stderr = read err in
      Sys.remove out;
      Sys.remove err;
      Alcotest.(check int) "exit status" 0 rc;
      Alcotest.(check bool)
        (Printf.sprintf "stderr %S reports helpers that failed to start" stderr)
        true
        (contains stderr "helper threads failed to start");
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' stdout)
      in
      match Engine_native.stats_of_lines plan (List.to_seq lines) with
      | Error e -> Alcotest.failf "output rejected: %s" e
      | Ok stats ->
        check_stats "statistics equal the staged run" (Engine_staged.run plan)
          stats)

(* ------------------------------------------------------------------ *)
(* on_hit round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_on_hit_roundtrip () =
  (* Single-threaded hit order is the enumeration order, so the native
     replay must match the staged callback sequence exactly — including
     derived variables and settings resolved through the lookup. *)
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let observe acc lookup =
        acc :=
          List.map Value.to_int [ lookup "x"; lookup "y"; lookup "s"; lookup "n" ]
          :: !acc
      in
      let staged_hits = ref [] in
      ignore (Engine_staged.run ~on_hit:(observe staged_hits) plan);
      let native_hits = ref [] in
      ignore (Engine_native.run ~on_hit:(observe native_hits) ~workdir plan);
      Alcotest.(check (list (list int)))
        "hit order and contents" (List.rev !staged_hits)
        (List.rev !native_hits))

(* Every hit rendered as one string of every slot (iterators and
   derived variables) and every setting, read through the lookup. *)
let record_hits plan =
  let names =
    Array.to_list plan.Plan.slot_names @ List.map fst plan.Plan.settings
  in
  let hits = ref [] in
  let on_hit lookup =
    hits :=
      String.concat " "
        (List.map (fun n -> n ^ "=" ^ Value.to_string (lookup n)) names)
      :: !hits
  in
  (on_hit, fun () -> List.rev !hits)

let check_same_hits msg plan ~min_hits workdir =
  let on_staged, staged = record_hits plan in
  ignore (Engine_staged.run ~on_hit:on_staged plan);
  let on_native, native = record_hits plan in
  ignore (Engine_native.run ~on_hit:on_native ~workdir plan);
  let staged = staged () and native = native () in
  Alcotest.(check bool)
    (Printf.sprintf "%s: at least %d hits (got %d)" msg min_hits
       (List.length staged))
    true
    (List.length staged >= min_hits);
  Alcotest.(check int)
    (msg ^ ": hit count") (List.length staged) (List.length native);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "%s: hit %d differs:\n staged %s\n native %s" msg i a b)
    (List.combine staged native)

let test_on_hit_gemm_identity () =
  (* GEMM scale: thousands of hits, dozens of derived variables and the
     device settings, on the plain plan and on the propagated plan the
     tuner runs. *)
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (small_gemm ()) in
      check_same_hits "gemm" plan ~min_hits:1000 workdir;
      check_same_hits "propagated gemm" (Propagate.pass plan) ~min_hits:1000
        workdir)

let test_on_hit_negative_values () =
  let open Expr.Infix in
  let sp = Space.create ~name:"negative" () in
  Space.setting_i sp "offset" (-7);
  Space.iterator sp "x" (Iter.range_i (-50) 51);
  Space.iterator sp "y"
    (Iter.range ~step:(Expr.int (-3)) (Expr.int 40) (Expr.var "x"));
  Space.derived sp "d" ((Expr.var "x" *: Expr.var "y") +: Expr.var "offset");
  Space.constrain sp "positive" (Expr.var "d" >: Expr.int 0);
  in_workdir (fun workdir ->
      check_same_hits "negative iterators" (Plan.make_exn sp) ~min_hits:100
        workdir)

(* ------------------------------------------------------------------ *)
(* The stats parser on hostile input                                   *)
(* ------------------------------------------------------------------ *)

let parse ?on_hit plan lines =
  Engine_native.stats_of_lines ?on_hit plan (List.to_seq lines)

let check_rejects msg plan lines fragment =
  match parse plan lines with
  | Ok _ -> Alcotest.failf "%s: garbled output parsed as statistics" msg
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: diagnostic %S mentions %S" msg e fragment)
      true (contains e fragment)

let test_parser_accepts_valid () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let expected = Engine_staged.run plan in
  match
    parse plan
      [
        Printf.sprintf "survivors %d" expected.Engine.survivors;
        Printf.sprintf "iterations %d" expected.Engine.loop_iterations;
        (let n, _, k = expected.Engine.pruned.(0) in
         Printf.sprintf "pruned %s %d" (Codegen_c.sanitize n) k);
        (let n, _, k = expected.Engine.pruned.(1) in
         Printf.sprintf "pruned %s %d" (Codegen_c.sanitize n) k);
      ]
  with
  | Ok stats -> check_stats "well-formed output parses" expected stats
  | Error e -> Alcotest.failf "valid output rejected: %s" e

let test_parser_rejects_malformed () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  check_rejects "truncated: empty" plan [] "no survivors line";
  check_rejects "truncated: missing pruned" plan
    [ "survivors 4"; "iterations 10" ]
    "pruned lines missing";
  check_rejects "truncated: missing iterations" plan [ "survivors 4" ]
    "no iterations line";
  check_rejects "unknown line" plan
    [ "garbage in the stream"; "survivors 4" ]
    "unrecognized line";
  check_rejects "non-integer survivors" plan [ "survivors lots" ]
    "not an integer";
  check_rejects "duplicate survivors" plan
    [ "survivors 4"; "survivors 4" ]
    "duplicate survivors";
  check_rejects "summary out of order" plan [ "iterations 10" ]
    "iterations before survivors";
  check_rejects "wrong constraint name" plan
    [ "survivors 4"; "iterations 10"; "pruned nonsense 1" ]
    "expected constraint";
  check_rejects "interleaved hit line" plan
    [ "hit 1 2 hit 3"; "survivors 1" ]
    "hit line has";
  check_rejects "truncated hit line" plan [ "hit 1"; "survivors 1" ]
    "hit line has";
  check_rejects "hit after summary" plan
    [ "survivors 1"; "hit 1 2" ]
    "after the summary";
  check_rejects "extra pruned line" plan
    [
      "survivors 0"; "iterations 0"; "pruned odd_sum 0"; "pruned big_x 0";
      "pruned big_x 0";
    ]
    "extra pruned"

let test_parser_rejects_hostile_hits () =
  (* Every line goes through the in-place scanner; each rejection names
     its fault and the line. The triangle plan loops over x and y. *)
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let rejects msg hit fragment =
    check_rejects msg plan [ hit; "survivors 1" ] fragment
  in
  rejects "double space" "hit 1  2" "hit value 1 is empty (double space)";
  rejects "trailing space" "hit 1 2 " "hit value 2 is empty (trailing space)";
  rejects "empty field" "hit " "hit value 0 is empty";
  rejects "plus sign" "hit +5 2" "hit value 0 is not a decimal integer";
  rejects "plus sign byte" "hit +5 2" "byte '+'";
  rejects "hex" "hit 1 0x10" "byte 'x' at offset 1";
  rejects "underscore" "hit 1_000 2" "byte '_' at offset 1";
  rejects "20-digit overflow" "hit 12345678901234567890 2"
    "hit value 0 overflows a 63-bit integer";
  rejects "max_int + 1" "hit 1 4611686018427387904" "hit value 1 overflows";
  rejects "min_int - 1" "hit -4611686018427387905 0" "hit value 0 overflows";
  rejects "non-digit mid-field" "hit 1 2a3" "byte 'a' at offset 1";
  rejects "lone minus" "hit - 2" "(no digits)";
  rejects "too few values" "hit 1" "hit line has 1 values, expected 2";
  rejects "too many values" "hit 1 2 3" "hit line has 3 values, expected 2";
  rejects "no values" "hit" "hit line has 0 values";
  check_rejects "line number of the bad hit" plan
    [ "hit 1 2"; "hit 1 x" ]
    "output line 2: hit value 1";
  check_rejects "hit-like prefix" plan [ "hitch 1 2" ] "unrecognized line"

let test_parser_accepts_extreme_hits () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let seen = ref [] in
  let on_hit lookup =
    seen :=
      List.map (fun n -> Value.to_int (lookup n)) [ "x"; "y"; "s" ] :: !seen
  in
  let lines =
    [
      "hit -3 4611686018427387903"; "hit -4611686018427387904 0"; "hit -0 007";
      "survivors 3"; "iterations 3"; "pruned odd_sum 0"; "pruned big_x 0";
    ]
  in
  match parse ~on_hit plan lines with
  | Error e -> Alcotest.failf "negative and extreme values rejected: %s" e
  | Ok stats ->
    Alcotest.(check int) "survivors" 3 stats.Engine.survivors;
    Alcotest.(check (list (list int)))
      "values land in their slots, derived slots recomputed"
      [
        [ -3; max_int; max_int - 3 ]; [ min_int; 0; min_int ]; [ 0; 7; 7 ];
      ]
      (List.rev !seen)

let test_parser_hit_count_mismatch () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let lines =
    [
      "hit 0 1"; "survivors 3"; "iterations 10"; "pruned odd_sum 2";
      "pruned big_x 1";
    ]
  in
  match parse ~on_hit:(fun _ -> ()) plan lines with
  | Ok _ -> Alcotest.fail "survivor/hit mismatch parsed as statistics"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "diagnostic %S counts the hits" e)
      true
      (String.length e > 0)

(* ------------------------------------------------------------------ *)
(* Degradation, caching and crash hygiene                              *)
(* ------------------------------------------------------------------ *)

let test_unsupported_is_one_line_error () =
  in_workdir (fun workdir ->
      match Engine_native.run ~workdir (Plan.make_exn (Support.mixed_space ()))
      with
      | _ -> Alcotest.fail "closure iterators accepted by the native engine"
      | exception Engine_native.Error msg ->
        Alcotest.(check bool) "message is one actionable line" true
          (not (String.contains msg '\n')
          && String.length msg > 0))

let test_missing_compiler_diagnostic () =
  in_workdir (fun workdir ->
      Unix.putenv "BEAST_CC" "/nonexistent/compiler-xyz";
      Fun.protect
        ~finally:(fun () -> Unix.putenv "BEAST_CC" "")
        (fun () ->
          match
            Engine_native.run ~workdir (Plan.make_exn (Support.triangle_space ()))
          with
          | _ -> Alcotest.fail "missing compiler went unnoticed"
          | exception Engine_native.Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "diagnostic %S names the compiler" msg)
              true
              (not (String.contains msg '\n'))))

(* Fake compilers: shell scripts standing in for $BEAST_CC, so a dying
   compiler or binary needs no undefined behaviour in C. *)
let with_fake_cc workdir name body f =
  if not (Sys.file_exists workdir) then Unix.mkdir workdir 0o755;
  let path = Filename.concat workdir name in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc ("#!/bin/sh\nulimit -c 0\n" ^ body));
  Unix.chmod path 0o755;
  Unix.putenv "BEAST_CC" path;
  Fun.protect ~finally:(fun () -> Unix.putenv "BEAST_CC" "") f

let check_signal_named msg workdir signal =
  match Engine_native.run ~workdir (Plan.make_exn (Support.triangle_space ()))
  with
  | _ -> Alcotest.failf "%s: run succeeded" msg
  | exception Engine_native.Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: diagnostic %S names %s" msg e signal)
      true
      (contains e ("killed by signal " ^ signal))

let test_compiler_signal_named () =
  in_workdir (fun workdir ->
      with_fake_cc workdir "segv-cc" "kill -SEGV $$\n" (fun () ->
          check_signal_named "compiler" workdir "SIGSEGV"))

let test_binary_signal_named () =
  (* The "compiler" writes, as its -o output, a script that dies of
     SIGFPE when the engine runs it. *)
  let body =
    "while [ $# -gt 0 ]; do [ \"$1\" = -o ] && out=$2; shift; done\n\
     printf '#!/bin/sh\\nulimit -c 0\\nkill -FPE $$\\n' > \"$out\"\n\
     chmod +x \"$out\"\n"
  in
  in_workdir (fun workdir ->
      with_fake_cc workdir "fpe-cc" body (fun () ->
          check_signal_named "binary" workdir "SIGFPE"))

let test_compile_cache_hit () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let exe1 = Engine_native.compile ~workdir plan in
      let mtime = (Unix.stat exe1).Unix.st_mtime in
      (* A second compile of the same plan must short-circuit on the
         content hash: same path, binary untouched. *)
      let exe2 = Engine_native.compile ~workdir plan in
      Alcotest.(check string) "same cached binary" exe1 exe2;
      Alcotest.(check bool) "binary not rebuilt" true
        ((Unix.stat exe2).Unix.st_mtime = mtime);
      (* Even with the compiler broken the cache hit must succeed —
         proof no compiler is invoked. *)
      Unix.putenv "BEAST_CC" "/nonexistent/compiler-xyz";
      Fun.protect
        ~finally:(fun () -> Unix.putenv "BEAST_CC" "")
        (fun () ->
          (* A different compiler changes the cache key, so pre-seed the
             lookup by restoring: the key includes $BEAST_CC. *)
          Unix.putenv "BEAST_CC" "";
          let exe3 = Engine_native.compile ~workdir plan in
          Alcotest.(check string) "cache hit without compiler" exe1 exe3))

let no_temp_files workdir =
  Array.for_all (fun f -> not (contains f ".tmp")) (Sys.readdir workdir)

let test_kill_mid_run_leaves_no_temps () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let hits = ref 0 in
      let abort _ =
        incr hits;
        if !hits = 3 then raise Exit
      in
      (match Engine_native.run ~on_hit:abort ~workdir plan with
      | _ -> Alcotest.fail "aborting on_hit did not propagate"
      | exception Exit -> ());
      Alcotest.(check bool) "exactly 3 hits before the abort" true (!hits = 3);
      Alcotest.(check bool) "no stale temp files in the workdir" true
        (no_temp_files workdir);
      (* The cache must still be healthy: the next run reuses the binary
         and completes. *)
      let expected = Engine_staged.run plan in
      check_stats "post-abort run succeeds" expected
        (Engine_native.run ~workdir plan))

(* ------------------------------------------------------------------ *)
(* Registry integration                                                *)
(* ------------------------------------------------------------------ *)

let test_registry_specs () =
  (match Engine_registry.find "native" with
  | Ok (module E : Engine_intf.S) ->
    Alcotest.(check string) "bare spec" "native" E.name;
    (match Engine_registry.entry_of "native" with
    | Some e ->
      Alcotest.(check bool)
        "catalog: native cannot evaluate opaque closures" false
        e.Engine_registry.e_opaque
    | None -> Alcotest.fail "native has no catalog entry")
  | Error e -> Alcotest.failf "native spec rejected: %s" e);
  (match Engine_registry.find "native:3" with
  | Ok (module E : Engine_intf.S) ->
    Alcotest.(check string) "parameterized spec" "native-3" E.name
  | Error e -> Alcotest.failf "native:3 rejected: %s" e);
  (match Engine_registry.find "native:0" with
  | Ok _ -> Alcotest.fail "native:0 accepted"
  | Error _ -> ());
  (match Engine_registry.find "native:x" with
  | Ok _ -> Alcotest.fail "native:x accepted"
  | Error _ -> ());
  Alcotest.(check bool) "catalog lists the native spec" true
    (List.mem "native[:THREADS]" Engine_registry.names);
  Alcotest.(check bool) "names derive from the catalog" true
    (Engine_registry.names
    = List.map (fun e -> e.Engine_registry.e_spec) Engine_registry.catalog)

let test_registry_run () =
  in_workdir (fun _ ->
      match Engine_registry.find "native" with
      | Error e -> Alcotest.failf "native spec rejected: %s" e
      | Ok (module E : Engine_intf.S) ->
        let sp = Support.triangle_space () in
        let expected = Engine_staged.run_space sp in
        check_stats "registry-resolved native run" expected
          (E.run (Engine_intf.Space sp)))

let () =
  Random.self_init ();
  Alcotest.run "native"
    [
      ( "identity",
        [
          Alcotest.test_case "triangle matches staged" `Quick
            test_matches_staged_triangle;
          Alcotest.test_case "gemm matches staged" `Quick
            test_matches_staged_gemm;
          Alcotest.test_case "depth-0 constraint, 3 threads" `Quick
            test_depth0_constraint_threads;
          Alcotest.test_case "loop-free plan, 4 threads" `Quick
            test_loop_free_plan_threads;
          Alcotest.test_case "3-way shard merge" `Quick
            test_sharded_matches_unsharded;
          Alcotest.test_case "on_hit round-trip" `Quick test_on_hit_roundtrip;
          Alcotest.test_case "on_hit gemm identity" `Quick
            test_on_hit_gemm_identity;
          Alcotest.test_case "on_hit negative values" `Quick
            test_on_hit_negative_values;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "skewed outer iterator" `Quick
            test_cursor_skewed_outer;
          Alcotest.test_case "outer value table" `Quick
            test_cursor_outer_values;
          Alcotest.test_case "outer negative step" `Quick
            test_cursor_negative_step;
          Alcotest.test_case "depth-0 constraint and loop-free plan" `Quick
            test_cursor_depth0;
          Alcotest.test_case "depth-0 static prune" `Quick
            test_cursor_static_prune;
          Alcotest.test_case "shards on 3 threads" `Quick test_cursor_shards;
          Alcotest.test_case "single-threaded source has no atomics" `Quick
            test_single_thread_source_has_no_atomics;
          Alcotest.test_case "failed thread start" `Quick
            test_failed_thread_start;
        ] );
      ( "parser",
        [
          Alcotest.test_case "accepts valid output" `Quick
            test_parser_accepts_valid;
          Alcotest.test_case "rejects malformed output" `Quick
            test_parser_rejects_malformed;
          Alcotest.test_case "rejects survivor/hit mismatch" `Quick
            test_parser_hit_count_mismatch;
          Alcotest.test_case "rejects hostile hit lines" `Quick
            test_parser_rejects_hostile_hits;
          Alcotest.test_case "accepts negative and extreme hits" `Quick
            test_parser_accepts_extreme_hits;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "unsupported plan is a one-line error" `Quick
            test_unsupported_is_one_line_error;
          Alcotest.test_case "missing compiler diagnostic" `Quick
            test_missing_compiler_diagnostic;
          Alcotest.test_case "compiler signal named" `Quick
            test_compiler_signal_named;
          Alcotest.test_case "binary signal named" `Quick
            test_binary_signal_named;
          Alcotest.test_case "compile cache hit" `Quick test_compile_cache_hit;
          Alcotest.test_case "kill mid-run leaves no temps" `Quick
            test_kill_mid_run_leaves_no_temps;
        ] );
      ( "registry",
        [
          Alcotest.test_case "spec parsing" `Quick test_registry_specs;
          Alcotest.test_case "resolved module runs" `Quick test_registry_run;
        ] );
    ]
