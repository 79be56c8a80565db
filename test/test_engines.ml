open Beast_core

let engines_on sp =
  let plan = Plan.make_exn sp in
  [
    ("interp-naive", (Engine_interp.run ~variant:`Naive sp).Engine.survivors);
    ("interp-hoisted", (Engine_interp.run ~variant:`Hoisted sp).Engine.survivors);
    ("vm", (Engine_vm.run_plan plan).Engine.survivors);
    ("staged", (Engine_staged.run plan).Engine.survivors);
    ("parallel-1", (Support.parallel ~domains:1 plan).Engine.survivors);
    ("parallel-3", (Support.parallel ~domains:3 plan).Engine.survivors);
  ]

let check_all_engines sp =
  let expected = Support.survivor_count sp in
  List.iter
    (fun (name, got) ->
      Alcotest.(check int) (name ^ " survivors") expected got)
    (engines_on sp)

let test_triangle_agreement () = check_all_engines (Support.triangle_space ())
let test_mixed_agreement () = check_all_engines (Support.mixed_space ())

let test_triangle_exact () =
  (* x in 0..7, y in x..7, prune odd x+y and x>5: count by hand. *)
  let count = ref 0 in
  for x = 0 to 7 do
    for y = x to 7 do
      if (x + y) mod 2 = 0 && x <= 5 then incr count
    done
  done;
  let s = Engine_staged.run_space (Support.triangle_space ()) in
  Alcotest.(check int) "hand count" !count s.Engine.survivors

let test_stats_pruned_counts () =
  (* big_x depends only on x, so hoisting lifts it to depth 1: it fires
     once per rejected x (2 times) and the y loop never opens there.
     odd_sum sits at depth 2 and fires per surviving (x, y) pair with an
     odd sum. *)
  let s = Engine_staged.run_space (Support.triangle_space ()) in
  let fired name =
    let _, _, k =
      List.find (fun (n, _, _) -> n = name) (Array.to_list s.Engine.pruned)
    in
    k
  in
  let odd = ref 0 in
  for x = 0 to 5 do
    for y = x to 7 do
      if (x + y) mod 2 = 1 then incr odd
    done
  done;
  Alcotest.(check int) "big_x fired once per pruned subtree" 2 (fired "big_x");
  Alcotest.(check int) "odd_sum fired" !odd (fired "odd_sum");
  (* x loop: 8 entries; y loop opens only for x <= 5: 8+7+6+5+4+3 = 33. *)
  Alcotest.(check int) "loop iterations" (8 + 33) s.Engine.loop_iterations

let test_vm_staged_stats_identical () =
  let plan = Plan.make_exn (Support.mixed_space ()) in
  Alcotest.check Support.stats_testable "vm = staged"
    (Engine_staged.run plan) (Engine_vm.run_plan plan)

let test_parallel_stats_match_sequential () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let seq = Engine_staged.run plan in
  let par = Support.parallel ~domains:4 plan in
  Alcotest.(check int) "survivors" seq.Engine.survivors par.Engine.survivors;
  Alcotest.(check int) "pruned total" (Engine.total_pruned seq)
    (Engine.total_pruned par)

(* The static round-robin split: one slice per domain, merged. *)
let merged_slices ~of_ plan =
  Engine_parallel.merge plan
    (List.init of_ (fun index ->
         Engine_staged.run (Plan.slice_outer plan ~index ~of_)))

let test_work_stealing_matches_staged_on_gemm () =
  (* The acceptance bar for the chunked scheduler: identical totals and
     per-constraint pruned counts to the sequential staged sweep on the
     real GEMM space, not just on toy nests. *)
  let device =
    Beast_gpu.Device.scale ~max_dim:16 ~max_threads:64
      Beast_gpu.Device.tesla_k40c
  in
  let settings = { Beast_kernels.Gemm.default_settings with device } in
  let plan = Plan.make_exn (Beast_kernels.Gemm.space ~settings ()) in
  let seq = Engine_staged.run plan in
  List.iter
    (fun domains ->
      Alcotest.check Support.stats_testable
        (Printf.sprintf "stealing domains=%d" domains)
        seq
        (Support.parallel ~domains plan))
    [ 1; 2; 3; 4 ];
  Alcotest.check Support.stats_testable "static split" seq
    (merged_slices ~of_:4 plan)

let test_parallel_more_domains_than_trip_count () =
  (* 16 domains over an outer loop with 8 values: most static slices and
     most chunks are empty; stats must still match the sequential run,
     depth-0 counters included. *)
  let sp = Support.triangle_space () in
  let open Expr.Infix in
  Space.constrain sp ~cls:Space.Soft "d0_never" (Expr.int 9 <: Expr.int 8);
  let plan = Plan.make_exn sp in
  let seq = Engine_staged.run plan in
  Alcotest.check Support.stats_testable "stealing" seq
    (Support.parallel ~domains:16 plan);
  Alcotest.check Support.stats_testable "static" seq
    (merged_slices ~of_:16 plan)

let test_parallel_firing_depth0_deduped () =
  (* A depth-0 constraint that fires runs once per chunk/slice; the
     merged count must stay 1, as sequentially. *)
  let sp = Support.triangle_space () in
  let open Expr.Infix in
  Space.constrain sp ~cls:Space.Hard "d0_always" (Expr.int 8 <: Expr.int 9);
  let plan = Plan.make_exn sp in
  let seq = Engine_staged.run plan in
  Alcotest.(check int) "sequential survivors" 0 seq.Engine.survivors;
  Alcotest.check Support.stats_testable "stealing" seq
    (Support.parallel ~domains:4 plan);
  Alcotest.check Support.stats_testable "static" seq
    (merged_slices ~of_:4 plan)

let test_on_hit_receives_bindings () =
  let acc = ref [] in
  let on_hit lookup =
    acc := (Value.to_int (lookup "x"), Value.to_int (lookup "y"),
            Value.to_int (lookup "s")) :: !acc
  in
  ignore (Engine_staged.run_space ~on_hit (Support.triangle_space ()));
  Alcotest.(check bool) "every hit satisfies constraints" true
    (List.for_all (fun (x, y, s) -> s = x + y && s mod 2 = 0 && x <= 5) !acc);
  let expected = Support.survivor_count (Support.triangle_space ()) in
  Alcotest.(check int) "hit count" expected (List.length !acc)

let test_on_hit_matches_brute_force () =
  let sp = Support.mixed_space () in
  let expected =
    List.map
      (fun bindings -> List.map (fun (n, v) -> (n, Value.to_int v)) bindings)
      (Support.brute_force sp)
  in
  let plan = Plan.make_exn sp in
  let got = ref [] in
  let on_hit lookup =
    got :=
      List.map
        (fun n -> (n, Value.to_int (lookup n)))
        plan.Plan.iter_order
      :: !got
  in
  ignore (Engine_staged.run ~on_hit plan);
  let norm l = List.sort compare l in
  Alcotest.(check bool) "same survivor set" true
    (norm expected = norm (List.rev !got))

let test_empty_space () =
  (* A space with no iterators has exactly one (empty) point. *)
  let sp = Space.create () in
  let s = Engine_staged.run_space sp in
  Alcotest.(check int) "one point" 1 s.Engine.survivors;
  (* And a depth-0 constraint can prune it. *)
  let sp = Space.create () in
  Space.constrain sp "never" (Expr.bool true);
  let s = Engine_staged.run_space sp in
  Alcotest.(check int) "zero points" 0 s.Engine.survivors

let test_empty_iterator () =
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 5 5);
  Space.iterator sp "y" (Iter.range_i 0 10);
  let s = Engine_staged.run_space sp in
  Alcotest.(check int) "no points" 0 s.Engine.survivors;
  Alcotest.(check int) "outer loop never iterates" 0 s.Engine.loop_iterations

let test_division_by_zero_propagates () =
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 3);
  Space.derived sp "bad" (Expr.int 1 /: Expr.var "x");
  Alcotest.check_raises "staged raises" Division_by_zero (fun () ->
      ignore (Engine_staged.run_space sp));
  Alcotest.check_raises "vm raises" Division_by_zero (fun () ->
      ignore (Engine_vm.run_space sp))

let test_failing_chunk_stops_siblings () =
  (* 2 domains x 8 chunks: one x value per chunk. x = 0 divides by zero
     at once; every other chunk delivers slow hits. Once the sweep has
     raised, no sibling domain may still be calling on_hit. *)
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 16);
  Space.iterator sp "y" (Iter.range_i 0 20);
  Space.derived sp "d" (Expr.int 7 /: Expr.var "x");
  let hits = Atomic.make 0 in
  let on_hit _ =
    Unix.sleepf 0.001;
    Atomic.incr hits
  in
  (match Engine_parallel.run ~on_hit ~domains:2 (Plan.make_exn sp) with
  | _ -> Alcotest.fail "sweep survived a division by zero"
  | exception Division_by_zero -> ());
  let at_raise = Atomic.get hits in
  Unix.sleepf 0.05;
  Alcotest.(check int) "no on_hit after the raise" at_raise (Atomic.get hits)

let test_dynamic_algebra_iterators () =
  (* Union/intersection/filter with iterator-dependent operands exercise
     the CDyn lowering in every engine. *)
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 1 6);
  Space.iterator sp "u"
    (Iter.union (Iter.upto (Expr.var "x")) (Iter.ints [ 7; 9 ]));
  Space.iterator sp "f"
    (Iter.filter
       (fun v -> Value.to_int v mod 2 = 0)
       (Iter.concat (Iter.upto (Expr.var "u")) (Iter.ints [ 10 ])));
  check_all_engines sp

let test_negative_values_everywhere () =
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i (-5) 6);
  Space.iterator sp "y" (Iter.range ~step:(Expr.int (-2)) (Expr.int 5) (Expr.var "x"));
  Space.derived sp "d" (Expr.var "x" *: Expr.var "y");
  Space.constrain sp "negprod" (Expr.var "d" <: Expr.int 0);
  check_all_engines sp

let test_vm_disassembly () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let prog = Engine_vm.compile plan in
  let text = Engine_vm.disassemble prog in
  Alcotest.(check bool) "has instructions" true
    (Engine_vm.instruction_count prog > 10);
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prune instruction" true (contains "prune");
  Alcotest.(check bool) "hit instruction" true (contains "hit");
  Alcotest.(check bool) "trip instruction" true (contains "trip")

let test_deep_nest () =
  (* Eight nested dependent loops; checks engines handle depth. *)
  let sp = Space.create () in
  Space.iterator sp "x0" (Iter.range_i 1 3);
  for i = 1 to 7 do
    Space.iterator sp
      (Printf.sprintf "x%d" i)
      (Iter.range (Expr.int 0) (Expr.var (Printf.sprintf "x%d" (i - 1))))
  done;
  check_all_engines sp

(* Property: random small spaces agree across engines and match the
   brute-force reference. *)
let gen_space =
  let open QCheck.Gen in
  let gen_bound prev =
    match prev with
    | [] -> map (fun k -> Expr.int (1 + k)) (int_range 0 4)
    | _ ->
      oneof
        [
          map (fun k -> Expr.int (1 + k)) (int_range 0 4);
          map
            (fun i -> Expr.var (List.nth prev (i mod List.length prev)))
            (int_range 0 10);
        ]
  in
  let gen_expr_over names =
    let open Expr.Infix in
    oneofl names >>= fun a ->
    oneofl names >>= fun b ->
    oneofl
      [
        Expr.var a +: Expr.var b;
        Expr.var a *: Expr.int 2;
        Expr.max_ (Expr.var a) (Expr.var b);
        (Expr.var a %: Expr.int 3) =: Expr.int 0;
        Expr.var a <=: Expr.var b;
      ]
  in
  int_range 1 4 >>= fun n_iters ->
  let rec build_iters i prev acc =
    if i = n_iters then return (List.rev acc)
    else
      gen_bound prev >>= fun stop ->
      let name = Printf.sprintf "i%d" i in
      build_iters (i + 1) (name :: prev) ((name, stop) :: acc)
  in
  build_iters 0 [] [] >>= fun iters ->
  let names = List.map fst iters in
  gen_expr_over names >>= fun dv ->
  int_range 0 2 >>= fun n_cons ->
  list_repeat n_cons (gen_expr_over ("d0" :: names)) >>= fun cons ->
  return (iters, dv, cons)

let space_of (iters, dv, cons) =
  let sp = Space.create () in
  List.iter (fun (n, stop) -> Space.iterator sp n (Iter.range (Expr.int 0) stop)) iters;
  Space.derived sp "d0" dv;
  List.iteri
    (fun i e -> Space.constrain sp (Printf.sprintf "c%d" i) e)
    cons;
  sp

let arb_space =
  QCheck.make
    ~print:(fun (iters, dv, cons) ->
      let b = Buffer.create 128 in
      List.iter
        (fun (n, e) -> Buffer.add_string b (Printf.sprintf "%s in 0..%s; " n (Expr.to_string e)))
        iters;
      Buffer.add_string b ("d0 = " ^ Expr.to_string dv ^ "; ");
      List.iteri
        (fun i e ->
          Buffer.add_string b (Printf.sprintf "c%d: %s; " i (Expr.to_string e)))
        cons;
      Buffer.contents b)
    gen_space

let prop_engines_agree =
  QCheck.Test.make ~name:"all engines match brute force" ~count:200 arb_space
    (fun descr ->
      let expected = Support.survivor_count (space_of descr) in
      List.for_all (fun (_, got) -> got = expected) (engines_on (space_of descr)))

let prop_vm_staged_stats =
  QCheck.Test.make ~name:"vm and staged produce identical stats" ~count:200
    arb_space (fun descr ->
      let plan = Plan.make_exn (space_of descr) in
      let a = Engine_staged.run plan and b = Engine_vm.run_plan plan in
      a = b)

let prop_hoisting_preserves_semantics =
  QCheck.Test.make ~name:"hoisting never changes the survivor set" ~count:150
    arb_space (fun descr ->
      let sp = space_of descr in
      let hoisted = Engine_staged.run (Plan.make_exn ~hoist:true sp) in
      let flat = Engine_staged.run (Plan.make_exn ~hoist:false sp) in
      hoisted.Engine.survivors = flat.Engine.survivors)

let prop_constraint_subsets_monotone =
  QCheck.Test.make ~name:"removing constraints never removes survivors"
    ~count:150 arb_space (fun descr ->
      let sp = space_of descr in
      let all = (Engine_staged.run_space sp).Engine.survivors in
      let none =
        (Engine_staged.run_space (Space.filter_constraints sp ~keep:(fun _ -> false)))
          .Engine.survivors
      in
      none >= all)

let prop_slices_partition =
  QCheck.Test.make ~name:"parallel slices partition the space" ~count:100
    arb_space (fun descr ->
      let plan = Plan.make_exn (space_of descr) in
      let full = (Engine_staged.run plan).Engine.survivors in
      let parts =
        List.init 4 (fun index ->
            (Engine_staged.run (Plan.slice_outer plan ~index ~of_:4))
              .Engine.survivors)
      in
      full = List.fold_left ( + ) 0 parts)

let prop_chunks_partition =
  QCheck.Test.make ~name:"outer chunks partition the space" ~count:100
    arb_space (fun descr ->
      let plan = Plan.make_exn (space_of descr) in
      let full = (Engine_staged.run plan).Engine.survivors in
      let parts =
        List.init 5 (fun index ->
            (Engine_staged.run (Plan.chunk_outer plan ~index ~of_:5))
              .Engine.survivors)
      in
      full = List.fold_left ( + ) 0 parts)

let prop_work_stealing_matches_staged =
  QCheck.Test.make ~name:"work-stealing sweep reproduces staged stats"
    ~count:30 arb_space (fun descr ->
      let plan = Plan.make_exn (space_of descr) in
      Engine_staged.run plan = Support.parallel ~domains:3 plan)

(* ---- Solved loops: staged jumps to the one value a first-step
   [x*m != r] check lets through; everything observable must match the
   engines that iterate ---- *)

(* Every field of the stats, loop iterations included. *)
let same_stats what (a : Engine.stats) (b : Engine.stats) =
  Alcotest.(check int) (what ^ ": survivors") a.survivors b.survivors;
  Alcotest.(check int)
    (what ^ ": loop iterations") a.loop_iterations b.loop_iterations;
  Alcotest.(check (array (triple string pass int)))
    (what ^ ": fired") a.pruned b.pruned

(* The on_hit sequence as iterator bindings, in delivery order. *)
let hits (run : ?on_hit:Engine.on_hit -> Plan.t -> Engine.stats)
    (plan : Plan.t) =
  let got = ref [] in
  let on_hit lookup =
    got :=
      List.map (fun n -> Value.to_int (lookup n)) plan.Plan.iter_order :: !got
  in
  let stats = run ~on_hit plan in
  (stats, List.rev !got)

let rec has_solved_loop steps =
  List.exists
    (fun step ->
      Plan.solved_loop step <> None
      || match step with Plan.Loop { l_body; _ } -> has_solved_loop l_body | _ -> false)
    steps

(* Spaces whose [x] loop opens with a solvable check over an outer [a]:
   positive and negative steps, bounds that empty the loop for some [a],
   zero, negative and near-max_int coefficients (those wrap, so the
   engine must fall back to iterating), targets that the coefficient
   does not divide or that land off the stride or outside the range,
   and optionally a second check after the solved one and a loop below. *)
let gen_solved_space =
  let open QCheck.Gen in
  let open Expr.Infix in
  let a = Expr.var "a" and x = Expr.var "x" in
  let small = int_range (-6) 6 in
  let gen_bound =
    oneof
      [
        map Expr.int small;
        map (fun k -> a +: Expr.int k) small;
        map (fun k -> a *: Expr.int k) (int_range (-2) 2);
      ]
  in
  let gen_coeff =
    frequency
      [
        (2, map Expr.int (int_range (-3) 3));
        (1, return a);
        (1, map (fun k -> a -: Expr.int k) (int_range (-2) 2));
        (1, return (Expr.int 0 -: a));
        (2, map (fun k -> Expr.int (max_int - k) -: a) (int_range 0 2));
        (2, map (fun k -> Expr.int (min_int / 2) +: a *: Expr.int k) (int_range 1 2));
      ]
  in
  let gen_target coeff =
    frequency
      [
        (1, map Expr.int (int_range (-12) 12));
        (1, map (fun k -> a *: Expr.int k) (int_range (-3) 3));
        (1, map (fun k -> a +: Expr.int k) small);
        (* exact (possibly wrapped) multiples of the coefficient *)
        (3, map (fun k -> coeff *: Expr.int k) (int_range (-3) 3));
        (1, map (fun k -> Expr.int (max_int - k)) (int_range 0 3));
      ]
  in
  int_range (-3) 2 >>= fun a_start ->
  int_range 0 4 >>= fun a_len ->
  gen_bound >>= fun x_start ->
  gen_bound >>= fun x_stop ->
  oneofl [ 1; 2; 3; -1; -2; -3 ] >>= fun x_step ->
  gen_coeff >>= fun coeff ->
  gen_target coeff >>= fun target ->
  oneofl [ x *: coeff; coeff *: x; x ] >>= fun lhs ->
  bool >>= fun flipped ->
  bool >>= fun second ->
  bool >>= fun below ->
  let solvable = if flipped then target <>: lhs else lhs <>: target in
  return (a_start, a_len, x_start, x_stop, x_step, solvable, second, below)

let solved_space (a_start, a_len, x_start, x_stop, x_step, solvable, second, below) =
  let open Expr.Infix in
  let sp = Space.create ~name:"solved" () in
  Space.iterator sp "a" (Iter.range_i a_start (a_start + a_len));
  Space.iterator sp "x" (Iter.range ~step:(Expr.int x_step) x_start x_stop);
  Space.constrain sp ~cls:Space.Correctness "solved" solvable;
  if second then
    Space.constrain sp "second"
      ((Expr.var "x" -: Expr.var "a") %: Expr.int 3 =: Expr.int 1);
  if below then begin
    Space.iterator sp "y" (Iter.range_i 0 3);
    Space.constrain sp ~cls:Space.Soft "below"
      (Expr.var "y" +: Expr.var "x" =: Expr.int 2)
  end;
  sp

let arb_solved_space =
  QCheck.make
    ~print:(fun (a0, al, xs, xe, st, e, second, below) ->
      Printf.sprintf "a in range(%d, %d); x in range(%s, %s, %d); %s%s%s" a0
        (a0 + al) (Expr.to_string xs) (Expr.to_string xe) st (Expr.to_string e)
        (if second then "; second" else "")
        (if below then "; below" else ""))
    gen_solved_space

let prop_solved_loops_exact =
  QCheck.Test.make ~name:"solved loops: staged = interp = vm, hits in order"
    ~count:500 arb_solved_space (fun descr ->
      let sp = solved_space descr in
      let plans =
        let plan = Plan.make_exn sp in
        [ plan; Plan.optimize ~passes:[ Propagate.pass ] plan ]
      in
      List.iter
        (fun plan ->
          let reference, ref_hits = hits Engine_interp.run_plan plan in
          let staged, staged_hits = hits Engine_staged.run plan in
          same_stats "staged vs interp" reference staged;
          same_stats "vm vs interp" reference (Engine_vm.run_plan plan);
          Alcotest.(check (list (list int))) "on_hit sequence" ref_hits staged_hits)
        plans;
      true)

let test_solved_generator_solves () =
  (* The property above is only worth something if the staged engine
     really takes the solved path on the generated plans. *)
  let rand = Random.State.make [| 15 |] in
  let solved = ref 0 in
  for _ = 1 to 200 do
    let plan = Plan.make_exn (solved_space (gen_solved_space rand)) in
    if has_solved_loop plan.Plan.steps then incr solved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 200 generated plans have a solved loop" !solved)
    true (!solved >= 190)

let test_solved_fallbacks_iterate () =
  (* Where solving would not be exact the solved loop must iterate like
     an unsolved one: the trip formula overflows on a range visiting
     -2^61 and 0, and x * (max_int - 1) wraps onto 2 * (max_int - 1)
     at x = 2, a value the quotient does not name. *)
  let open Expr.Infix in
  let check what ~iter ~constraint_ ~iterations =
    let sp = Space.create () in
    Space.iterator sp "x" iter;
    Space.constrain sp "c" constraint_;
    let plan = Plan.make_exn sp in
    Alcotest.(check bool) (what ^ ": x loop is solved") true
      (has_solved_loop plan.Plan.steps);
    same_stats what
      { Engine.survivors = 1; loop_iterations = iterations;
        pruned = [| ("c", Space.Hard, iterations - 1) |] }
      (Engine_staged.run plan)
  in
  let big = 1 lsl 61 and m = Expr.int (max_int - 1) in
  check "huge range"
    ~iter:(Iter.range ~step:(Expr.int big) (Expr.int (-big)) (Expr.int big))
    ~constraint_:(Expr.var "x" <>: Expr.int 0) ~iterations:2;
  check "wrapping product" ~iter:(Iter.range_i 0 4)
    ~constraint_:(Expr.var "x" *: m <>: Expr.int 2 *: m) ~iterations:4

let test_solved_outer_loop_chunks () =
  (* A solved outermost loop is what the chunked sweep and shards cut:
     each chunk solves its own block, and the merged stats must equal
     the sequential run, which only the chunk holding x = 12 hits. *)
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 20);
  Space.iterator sp "y" (Iter.range_i 0 3);
  Space.constrain sp "pick" (Expr.var "x" *: Expr.int 3 <>: Expr.int 36);
  let plan = Plan.make_exn sp in
  Alcotest.(check bool) "x loop is solved" true
    (match plan.Plan.steps with
    | [ step ] -> Plan.solved_loop step <> None
    | _ -> false);
  let seq = Engine_staged.run plan in
  same_stats "sequential"
    { Engine.survivors = 3; loop_iterations = 23; pruned = [| ("pick", Space.Hard, 19) |] }
    seq;
  same_stats "parallel:3" seq (Support.parallel ~domains:3 plan);
  same_stats "5 chunks" seq
    (Engine_parallel.merge plan
       (List.init 5 (fun index ->
            Engine_staged.run (Plan.chunk_outer plan ~index ~of_:5))))

let test_solved_loops_gemm_stats_io () =
  (* Byte-identical --stats-out between staged and vm over every GEMM
     case: 4 devices x 2 precisions x 2 arithmetics x 4 transpositions. *)
  let open Beast_gpu in
  let json plan stats = Stats_io.to_json (Stats_io.of_stats ~plan stats) in
  List.iter
    (fun device ->
      let device = Device.scale ~max_dim:16 ~max_threads:64 device in
      List.iter
        (fun (precision, arithmetic, trans_a, trans_b) ->
          let settings =
            { Beast_kernels.Gemm.device; precision; arithmetic; trans_a; trans_b }
          in
          let plan = Plan.make_exn (Beast_kernels.Gemm.space ~settings ()) in
          let run_plan = Plan.optimize ~passes:[ Propagate.pass ] plan in
          let what =
            Printf.sprintf "%s %s %s %b %b" device.Device.name
              (Device.precision_name precision)
              (Device.arithmetic_name arithmetic)
              trans_a trans_b
          in
          Alcotest.(check bool) (what ^ ": has solved loops") true
            (has_solved_loop run_plan.Plan.steps);
          Alcotest.(check string) what
            (json plan (Engine_vm.run_plan run_plan))
            (json plan (Engine_staged.run run_plan)))
        (List.concat_map
           (fun p ->
             List.concat_map
               (fun ar ->
                 List.concat_map
                   (fun ta -> List.map (fun tb -> (p, ar, ta, tb)) [ false; true ])
                   [ false; true ])
               [ Device.Real; Device.Complex ])
           [ Device.Single; Device.Double ]))
    [
      Device.tesla_k40c;
      Device.geforce_gtx680;
      Device.tesla_c2050;
      Device.geforce_gtx750ti;
    ]

(* ---- Engine registry: name-keyed lookup behind Engine_intf.S ---- *)

let find_exn spec =
  match Engine_registry.find spec with
  | Ok m -> m
  | Error msg -> Alcotest.failf "find %S: %s" spec msg

let test_registry_resolves_all_names () =
  List.iter
    (fun (spec, expected_name) ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.(check string) spec expected_name E.name)
    [
      ("interp-naive", "interp-naive");
      ("interp", "interp");
      ("vm", "vm");
      ("staged", "staged");
      ("parallel", Printf.sprintf "parallel-%d" Engine_registry.default_parallel_domains);
      ("parallel:7", "parallel-7");
    ]

let test_registry_rejects_bad_specs () =
  List.iter
    (fun spec ->
      match Engine_registry.find spec with
      | Ok (module E : Engine_intf.S) ->
        Alcotest.failf "%S resolved to %s" spec E.name
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error names the choices (got %S)" spec msg)
          true
          (String.length msg > 0))
    [ ""; "jit"; "parallel:0"; "parallel:-2"; "parallel:x"; "staged:2"; "interp:" ]

let test_registry_engines_agree () =
  let sp = Support.triangle_space () in
  let expected = Support.survivor_count sp in
  List.iter
    (fun spec ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.(check int)
        (E.name ^ " survivors via registry")
        expected
        (E.run (Engine_intf.Space sp)).Engine.survivors)
    [ "interp-naive"; "interp"; "vm"; "staged"; "parallel:3" ]

let test_registry_catalog_capabilities () =
  let entry spec =
    match Engine_registry.entry_of spec with
    | Some e -> e
    | None -> Alcotest.failf "%S has no catalog entry" spec
  in
  let check spec ~propagate ~opaque ~resumable =
    let e = entry spec in
    Alcotest.(check bool)
      (spec ^ " propagate default")
      propagate e.Engine_registry.e_propagate_default;
    Alcotest.(check bool) (spec ^ " opaque") opaque e.Engine_registry.e_opaque;
    Alcotest.(check bool)
      (spec ^ " resumable")
      resumable e.Engine_registry.e_resumable
  in
  check "interp-naive" ~propagate:false ~opaque:true ~resumable:false;
  check "interp" ~propagate:true ~opaque:true ~resumable:false;
  check "vm" ~propagate:true ~opaque:true ~resumable:false;
  check "staged" ~propagate:true ~opaque:true ~resumable:false;
  check "parallel:8" ~propagate:true ~opaque:true ~resumable:true;
  check "parallel-8" ~propagate:true ~opaque:true ~resumable:true;
  check "native" ~propagate:true ~opaque:false ~resumable:false;
  Alcotest.(check bool) "unknown spec" true (Engine_registry.entry_of "jit" = None);
  (* names derives from the catalog, so listing and lookup can't drift *)
  Alcotest.(check (list string))
    "names = catalog specs"
    (List.map (fun e -> e.Engine_registry.e_spec) Engine_registry.catalog)
    Engine_registry.names

let test_registry_plan_target () =
  (* Every engine executes a handed-in plan as given — including
     interp-naive, whose naive cost model only applies to spaces it
     plans itself. *)
  let sp = Support.triangle_space () in
  let plan = Plan.make_exn sp in
  let expected = Engine_staged.run plan in
  List.iter
    (fun spec ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.check Support.stats_testable
        (E.name ^ " plan target = staged")
        expected
        (E.run (Engine_intf.Plan plan)))
    [ "interp-naive"; "interp"; "vm"; "staged"; "parallel:2" ]

let test_registry_resumable_only_parallel () =
  List.iter
    (fun (spec, expected) ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.(check bool) (spec ^ " resumable") expected
        (Option.is_some E.resumable))
    [
      ("interp-naive", false);
      ("interp", false);
      ("vm", false);
      ("staged", false);
      ("parallel:2", true);
    ]

let test_registry_parallel_one_on_hit () =
  (* parallel:1 runs through the chunk ledger like every domain count:
     on_hit must still fire exactly once per survivor. *)
  let (module E : Engine_intf.S) = find_exn "parallel:1" in
  let sp = Support.mixed_space () in
  let plan = Plan.make_exn sp in
  let got = ref [] in
  let on_hit lookup =
    got :=
      List.map (fun n -> (n, Value.to_int (lookup n))) plan.Plan.iter_order
      :: !got
  in
  let stats = E.run ~on_hit (Engine_intf.Space sp) in
  let expected =
    List.map
      (List.map (fun (n, v) -> (n, Value.to_int v)))
      (Support.brute_force sp)
  in
  Alcotest.(check int) "one call per survivor" stats.Engine.survivors
    (List.length !got);
  Alcotest.(check bool) "same survivor set" true
    (List.sort compare expected = List.sort compare !got)

let test_registry_resumable_runs () =
  let (module E : Engine_intf.S) = find_exn "parallel:3" in
  let resumable = Option.get E.resumable in
  let plan = Plan.make_exn (Support.triangle_space ()) in
  match resumable plan with
  | Engine_intf.Finished stats ->
    Alcotest.check Support.stats_testable "registry resumable = staged"
      (Engine_staged.run plan) stats
  | Engine_intf.Interrupted _ -> Alcotest.fail "spurious interruption"

let () =
  Alcotest.run "engines"
    [
      ( "agreement",
        [
          Alcotest.test_case "triangle space" `Quick test_triangle_agreement;
          Alcotest.test_case "mixed space" `Quick test_mixed_agreement;
          Alcotest.test_case "triangle exact count" `Quick test_triangle_exact;
          Alcotest.test_case "deep nest" `Quick test_deep_nest;
          Alcotest.test_case "dynamic iterator algebra" `Quick
            test_dynamic_algebra_iterators;
          Alcotest.test_case "negative values" `Quick
            test_negative_values_everywhere;
          Alcotest.test_case "vm disassembly" `Quick test_vm_disassembly;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "pruned counts" `Quick test_stats_pruned_counts;
          Alcotest.test_case "vm = staged stats" `Quick
            test_vm_staged_stats_identical;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_stats_match_sequential;
          Alcotest.test_case "work stealing = staged on GEMM" `Quick
            test_work_stealing_matches_staged_on_gemm;
          Alcotest.test_case "more domains than trip count" `Quick
            test_parallel_more_domains_than_trip_count;
          Alcotest.test_case "firing depth-0 constraint deduped" `Quick
            test_parallel_firing_depth0_deduped;
        ] );
      ( "callbacks",
        [
          Alcotest.test_case "on_hit bindings" `Quick test_on_hit_receives_bindings;
          Alcotest.test_case "on_hit matches brute force" `Quick
            test_on_hit_matches_brute_force;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty space" `Quick test_empty_space;
          Alcotest.test_case "empty iterator" `Quick test_empty_iterator;
          Alcotest.test_case "division by zero" `Quick
            test_division_by_zero_propagates;
          Alcotest.test_case "failing chunk stops siblings" `Quick
            test_failing_chunk_stops_siblings;
        ] );
      ( "solved",
        [
          Alcotest.test_case "generator exercises the solved path" `Quick
            test_solved_generator_solves;
          Alcotest.test_case "unsafe ranges fall back to iterating" `Quick
            test_solved_fallbacks_iterate;
          Alcotest.test_case "solved outer loop across chunks" `Quick
            test_solved_outer_loop_chunks;
          Alcotest.test_case "GEMM stats files staged = vm" `Quick
            test_solved_loops_gemm_stats_io;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 15 |])
            prop_solved_loops_exact;
        ] );
      ( "registry",
        [
          Alcotest.test_case "resolves all names" `Quick
            test_registry_resolves_all_names;
          Alcotest.test_case "rejects bad specs" `Quick
            test_registry_rejects_bad_specs;
          Alcotest.test_case "engines agree via registry" `Quick
            test_registry_engines_agree;
          Alcotest.test_case "catalog capabilities" `Quick
            test_registry_catalog_capabilities;
          Alcotest.test_case "plan target runs as given" `Quick
            test_registry_plan_target;
          Alcotest.test_case "only parallel is resumable" `Quick
            test_registry_resumable_only_parallel;
          Alcotest.test_case "resumable closure runs" `Quick
            test_registry_resumable_runs;
          Alcotest.test_case "parallel:1 on_hit exactly once" `Quick
            test_registry_parallel_one_on_hit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engines_agree;
            prop_vm_staged_stats;
            prop_slices_partition;
            prop_chunks_partition;
            prop_work_stealing_matches_staged;
            prop_hoisting_preserves_semantics;
            prop_constraint_subsets_monotone;
          ] );
    ]
