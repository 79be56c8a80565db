(* Staging: every expression is compiled once into a [unit -> int] closure
   reading the shared slot array; the step list is compiled into a single
   [unit -> unit] continuation chain. After compilation the sweep runs
   without looking at the plan again.

   When tracing or progress reporting is active (Obs.instrumenting) the
   steps are compiled by a second, instrumented compiler that also
   counts per-depth loop entries, accumulates per-constraint evaluation
   time and samples throughput; the choice is made once per run, at
   compile time, so the uninstrumented closures carry no observation
   cost. Only the uninstrumented chain solves loops (Plan.solved_loop);
   the instrumented ones iterate every value they attribute.

   An installed Metrics registry selects the same instrumented compiler
   and additionally feeds each constraint evaluation into a per-domain
   latency histogram; histogram handles are resolved here, once per run,
   so the hot closure does an array read and a constant-time record. *)

open Beast_obs

let run ?on_hit (plan : Plan.t) =
  let metrics = Metrics.current () in
  let prov = Provenance.current () in
  (* Provenance accumulates into a run-private local (no synchronization
     in the hot path) published into the ambient collector at run end,
     so parallel chunk runs compose by summation. *)
  let plocal =
    Option.map (fun _ -> Provenance.local_of (Provenance.attribution plan)) prov
  in
  (* Per-constraint evaluation-latency histograms ([None] = metrics off). *)
  let eval_hists =
    Option.map
      (fun r ->
        Array.map
          (fun (name, _) ->
            Metrics.histogram r ~unit_:"ns" ~name:"constraint_eval_ns"
              ~labels:[ ("constraint", name) ]
              ())
          plan.Plan.constraint_info)
      metrics
  in
  let slots = Array.make (max 1 plan.Plan.n_slots) 0 in
  let n_constraints = Array.length plan.Plan.constraint_info in
  let pruned = Array.make n_constraints 0 in
  let survivors = ref 0 in
  let loop_iterations = ref 0 in
  let rec compile_cexpr (e : Plan.cexpr) : unit -> int =
    match e with
    | CLit k -> fun () -> k
    | CSlot i -> fun () -> slots.(i)
    | CUn (Neg, a) ->
      let fa = compile_cexpr a in
      fun () -> -fa ()
    | CUn (Not, a) ->
      let fa = compile_cexpr a in
      fun () -> if fa () = 0 then 1 else 0
    | CBin (And, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () = 0 then 0 else if fb () = 0 then 0 else 1
    | CBin (Or, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () <> 0 then 1 else if fb () <> 0 then 1 else 0
    | CBin (Add, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> fa () + fb ()
    | CBin (Sub, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> fa () - fb ()
    | CBin (Mul, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> fa () * fb ()
    | CBin (Div, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> fa () / fb ()
    | CBin (Mod, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> fa () mod fb ()
    | CBin (Eq, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () = fb () then 1 else 0
    | CBin (Ne, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () <> fb () then 1 else 0
    | CBin (Lt, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () < fb () then 1 else 0
    | CBin (Le, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () <= fb () then 1 else 0
    | CBin (Gt, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () > fb () then 1 else 0
    | CBin (Ge, a, b) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> if fa () >= fb () then 1 else 0
    | CIf (c, t, f) ->
      let fc = compile_cexpr c and ft = compile_cexpr t and ff = compile_cexpr f in
      fun () -> if fc () <> 0 then ft () else ff ()
    | CCall (Min, [ a; b ]) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> min (fa ()) (fb ())
    | CCall (Max, [ a; b ]) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () -> max (fa ()) (fb ())
    | CCall (Abs, [ a ]) ->
      let fa = compile_cexpr a in
      fun () -> abs (fa ())
    | CCall (Ceil_div, [ a; b ]) ->
      let fa = compile_cexpr a and fb = compile_cexpr b in
      fun () ->
        let d = fb () in
        (fa () + d - 1) / d
    | CCall _ -> invalid_arg "Engine_staged: malformed builtin call"
  in
  let compile_compute = function
    | Plan.CE e -> compile_cexpr e
    | Plan.CF f -> fun () -> f slots
  in
  let hit =
    match on_hit with
    | None -> fun () -> incr survivors
    | Some f ->
      let lookup = Plan.lookup_of_slots plan slots in
      fun () ->
        incr survivors;
        f lookup
  in
  (* Visit range(start, stop, step) in [slot], running [body] per value. *)
  let iterate slot start stop step body =
    let i = ref start in
    if step > 0 then
      while !i < stop do
        slots.(slot) <- !i;
        incr loop_iterations;
        body ();
        i := !i + step
      done
    else
      while !i > stop do
        slots.(slot) <- !i;
        incr loop_iterations;
        body ();
        i := !i + step
      done
  in
  let rec compile_steps (steps : Plan.step list) : unit -> unit =
    match steps with
    | [] -> fun () -> ()
    | Yield :: rest ->
      let k = compile_steps rest in
      fun () ->
        hit ();
        k ()
    | Derive { d_slot; d_compute; _ } :: rest ->
      let f = compile_compute d_compute in
      let k = compile_steps rest in
      fun () ->
        slots.(d_slot) <- f ();
        k ()
    | Check { c_index; c_compute; _ } :: rest ->
      let f = compile_compute c_compute in
      let k = compile_steps rest in
      fun () ->
        if f () <> 0 then pruned.(c_index) <- pruned.(c_index) + 1 else k ()
    | Static_prune { sp_dead; _ } :: rest ->
      (* Statistics compensation for statically-removed loop entries:
         the following loop never visits the dead values, but the stats
         must read as if it had entered each one and the attributed
         constraint had fired. *)
      let k = compile_steps rest in
      let n = Array.length sp_dead in
      let counts = Plan.static_prune_counts sp_dead in
      fun () ->
        loop_iterations := !loop_iterations + n;
        Array.iter (fun (c, m) -> pruned.(c) <- pruned.(c) + m) counts;
        k ()
    | (Loop { l_var; l_slot; l_iter; l_body } as loop) :: rest -> (
      let k = compile_steps rest in
      match (l_iter, Plan.solved_loop loop) with
      | CRange (a, b, c), Some sv ->
        compile_solved l_var l_slot (a, b, c) sv (compile_steps sv.sv_rest) k
      | _ -> compile_loop l_var l_slot l_iter (compile_steps l_body) k)
  (* Solved loop (Plan.solved_loop): the first body step is
     [x*m != r], so at most [r/m] reaches the rest of the body. Each
     entry evaluates [m] and [r] once and jumps to that value; the
     values it skips are accounted as entered and fired, as Static_prune
     compensation does. An entry with trip count 0 evaluates neither, as
     the unsolved loop would not. *)
  and compile_solved l_var l_slot (a, b, c) (sv : Plan.solved) rest k =
    let fa = compile_cexpr a and fb = compile_cexpr b and fc = compile_cexpr c in
    let fm = compile_cexpr sv.sv_coeff and fr = compile_cexpr sv.sv_target in
    let check = sv.sv_check in
    let visit () =
      if slots.(l_slot) * fm () <> fr () then
        pruned.(check) <- pruned.(check) + 1
      else rest ()
    in
    fun () ->
      let stop = fb () and step = fc () in
      if step = 0 then
        raise (Expr.Eval_error (Printf.sprintf "%s: zero range step" l_var));
      let start = fa () in
      if if step > 0 then start < stop else start > stop then begin
        let coeff = fm () and target = fr () in
        match Plan.solve_range ~start ~stop ~step ~coeff ~target with
        | Miss ->
          let trip = Plan.trip_count ~start ~stop ~step in
          loop_iterations := !loop_iterations + trip;
          pruned.(check) <- pruned.(check) + trip
        | Hit ->
          let trip = Plan.trip_count ~start ~stop ~step in
          loop_iterations := !loop_iterations + trip;
          pruned.(check) <- pruned.(check) + trip - 1;
          slots.(l_slot) <- target / coeff;
          rest ()
        | Iterate -> iterate l_slot start stop step visit
      end;
      k ()
  and compile_loop l_var l_slot l_iter body k =
    match l_iter with
    | CRange (a, b, c) ->
      let fa = compile_cexpr a and fb = compile_cexpr b and fc = compile_cexpr c in
      fun () ->
        let stop = fb () and step = fc () in
        if step = 0 then
          raise (Expr.Eval_error (Printf.sprintf "%s: zero range step" l_var));
        iterate l_slot (fa ()) stop step body;
        k ()
    | CValues vs ->
      fun () ->
        for j = 0 to Array.length vs - 1 do
          slots.(l_slot) <- vs.(j);
          incr loop_iterations;
          body ()
        done;
        k ()
    | CDyn materialize ->
      fun () ->
        let vs = materialize slots in
        for j = 0 to Array.length vs - 1 do
          slots.(l_slot) <- vs.(j);
          incr loop_iterations;
          body ()
        done;
        k ()
  in
  (* Instrumented compiler: same continuation chain, with per-depth
     entry counts, per-level cumulative time, per-constraint evaluation
     time and periodic sampling folded into the closures. *)
  let n_loops = List.length plan.Plan.iter_order in
  let check_time = Array.make (max 1 n_constraints) 0 in
  let depth_entries = Array.make (max 1 n_loops) 0 in
  let level_time = Array.make (max 1 n_loops) 0 in
  let outer_total = ref 0 in
  let outer_done = ref 0 in
  let sampler = Engine.make_sampler () in
  let frac () =
    if !outer_total > 0 then
      float_of_int !outer_done /. float_of_int !outer_total
    else -1.0
  in
  let tick () =
    if !loop_iterations land Engine.sample_mask = 0 then
      Engine.sample sampler ~points:!loop_iterations ~survivors:!survivors
        ~frac:(frac ())
  in
  (* Resolved once per run: no-ops unless a provenance collector is
     installed, so the instrumented-for-metrics path pays one indirect
     call per firing/survivor at most. *)
  let prov_fire, prov_hit =
    match plocal with
    | None -> ((fun _ -> ()), fun () -> ())
    | Some pl ->
      ( (fun c -> Provenance.fire pl slots c),
        fun () -> Provenance.hit pl slots )
  in
  (* Shared by both instrumented compilers: replay a Static_prune's dead
     values into the statistics (and, when a provenance collector is
     installed, into the per-constraint removal/cell accounting, with
     the dead value substituted into the loop's slot). *)
  let compile_static_prune ~depth sp_slot (sp_dead : (int * int) array) =
    let n = Array.length sp_dead in
    match plocal with
    | None ->
      let counts = Plan.static_prune_counts sp_dead in
      fun () ->
        loop_iterations := !loop_iterations + n;
        depth_entries.(depth) <- depth_entries.(depth) + n;
        Array.iter (fun (c, m) -> pruned.(c) <- pruned.(c) + m) counts
    | Some pl ->
      fun () ->
        loop_iterations := !loop_iterations + n;
        depth_entries.(depth) <- depth_entries.(depth) + n;
        Array.iter
          (fun (v, c) ->
            pruned.(c) <- pruned.(c) + 1;
            Provenance.static_fire pl slots ~slot:sp_slot ~value:v c)
          sp_dead
  in
  let rec compile_steps_instr ~depth (steps : Plan.step list) : unit -> unit =
    match steps with
    | [] -> fun () -> ()
    | Yield :: rest ->
      let k = compile_steps_instr ~depth rest in
      fun () ->
        hit ();
        prov_hit ();
        k ()
    | Derive { d_slot; d_compute; _ } :: rest ->
      let f = compile_compute d_compute in
      let k = compile_steps_instr ~depth rest in
      fun () ->
        slots.(d_slot) <- f ();
        k ()
    | Check { c_index; c_compute; _ } :: rest -> (
      let f = compile_compute c_compute in
      let k = compile_steps_instr ~depth rest in
      match eval_hists with
      | None ->
        fun () ->
          let t0 = Clock.now_ns () in
          let v = f () in
          check_time.(c_index) <- check_time.(c_index) + (Clock.now_ns () - t0);
          if v <> 0 then begin
            pruned.(c_index) <- pruned.(c_index) + 1;
            prov_fire c_index
          end
          else k ()
      | Some hists ->
        let h = hists.(c_index) in
        fun () ->
          let t0 = Clock.now_ns () in
          let v = f () in
          let dt = Clock.now_ns () - t0 in
          check_time.(c_index) <- check_time.(c_index) + dt;
          Metrics.record h dt;
          if v <> 0 then begin
            pruned.(c_index) <- pruned.(c_index) + 1;
            prov_fire c_index
          end
          else k ())
    | Static_prune { sp_slot; sp_dead; _ } :: rest ->
      let replay = compile_static_prune ~depth sp_slot sp_dead in
      let k = compile_steps_instr ~depth rest in
      fun () ->
        replay ();
        k ()
    | Loop { l_var; l_slot; l_iter; l_body; _ } :: rest -> (
      let body = compile_steps_instr ~depth:(depth + 1) l_body in
      let k = compile_steps_instr ~depth rest in
      let enter v =
        slots.(l_slot) <- v;
        incr loop_iterations;
        depth_entries.(depth) <- depth_entries.(depth) + 1;
        if depth = 0 then incr outer_done;
        tick ();
        body ()
      in
      match l_iter with
      | CRange (a, b, c) ->
        let fa = compile_cexpr a and fb = compile_cexpr b and fc = compile_cexpr c in
        fun () ->
          let t0 = Clock.now_ns () in
          let start = fa () and stop = fb () and step = fc () in
          if step = 0 then
            raise (Expr.Eval_error (Printf.sprintf "%s: zero range step" l_var));
          if depth = 0 then
            outer_total := Plan.trip_count ~start ~stop ~step;
          let i = ref start in
          if step > 0 then
            while !i < stop do
              enter !i;
              i := !i + step
            done
          else
            while !i > stop do
              enter !i;
              i := !i + step
            done;
          level_time.(depth) <- level_time.(depth) + (Clock.now_ns () - t0);
          k ()
      | CValues vs ->
        fun () ->
          let t0 = Clock.now_ns () in
          if depth = 0 then outer_total := Array.length vs;
          for j = 0 to Array.length vs - 1 do
            enter vs.(j)
          done;
          level_time.(depth) <- level_time.(depth) + (Clock.now_ns () - t0);
          k ()
      | CDyn materialize ->
        fun () ->
          let t0 = Clock.now_ns () in
          let vs = materialize slots in
          if depth = 0 then outer_total := Array.length vs;
          for j = 0 to Array.length vs - 1 do
            enter vs.(j)
          done;
          level_time.(depth) <- level_time.(depth) + (Clock.now_ns () - t0);
          k ())
  in
  (* Provenance-only compiler: the plain continuation chain plus the
     fire/hit hooks and per-depth entry counts provenance publishes —
     none of the clock reads or sampling of the fully instrumented
     path, which would otherwise dominate a provenance-enabled sweep
     (two timestamps per constraint evaluation). *)
  let rec compile_steps_prov ~depth (steps : Plan.step list) : unit -> unit =
    match steps with
    | [] -> fun () -> ()
    | Yield :: rest ->
      let k = compile_steps_prov ~depth rest in
      fun () ->
        hit ();
        prov_hit ();
        k ()
    | Derive { d_slot; d_compute; _ } :: rest ->
      let f = compile_compute d_compute in
      let k = compile_steps_prov ~depth rest in
      fun () ->
        slots.(d_slot) <- f ();
        k ()
    | Check { c_index; c_compute; _ } :: rest ->
      let f = compile_compute c_compute in
      let k = compile_steps_prov ~depth rest in
      fun () ->
        if f () <> 0 then begin
          pruned.(c_index) <- pruned.(c_index) + 1;
          prov_fire c_index
        end
        else k ()
    | Static_prune { sp_slot; sp_dead; _ } :: rest ->
      let replay = compile_static_prune ~depth sp_slot sp_dead in
      let k = compile_steps_prov ~depth rest in
      fun () ->
        replay ();
        k ()
    | Loop { l_var; l_slot; l_iter; l_body; _ } :: rest -> (
      let body = compile_steps_prov ~depth:(depth + 1) l_body in
      let k = compile_steps_prov ~depth rest in
      let enter v =
        slots.(l_slot) <- v;
        incr loop_iterations;
        depth_entries.(depth) <- depth_entries.(depth) + 1;
        body ()
      in
      match l_iter with
      | CRange (a, b, c) ->
        let fa = compile_cexpr a and fb = compile_cexpr b and fc = compile_cexpr c in
        fun () ->
          let stop = fb () and step = fc () in
          if step = 0 then
            raise (Expr.Eval_error (Printf.sprintf "%s: zero range step" l_var));
          let i = ref (fa ()) in
          if step > 0 then
            while !i < stop do
              enter !i;
              i := !i + step
            done
          else
            while !i > stop do
              enter !i;
              i := !i + step
            done;
          k ()
      | CValues vs ->
        fun () ->
          for j = 0 to Array.length vs - 1 do
            enter vs.(j)
          done;
          k ()
      | CDyn materialize ->
        fun () ->
          let vs = materialize slots in
          for j = 0 to Array.length vs - 1 do
            enter vs.(j)
          done;
          k ())
  in
  let full_instr = Obs.instrumenting () || metrics <> None in
  let sweep =
    if full_instr then compile_steps_instr ~depth:0 plan.Plan.steps
    else if plocal <> None then compile_steps_prov ~depth:0 plan.Plan.steps
    else compile_steps plan.Plan.steps
  in
  let t0 = Clock.now_ns () in
  Obs.with_span ~cat:"engine"
    ~args:[ ("space", Obs.Str plan.Plan.space_name) ]
    "sweep:staged" sweep;
  if full_instr then
    Engine.emit_run_aggregates ~t0 plan ~pruned ~check_time ~depth_entries
      ~level_time;
  (* Unconditional: one hook check per run, and the cheap way a coarse
     status heartbeat learns per-chunk point totals. *)
  Obs.progress_tick ~points:!loop_iterations ~survivors:!survivors ~frac:1.0;
  (match (prov, plocal) with
  | Some collector, Some pl -> Provenance.publish collector ~depth_entries pl
  | _ -> ());
  (* Counters add across chunks and shards, so per-run adds compose. *)
  Option.iter
    (fun r ->
      List.iteri
        (fun d var ->
          Metrics.add
            (Metrics.counter r ~name:"loop_entries_total"
               ~labels:[ ("depth", string_of_int d); ("var", var) ]
               ())
            depth_entries.(d))
        plan.Plan.iter_order;
      Metrics.add (Metrics.counter r ~name:"points_total" ~labels:[] ())
        !loop_iterations;
      Metrics.add (Metrics.counter r ~name:"survivors_total" ~labels:[] ())
        !survivors)
    metrics;
  {
    Engine.survivors = !survivors;
    loop_iterations = !loop_iterations;
    pruned =
      Array.mapi
        (fun i (n, c) -> (n, c, pruned.(i)))
        plan.Plan.constraint_info;
  }

let run_space ?on_hit space = run ?on_hit (Plan.make_exn space)
