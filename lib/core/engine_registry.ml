(* Name-keyed engine selection: the one place that knows which engine
   modules exist. The CLI, the tuner and the bench all resolve engines
   through [find], so adding an engine means adding it here instead of
   updating four hand-written match arms. *)

module Interp_naive : Engine_intf.S = struct
  let name = "interp-naive"

  let run ?on_hit = function
    | Engine_intf.Space space ->
      Engine_interp.run ?on_hit ~variant:`Naive space
    | Engine_intf.Plan plan ->
      (* A handed-in plan is executed as given: the naive cost model
         only exists for spaces this engine plans itself. *)
      Engine_interp.run_plan ?on_hit plan

  let resumable = None
end

module Interp : Engine_intf.S = struct
  let name = "interp"

  let run ?on_hit = function
    | Engine_intf.Space space ->
      Engine_interp.run ?on_hit ~variant:`Hoisted space
    | Engine_intf.Plan plan -> Engine_interp.run_plan ?on_hit plan

  let resumable = None
end

module Vm : Engine_intf.S = struct
  let name = "vm"

  let run ?on_hit = function
    | Engine_intf.Space space -> Engine_vm.run_space ?on_hit space
    | Engine_intf.Plan plan -> Engine_vm.run_plan ?on_hit plan

  let resumable = None
end

module Staged : Engine_intf.S = struct
  let name = "staged"

  let run ?on_hit = function
    | Engine_intf.Space space -> Engine_staged.run_space ?on_hit space
    | Engine_intf.Plan plan -> Engine_staged.run ?on_hit plan

  let resumable = None
end

let default_parallel_domains = 4

let parallel domains : (module Engine_intf.S) =
  if domains < 1 then invalid_arg "Engine_registry.parallel: domains < 1";
  (module struct
    let name = Printf.sprintf "parallel-%d" domains

    let run ?on_hit target =
      let plan =
        match target with
        | Engine_intf.Space space -> Plan.make_exn space
        | Engine_intf.Plan plan -> plan
      in
      match Engine_parallel.run ?on_hit ~domains plan with
      | Engine_intf.Finished stats -> stats
      | Engine_intf.Interrupted { completed; total } ->
        failwith
          (Printf.sprintf "%s: interrupted after %d of %d chunks" name
             completed total)

    let resumable = Some (Engine_parallel.run ~domains)
  end)

module Native : Engine_intf.S = struct
  let name = "native"

  let run ?on_hit = function
    | Engine_intf.Space space -> Engine_native.run_space ?on_hit space
    | Engine_intf.Plan plan -> Engine_native.run ?on_hit plan

  let resumable = None
end

let default_native_threads = 1

let native threads : (module Engine_intf.S) =
  if threads < 1 then invalid_arg "Engine_registry.native: threads < 1";
  (module struct
    let name = Printf.sprintf "native-%d" threads

    let run ?on_hit = function
      | Engine_intf.Space space ->
        Engine_native.run_space ?on_hit ~threads space
      | Engine_intf.Plan plan -> Engine_native.run ?on_hit ~threads plan

    let resumable = None
  end)

(* The single source of truth for what engines exist and how the CLI
   should treat them: [names] (help text, error messages), the
   [beast engines] listing, the per-engine --propagate default and the
   resumable/opaque capability checks all derive from these entries,
   so none of them can drift from [find]. *)
type entry = {
  e_spec : string;  (* accepted spec, parameters in brackets *)
  e_descr : string;  (* one line for [beast engines] *)
  e_propagate_default : bool;
      (* run [Propagate.pass] over the plan unless --propagate
         overrides; off only for the deliberately-unoptimized
         baseline, whose cost model is the whole point *)
  e_opaque : bool;
      (* can evaluate opaque computes and iterators (deferred OCaml
         closures); the generated-C tier cannot call back into the
         host program *)
  e_resumable : bool;  (* keeps a chunk ledger (checkpoint/resume/fault) *)
}

let catalog =
  [
    {
      e_spec = "interp-naive";
      e_descr =
        "tree-walking interpreter, nothing hoisted (the paper's \
         scripting-language baseline)";
      e_propagate_default = false;
      e_opaque = true;
      e_resumable = false;
    };
    {
      e_spec = "interp";
      e_descr = "tree-walking interpreter over the hoisted plan";
      e_propagate_default = true;
      e_opaque = true;
      e_resumable = false;
    };
    {
      e_spec = "vm";
      e_descr = "bytecode compiler + stack VM";
      e_propagate_default = true;
      e_opaque = true;
      e_resumable = false;
    };
    {
      e_spec = "staged";
      e_descr = "closure-staged compiler (the default)";
      e_propagate_default = true;
      e_opaque = true;
      e_resumable = false;
    };
    {
      e_spec = "parallel[:DOMAINS]";
      e_descr =
        "work-stealing staged sweep across OCaml domains (default 4); the \
         only resumable engine";
      e_propagate_default = true;
      e_opaque = true;
      e_resumable = true;
    };
    {
      e_spec = "native[:THREADS]";
      e_descr =
        "generated C compiled with $BEAST_CC/cc -O2 and run as a subprocess \
         (default 1 thread)";
      e_propagate_default = true;
      e_opaque = false;
      e_resumable = false;
    };
  ]

let names = List.map (fun e -> e.e_spec) catalog

let entry_base e =
  match String.index_opt e.e_spec '[' with
  | None -> e.e_spec
  | Some k -> String.sub e.e_spec 0 k

(* Accepts both spec syntax ("parallel:8") and resolved engine names
   ("parallel-8"): exact base first, so "interp-naive" never falls into
   "interp"'s parameterized-suffix case. *)
let entry_of spec =
  match List.find_opt (fun e -> entry_base e = spec) catalog with
  | Some _ as found -> found
  | None ->
    List.find_opt
      (fun e ->
        let b = entry_base e in
        let lb = String.length b in
        String.length spec > lb
        && String.sub spec 0 lb = b
        && (spec.[lb] = ':' || spec.[lb] = '-'))
      catalog

let find spec : ((module Engine_intf.S), string) result =
  let base, param =
    match String.index_opt spec ':' with
    | None -> (spec, None)
    | Some k ->
      ( String.sub spec 0 k,
        Some (String.sub spec (k + 1) (String.length spec - k - 1)) )
  in
  let fixed m =
    match param with
    | None -> Ok m
    | Some p ->
      Error
        (Printf.sprintf "the %s engine takes no parameter (got %S)" base p)
  in
  match base with
  | "interp-naive" -> fixed (module Interp_naive : Engine_intf.S)
  | "interp" -> fixed (module Interp : Engine_intf.S)
  | "vm" -> fixed (module Vm : Engine_intf.S)
  | "staged" -> fixed (module Staged : Engine_intf.S)
  | "parallel" -> (
    match param with
    | None -> Ok (parallel default_parallel_domains)
    | Some p -> (
      match int_of_string_opt p with
      | Some n when n >= 1 -> Ok (parallel n)
      | Some n ->
        Error (Printf.sprintf "parallel: need at least 1 domain (got %d)" n)
      | None ->
        Error
          (Printf.sprintf "parallel: expected a domain count, got %S" p)))
  | "native" -> (
    match param with
    | None -> Ok (module Native : Engine_intf.S)
    | Some p -> (
      match int_of_string_opt p with
      | Some n when n >= 1 -> Ok (native n)
      | Some n ->
        Error (Printf.sprintf "native: need at least 1 thread (got %d)" n)
      | None ->
        Error (Printf.sprintf "native: expected a thread count, got %S" p)))
  | _ ->
    Error
      (Printf.sprintf "unknown engine %s (try: %s)" spec
         (String.concat ", " names))
