(* The beast CLI: every space-taking subcommand must render --help
   without a cmdliner markup error (cmdliner prints such errors and
   still exits 0, so the output is checked too), and bad codegen input
   and spaces that fail to evaluate are one-line diagnostics with exit
   2. *)

let beast =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "beast.exe" ]

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let test_help cmd () =
  let out = Filename.temp_file "beast_help" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let rc =
        Sys.command
          (Filename.quote_command beast [ cmd; "--help=plain" ] ~stdout:out
             ~stderr:out)
      in
      let text = In_channel.with_open_text out In_channel.input_all in
      Alcotest.(check int) (cmd ^ " --help exit status") 0 rc;
      let has = contains text in
      Alcotest.(check bool)
        (Printf.sprintf "%s --help has no cmdliner error" cmd)
        false (has "cmdliner error");
      Alcotest.(check bool)
        (Printf.sprintf "%s --help documents SPACE" cmd)
        true (has "SPACE"))

(* Run beast with [args]; return the exit status, stdout and stderr. *)
let beast_run args =
  let out = Filename.temp_file "beast_cli" ".out"
  and err = Filename.temp_file "beast_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let rc =
        Sys.command (Filename.quote_command beast args ~stdout:out ~stderr:err)
      in
      let read f = In_channel.with_open_text f In_channel.input_all in
      (rc, read out, read err))

let test_codegen_usage_error args fragment () =
  let rc, out, err = beast_run ("codegen" :: args) in
  let cmd = String.concat " " ("codegen" :: args) in
  Alcotest.(check int) (cmd ^ " exit status") 2 rc;
  Alcotest.(check string) (cmd ^ " prints no program") "" out;
  Alcotest.(check bool)
    (Printf.sprintf "%s: diagnostic %S is one line naming %S" cmd err fragment)
    true
    (String.index_opt err '\n' = Some (String.length err - 1)
    && contains err fragment)

(* Write [lines] to a temporary .beast file for the duration of [f]. *)
let with_space lines f =
  let path = Filename.temp_file "beast_cli" ".beast" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      f path)

(* [big] divides by [a] = 0 on the first point. *)
let div_by_zero_space =
  [
    "space div0";
    "iter a = range(0, 3)";
    "iter b = range(0, 3)";
    "constraint hard big = 10 / a > b";
  ]

(* [pick] is the first step of the [b] loop, so the staged engine solves
   it, evaluating its coefficient [6 / a] once per entry of the loop:
   with [a] = 0 the entry has two values when [b_stop] is 2 and none
   when it is [2 * a]. *)
let solved_div_space b_stop =
  [
    "space solved_div0";
    "iter a = range(0, 3)";
    "iter b = range(a, " ^ b_stop ^ ")";
    "constraint correctness pick = b * (6 / a) != 6";
  ]

let test_eval_error lines engine () =
  with_space lines (fun path ->
      let rc, out, err = beast_run [ "sweep"; path; "--engine"; engine ] in
      Alcotest.(check int) (engine ^ " exit status") 2 rc;
      Alcotest.(check string) (engine ^ " prints no statistics") "" out;
      Alcotest.(check string)
        (engine ^ " diagnostic")
        "beast: evaluation error: division by zero\n" err)

let test_solved_trip0_skips_coefficient engine () =
  (* a = 0 opens b over range(0, 0): the coefficient is never evaluated,
     as an unsolved loop would never evaluate the check. a = 1 and a = 2
     keep b = 1 and b = 2. *)
  with_space (solved_div_space "2 * a") (fun path ->
      let rc, out, _ = beast_run [ "sweep"; path; "--engine"; engine ] in
      Alcotest.(check int) (engine ^ " exit status") 0 rc;
      Alcotest.(check bool)
        (engine ^ " reports two survivors")
        true (contains out "survivors: 2"))

let ocaml_engines = [ "interp-naive"; "interp"; "vm"; "staged"; "parallel:2" ]

let () =
  Alcotest.run "cli"
    [
      ( "help",
        List.map
          (fun cmd -> Alcotest.test_case cmd `Quick (test_help cmd))
          [ "sweep"; "count"; "sample"; "tune" ] );
      ( "codegen",
        [
          Alcotest.test_case "untranslatable space" `Quick
            (test_codegen_usage_error
               [ "gemm-opt"; "--lang"; "c" ]
               "cannot translate gemm-opt");
          Alcotest.test_case "zero threads" `Quick
            (test_codegen_usage_error [ "gemm"; "--threads"; "0" ]
               "--threads must be >= 1");
          Alcotest.test_case "threads outside C" `Quick
            (test_codegen_usage_error
               [ "gemm"; "--lang"; "python"; "--threads"; "4" ]
               "--threads applies to --lang c only");
        ] );
      ( "eval-error",
        List.map
          (fun e ->
            Alcotest.test_case e `Quick (test_eval_error div_by_zero_space e))
          ocaml_engines
        @ List.map
            (fun e ->
              Alcotest.test_case ("solved coefficient, " ^ e) `Quick
                (test_eval_error (solved_div_space "2") e))
            [ "vm"; "staged" ]
        @ List.map
            (fun e ->
              Alcotest.test_case ("solved coefficient, trip 0, " ^ e) `Quick
                (test_solved_trip0_skips_coefficient e))
            [ "vm"; "staged" ] );
    ]
