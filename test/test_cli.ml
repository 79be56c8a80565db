(* The beast CLI: every space-taking subcommand must render --help
   without a cmdliner markup error (cmdliner prints such errors and
   still exits 0, so the output is checked too), and bad codegen input
   is a one-line diagnostic with exit 2. *)

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
    ]
