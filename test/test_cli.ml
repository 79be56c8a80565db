(* The beast CLI's manual pages: every space-taking subcommand must
   render --help without a cmdliner markup error (cmdliner prints such
   errors and still exits 0, so the output is checked too). *)

let beast =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "beast.exe" ]

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
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length text
          && (String.sub text i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s --help has no cmdliner error" cmd)
        false (has "cmdliner error");
      Alcotest.(check bool)
        (Printf.sprintf "%s --help documents SPACE" cmd)
        true (has "SPACE"))

let () =
  Alcotest.run "cli"
    [
      ( "help",
        List.map
          (fun cmd -> Alcotest.test_case cmd `Quick (test_help cmd))
          [ "sweep"; "count"; "sample"; "tune" ] );
    ]
