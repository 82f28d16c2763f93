module Diag = Sharpe_numerics.Diag

(* forces the Builtins module to be linked so that its dispatcher is
   registered with the evaluator *)
let () = assert Builtins.init_done

let run_string ?(print = print_string) src =
  let stmts = Parser.parse_string ~warn:(fun w -> print (w ^ "\n")) src in
  let env = Eval.make_env ~print () in
  ignore (Eval.exec_stmts (Eval.base_ctx env) stmts)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let run_file ?print path = run_string ?print (read_file path)

let eval_output src =
  let buf = Buffer.create 1024 in
  run_string ~print:(Buffer.add_string buf) src;
  Buffer.contents buf

(* --- diagnostic-collecting runner ------------------------------------- *)

type outcome = {
  diagnostics : Diag.record list;
  failed_statements : int;
}

(* Parse and execute [src] against an EXISTING environment with
   per-statement error recovery, collecting diagnostics into a fresh
   sink.  This is the shared core of the batch runner ([run_program],
   fresh environment per call) and the evaluation server's sessions
   (persistent environment, one call per request).

   A [Deadline.Timed_out] is deliberately NOT recovered per-statement:
   a cancellation must unwind the whole evaluation, so it propagates to
   the caller (the sink machinery is exception-safe; output printed so
   far is still in the caller's buffer). *)
let exec_with_recovery env src =
  let sink = Diag.create_sink () in
  let failed = ref 0 in
  Diag.with_sink sink (fun () ->
      let stmts =
        try
          Some
            (Parser.parse_string
               ~warn:(fun w ->
                 env.Eval.print (w ^ "\n");
                 Diag.emit Diag.Warning ~solver:"lexer" w)
               src)
        with Parser.Parse_error msg ->
          incr failed;
          Diag.emit Diag.Error ~solver:"parser" msg;
          None
      in
      match stmts with
      | None -> ()
      | Some stmts ->
          let ctx = Eval.base_ctx env in
          (* one failing statement aborts neither the file nor the
             remaining statements: its error becomes a diagnostic *)
          List.iteri
            (fun i s ->
              Diag.with_context
                (Printf.sprintf "statement %d" (i + 1))
                (fun () ->
                  try ignore (Eval.exec_stmt ctx s) with
                  | Eval.Error msg | Failure msg | Invalid_argument msg ->
                      incr failed;
                      Diag.emit Diag.Error ~solver:"eval" msg
                  | Sharpe_numerics.Linsolve.Singular ->
                      incr failed;
                      Diag.emit Diag.Error ~solver:"eval"
                        "singular linear system (model has no unique solution)"))
            stmts);
  { diagnostics = Diag.records sink; failed_statements = !failed }

let run_program ?(print = print_string) ?fuel_limit src =
  exec_with_recovery (Eval.make_env ~print ?fuel_limit ()) src

let run_program_file ?print path =
  match read_file path with
  | src -> run_program ?print src
  | exception Sys_error msg ->
      { diagnostics =
          [ { Diag.severity = Diag.Error;
              solver = "cli";
              context = Diag.current_context ();
              message = msg;
              iterations = None;
              residual = None;
              tolerance = None } ];
        failed_statements = 1 }

(* --- sessions ---------------------------------------------------------- *)

(* A session is a persistent interpreter environment: bindings, function
   and model definitions, number-format state, the time side and the
   instance cache all survive across [eval] calls, while output and diagnostics
   are collected per call.  Everything mutable lives inside the session's
   [Eval.env] (the PR-1 interpreter kept this state per-run already; the
   fuel limit was the last process-global and now lives in the env too),
   so two sessions can evaluate concurrently on different domains without
   observing each other — the evaluation server relies on exactly that. *)

module Session = struct
  type t = {
    senv : Eval.env;
    sbuf : Buffer.t ref; (* swapped fresh for every eval *)
  }

  let create ?fuel_limit () =
    let sbuf = ref (Buffer.create 256) in
    let print s = Buffer.add_string !sbuf s in
    { senv = Eval.make_env ~print ?fuel_limit (); sbuf }

  let pending_output t = Buffer.contents !(t.sbuf)

  (* Everything a session retains between requests — env bindings, model
     definitions, the per-env instance cache, buffered output — is
     reachable from [t], so one traversal prices the whole session.  The
     evaluation server feeds these into its global memory budget; the
     walk is proportional to the session's own heap, which per-session
     caps keep modest. *)
  let approx_bytes t = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8)

  let eval t src =
    t.sbuf := Buffer.create 1024;
    let outcome = exec_with_recovery t.senv src in
    (Buffer.contents !(t.sbuf), outcome)

  let bind t name value = Eval.set_binding t.senv name (Eval.Val value)

  let query t src =
    match Parser.parse_expression src with
    | exception Parser.Parse_error msg -> Error msg
    | e -> (
        match Eval.eval_expr (Eval.base_ctx t.senv) e with
        | v -> Ok v
        | exception (Eval.Error msg | Failure msg | Invalid_argument msg) ->
            Error msg
        | exception Sharpe_numerics.Linsolve.Singular ->
            Error "singular linear system (model has no unique solution)")
end
