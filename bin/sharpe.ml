(* The SHARPE command-line tool: execute SHARPE-language input files.

   Guard rails: every file runs under a diagnostic sink with per-statement
   error recovery — a failing model definition is reported and the rest of
   the file keeps executing.  Diagnostics go to stderr (human form) or
   stdout (--diagnostics json); the exit code tells automation what
   happened: 0 clean, 1 any error, 2 any warning-or-worse under --strict,
   3 when --timeout expired and the run was cancelled. *)

module Diag = Sharpe_numerics.Diag
module Deadline = Sharpe_numerics.Deadline
module Linsolve = Sharpe_numerics.Linsolve
module Interp = Sharpe_lang.Interp
module Pool = Sharpe_numerics.Pool
module Structhash = Sharpe_numerics.Structhash
module Check = Sharpe_check.Check

let run_batch timeout files =
  let all = ref [] and failed = ref 0 in
  let execute () =
    List.iter
      (fun path ->
        let outcome =
          Diag.with_context path (fun () -> Interp.run_program_file path)
        in
        all := !all @ outcome.Interp.diagnostics;
        failed := !failed + outcome.Interp.failed_statements)
      files
  in
  let timed_out = ref false in
  (match timeout with
  | None -> execute ()
  | Some s -> (
      try Deadline.with_timeout s execute
      with Deadline.Timed_out ->
        timed_out := true;
        all :=
          !all
          @ [ { Diag.severity = Diag.Error;
                solver = "cli";
                context = [];
                message =
                  Printf.sprintf
                    "timeout: run cancelled after %g seconds; remaining \
                     statements and files were skipped"
                    s;
                iterations = None;
                residual = None;
                tolerance = None } ]));
  (!all, !failed, !timed_out)

let report strict diag_fmt cache_stats (records, failed, timed_out) =
  let all = ref records in
  if cache_stats then begin
    let _, recs = Diag.capture (fun () -> Structhash.report ()) in
    match diag_fmt with
    | `Json -> all := !all @ recs
    | `Human ->
        List.iter
          (fun r -> prerr_endline ("sharpe: " ^ Diag.record_to_string r))
          recs
  end;
  let records = !all in
  let count sev =
    List.length (List.filter (fun r -> r.Diag.severity = sev) records)
  in
  let worst_rank =
    List.fold_left
      (fun m r -> max m (Diag.severity_rank r.Diag.severity))
      (-1) records
  in
  (match diag_fmt with
  | `Json -> print_string (Diag.records_to_json records ^ "\n")
  | `Human ->
      List.iter
        (fun r ->
          if Diag.severity_rank r.Diag.severity >= Diag.severity_rank Diag.Warning
          then prerr_endline ("sharpe: " ^ Diag.record_to_string r))
        records;
      if records <> [] then
        Printf.eprintf
          "sharpe: diagnostics: %d info, %d warning, %d fallback, %d non-convergence, %d error\n"
          (count Diag.Info) (count Diag.Warning) (count Diag.Fallback)
          (count Diag.Non_convergence) (count Diag.Error));
  if timed_out then 3
  else if failed > 0 || count Diag.Error > 0 then 1
  else if strict && worst_rank >= Diag.severity_rank Diag.Warning then 2
  else 0

(* --selfcheck: run the differential verification harness instead of
   input files.  The per-pair summary goes to stderr; discrepancies and
   engine errors are ordinary error-severity diagnostics, so the
   reporting and exit-code logic of a batch run applies unchanged
   (0 clean, 1 any discrepancy/error, 3 timeout). *)
let run_selfcheck strict diag_fmt ~pairs count seed inject bench timeout =
  let t0 = Unix.gettimeofday () in
  let result = ref None in
  let execute () =
    result :=
      Some (Diag.capture (fun () -> Check.run ?inject ~pairs ~seed ~count ()))
  in
  let timed_out = ref false in
  (match timeout with
  | None -> execute ()
  | Some s -> (
      try Deadline.with_timeout s execute
      with Deadline.Timed_out -> timed_out := true));
  let elapsed = Unix.gettimeofday () -. t0 in
  match !result with
  | None ->
      let records =
        [ { Diag.severity = Diag.Error;
            solver = "selfcheck";
            context = [];
            message =
              Printf.sprintf "timeout: selfcheck cancelled after %g seconds"
                (Option.value timeout ~default:0.0);
            iterations = None;
            residual = None;
            tolerance = None } ]
      in
      report strict diag_fmt false (records, 0, true)
  | Some (rep, records) ->
      prerr_endline (Check.summary rep);
      (match bench with
      | None -> ()
      | Some path ->
          let comparisons =
            List.fold_left
              (fun acc p -> acc + p.Check.p_comparisons)
              0 rep.Check.r_pairs
          in
          let oc = open_out path in
          let pair_json p =
            Printf.sprintf
              "    { \"name\": %S, \"models\": %d, \"comparisons\": %d, \
               \"skipped\": %d, \"errors\": %d, \"worst_rel_err\": %.3e }"
              p.Check.p_name p.Check.p_models p.Check.p_comparisons
              p.Check.p_skipped p.Check.p_errors p.Check.p_worst
          in
          Printf.fprintf oc
            "{\n\
            \  \"experiment\": \"differential selfcheck, %d models per oracle pair, seed %d\",\n\
            \  \"pairs\": [\n\
             %s\n\
            \  ],\n\
            \  \"models\": %d,\n\
            \  \"comparisons\": %d,\n\
            \  \"discrepancies\": %d,\n\
            \  \"errors\": %d,\n\
            \  \"elapsed_s\": %.4f\n\
             }\n"
            count seed
            (String.concat ",\n" (List.map pair_json rep.Check.r_pairs))
            (Check.total_models rep) comparisons
            (List.length rep.Check.r_discrepancies)
            (Check.total_errors rep) elapsed;
          close_out oc);
      report strict diag_fmt false (records, 0, false)

let run strict diag_fmt jobs no_cache cache_stats solver timeout selfcheck
    selfcheck_large seed inject bench files =
  Pool.set_jobs jobs;
  Structhash.set_enabled (not no_cache);
  Linsolve.set_method solver;
  match (selfcheck, selfcheck_large) with
  | Some _, Some _ ->
      prerr_endline
        "sharpe: --selfcheck and --selfcheck-large cannot be combined (run \
         them as two invocations)";
      Cmdliner.Cmd.Exit.cli_error
  | Some count, None ->
      run_selfcheck strict diag_fmt ~pairs:Check.pair_names count seed inject
        bench timeout
  | None, Some count ->
      run_selfcheck strict diag_fmt ~pairs:Check.large_pair_names count seed
        inject bench timeout
  | None, None when files = [] ->
      prerr_endline "sharpe: no input files (expected FILE... or --selfcheck)";
      Cmdliner.Cmd.Exit.cli_error
  | None, None ->
      report strict diag_fmt cache_stats (run_batch timeout files)

open Cmdliner

let files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"SHARPE input files")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Treat any diagnostic of severity warning or worse as fatal: exit \
           with status 2 even when every statement produced a result.")

let diag_fmt =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "diagnostics" ] ~docv:"FORMAT"
        ~doc:
          "How to report solver diagnostics: $(b,human) prints \
           warning-and-worse records plus a summary to stderr; $(b,json) \
           prints every record (including info-level provenance) as a JSON \
           array on stdout.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate independent loop iterations, and the rows of large \
           sparse matrix-vector products, on up to $(docv) domains.  \
           Output order and printed values are \
           identical to a serial run; loops whose bodies rebind shared \
           state fall back to serial execution automatically.")

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the structural solve cache (SRN reachability skeletons \
           and fault-tree BDDs are recomputed from scratch on every use; \
           model instances are still reused while nothing their build \
           read has changed).")

let cache_stats =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:
          "Report solve-cache hit/miss counters after the run (to stderr, \
           or into the JSON diagnostics array with $(b,--diagnostics json)).")

let solver =
  let methods =
    [ ("auto", Linsolve.Auto);
      ("gs", Linsolve.Gauss_seidel);
      ("gauss-seidel", Linsolve.Gauss_seidel);
      ("sor", Linsolve.Sor);
      ("bicgstab", Linsolve.Bicgstab);
      ("gmres", Linsolve.Gmres);
      ("gth", Linsolve.Gth);
      ("direct", Linsolve.Direct) ]
  in
  Arg.(
    value
    & opt (enum methods) Linsolve.Auto
    & info [ "solver" ] ~docv:"METHOD"
        ~doc:
          "Force one linear/steady-state solver instead of the automatic \
           selection chain: $(b,auto) (size- and structure-based selection, \
           the default), $(b,gs)/$(b,gauss-seidel), $(b,sor), \
           $(b,bicgstab) (ILU(0)/Jacobi-preconditioned), $(b,gmres) \
           (restarted, preconditioned), $(b,gth) (banded \
           Grassmann-Taksar-Heyman elimination), or $(b,direct) (dense \
           Gaussian elimination).  A forced method that fails emits an \
           error diagnostic and does NOT fall back.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Cancel the whole run after $(docv) seconds of wall-clock time: \
           solvers and loops hit a cooperative cancellation point, the \
           cancellation is reported as an error diagnostic, and the exit \
           status is 3.")

let selfcheck =
  Arg.(
    value
    & opt ~vopt:(Some 200) (some int) None
    & info [ "selfcheck" ] ~docv:"N"
        ~doc:
          "Do not run input files; run the differential self-check \
           harness: $(docv) seeded random models per oracle pair (default \
           200), each evaluated by two independent engines (symbolic vs \
           uniformization, iterative vs direct solves, BDD vs \
           enumeration, exponomial calculus vs quadrature).  Any \
           disagreement beyond the 1e-6 relative tolerance is an error \
           diagnostic carrying the reproducing seed, and the exit status \
           is 1.")

let selfcheck_large =
  Arg.(
    value
    & opt ~vopt:(Some 13) (some int) None
    & info [ "selfcheck-large" ] ~docv:"N"
        ~doc:
          "Like $(b,--selfcheck), but over the large-model oracle pairs: \
           $(docv) seeded 10^4-10^5-state CTMCs and SRNs per pair (default \
           13), each steady state solved under two forced solver methods \
           (preconditioned BiCGStab/GMRES vs Gauss-Seidel, SOR or banded \
           GTH) and compared on decile masses, global functionals and \
           sampled components.  Far more expensive per model than \
           $(b,--selfcheck); the default count keeps a run around a \
           minute.")

let seed =
  Arg.(
    value & opt int 2002
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Master seed for $(b,--selfcheck) model generation.  Model \
           seeds printed in discrepancy diagnostics derive from it \
           deterministically.")

let selfcheck_inject =
  Arg.(
    value
    & opt
        (some
           (enum
              (List.map
                 (fun n -> (n, n))
                 (Check.pair_names @ Check.large_pair_names))))
        None
    & info [ "selfcheck-inject" ] ~docv:"PAIR"
        ~doc:
          "Deliberately perturb one engine of the named oracle pair \
           (harness self-test: the run MUST fail and report the seed).")

let selfcheck_bench =
  Arg.(
    value
    & opt (some string) None
    & info [ "selfcheck-bench" ] ~docv:"FILE"
        ~doc:
          "Write harness runtime and counters as JSON to $(docv) \
           (BENCH_check.json format).")

let cmd =
  let doc = "Symbolic Hierarchical Automated Reliability and Performance Evaluator" in
  let man =
    [ `S Manpage.s_description;
      `P "Executes SHARPE-language model specifications: reliability block \
          diagrams, fault trees (incl. multi-state), phased-mission systems, \
          reliability graphs, series-parallel task graphs, product-form \
          queueing networks, Markov and semi-Markov chains, Markov \
          regenerative processes, GSPNs and stochastic reward nets.";
      `S Manpage.s_exit_status;
      `P "0 on success; 1 if any statement failed or any error diagnostic \
          was recorded; 2 if $(b,--strict) is set and any warning, \
          fallback or non-convergence diagnostic was recorded; 3 if \
          $(b,--timeout) expired and the run was cancelled." ]
  in
  Cmd.v (Cmd.info "sharpe" ~version:"2002-ocaml" ~doc ~man)
    Term.(
      const run $ strict $ diag_fmt $ jobs $ no_cache $ cache_stats $ solver
      $ timeout $ selfcheck $ selfcheck_large $ seed $ selfcheck_inject
      $ selfcheck_bench $ files)

let () = exit (Cmd.eval' cmd)
