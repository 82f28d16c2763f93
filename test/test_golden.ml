(* Golden-file regression harness: every thesis example under
   examples/sharpe/ runs through the interpreter and its printed output
   is diffed against the checked-in test/golden/<name>.out.

   Comparison is token-wise: tokens that parse as numbers match at 1e-9
   relative tolerance (so a solver refactor that perturbs the last few
   ulps does not trip the suite), everything else must match exactly,
   and line/token structure must be identical.

   Each example's diagnostic stream is pinned too: the records the run
   emits, rendered by [Diag.records_to_json], must match
   test/golden/<name>.diag.json byte for byte.  A solver refactor that
   keeps the numbers but changes which rung accepted a solve, or the
   wording of a fallback, shows up there.

   Regenerate after an intentional output change with

     UPDATE_GOLDEN=1 dune runtest

   which rewrites the golden files in the SOURCE tree (the harness
   locates it by walking up from the build directory). *)

module Interp = Sharpe_lang.Interp
module Diag = Sharpe_numerics.Diag

let src_root =
  let rec find dir depth =
    if Sys.file_exists (Filename.concat dir "examples/sharpe") then dir
    else if depth = 0 then failwith "test_golden: cannot locate source root"
    else find (Filename.concat dir "..") (depth - 1)
  in
  find (Sys.getcwd ()) 6

let examples_dir = Filename.concat src_root "examples/sharpe"
let pepa_dir = Filename.concat src_root "examples/pepa"
let golden_dir = Filename.concat src_root "test/golden"

let update_mode =
  match Sys.getenv_opt "UPDATE_GOLDEN" with
  | Some "" | None -> false
  | Some _ -> true

(* both suites share the flat golden directory; the pepa_ filename
   prefix keeps the namespaces apart *)
let examples =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".sharpe")
      |> List.sort compare
      |> List.map (fun f -> (dir, f)))
    [ examples_dir; pepa_dir ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let run_example (dir, file) =
  let buf = Buffer.create 4096 in
  let outcome, records =
    Diag.capture (fun () ->
        Interp.run_program_file ~print:(Buffer.add_string buf)
          (Filename.concat dir file))
  in
  ( Buffer.contents buf,
    outcome.Interp.failed_statements,
    Diag.records_to_json records ^ "\n" )

(* Token-wise diff at 1e-9 relative tolerance for numeric fields. *)
let tol = 1e-9

let tokens_equal a b =
  a = b
  ||
  match (float_of_string_opt a, float_of_string_opt b) with
  | Some x, Some y ->
      let m = Float.max (Float.abs x) (Float.abs y) in
      m = 0.0 || Float.abs (x -. y) <= tol *. m
  | _ -> false

let diff_outputs ~golden ~actual =
  let lines s = String.split_on_char '\n' s in
  let gl = lines golden and al = lines actual in
  if List.length gl <> List.length al then
    Some
      (Printf.sprintf "line count differs: golden %d, actual %d"
         (List.length gl) (List.length al))
  else
    let rec go lineno gl al =
      match (gl, al) with
      | [], [] -> None
      | g :: gl, a :: al ->
          let gt = String.split_on_char ' ' g |> List.filter (( <> ) "") in
          let at = String.split_on_char ' ' a |> List.filter (( <> ) "") in
          if
            List.length gt = List.length at
            && List.for_all2 tokens_equal gt at
          then go (lineno + 1) gl al
          else
            Some
              (Printf.sprintf "line %d differs\n  golden: %s\n  actual: %s"
                 lineno g a)
      | _ -> assert false
    in
    go 1 gl al

let golden_file file suffix =
  let path = Filename.concat golden_dir (Filename.remove_extension file ^ suffix) in
  if (not update_mode) && not (Sys.file_exists path) then
    Alcotest.failf "%s: no golden file %s (run UPDATE_GOLDEN=1 dune runtest)"
      file path;
  path

let check_example ((_, file) as ex) () =
  let out, failed, diag = run_example ex in
  Alcotest.(check int) (file ^ ": failed statements") 0 failed;
  let out_path = golden_file file ".out" in
  let diag_path = golden_file file ".diag.json" in
  if update_mode then begin
    write_file out_path out;
    write_file diag_path diag
  end
  else begin
    (match diff_outputs ~golden:(read_file out_path) ~actual:out with
    | None -> ()
    | Some msg -> Alcotest.failf "%s: output drifted from golden file: %s" file msg);
    if read_file diag_path <> diag then
      Alcotest.failf "%s: diagnostic stream drifted from %s" file diag_path
  end

let suite =
  List.map
    (fun ((_, file) as ex) -> Alcotest.test_case file `Slow (check_example ex))
    examples
