(* Shared helpers: clocks, order statistics, files, process memory and the
   golden-output comparison. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile; [nan] on an empty sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = Array.copy a in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median a = percentile a 50.0
let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

(* [a /. b] that reads 0 when nothing was measured. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    List.find_opt
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file path))
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith ("no VmHWM in " ^ path)

(* First line printed by a command, or [None] when it fails. *)
let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
      let l = In_channel.input_line ic in
      (match (Unix.close_process_in ic, l) with
      | Unix.WEXITED 0, Some l -> Some (String.trim l)
      | _ -> None)
  | exception Unix.Unix_error _ -> None

let nproc () =
  match Option.bind (command_line "nproc") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

(* The CPUs this process may run on, from /proc/self/status
   ("Cpus_allowed_list: 0-3,8"); empty when unknown. *)
let allowed_cpus () =
  let range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> Option.to_list (int_of_string_opt a)
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> List.init (b - a + 1) (fun i -> a + i)
        | _ -> [])
    | _ -> []
  in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:"Cpus_allowed_list:" l)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | Some l ->
      let v = String.sub l 18 (String.length l - 18) in
      List.concat_map range (String.split_on_char ',' v)
  | None -> []
  | exception Sys_error _ -> []

(* Pin the calling process's main thread to [cpus]; false when that
   fails.  Threads and domains started later inherit the mask. *)
let pin cpus =
  let l = String.concat "," (List.map string_of_int cpus) in
  Sys.command (Printf.sprintf "taskset -pc %s %d >/dev/null 2>&1" l (Unix.getpid ())) = 0

(* Golden comparison, as test/test_golden.ml does it: identical line and
   token structure, numeric tokens equal at 1e-9 relative. *)
let golden_tol = 1e-9

let tokens_equal a b =
  a = b
  ||
  match (float_of_string_opt a, float_of_string_opt b) with
  | Some x, Some y ->
      let m = Float.max (Float.abs x) (Float.abs y) in
      m = 0.0 || Float.abs (x -. y) <= golden_tol *. m
  | _ -> false

let matches_golden ~golden actual =
  let toks l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let gl = String.split_on_char '\n' golden
  and al = String.split_on_char '\n' actual in
  List.length gl = List.length al
  && List.for_all2
       (fun g a ->
         let gt = toks g and at = toks a in
         List.length gt = List.length at && List.for_all2 tokens_equal gt at)
       gl al

(* The numeric value printed after the last ": " of each output line. *)
let printed_values out =
  String.split_on_char '\n' out
  |> List.filter_map (fun l ->
         match String.rindex_opt l ':' with
         | Some i ->
             float_of_string_opt
               (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
         | None -> None)

let rel_close ~tol a b =
  let m = Float.max (Float.abs a) (Float.abs b) in
  m = 0.0 || Float.abs (a -. b) <= tol *. m
