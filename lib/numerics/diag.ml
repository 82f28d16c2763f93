type severity = Info | Warning | Fallback | Non_convergence | Error

let severity_rank = function
  | Info -> 0
  | Warning -> 1
  | Fallback -> 2
  | Non_convergence -> 3
  | Error -> 4

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Fallback -> "fallback"
  | Non_convergence -> "non-convergence"
  | Error -> "error"

type record = {
  severity : severity;
  solver : string;
  context : string list;
  message : string;
  iterations : int option;
  residual : float option;
  tolerance : float option;
}

let record_to_string r =
  let b = Buffer.create 96 in
  Buffer.add_string b (severity_to_string r.severity);
  Buffer.add_string b ": ";
  Buffer.add_string b r.solver;
  Buffer.add_string b ": ";
  Buffer.add_string b r.message;
  let extras =
    List.filter_map Fun.id
      [ Option.map (Printf.sprintf "iter=%d") r.iterations;
        Option.map (Printf.sprintf "residual=%.3g") r.residual;
        Option.map (Printf.sprintf "tol=%.3g") r.tolerance ]
  in
  if extras <> [] then begin
    Buffer.add_string b " (";
    Buffer.add_string b (String.concat ", " extras);
    Buffer.add_string b ")"
  end;
  if r.context <> [] then begin
    Buffer.add_string b " [";
    Buffer.add_string b (String.concat " / " r.context);
    Buffer.add_string b "]"
  end;
  Buffer.contents b

(* --- JSON rendering (no external deps) ------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  if Float.is_nan x then {|"nan"|}
  else if x = Float.infinity then {|"inf"|}
  else if x = Float.neg_infinity then {|"-inf"|}
  else Printf.sprintf "%.17g" x

let record_to_json r =
  Printf.sprintf
    {|{"severity":"%s","solver":"%s","context":[%s],"message":"%s","iterations":%s,"residual":%s,"tolerance":%s}|}
    (severity_to_string r.severity)
    (json_escape r.solver)
    (String.concat ","
       (List.map (fun c -> "\"" ^ json_escape c ^ "\"") r.context))
    (json_escape r.message)
    (match r.iterations with Some i -> string_of_int i | None -> "null")
    (match r.residual with Some x -> json_float x | None -> "null")
    (match r.tolerance with Some x -> json_float x | None -> "null")

let records_to_json rs =
  match rs with
  | [] -> "[]"
  | rs ->
      "[\n" ^ String.concat ",\n" (List.map (fun r -> "  " ^ record_to_json r) rs) ^ "\n]"

(* --- sinks ------------------------------------------------------------ *)

type sink = { mutable items : record list (* newest first *) }

let create_sink () = { items = [] }
let records s = List.rev s.items
let clear s = s.items <- []

let count s sev = List.length (List.filter (fun r -> r.severity = sev) s.items)

(* Installed sinks (innermost first) and the context stack are
   domain-local: a worker domain of the parallel pool starts with an
   empty stack, captures its records in its own sink, and the pool
   replays them on the spawning domain (via [emit_record]) in
   deterministic order.  Nothing is shared, so nothing is locked. *)
let sinks_key : sink list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let context_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref []) (* innermost first *)

(* every installed sink receives the record; with none it is dropped *)
let push_record r = List.iter (fun s -> s.items <- r :: s.items) !(Domain.DLS.get sinks_key)

let current_context () = List.rev !(Domain.DLS.get context_key)

let emit ?iterations ?residual ?tolerance severity ~solver message =
  push_record
    { severity;
      solver;
      context = current_context ();
      message;
      iterations;
      residual;
      tolerance }

(* Replay a record captured elsewhere (typically in a worker domain whose
   context stack was empty): the replaying domain's context is prepended
   so the record reads as if the work had run inline. *)
let emit_record r = push_record { r with context = current_context () @ r.context }

let emitf ?iterations ?residual ?tolerance severity ~solver fmt =
  Printf.ksprintf (emit ?iterations ?residual ?tolerance severity ~solver) fmt

let with_context label f =
  let stack = Domain.DLS.get context_key in
  stack := label :: !stack;
  Fun.protect ~finally:(fun () -> stack := List.tl !stack) f

let with_sink sink f =
  let sinks = Domain.DLS.get sinks_key in
  sinks := sink :: !sinks;
  Fun.protect ~finally:(fun () -> sinks := List.tl !sinks) f

(* Capture into [sink] ONLY: outer sinks and the context stack are masked
   for the duration.  This is what the pool wraps batch tasks in — with
   the teeing [with_sink], a task executed by the CALLING domain (which
   claims chunks like any worker) would leak its records live into the
   caller's outer sinks and then replay them again afterwards, so a
   captured parallel run would see every caller-executed task's records
   twice (and with the caller's context baked in, unlike a
   worker-executed task).  Masking makes a task's capture identical
   whichever domain runs it. *)
let with_isolated_sink sink f =
  let sinks = Domain.DLS.get sinks_key in
  let ctx = Domain.DLS.get context_key in
  let saved_sinks = !sinks and saved_ctx = !ctx in
  sinks := [ sink ];
  ctx := [];
  Fun.protect
    ~finally:(fun () ->
      sinks := saved_sinks;
      ctx := saved_ctx)
    f

let capture f =
  let s = create_sink () in
  let v = with_sink s f in
  (v, records s)
