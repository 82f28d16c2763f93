(* In-memory spans around the benchmark's own calls into each layer.

   A span records its name, start, end, the span that was open around it
   on the same thread, and the op it belongs to.  Spans are kept in memory
   while the benchmark runs and written out once, at the end.  When
   tracing is off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 at the top of a thread's stack *)
  op : int;  (** 0 outside any op *)
}

let enabled = ref false
let lock = Mutex.create ()
let spans = ref []
let next_id = ref 0
let next_op = ref 0

(* per-thread stack of open (span id, op id) *)
let stacks : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

let push ~new_op =
  Mutex.protect lock (fun () ->
      let tid = Thread.id (Thread.self ()) in
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      let parent, op = match stack with (p, o) :: _ -> (p, o) | [] -> (0, 0) in
      let op =
        if new_op then begin
          incr next_op;
          !next_op
        end
        else op
      in
      incr next_id;
      Hashtbl.replace stacks tid ((!next_id, op) :: stack);
      (!next_id, parent, op))

let pop name (id, parent, op) start =
  let stop = Unix.gettimeofday () in
  Mutex.protect lock (fun () ->
      spans := { id; name; start; stop; parent; op } :: !spans;
      let tid = Thread.id (Thread.self ()) in
      match Hashtbl.find_opt stacks tid with
      | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
      | _ -> ())

let run ~new_op name f =
  if not !enabled then f ()
  else begin
    let frame = push ~new_op in
    let start = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> pop name frame start) f
  end

(* [span name f] times [f] as a child of the innermost open span. *)
let span name f = run ~new_op:false name f

(* [op name f] opens a new op: a span with a fresh op id that every span
   inside it inherits. *)
let op name f = run ~new_op:true name f

let all () = Mutex.protect lock (fun () -> List.rev !spans)
let duration s = s.stop -. s.start

let durations ?(spans = all ()) name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) spans
  |> Array.of_list

let total ?spans name = Util.sum (durations ?spans name)

(* Spans whose name starts with [prefix]. *)
let with_prefix ?(spans = all ()) prefix =
  List.filter (fun s -> String.starts_with ~prefix s.name) spans

let to_json s =
  Json.Obj
    [ ("id", Json.Num (float_of_int s.id));
      ("name", Json.Str s.name);
      ("start", Json.Num s.start);
      ("end", Json.Num s.stop);
      ("parent", Json.Num (float_of_int s.parent));
      ("op", Json.Num (float_of_int s.op)) ]

(* One JSON object per line. *)
let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc (Json.to_string (to_json s));
          Out_channel.output_char oc '\n')
        (all ()))
