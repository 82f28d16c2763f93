type marking = int array
type kind = Timed | Immediate

type transition = {
  t_name : string;
  kind : kind;
  rate : marking -> float;
  guard : marking -> bool;
  priority : int;
  inputs : (int * (marking -> int)) list;
  outputs : (int * (marking -> int)) list;
  inhibitors : (int * (marking -> int)) list;
}

type t = {
  name : string;
  place_names : string array;
  place_idx : (string, int) Hashtbl.t;
  trans : transition array;
  trans_idx : (string, int) Hashtbl.t;
  initial : marking;
}

let build ~places ~transitions =
  let place_names = Array.of_list (List.map fst places) in
  let place_idx = Hashtbl.create 16 in
  Array.iteri
    (fun i n ->
      if Hashtbl.mem place_idx n then invalid_arg (Printf.sprintf "Net: place %s redefined" n);
      Hashtbl.add place_idx n i)
    place_names;
  let trans = Array.of_list transitions in
  let trans_idx = Hashtbl.create 16 in
  Array.iteri
    (fun i tr ->
      if Hashtbl.mem trans_idx tr.t_name then
        invalid_arg (Printf.sprintf "Net: transition %s redefined" tr.t_name);
      Hashtbl.add trans_idx tr.t_name i)
    trans;
  let initial = Array.of_list (List.map snd places) in
  Array.iter (fun n -> if n < 0 then invalid_arg "Net: negative initial tokens") initial;
  { name = "net"; place_names; place_idx; trans; trans_idx; initial }

let named name t = { t with name }

let place_index t name =
  match Hashtbl.find_opt t.place_idx name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Net: unknown place %s" name)

let initial_marking t = Array.copy t.initial
let transitions t = t.trans

let transition_index t name =
  match Hashtbl.find_opt t.trans_idx name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Net: unknown transition %s" name)

(* Guard, input and inhibitor conditions: everything but the rate. *)
let arcs_allow tr m =
  tr.guard m
  && List.for_all (fun (p, mult) -> m.(p) >= mult m) tr.inputs
  && List.for_all
       (fun (p, mult) ->
         let c = mult m in
         (* cardinality-0 inhibitor arcs never inhibit (degenerate) *)
         c = 0 || m.(p) < c)
       tr.inhibitors

let decide t m =
  let raw = ref [] and zero = ref [] in
  Array.iteri
    (fun i tr ->
      if arcs_allow tr m then
        if tr.kind = Immediate then raw := (i, Float.nan) :: !raw
        else
          let r = tr.rate m in
          if r > 0.0 then raw := (i, r) :: !raw else zero := i :: !zero)
    t.trans;
  let eff i =
    let tr = t.trans.(i) in
    (if tr.kind = Immediate then 1_000_000 else 0) + tr.priority
  in
  let best = List.fold_left (fun b (i, _) -> max b (eff i)) min_int !raw in
  (* a zero-rated transition below [best] would stay disabled by priority
     at any rate, so only those at or above it are reported *)
  ( List.rev (List.filter (fun (i, _) -> eff i = best) !raw),
    match !zero with
    | [] -> []
    | zero -> List.rev (List.filter (fun i -> eff i >= best) zero) )

(* The nets whose enabling this domain is deciding: a guard, cardinality
   or rate that reads ?() or Rate() of its own net asks for it again while
   it is being decided, which would never end. *)
let deciding : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let enabled_and_zero_rated t m =
  let d = Domain.DLS.get deciding in
  let outer = !d in
  if List.memq t outer then
    invalid_arg
      (Printf.sprintf
         "Net %s: deciding which transitions are enabled reads ?() or Rate() of the net itself"
         t.name);
  d := t :: outer;
  Fun.protect ~finally:(fun () -> d := outer) (fun () -> decide t m)

let enabled t m = List.map fst (fst (enabled_and_zero_rated t m))

(* FNV-1a over every place (offset basis cut to OCaml's 63-bit ints),
   folded to a nonnegative int.  The final xor-shift carries the high
   product bits down into the low bits a power-of-two bucket mask keeps. *)
let hash_marking (m : marking) =
  let h = ref 0x0bf29ce484222325 in
  for i = 0 to Array.length m - 1 do
    h := (!h lxor Array.unsafe_get m i) * 0x100000001b3
  done;
  let h = !h in
  (h lxor (h lsr 32)) land max_int

let fire t i m =
  let tr = t.trans.(i) in
  let m' = Array.copy m in
  List.iter (fun (p, mult) -> m'.(p) <- m'.(p) - mult m) tr.inputs;
  List.iter (fun (p, mult) -> m'.(p) <- m'.(p) + mult m) tr.outputs;
  Array.iter (fun x -> if x < 0 then invalid_arg "Net.fire: negative tokens") m';
  m'

let rate_in t m name =
  let i = transition_index t name in
  if List.mem i (enabled t m) then t.trans.(i).rate m else 0.0

let enabled_named t m name =
  let i = transition_index t name in
  List.mem i (enabled t m)
