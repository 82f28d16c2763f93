open Sharpe_numerics

type spec = { reada : int list; readf : int list }

let with_absorbing c readf =
  (* rebuild the chain with the readf states' outgoing edges removed *)
  let n = Ctmc.n_states c in
  let fail = Array.make n false in
  List.iter (fun s -> fail.(s) <- true) readf;
  let rates = ref [] in
  Sparse.iter (Ctmc.generator c) (fun i j v ->
      if i <> j && not fail.(i) then rates := (i, j, v) :: !rates);
  (Ctmc.make ~n !rates, fail)

let mttf c ~init ~readf =
  let c', _ = with_absorbing c readf in
  Ctmc.mtta c' ~init

let mttf_fast c ~init { reada; readf } =
  match reada with
  | [] | [ _ ] -> mttf c ~init ~readf
  | _ ->
      let n = Ctmc.n_states c in
      let in_a = Array.make n false in
      List.iter (fun s -> in_a.(s) <- true) reada;
      (* conditional distribution over the aggregate: steady state of the
         chain restricted to A (rates among A states only), which is the
         quasi-stationary weighting the acceleration uses for rare exits *)
      let a_states = Array.of_list reada in
      let na = Array.length a_states in
      let a_index = Hashtbl.create 16 in
      Array.iteri (fun k s -> Hashtbl.add a_index s k) a_states;
      let internal = ref [] in
      Sparse.iter (Ctmc.generator c) (fun i j v ->
          if i <> j && in_a.(i) && in_a.(j) then
            internal :=
              (Hashtbl.find a_index i, Hashtbl.find a_index j, v) :: !internal);
      let sub = Ctmc.make ~n:na !internal in
      let w =
        (* if A is not internally connected the steady solve may fail;
           fall back to uniform weights (a cancellation still unwinds) *)
        try Ctmc.steady_state sub
        with Linsolve.Singular | Failure _ | Invalid_argument _ ->
          Array.make na (1.0 /. float_of_int na)
      in
      (* build the aggregated chain: A collapses to macro-state [n'] = 0 *)
      let keep = List.filter (fun s -> not in_a.(s)) (List.init n Fun.id) in
      let idx = Array.make n (-1) in
      List.iteri (fun k s -> idx.(s) <- k + 1) keep;
      let macro = 0 in
      let n' = List.length keep + 1 in
      let rates = ref [] in
      Sparse.iter (Ctmc.generator c) (fun i j v ->
          if i <> j then begin
            let src = if in_a.(i) then macro else idx.(i) in
            let dst = if in_a.(j) then macro else idx.(j) in
            if src <> dst then begin
              let r = if in_a.(i) then v *. w.(Hashtbl.find a_index i) else v in
              rates := (src, dst, r) :: !rates
            end
          end);
      let agg = Ctmc.make ~n:n' !rates in
      let init' = Array.make n' 0.0 in
      Array.iteri
        (fun s p ->
          if p > 0.0 then
            if in_a.(s) then init'.(macro) <- init'.(macro) +. p
            else init'.(idx.(s)) <- init'.(idx.(s)) +. p)
        init;
      let readf' = List.map (fun s -> idx.(s)) readf in
      mttf agg ~init:init' ~readf:readf'
