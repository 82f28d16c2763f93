open Sharpe_numerics

type kind =
  | Is of float
  | Fcfs of float
  | Ps of float
  | Lcfspr of float
  | Ms of int * float
  | Lds of float list

type station_result = {
  throughput : float;
  utilization : float;
  qlength : float;
  rtime : float;
}

type t = {
  names : string array;
  kinds : kind array;
  visits : float array;
  solved : (int, (string * station_result) list) Hashtbl.t;
      (* per-instance MVA memo: population -> full result table, so the
         four per-station measures of one query share a single recursion *)
}

let index_of names s =
  let rec go i =
    if i >= Array.length names then
      invalid_arg (Printf.sprintf "Pfqn: unknown station %s" s)
    else if names.(i) = s then i
    else go (i + 1)
  in
  go 0

let make ~stations ~routing =
  if stations = [] then invalid_arg "Pfqn.make: no stations";
  let names = Array.of_list (List.map fst stations) in
  let kinds = Array.of_list (List.map snd stations) in
  let k = Array.length names in
  (* traffic equations: v_j = sum_i v_i p_ij, v_0 = 1 *)
  let a = Matrix.create ~rows:k ~cols:k in
  for j = 0 to k - 1 do
    Matrix.set a j j 1.0
  done;
  List.iter
    (fun (u, v, p) ->
      let i = index_of names u and j = index_of names v in
      Matrix.add_to a j i (-.p))
    routing;
  (* replace the reference station's equation with v_0 = 1 *)
  for j = 0 to k - 1 do
    Matrix.set a 0 j 0.0
  done;
  Matrix.set a 0 0 1.0;
  let b = Array.make k 0.0 in
  b.(0) <- 1.0;
  let visits = Linsolve.gauss a b in
  { names; kinds; visits; solved = Hashtbl.create 8 }

let visit_ratios t =
  Array.to_list (Array.map2 (fun n v -> (n, v)) t.names t.visits)

(* service rate of a load-dependent station with j local customers *)
let ld_rate kind j =
  match kind with
  | Ms (m, r) -> float_of_int (min j m) *. r
  | Lds rates ->
      let n = List.length rates in
      let idx = min j n in
      if idx = 0 then 0.0 else List.nth rates (idx - 1) *. 1.0
  | _ -> invalid_arg "ld_rate"

let is_ld = function Ms _ | Lds _ -> true | _ -> false

let solve_mva t ~customers =
  let k = Array.length t.names in
  let q = Array.make k 0.0 in
  (* marginal queue-length probabilities for load-dependent stations:
     marg.(k).(j) = P(j customers at k | current population) *)
  let marg =
    Array.map
      (fun kind -> if is_ld kind then Array.make (customers + 1) 0.0 else [||])
      t.kinds
  in
  Array.iteri (fun i kind -> if is_ld kind then marg.(i).(0) <- 1.0) t.kinds;
  let x = ref 0.0 in
  let r = Array.make k 0.0 in
  for n = 1 to customers do
    for i = 0 to k - 1 do
      r.(i) <-
        (match t.kinds.(i) with
        | Is rate -> 1.0 /. rate
        | Fcfs rate | Ps rate | Lcfspr rate -> (1.0 +. q.(i)) /. rate
        | Ms _ | Lds _ ->
            let acc = ref 0.0 in
            for j = 1 to n do
              let mu = ld_rate t.kinds.(i) j in
              if mu > 0.0 then
                acc := !acc +. (float_of_int j /. mu *. marg.(i).(j - 1))
            done;
            !acc)
    done;
    let denom = ref 0.0 in
    for i = 0 to k - 1 do
      denom := !denom +. (t.visits.(i) *. r.(i))
    done;
    x := float_of_int n /. !denom;
    for i = 0 to k - 1 do
      q.(i) <- !x *. t.visits.(i) *. r.(i);
      if is_ld t.kinds.(i) then begin
        (* update marginals from high j down so that p(j-1 | n-1) is intact *)
        let fresh = Array.make (customers + 1) 0.0 in
        for j = 1 to n do
          let mu = ld_rate t.kinds.(i) j in
          if mu > 0.0 then
            fresh.(j) <- !x *. t.visits.(i) /. mu *. marg.(i).(j - 1)
        done;
        let tail = Array.fold_left ( +. ) 0.0 fresh in
        fresh.(0) <- Float.max 0.0 (1.0 -. tail);
        marg.(i) <- fresh
      end
    done
  done;
  Array.to_list
    (Array.init k (fun i ->
         let tput = !x *. t.visits.(i) in
         let util =
           match t.kinds.(i) with
           | Is rate -> tput /. rate
           | Fcfs rate | Ps rate | Lcfspr rate -> tput /. rate
           | Ms (m, rate) -> tput /. (float_of_int m *. rate)
           | Lds _ -> if customers = 0 then 0.0 else 1.0 -. marg.(i).(0)
         in
         ( t.names.(i),
           { throughput = tput; utilization = util; qlength = q.(i); rtime = r.(i) } )))

let solve t ~customers =
  if customers < 0 then invalid_arg "Pfqn.solve: negative population";
  match Hashtbl.find_opt t.solved customers with
  | Some res -> res
  | None ->
      let res = solve_mva t ~customers in
      Hashtbl.replace t.solved customers res;
      res

let find t ~customers name =
  let res = solve t ~customers in
  match List.assoc_opt name res with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Pfqn: unknown station %s" name)

let throughput t ~customers name = (find t ~customers name).throughput
let utilization t ~customers name = (find t ~customers name).utilization
let qlength t ~customers name = (find t ~customers name).qlength
let rtime t ~customers name = (find t ~customers name).rtime
