type term = { coeff : float; power : int; rate : float }
type t = term list (* invariant: normalized *)

let rate_eps = 1e-12

let same_rate b1 b2 =
  Float.abs (b1 -. b2) <= rate_eps *. Float.max 1.0 (Float.max (Float.abs b1) (Float.abs b2))

let compare_term t1 t2 =
  if not (same_rate t1.rate t2.rate) then compare t1.rate t2.rate
  else compare t1.power t2.power

(* Merge like terms; drop terms with negligible coefficients relative to the
   largest magnitude present (guards against symbolic cancellation residue). *)
let normalize ts =
  let ts = List.filter (fun t -> t.coeff <> 0.0) ts in
  let ts = List.sort compare_term ts in
  let rec merge = function
    | a :: b :: rest when same_rate a.rate b.rate && a.power = b.power ->
        merge ({ a with coeff = a.coeff +. b.coeff } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  let ts = merge ts in
  let maxc = List.fold_left (fun m t -> Float.max m (Float.abs t.coeff)) 0.0 ts in
  let floor_ = 1e-14 *. maxc in
  List.filter (fun t -> Float.abs t.coeff > floor_) ts

let zero = []
let term ~coeff ~power ~rate =
  if power < 0 then invalid_arg "Exponomial.term: negative power";
  normalize [ { coeff; power; rate } ]

let const a = term ~coeff:a ~power:0 ~rate:0.0
let one = const 1.0
let of_terms ts = normalize ts
let terms t = t
let is_zero t = t = []

let add a b = normalize (a @ b)
let neg a = List.map (fun t -> { t with coeff = -.t.coeff }) a
let sub a b = add a (neg b)
let scale c a = normalize (List.map (fun t -> { t with coeff = c *. t.coeff }) a)

let mul a b =
  normalize
    (List.concat_map
       (fun ta ->
         List.map
           (fun tb ->
             { coeff = ta.coeff *. tb.coeff;
               power = ta.power + tb.power;
               rate = ta.rate +. tb.rate })
           b)
       a)

let complement a = sub one a
let sum l = List.fold_left add zero l
let prod l = List.fold_left mul one l

(* Equality within [eps] RELATIVE to the largest coefficient magnitude of
   the operands.  An absolute epsilon gets both extremes wrong: 1e-8-scale
   exponomials that differ by 100% still pass (every difference sits below
   the epsilon), while 1e8-scale ones that differ only in rounding noise
   fail.  Two zero exponomials have no terms and compare equal vacuously. *)
let equal ?(eps = 1e-9) a b =
  let d = sub a b in
  let scale =
    List.fold_left (fun m t -> Float.max m (Float.abs t.coeff)) 0.0 (a @ b)
  in
  List.for_all (fun t -> Float.abs t.coeff <= eps *. scale) d

let eval f t =
  List.fold_left
    (fun acc tm ->
      let p = if tm.power = 0 then 1.0 else Float.pow t (float_of_int tm.power) in
      acc +. (tm.coeff *. p *. exp (tm.rate *. t)))
    0.0 f

let deriv f =
  normalize
    (List.concat_map
       (fun tm ->
         let by_rate =
           if tm.rate = 0.0 then []
           else [ { tm with coeff = tm.coeff *. tm.rate } ]
         in
         let by_power =
           if tm.power = 0 then []
           else
             [ { coeff = tm.coeff *. float_of_int tm.power;
                 power = tm.power - 1;
                 rate = tm.rate } ]
         in
         by_rate @ by_power)
       f)

let factorial n =
  let rec go acc k = if k <= 1 then acc else go (acc *. float_of_int k) (k - 1) in
  go 1.0 n

(* falling factorial k! / (k-i)! *)
let falling k i =
  let rec go acc j = if j >= i then acc else go (acc *. float_of_int (k - j)) (j + 1) in
  go 1.0 0

let binom n j =
  let rec go acc i =
    if i > j then acc else go (acc *. float_of_int (n - i + 1) /. float_of_int i) (i + 1)
  in
  go 1.0 1

(* integral over (0, t] of x^k e^(b x) dx, as an exponomial in t *)
let integrate_term { coeff = a; power = k; rate = b } =
  if same_rate b 0.0 then
    [ { coeff = a /. float_of_int (k + 1); power = k + 1; rate = 0.0 } ]
  else begin
    (* antiderivative e^(bx) * sum_i (-1)^i (k!/(k-i)!) x^(k-i) / b^(i+1);
       subtract its value at 0, namely (-1)^k k! / b^(k+1). *)
    let terms = ref [] in
    for i = 0 to k do
      let c = a *. (if i land 1 = 1 then -1.0 else 1.0) *. falling k i
              /. Float.pow b (float_of_int (i + 1)) in
      terms := { coeff = c; power = k - i; rate = b } :: !terms
    done;
    let at0 = a *. (if k land 1 = 1 then -1.0 else 1.0) *. factorial k
              /. Float.pow b (float_of_int (k + 1)) in
    { coeff = -.at0; power = 0; rate = 0.0 } :: !terms
  end

let integrate f = normalize (List.concat_map integrate_term f)

(* --- double-double arithmetic ---------------------------------------------

   Convolving terms whose rates are a short gap apart produces
   coefficients of order (rate / gap)^order — ~1e9 for an erlang(4, 4.5)
   against an erlang(5, 4) — that cancel to a CDF value in [0, 1] near
   t = 0.  One ulp of such a coefficient is ~1e-7 there, so [convolve]
   carries every coefficient as an unevaluated sum hi + lo (about 32
   significant digits) and rounds each output coefficient once: the
   result is then the correctly rounded convolution of its operands in
   all but boundary cases, whichever operand comes first.  (A three-way
   convolution still rounds its intermediate, which the next convolution
   can amplify into an ulp of its largest coefficient.) *)

type dd = { hi : float; lo : float }

let dd_zero = { hi = 0.0; lo = 0.0 }

let fast_two_sum a b =
  let s = a +. b in
  { hi = s; lo = b -. (s -. a) }

let dd_add x y =
  let s = x.hi +. y.hi in
  let bb = s -. x.hi in
  let e = (x.hi -. (s -. bb)) +. (y.hi -. bb) in
  fast_two_sum s (e +. x.lo +. y.lo)

let dd_mul x b =
  let p = x.hi *. b in
  fast_two_sum p (Float.fma x.hi b (-.p) +. (x.lo *. b))

let dd_div x b =
  let q = x.hi /. b in
  let p = q *. b in
  let r = x.hi -. p -. Float.fma q b (-.p) +. x.lo in
  fast_two_sum q (r /. b)

let dd_of f = { hi = f; lo = 0.0 }

(* Summed in double-double: the terms of a convolution's tail can be ~1e10
   apiece and cancel to a mean of order 1. *)
let integral_to_inf f =
  let s =
    List.fold_left
      (fun acc tm ->
        if tm.rate < 0.0 && not (same_rate tm.rate 0.0) then begin
          let x = ref (dd_mul (dd_of tm.coeff) (factorial tm.power)) in
          for _ = 0 to tm.power do
            x := dd_div !x (-.tm.rate)
          done;
          dd_add acc !x
        end
        else invalid_arg "Exponomial.integral_to_inf: divergent term")
      dd_zero f
  in
  s.hi +. s.lo

let limit_at_inf f =
  List.fold_left
    (fun acc tm ->
      if same_rate tm.rate 0.0 then
        if tm.power = 0 then acc +. tm.coeff
        else invalid_arg "Exponomial.limit_at_inf: divergent (polynomial) term"
      else if tm.rate < 0.0 then acc
      else invalid_arg "Exponomial.limit_at_inf: divergent (growing) term")
    0.0 f

let mass_at_zero f = eval f 0.0

(* Rates within this RELATIVE distance are convolved through the
   equal-rate closed form.  The partial-fraction branch divides by powers
   of gamma = alpha - beta, amplifying coefficient roundoff by
   eps_machine / |gamma_rel| across terms that almost cancel; below 1e-8
   relative separation that amplified noise (~1e-8) exceeds the error of
   simply merging the rates (O(|gamma| t) ~ 1e-8 over the horizon 1/rate
   where the mass lies), so merging is the more accurate branch — and it
   cannot blow up.  The distance is relative to the rates alone: an
   absolute floor would merge rates of 5.3944e-6 and 5.3934e-6, whose
   means differ by 2e-4. *)
let conv_rate_eps = 1e-8

let near_rate b1 b2 =
  Float.abs (b1 -. b2) <= conv_rate_eps *. Float.max (Float.abs b1) (Float.abs b2)

(* contribution of density term (a, m, alpha) against CDF term (c, n, beta):
   a*c * integral over (0,t] of x^m e^(alpha x) (t-x)^n e^(beta (t-x)) dx,
   each coefficient passed to [emit power rate] *)
let conv_pair emit (a, m, alpha) (c, n, beta) =
  let w0 = dd_mul a c in
  if near_rate alpha beta then
    (* e^(beta t) * m! n! / (m+n+1)! * t^(m+n+1); for nearly-equal rates
       split the (tiny) difference symmetrically between the operands *)
    let rate = if alpha = beta then beta else 0.5 *. (alpha +. beta) in
    emit (m + n + 1) rate
      (dd_div (dd_mul (dd_mul w0 (factorial m)) (factorial n)) (factorial (m + n + 1)))
  else begin
    (* Partial fractions of the Laplace transform
       m! n! / ((s - alpha)^(m+1) (s - beta)^(n+1)): with d = alpha - beta,
       the coefficient of t^(k-1) e^(alpha t) / (k-1)! is
       (-1)^(m+1-k) C(m+n+1-k, m+1-k) / d^(m+n+2-k), and symmetrically for
       beta with -d.  Each coefficient is one product — no alternating sum
       cancels away its leading digits. *)
    let w = dd_mul (dd_mul w0 (factorial m)) (factorial n) in
    let side rate order other d =
      for k = 1 to order do
        let sign = if (order - k) land 1 = 1 then -1.0 else 1.0 in
        let x = ref (dd_mul w (sign *. binom (order + other - k - 1) (order - k))) in
        for _ = 1 to order + other - k do
          x := dd_div !x d
        done;
        emit (k - 1) rate (dd_div !x (factorial (k - 1)))
      done
    in
    let d = alpha -. beta in
    side alpha (m + 1) (n + 1) d;
    side beta (n + 1) (m + 1) (-.d)
  end

let convolve f g =
  (* cells keyed by (power, rate), accumulated in double-double *)
  let cells tbl power rate x =
    let k = (power, rate) in
    Hashtbl.replace tbl k
      (dd_add x (Option.value ~default:dd_zero (Hashtbl.find_opt tbl k)))
  in
  (* the atom at zero and the density of f, both unrounded *)
  let f0 =
    List.fold_left (fun acc t -> if t.power = 0 then dd_add acc (dd_of t.coeff) else acc) dd_zero f
  in
  let density = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if t.rate <> 0.0 then cells density t.power t.rate (dd_mul (dd_of t.coeff) t.rate);
      if t.power > 0 then
        cells density (t.power - 1) t.rate (dd_mul (dd_of t.coeff) (float_of_int t.power)))
    f;
  let out = Hashtbl.create 32 in
  List.iter (fun tg -> cells out tg.power tg.rate (dd_mul f0 tg.coeff)) g;
  Hashtbl.iter
    (fun (m, alpha) a ->
      if a.hi <> 0.0 then
        List.iter (fun tg -> conv_pair (cells out) (a, m, alpha) (tg.coeff, tg.power, tg.rate)) g)
    density;
  normalize
    (Hashtbl.fold (fun (power, rate) x acc -> { coeff = x.hi +. x.lo; power; rate } :: acc) out [])

let mean f = integral_to_inf (sub (const (limit_at_inf f)) f)

let moment2 f =
  let g = sub (const (limit_at_inf f)) f in
  let tg = List.map (fun tm -> { tm with power = tm.power + 1 }) g in
  2.0 *. integral_to_inf (normalize tg)

let variance f =
  let m = mean f in
  moment2 f -. (m *. m)

let pp ppf f =
  match f with
  | [] -> Format.fprintf ppf "0"
  | _ ->
      let pp_term first ppf tm =
        let sign = if tm.coeff < 0.0 then "- " else if first then "" else "+ " in
        Format.fprintf ppf "%s%g" sign (Float.abs tm.coeff);
        if tm.power > 0 then Format.fprintf ppf " t^%d" tm.power;
        if not (same_rate tm.rate 0.0) then Format.fprintf ppf " exp(%g t)" tm.rate
      in
      List.iteri
        (fun i tm ->
          if i > 0 then Format.fprintf ppf " ";
          pp_term (i = 0) ppf tm)
        f

let to_string f = Format.asprintf "%a" pp f
