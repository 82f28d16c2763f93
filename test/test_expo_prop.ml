(* QCheck property tests for the exponomial algebra (thesis §3.7 /
   appendix): the symbolic distribution class must satisfy the calculus
   identities the hierarchical composition engine relies on. *)

module E = Sharpe_expo.Exponomial
module D = Sharpe_expo.Dist

let close ?(eps = 1e-9) a b =
  let m = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= eps *. Float.max 1.0 m

(* Generator for a random proper CDF from SHARPE's built-in families.

   Rates are drawn from a coarse grid: convolving terms whose rates are
   close-but-unequal is intrinsically ill-conditioned (the partial
   fractions carry 1/(b1 - b2)^k factors), so random real-valued rates
   routinely produce pairs ~1e-3 apart whose convolutions disagree past
   any fixed tolerance depending on operand order.  Grid rates are
   either exactly equal — handled by the exact equal-rate path — or at
   least 0.5 apart.  That bounds, but does not tame, the amplification:
   erlang factors of orders 4 and 5 at rates 0.5 apart give coefficients
   of ~1e9 that cancel to a CDF value near t = 0, so one ulp of a
   coefficient is ~1e-7 there.  [convolve] rounds each coefficient once,
   which makes commutativity hold; a three-way convolution still rounds
   its intermediate, and on such triples associativity can miss the
   1e-7 tolerance by an ulp even in exact arithmetic (see the regression
   cases below). *)
let cdf_gen =
  QCheck.Gen.(
    let rate = map (fun i -> 0.5 *. float_of_int (1 + i)) (int_bound 8) in
    let base =
      oneof
        [ map D.exponential rate;
          map2 (fun n l -> D.erlang (1 + n) l) (int_bound 4) rate;
          map2
            (fun m1 m2 ->
              if m1 = m2 then D.erlang 2 m1 else D.hypoexp m1 m2)
            rate rate;
          map3
            (fun m1 m2 p -> D.hyperexp m1 p m2 (1.0 -. p))
            rate rate
            (float_range 0.05 0.95) ]
    in
    base)

let cdf_arb = QCheck.make ~print:E.to_string cdf_gen

let sample_ts = [ 0.0; 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ]

let prop_convolve_commutes =
  QCheck.Test.make ~name:"convolution is commutative" ~count:200
    (QCheck.pair cdf_arb cdf_arb) (fun (f, g) ->
      let fg = E.convolve f g and gf = E.convolve g f in
      List.for_all (fun t -> close (E.eval fg t) (E.eval gf t)) sample_ts)

let prop_convolve_assoc =
  QCheck.Test.make ~name:"convolution is associative" ~count:100
    (QCheck.triple cdf_arb cdf_arb cdf_arb) (fun (f, g, h) ->
      let l = E.convolve (E.convolve f g) h
      and r = E.convolve f (E.convolve g h) in
      List.for_all (fun t -> close ~eps:1e-7 (E.eval l t) (E.eval r t)) sample_ts)

let prop_convolve_mean_adds =
  QCheck.Test.make ~name:"mean of a convolution is the sum of means"
    ~count:200 (QCheck.pair cdf_arb cdf_arb) (fun (f, g) ->
      close ~eps:1e-7 (E.mean (E.convolve f g)) (E.mean f +. E.mean g))

let prop_deriv_integrate =
  QCheck.Test.make ~name:"derivative of the integral is the identity"
    ~count:200 cdf_arb (fun f ->
      let f' = E.deriv (E.integrate f) in
      List.for_all (fun t -> close (E.eval f' t) (E.eval f t)) sample_ts)

let prop_integrate_deriv =
  QCheck.Test.make
    ~name:"integral of the derivative recovers F(t) - F(0)" ~count:200
    cdf_arb (fun f ->
      let g = E.integrate (E.deriv f) in
      List.for_all
        (fun t -> close (E.eval g t) (E.eval f t -. E.eval f 0.0))
        sample_ts)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"CDFs are monotone and within [0, 1]" ~count:200
    cdf_arb (fun f ->
      let vals = List.map (E.eval f) sample_ts in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && mono rest
        | _ -> true
      in
      mono vals
      && List.for_all (fun v -> v >= -1e-12 && v <= 1.0 +. 1e-12) vals)

let prop_cdf_limit =
  QCheck.Test.make ~name:"proper CDFs tend to 1 at infinity" ~count:200
    cdf_arb (fun f -> close (E.limit_at_inf f) 1.0)

let prop_complement =
  QCheck.Test.make ~name:"complement evaluates to 1 - F" ~count:200 cdf_arb
    (fun f ->
      let c = E.complement f in
      List.for_all
        (fun t -> close (E.eval c t) (1.0 -. E.eval f t))
        sample_ts)

let prop_mixture_weights =
  QCheck.Test.make
    ~name:"mixture of proper CDFs with normalized weights is proper"
    ~count:200
    (QCheck.triple cdf_arb cdf_arb
       (QCheck.float_range 0.0 1.0))
    (fun (f, g, p) ->
      let mix = E.add (E.scale p f) (E.scale (1.0 -. p) g) in
      close (E.limit_at_inf mix) 1.0
      && List.for_all
           (fun t ->
             close
               (E.eval mix t)
               ((p *. E.eval f t) +. ((1.0 -. p) *. E.eval g t)))
           sample_ts)

(* Extreme rate separation: exponential pairs with rates spread over
   twelve decades (1e-6 .. 1e6), plus near-equal pairs within twice the
   canonicalization rate epsilon (1e-12 relative) — the regime where the
   convolution's 1/(b1 - b2) partial fractions would explode without the
   near-rate merge.  Evaluation grids scale with 1/rate so each operand
   is probed where it actually carries mass. *)
let extreme_pair_gen =
  QCheck.Gen.(
    let lograte =
      map (fun u -> Float.pow 10.0 u) (float_range (-6.0) 6.0)
    in
    oneof
      [ pair lograte lograte;
        map2
          (fun l d -> (l, l *. (1.0 +. (d *. 2e-12))))
          lograte (float_range (-1.0) 1.0) ])

let extreme_pair_arb =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%.17g, %.17g)" a b)
    extreme_pair_gen

let scaled_ts a b =
  let slow = Float.min a b in
  List.map (fun c -> c /. slow) [ 0.2; 1.0; 3.0; 8.0 ]

let prop_extreme_convolve_commutes =
  QCheck.Test.make
    ~name:"convolution commutes under extreme rate separation" ~count:300
    extreme_pair_arb (fun (a, b) ->
      let f = D.exponential a and g = D.exponential b in
      let fg = E.convolve f g and gf = E.convolve g f in
      List.for_all
        (fun t -> close (E.eval fg t) (E.eval gf t))
        (scaled_ts a b))

let prop_extreme_convolve_mass =
  QCheck.Test.make
    ~name:"convolution preserves total mass under extreme rate separation"
    ~count:300 extreme_pair_arb (fun (a, b) ->
      let h = E.convolve (D.exponential a) (D.exponential b) in
      close (E.limit_at_inf h) 1.0
      && List.for_all
           (fun t ->
             let v = E.eval h t in
             v >= -1e-9 && v <= 1.0 +. 1e-9)
           (scaled_ts a b))

let prop_extreme_convolve_mean_adds =
  QCheck.Test.make
    ~name:"convolution adds means under extreme rate separation" ~count:300
    extreme_pair_arb (fun (a, b) ->
      let h = E.convolve (D.exponential a) (D.exponential b) in
      let expected = (1.0 /. a) +. (1.0 /. b) in
      Float.abs (E.mean h -. expected) <= 1e-9 *. expected)

let prop_mass_at_zero =
  QCheck.Test.make
    ~name:"convolution atom at zero is the product of the atoms" ~count:200
    (QCheck.pair (QCheck.float_range 0.1 0.9) (QCheck.float_range 0.1 0.9))
    (fun (p, q) ->
      let f = D.mixture p (1.0 -. p) 1.0
      and g = D.mixture q (1.0 -. q) 2.0 in
      close (E.mass_at_zero (E.convolve f g)) (p *. q))

(* Deterministic regressions: counterexamples the properties above once
   found, each now computed to a correctly rounded result. *)
let regression_assoc () =
  let f = D.erlang 4 4.5 and g = D.exponential 2.0 and h = D.erlang 5 4.0 in
  let l = E.convolve (E.convolve f g) h
  and r = E.convolve f (E.convolve g h) in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "erlang(4,4.5)*exp(2)*erlang(5,4) at t=%g" t)
        true
        (close ~eps:1e-7 (E.eval l t) (E.eval r t)))
    sample_ts

let regression_commute () =
  let f = D.erlang 3 4.0 and g = D.erlang 5 3.5 in
  let fg = E.convolve f g and gf = E.convolve g f in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "erlang(3,4)*erlang(5,3.5) at t=%g" t)
        true
        (close (E.eval fg t) (E.eval gf t)))
    sample_ts

let regression_means () =
  let h = E.convolve (D.erlang 5 4.0) (D.erlang 5 4.5) in
  Alcotest.(check bool) "mean of erlang(5,4)*erlang(5,4.5)" true
    (close ~eps:1e-7 (E.mean h) ((5.0 /. 4.0) +. (5.0 /. 4.5)));
  (* rates 2e-4 apart in relative terms must not be merged as equal *)
  let a = 5.3944431344305057e-06 and b = 5.3934229631571664e-06 in
  let h = E.convolve (D.exponential a) (D.exponential b) in
  let expected = (1.0 /. a) +. (1.0 /. b) in
  Alcotest.(check bool) "mean of two nearby tiny-rate exponentials" true
    (Float.abs (E.mean h -. expected) <= 1e-9 *. expected)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_convolve_commutes; prop_convolve_assoc; prop_convolve_mean_adds;
      prop_deriv_integrate; prop_integrate_deriv; prop_cdf_monotone;
      prop_cdf_limit; prop_complement; prop_mixture_weights;
      prop_mass_at_zero; prop_extreme_convolve_commutes;
      prop_extreme_convolve_mass; prop_extreme_convolve_mean_adds ]
  @ [ ("associativity regression", `Quick, regression_assoc);
      ("commutativity regression", `Quick, regression_commute);
      ("mean regressions", `Quick, regression_means) ]
