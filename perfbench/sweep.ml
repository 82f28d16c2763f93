(* sweep: the wfs coverage sweep -- one SRN structure, many rate vectors.
   N workstations share a file server; the program sweeps the coverage c
   over 21 values and asks for the availability at 11 time points for each.
   Failure and repair rates come from the seed.  One op is one program run
   at jobs=nproc with the solve caches cleared first, so the op pays one
   state-space exploration and then reuses the skeleton for every c. *)

module Interp = Sharpe_lang.Interp
module Net = Sharpe_petri.Net
module Reach = Sharpe_petri.Reach
module Srn = Sharpe_petri.Srn
module Structhash = Sharpe_numerics.Structhash

let workstations = 500
let times = List.init 10 (fun i -> float_of_int (i + 1)) @ [ 20.0 ]

(* c as the interpreter's [loop c, 0.70, 0.90, 0.01] produces it *)
let coverages =
  let rec go x acc = if x <= 0.90 +. 0.005 then go (x +. 0.01) (x :: acc) else List.rev acc in
  go 0.70 []

type rates = { lw : string; lf : string; muw : string; muf : string }

(* The rates set the uniformization rate and how soon the transients reach
   steady state, and with them the length of every transient solve, so
   they vary by a few percent only: a seed changes the answers, not the
   amount of work. *)
let draw_rates seed =
  let rng = Random.State.make [| seed; 1 |] in
  let pick lo hi = Printf.sprintf "%.6g" (lo +. Random.State.float rng (hi -. lo)) in
  { lw = pick 0.9e-4 1.1e-4; lf = pick 4.5e-5 5.5e-5; muw = pick 0.98 1.02; muf = pick 0.49 0.51 }

let program r =
  Printf.sprintf
    {|format 8
func avail()
if ((#(wsup) > 0) and (#(fsup) == 1))
1
else
0
end
end

srn wfs (c)
wsup %d
fsup 1
wst 0
wsdn 0
fsdn 0
end
wsfl placedep wsup %s
fsfl ind %s
wsrp ind %s
fsrp ind %s
end
wscv ind c
wsuc ind 1 - c
end
wsup wsfl 1
fsup fsfl 1
fsup wsuc 1
wst wscv 1
wst wsuc 1
wsdn wsrp 1
fsdn fsrp 1
end
wsfl wst 1
wsrp wsup 1
fsfl fsdn 1
fsrp fsup 1
wscv wsdn 1
wsuc wsdn 1
wsuc fsdn 1
end
fsdn wsfl 1
fsdn wsrp 1
wsdn fsfl 2
end

loop c, 0.70, 0.90, 0.01
  loop t, 1, 10, 1
    expr srn_exrt(t, wfs; avail; c)
  end
  expr srn_exrt(20, wfs; avail; c)
end

end
|}
    workstations r.lw r.lf r.muw r.muf

(* The same net built directly with [Net.build], for the layer replay. *)
let net r c =
  let one _ = 1 in
  let f = float_of_string in
  let lw = f r.lw and lf = f r.lf and muw = f r.muw and muf = f r.muf in
  let t name ?(kind = Net.Timed) rate ~ins ~outs ?(inh = []) () =
    { Net.t_name = name; kind; rate; guard = (fun _ -> true); priority = 0;
      inputs = ins; outputs = outs; inhibitors = inh }
  in
  Net.build
    ~places:[ ("wsup", workstations); ("fsup", 1); ("wst", 0); ("wsdn", 0); ("fsdn", 0) ]
    ~transitions:
      [ t "wsfl" (fun m -> float_of_int m.(0) *. lw) ~ins:[ (0, one) ]
          ~outs:[ (2, one) ] ~inh:[ (4, one) ] ();
        t "fsfl" (fun _ -> lf) ~ins:[ (1, one) ] ~outs:[ (4, one) ]
          ~inh:[ (3, fun _ -> 2) ] ();
        t "wsrp" (fun _ -> muw) ~ins:[ (3, one) ] ~outs:[ (0, one) ]
          ~inh:[ (4, one) ] ();
        t "fsrp" (fun _ -> muf) ~ins:[ (4, one) ] ~outs:[ (1, one) ] ();
        t "wscv" ~kind:Net.Immediate (fun _ -> c) ~ins:[ (2, one) ]
          ~outs:[ (3, one) ] ();
        t "wsuc" ~kind:Net.Immediate (fun _ -> 1.0 -. c)
          ~ins:[ (2, one); (1, one) ]
          ~outs:[ (3, one); (4, one) ] () ]

let avail m = if m.(0) > 0 && m.(1) = 1 then 1.0 else 0.0

(* Lower layers called directly on the same model: explore the skeleton
   once, then per c re-weight it and solve the transients.  Returns the
   availabilities in the program's print order. *)
let replay r =
  Trace.span "replay" (fun () ->
      let sk = Trace.span "reach.explore" (fun () -> Reach.explore_skeleton (net r 0.70)) in
      let states = ref (0, 0) in
      let values =
        List.concat_map
          (fun c ->
            let s = Trace.span "reach.reweight" (fun () -> Srn.solve ~skeleton:sk (net r c)) in
            let g = Srn.graph s in
            states := (Reach.n_tangible g, Reach.n_vanishing g);
            List.map snd (Trace.span "transient" (fun () -> Srn.exrt_many s avail times)))
          coverages
      in
      (values, !states))

let run prog =
  let buf = Buffer.create 16384 in
  Structhash.clear_all ();
  let o = Interp.run_program ~print:(Buffer.add_string buf) prog in
  (Buffer.contents buf, o.Interp.failed_statements)

let states = ref (0, 0)

let setup ~nproc ~seed =
  let r = draw_rates seed in
  let prog = program r in
  let reference, failed = Single.with_jobs 1 (fun () -> run prog) in
  let lines = List.length (Util.printed_values reference) in
  if failed <> 0 || lines <> List.length coverages * List.length times then
    failwith "sweep: jobs=1 reference run failed";
  let check (out, failed) =
    let ok = failed = 0 && out = reference in
    if not ok then prerr_endline "perfbench: sweep: output differs from the jobs=1 reference";
    ok
  in
  let traced_op () =
    Structhash.clear_all ();
    let o = Interp_traced.run prog in
    let ok = check (o.output, o.failed) in
    let values, st = replay r in
    states := st;
    let printed = Util.printed_values o.output in
    let same =
      List.length values = List.length printed
      && List.for_all2 (Util.rel_close ~tol:1e-8) values printed
    in
    if not same then prerr_endline "perfbench: sweep: layer replay disagrees with the program";
    (ok && same, o.records, String.length prog)
  in
  let layer_metrics ~ops spans =
    let per_op name = Util.ratio (Trace.total ~spans name) (float_of_int ops) in
    [ Layers.m "reach.explore_s" "s" (per_op "reach.explore");
      Layers.m "reach.reweight_s" "s" (per_op "reach.reweight");
      Layers.m "transient.s_per_op" "s" (per_op "transient");
      Layers.mi "reach.tangible" "count" (fst !states);
      Layers.mi "reach.vanishing" "count" (snd !states) ]
  in
  let op () = check (run prog) in
  (* a checked op at jobs=nproc starts the pool's worker domains *)
  if not (Single.with_jobs nproc op) then failwith "sweep: warm-up op gave a wrong answer";
  { Single.jobs = nproc; op; traced_op; layer_metrics }
