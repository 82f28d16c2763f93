(* Multiprocessor availability study (the thesis' motivating domain):

   A multiprocessor has n processors with imperfect failure coverage.  On a
   covered fault (probability c) the failed processor is mapped out and the
   system reconfigures; on an uncovered fault the whole system crashes and
   must be rebooted.  We build the SRN directly with the library API, derive
   the underlying CTMC through reachability analysis + vanishing-marking
   elimination, and study availability vs coverage — the classic
   coverage-sensitivity experiment.

   Run with:  dune exec examples/multiprocessor_availability.exe *)

module Net = Sharpe_petri.Net
module Srn = Sharpe_petri.Srn
module Reach = Sharpe_petri.Reach

let one_ _ = 1

let build ~n_procs ~coverage ~lambda ~mu ~beta =
  (* places: 0 up, 1 detect, 2 down(covered repair), 3 crashed *)
  let t name ?(kind = Net.Timed) ?(priority = 0) rate ~ins ~outs ?(inh = []) () =
    { Net.t_name = name; kind; rate; guard = (fun _ -> true); priority;
      inputs = ins; outputs = outs; inhibitors = inh }
  in
  Net.build
    ~places:[ ("up", n_procs); ("detect", 0); ("down", 0); ("crashed", 0) ]
    ~transitions:
      [ (* processor fault: rate proportional to working processors *)
        t "fault" (fun m -> float_of_int m.(0) *. lambda)
          ~ins:[ (0, one_) ] ~outs:[ (1, one_) ] ~inh:[ (3, one_) ] ();
        (* covered: processor goes to repair *)
        t "covered" ~kind:Net.Immediate (fun _ -> coverage)
          ~ins:[ (1, one_) ] ~outs:[ (2, one_) ] ();
        (* uncovered: the whole system crashes: flush survivors *)
        t "uncovered" ~kind:Net.Immediate (fun _ -> 1.0 -. coverage)
          ~ins:[ (1, one_); (0, fun m -> m.(0)) ]
          ~outs:[ (3, fun m -> m.(0) + 1) ] ();
        (* repair one processor *)
        t "repair" (fun _ -> mu) ~ins:[ (2, one_) ] ~outs:[ (0, one_) ] ();
        (* reboot after a crash: all processors come back *)
        t "reboot" (fun _ -> beta)
          ~ins:[ (3, fun m -> m.(3)) ]
          ~outs:[ (0, fun m -> m.(3)) ] () ]

let () =
  let n_procs = 4 and lambda = 1.0 /. 1000.0 and mu = 0.5 and beta = 6.0 in
  Printf.printf "Multiprocessor (n=%d) availability vs coverage\n" n_procs;
  Printf.printf "%-10s %-10s %-14s %-14s %-14s\n" "coverage" "markings"
    "availability" "E[#up procs]" "P(crashed)";
  List.iter
    (fun c ->
      let srn = Srn.solve (build ~n_procs ~coverage:c ~lambda ~mu ~beta) in
      let avail = Srn.exrss srn (Srn.reward srn (fun m -> if m.(0) > 0 then 1.0 else 0.0)) in
      let eup = Srn.exrss srn (Srn.reward srn (fun m -> float_of_int m.(0))) in
      let pcrash = Srn.exrss srn (Srn.reward srn (fun m -> if m.(3) > 0 then 1.0 else 0.0)) in
      Printf.printf "%-10.3f %-10d %-14.9f %-14.6f %-14.9f\n" c
        (Reach.n_tangible (Srn.graph srn))
        avail eup pcrash)
    [ 0.90; 0.95; 0.99; 0.999; 1.0 ];
  print_newline ();
  (* transient ramp: availability after a cold start in the worst case *)
  let srn = Srn.solve (build ~n_procs ~coverage:0.95 ~lambda ~mu ~beta) in
  Printf.printf "Transient E[#up] from all-up start (c = 0.95):\n";
  List.iter
    (fun t ->
      Printf.printf "  t=%-8.0f E[#up] = %.6f\n" t
        (Srn.exrt srn (Srn.reward srn (fun m -> float_of_int m.(0))) t))
    [ 10.0; 100.0; 1000.0; 10000.0 ]
