(* The single-caller workloads (suite, sweep, large): one closed-loop
   caller that starts the next op when the previous one returns. *)

module Pool = Sharpe_numerics.Pool
module Diag = Sharpe_numerics.Diag
module Linsolve = Sharpe_numerics.Linsolve

type phase = {
  lat : float array;  (** seconds per op, in order *)
  attempted : int;
  failed : int;
  elapsed : float;  (** wall time of the phase, calibration excluded *)
  cal : float array;  (** seconds per host calibration sample (Calib) *)
  rel : float array;
      (** each op's time over the mean of the calibration samples taken
          just before and just after it *)
  elapsed_cal : float;  (** [elapsed] in calibration units *)
}

(* Per-op times over the calibration around each: [cal.(i)] was taken
   before [lat.(i)] and [cal.(i + 1)] after it. *)
let relative lat cal =
  Array.mapi (fun i t -> t /. ((cal.(i) +. cal.(i + 1)) /. 2.0)) lat

(* Run [op] back to back for [seconds] (and at least [min_ops] times).
   An op that raises or returns [false] counts as failed.  With [~calib]
   the host is calibrated before the first op and after every op, outside
   the op's time and the phase's elapsed time. *)
let closed_loop ?(min_ops = 3) ?(calib = false) ~seconds op =
  let lat = ref [] and failed = ref 0 and n = ref 0 in
  let cal = ref (if calib then [ Calib.sample () ] else []) in
  let t0 = Util.now () in
  while Util.now () -. t0 < seconds || !n < min_ops do
    let ok, dt =
      Util.time (fun () ->
          try op ()
          with e ->
            prerr_endline ("perfbench: op raised " ^ Printexc.to_string e);
            false)
    in
    incr n;
    if not ok then incr failed;
    lat := dt :: !lat;
    if calib then cal := Calib.sample () :: !cal
  done;
  let t1 = Util.now () in
  let lat = Array.of_list (List.rev !lat) and cal = Array.of_list (List.rev !cal) in
  (* every sample but the first was taken inside the phase *)
  let inside = if calib then Util.sum cal -. cal.(0) else 0.0 in
  let rel = if calib then relative lat cal else [||] in
  (* one caller: the phase is its ops back to back *)
  { lat; attempted = !n; failed = !failed; elapsed = t1 -. t0 -. inside; cal; rel;
    elapsed_cal = Util.sum rel }

type workload = {
  jobs : int;  (** pool jobs of the timed ops *)
  op : unit -> bool;  (** one untraced op; [true] when every answer checks *)
  traced_op : unit -> bool * Diag.record list * int;
      (** one op with spans around each layer call: whether it checked,
          its Diag records, and the source bytes it parsed *)
  layer_metrics : ops:int -> Trace.span list -> Layers.metric list;
      (** workload-specific metrics from the spans of the traced ops *)
}

let with_jobs j f =
  let saved = Pool.jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* Untraced: latencies, host calibration, failures and the pool
   participation of the timed phase. *)
let timed w ~min_ops ~seconds =
  let ph =
    with_jobs w.jobs (fun () ->
        Pool.reset_participation ();
        closed_loop ~min_ops ~calib:true ~seconds w.op)
  in
  (ph, Pool.participation ())

(* Traced: a third of the time untraced (the base of the tracing
   overhead), a third traced at the workload's jobs (every layer metric),
   and a third traced at the other jobs setting, jobs=1 against nproc
   (scaling efficiency, and the serial ops from which eval self time is
   derived: there the interpreted op and its replay both run on one
   domain). *)
let traced w ~nproc ~seconds =
  let third = seconds /. 3.0 in
  let untraced = with_jobs w.jobs (fun () -> closed_loop ~seconds:third w.op) in
  Trace.enabled := true;
  let records = ref [] and parsed = ref 0 in
  let traced_loop root jobs =
    with_jobs jobs (fun () ->
        closed_loop ~min_ops:2 ~seconds:third (fun () ->
            Trace.op root (fun () ->
                let ok, recs, bytes = w.traced_op () in
                if root = "op" then begin
                  records := List.rev_append recs !records;
                  parsed := !parsed + bytes
                end;
                ok)))
  in
  Pool.reset_participation ();
  let cache0 = Layers.cache_counts () and gc0 = Layers.gc_counts () in
  let dense0 = Linsolve.dense_count () in
  let main = traced_loop "op" w.jobs in
  let cache1 = Layers.cache_counts () and gc1 = Layers.gc_counts () in
  let dense = Linsolve.dense_count () - dense0 in
  let part = Pool.participation () in
  let other_jobs = if w.jobs = 1 then nproc else 1 in
  let other = traced_loop "op_other_jobs" other_jobs in
  Trace.enabled := false;
  let ops, spans = Layers.spans_of_ops "op" in
  let serial_ops, serial_spans =
    Layers.spans_of_ops (if w.jobs = 1 then "op" else "op_other_jobs")
  in
  let main_t = Util.median (Layers.op_times "op")
  and other_t = Util.median (Layers.op_times "op_other_jobs") in
  let p1, pn = if w.jobs = 1 then (main_t, other_t) else (other_t, main_t) in
  let metrics =
    Layers.interp_metrics ~ops ~parsed_bytes:!parsed spans
    @ [ Layers.eval_self ~ops:serial_ops serial_spans ]
    @ Layers.cache_metrics ~ops ~before:cache0 ~after:cache1
    @ Layers.pool_metrics ~ops part
    @ [ Layers.m "pool.scaling_eff" "ratio" (p1 /. (float_of_int nproc *. pn)) ]
    @ Layers.gc_metrics ~ops ~before:gc0 ~after:gc1
    @ Layers.diag_metrics ~ops (List.rev !records)
    @ [ Layers.dense_metric ~ops dense ]
    @ w.layer_metrics ~ops spans
    @ [ Layers.m "trace.overhead_ratio" "ratio"
          (main_t /. Util.median untraced.lat) ]
  in
  let attempted = untraced.attempted + main.attempted + other.attempted in
  let failed = untraced.failed + main.failed + other.failed in
  (metrics, attempted, failed, part)
