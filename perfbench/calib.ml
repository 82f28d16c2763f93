(* A fixed reference kernel, timed between ops, that measures the speed of
   the host rather than of the program.

   On a shared virtual machine the cores' speed drifts by half or more
   over minutes, with little steal time: in eight 12-s sweep runs made
   one after another the median op time went from 0.38 s down to 0.20 s
   with no change in the work, and in one four-minute run the medians of
   its 20-s windows went from 0.34 s to 0.21 s.  Runs a few minutes apart
   differ by more than any bound a benchmark could hold them to.  The
   kernel runs before the first op and after every op, in the same
   seconds as the ops, and an op's time over the kernel's around it
   cancels most of the drift: over those eight sweep runs the ratio spread by 0.03 of its
   median where the op time spread by 0.43, and over eight suite runs by
   0.05 where the op time spread by 0.27.

   The kernel is the benchmark's own code and calls nothing of the
   repository, so no change to the program can change it.  It keeps to
   the caches and the minor heap: kernels that gathered from 8 MiB or
   sorted a list big enough to reach the major heap tracked the ops well
   within one process but differed from one process to the next, by as
   much as the drift itself. *)

(* Sorting a scattered permutation of 16 Ki ints in place. *)
let template = Array.init 16384 (fun i -> i * 7919 land 16383 lxor (i lsr 3))
let work = Array.make 16384 0

let sort () =
  Array.blit template 0 work 0 16384;
  Array.sort Int.compare work;
  work.(100)

(* Open-addressing inserts and probes of hashed keys into 32 Ki slots. *)
let slots = Array.make 32768 (-1)

let hash () =
  Array.fill slots 0 32768 (-1);
  let found = ref 0 in
  for i = 0 to 20000 do
    let k = i * 2654435761 land 0xffffff in
    let rec probe h =
      let s = slots.(h) in
      if s = -1 then slots.(h) <- k
      else if s = k then incr found
      else probe ((h + 1) land 32767)
    in
    probe (Hashtbl.hash k land 32767)
  done;
  !found

(* A branchy interpreter loop over a small instruction array. *)
type ins = Add of int | Mul of int | Jmp of int | Halt

let code =
  Array.init 64 (fun i ->
      if i = 63 then Halt else match i mod 3 with 0 -> Add i | 1 -> Mul 3 | _ -> Jmp (i + 1))

let interp () =
  let acc = ref 0 in
  for _ = 1 to 10000 do
    let pc = ref 0 and halted = ref false in
    while not !halted do
      match code.(!pc) with
      | Add k ->
          acc := !acc + k;
          incr pc
      | Mul k ->
          acc := !acc * k land 0xffff;
          incr pc
      | Jmp t -> pc := t
      | Halt -> halted := true
    done
  done;
  !acc

(* Short lists of boxed floats that die in the minor heap. *)
let minor () =
  let acc = ref 0.0 in
  for r = 1 to 1000 do
    let l = List.init 256 (fun i -> (float_of_int (i + r), i)) in
    acc := !acc +. List.fold_left (fun a (f, _) -> a +. f) 0.0 l
  done;
  int_of_float !acc

let sink = ref 0

let run () =
  let t0 = Util.now () in
  sink := sort () + hash () + interp () + minor ();
  Util.now () -. t0

let cpus = lazy (Util.allowed_cpus ())

(* Seconds of one [sample] on the reference host, a 2-vCPU Xeon on which
   a run's median sample took 10 to 15 ms.  A time in kernel units times
   this reads as seconds on that host. *)
let reference_s = 0.0125

(* Seconds of one run of the kernel, averaged over the CPUs the process
   may use, pinned to each in turn: about 15 ms on a 2-vCPU Xeon.  Each
   core's speed drifts on its own, and the ops use them all: the pool's
   domains spread over them, and suite splits every pass across them. *)
let sample () =
  match Lazy.force cpus with
  | _ :: _ :: _ as all ->
      let t =
        List.map
          (fun c ->
            ignore (Util.pin [ c ]);
            run ())
          all
      in
      ignore (Util.pin all);
      Util.mean (Array.of_list t)
  | _ -> run ()
