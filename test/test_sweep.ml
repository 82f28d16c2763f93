(* Tests for the sweep engine: the structural solve cache (hit/miss
   discipline, output invariance) and the parallel loop evaluator
   (deterministic output, diagnostic replay order, failure semantics),
   plus the while-loop fuel regression. *)

module Interp = Sharpe_lang.Interp
module Eval = Sharpe_lang.Eval
module Pool = Sharpe_numerics.Pool
module Structhash = Sharpe_numerics.Structhash
module Deadline = Sharpe_numerics.Deadline
module Diag = Sharpe_numerics.Diag
module Sparse = Sharpe_numerics.Sparse
module Ctmc = Sharpe_markov.Ctmc
module Net = Sharpe_petri.Net
module Srn = Sharpe_petri.Srn

let run program =
  let buf = Buffer.create 1024 in
  let outcome = Interp.run_program ~print:(Buffer.add_string buf) program in
  (Buffer.contents buf, outcome.Interp.failed_statements)

(* A parameter sweep over a small repairable-system SRN: the loop rebinds
   the failure rate, which re-weights edges but never changes which
   markings are reachable. *)
let rate_sweep =
  {|format 8
bind lam 0.5
srn m ()
up 2
dn 0
end
fl placedep up lam
rp ind 1.0
end
end
up fl 1
dn rp 1
end
fl dn 1
rp up 1
end
end
func nup() #(up)
loop r, 0.5, 2.5, 0.5
  bind lam r
  expr srn_exrss(m; nup)
end
end
|}

(* Same net, but the sweep rebinds the guard threshold: enabledness (and
   hence the reachable skeleton) changes every iteration. *)
let structure_sweep =
  {|format 8
bind lim 1
srn m ()
up 2
dn 0
end
fl placedep up 0.5 guard #(dn) < lim
rp ind 1.0
end
end
up fl 1
dn rp 1
end
fl dn 1
rp up 1
end
end
func nup() #(up)
loop k, 1, 3, 1
  bind lim k
  expr srn_exrss(m; nup)
end
end
|}

(* [program] a statement at a time on one environment, each error printed
   where it happened; with [emptied], the instance cache is emptied before
   every statement, so no instance outlives the statement that built it. *)
let run_statements ~emptied program =
  let buf = Buffer.create 1024 in
  let env = Eval.make_env ~print:(Buffer.add_string buf) () in
  let ctx = Eval.base_ctx env in
  List.iter
    (fun st ->
      if emptied then Hashtbl.reset env.Eval.cache;
      try ignore (Eval.exec_stmt ctx st)
      with Eval.Error m | Failure m | Invalid_argument m ->
        Buffer.add_string buf ("error: " ^ m ^ "\n"))
    (Sharpe_lang.Parser.parse_string program);
  Buffer.contents buf

let run_warm = run_statements ~emptied:false
let run_emptied = run_statements ~emptied:true

let stat name =
  match List.find_opt (fun s -> s.Structhash.name = name) (Structhash.stats ()) with
  | Some s -> (s.Structhash.hits, s.Structhash.misses)
  | None -> (0, 0)

let fresh_cache () =
  Structhash.set_enabled true;
  Structhash.clear_all ();
  Structhash.reset_stats ()

let test_cache_output_invariant () =
  fresh_cache ();
  let cached, f1 = run rate_sweep in
  Structhash.set_enabled false;
  let cold, f2 = run rate_sweep in
  Structhash.set_enabled true;
  Alcotest.(check int) "no failed statements (cached)" 0 f1;
  Alcotest.(check int) "no failed statements (cold)" 0 f2;
  Alcotest.(check string) "cache-enabled output equals cold-cache output"
    cold cached

let test_rate_mutation_hits () =
  fresh_cache ();
  let _, failed = run rate_sweep in
  Alcotest.(check int) "no failed statements" 0 failed;
  let hits, misses = stat "srn_skeleton" in
  (* 5 sweep iterations: one exploration, then skeleton reuse *)
  Alcotest.(check int) "skeleton explored once" 1 misses;
  Alcotest.(check int) "skeleton reused for every other iteration" 4 hits;
  (* every iteration changes the rate the net's build read, so no solved
     instance is reusable *)
  Alcotest.(check (pair int int)) "one build per rate value" (0, 5)
    (stat "model_instance")

let test_structure_mutation_misses () =
  fresh_cache ();
  let _, failed = run structure_sweep in
  Alcotest.(check int) "no failed statements" 0 failed;
  let hits, misses = stat "srn_skeleton" in
  Alcotest.(check int) "guard change re-explores every iteration" 3 misses;
  Alcotest.(check int) "no skeleton reuse across guard changes" 0 hits

(* A small repairable net under a time loop; [rp] is its repair rate. *)
let time_sweep rp =
  Printf.sprintf
    {|format 8
srn m ()
up 2
dn 0
end
fl placedep up 0.5
rp ind %s
end
end
up fl 1
dn rp 1
end
fl dn 1
rp up 1
end
end
func nup() #(up)
loop t, 1, 5, 1
  expr srn_exrt(t, m; nup)
end
end
|}
    rp

(* The time loop never changes what the net's build reads, so the
   instance cache files one solved net for every time point.  A rate that
   reads the loop variable rebuilds the net at each point (min(t, 1) is 1
   from t = 1 on, but the build read t), and the skeleton cache serves
   those rebuilds: one exploration, re-weighed at every other point. *)
let test_instance_cache_transients () =
  fresh_cache ();
  let _, failed = run (time_sweep "1.0") in
  Alcotest.(check int) "no failed statements" 0 failed;
  Alcotest.(check (pair int int)) "one build for the whole time sweep" (4, 1)
    (stat "model_instance");
  Alcotest.(check (pair int int)) "one skeleton, looked up once" (0, 1)
    (stat "srn_skeleton");
  fresh_cache ();
  let _, failed = run (time_sweep "min(t, 1)") in
  Alcotest.(check int) "no failed statements (rate reads t)" 0 failed;
  Alcotest.(check (pair int int)) "a build per time point" (0, 5)
    (stat "model_instance");
  Alcotest.(check (pair int int)) "one skeleton for the whole time sweep" (4, 1)
    (stat "srn_skeleton")

(* The wfs example's coverage loop (3 values of c, 11 time points each):
   the net's build reads c but not t, so each c builds once and the
   instance cache answers the other 10 points.  The three builds share
   one skeleton.  These counts are the caches' contract with the sweep
   path; faster keys or solves must not move them. *)
let test_wfs_loop_cache_counts () =
  fresh_cache ();
  let outcome =
    Interp.run_program_file ~print:ignore
      (Filename.concat Test_golden.examples_dir "wfs.sharpe")
  in
  Alcotest.(check int) "no failed statements" 0 outcome.Interp.failed_statements;
  Alcotest.(check (pair int int)) "model_instance hits, misses" (30, 3)
    (stat "model_instance");
  Alcotest.(check (pair int int)) "srn_skeleton hits, misses" (2, 1)
    (stat "srn_skeleton")

(* --- zero rates and the skeleton ----------------------------------------- *)

(* Exploration leaves a timed transition out where its rate is 0, so a
   skeleton explored at L = 0 has no edge out of the initial marking.
   Reused after L turns positive it would keep the token in [src]; cold,
   the token ends in [buf].  Both loop directions, against the cold run. *)
let zero_rate_queue loop last =
  Printf.sprintf
    {|srn q (L)
src 1
buf 0
end
arr ind L
end
end
src arr 1
end
arr buf 1
end
end
%s
  expr etok(q, buf; L)
end
expr etok(q, buf; %s)
end
|}
    loop last

let cached_and_cold program =
  fresh_cache ();
  let cached, f1 = run program in
  Structhash.set_enabled false;
  let cold, f2 =
    Fun.protect ~finally:(fun () -> Structhash.set_enabled true) (fun () -> run program)
  in
  (cached, f1, cold, f2)

(* Two transitions out of [p] whose rates trade places between L = 0 and
   L = 1: the two skeletons differ ({p, r} against {p, q}) but carry the
   same weights, [[1]; []].  Only the zero-rated pairs tell their solved
   instances apart. *)
let fork =
  {|srn fork (L)
p 1
q 0
r 0
end
a ind L
b ind 1 - L
end
end
p a 1
p b 1
end
a q 1
b r 1
end
end
loop L, 0, 1, 1
  expr etok(fork, q; L)
end
loop L, 1, 0, -1
  expr etok(fork, q; L)
end
end
|}

let test_zero_rate_skeleton () =
  List.iter
    (fun (program, expected) ->
      let cached, f1, cold, f2 = cached_and_cold program in
      Alcotest.(check int) "no failed statements (cold)" 0 f2;
      Alcotest.(check int) "no failed statements (cached)" 0 f1;
      Alcotest.(check string) "cold answers" expected
        (String.concat ","
           (List.filter_map
              (fun l ->
                match List.rev (String.split_on_char ' ' l) with
                | v :: _ :: _ -> Some v
                | _ -> None)
              (String.split_on_char '\n' cold)));
      Alcotest.(check string) "cached output equals cold output" cold cached)
    [ (zero_rate_queue "loop L, 0, 1, 1" "1", "0.000000,1.000000,1.000000");
      (zero_rate_queue "loop L, 1, 0, -1" "0", "1.000000,0.000000,0.000000");
      (fork, "0.000000,1.000000,1.000000,0.000000") ]

(* Two sessions evaluated on one domain read the same skeleton table: one
   session exploring the queue at L = 0 must not decide what another sees
   at L = 1. *)
let test_zero_rate_across_sessions () =
  fresh_cache ();
  let a = Interp.Session.create () and b = Interp.Session.create () in
  let out_a, _ = Interp.Session.eval a (zero_rate_queue "loop L, 0, 0, 1" "0") in
  let out_b, _ = Interp.Session.eval b (zero_rate_queue "loop L, 1, 1, 1" "1") in
  Alcotest.(check string) "session a at L = 0"
    "etok(q, buf; L): 0.000000\netok(q, buf; 0): 0.000000\n" out_a;
  Alcotest.(check string) "session b at L = 1"
    "etok(q, buf; L): 1.000000\netok(q, buf; 1): 1.000000\n" out_b

(* --- rates that change and come back ------------------------------------ *)

(* A two-place repairable system whose failure rate is [fl]; [body] asks
   for measures while some input of that rate changes and comes back, so
   the net is rebuilt under new rates and under rates it saw before.  The
   structural key never changes. *)
let repairable ?(params = "") ?(prelude = "") fl body =
  Printf.sprintf
    {|format 8
%s
srn m (%s)
up 3
dn 0
end
fl %s
rp ind 1.0
end
end
up fl 1
dn rp 1
end
fl dn 1
rp up 1
end
end
func nup() #(up)
%s
end
|}
    prelude params fl body

let rate_programs =
  [ ( "re-bound constant",
      repairable ~prelude:"bind lam 0.5" "placedep up lam"
        "expr srn_exrss(m; nup)\nbind lam 2\nexpr srn_exrss(m; nup)\n\
         bind lam 0.5\nexpr srn_exrss(m; nup)\nexpr srn_exrt(1, m; nup)" );
    ( "model parameter",
      repairable ~params:"lam" "placedep up lam"
        "loop r, 1, 3, 1\n  expr srn_exrss(m; nup; r)\n  expr srn_exrt(2, m; nup; r)\nend\n\
         expr srn_exrss(m; nup; 1)\nexpr srn_exrss(m; nup; 2)" );
    ( "loop variable",
      repairable "ind r"
        "loop r, 1, 2, 1\n  loop t, 1, 3, 1\n    expr srn_exrt(t, m; nup)\n  end\nend\n\
         loop r, 2, 1, -1\n  expr srn_exrss(m; nup)\nend" );
    ( "redefined func",
      repairable ~prelude:"func f() 0.5" "ind f()"
        "expr srn_exrss(m; nup)\nfunc f() 0.5 * 3\nexpr srn_exrss(m; nup)\n\
         func f() 0.5\nexpr srn_exrss(m; nup)\nfunc f() 1.5\nexpr srn_exrss(m; nup)" );
    ( "var expression",
      repairable ~prelude:"bind a 1\nvar v a * 0.25" "ind v"
        "expr srn_exrss(m; nup)\nbind a 4\nexpr srn_exrss(m; nup)\n\
         var v a * 0.0625\nexpr srn_exrss(m; nup)\nbind a 1\nvar v a * 0.25\n\
         expr srn_exrss(m; nup)" );
    (* a function body and a var expression read the global L, not the
       model parameter of the same name *)
    ( "global read by a func under a parameter of its name",
      repairable ~params:"L" ~prelude:"bind L 1\nfunc f() L * 0.5" "ind f()"
        "expr srn_exrss(m; nup; 5)\nbind L 3\nexpr srn_exrss(m; nup; 5)\n\
         bind L 1\nexpr srn_exrss(m; nup; 5)" );
    ( "global read by a var under a parameter of its name",
      repairable ~params:"L" ~prelude:"bind L 1\nvar v L * 0.5" "ind v"
        "expr srn_exrss(m; nup; 5)\nbind L 3\nexpr srn_exrss(m; nup; 5)\n\
         bind L 1\nexpr srn_exrss(m; nup; 5)" );
    (* a call looks its name up in the environment, never in the locals *)
    ( "func called under a parameter of its name",
      repairable ~params:"f" ~prelude:"func f() 0.5" "ind f()"
        "expr srn_exrss(m; nup; 1)\nfunc f() 1.5\nexpr srn_exrss(m; nup; 1)\n\
         func f() 0.5\nexpr srn_exrss(m; nup; 1)" );
    ( "marking-dependent rate",
      repairable ~prelude:"bind lam 0.5" "gendep lam * #(up) * #(up)"
        "loop lam, 1, 3, 1\n  expr srn_exrss(m; nup)\nend\nbind lam 1\n\
         expr srn_exrss(m; nup)\nexpr srn_exrt(1, m; nup)" );
    ( "immediate weight 1 - c",
      {|format 8
srn w (c)
up 2
st 0
dn 0
sd 0
end
fl placedep up 0.1
rp ind 1.0
rs ind 0.5
end
cv ind c
uc ind 1 - c
end
up fl 1
st cv 1
st uc 1
dn rp 1
sd rs 1
end
fl st 1
cv dn 1
uc sd 1
rp up 1
rs up 1
end
end
end
func nup() #(up)
loop c, 0.2, 0.8, 0.3
  expr srn_exrss(w; nup; c)
  expr srn_exrt(1, w; nup; c)
end
expr srn_exrss(w; nup; 0.5)
end
|} ) ]

(* Programs whose repeated lookups the instance cache answers: each
   parameter value is built once. *)
let absorbed = [ "model parameter"; "immediate weight 1 - c" ]

let test_rate_rebinds_match_cold () =
  List.iter
    (fun (name, program) ->
      let cached, f1, cold, f2 = cached_and_cold program in
      Alcotest.(check int) (name ^ ": no failed statements (cold)") 0 f2;
      Alcotest.(check int) (name ^ ": no failed statements (cached)") 0 f1;
      Alcotest.(check string) (name ^ ": cached output equals cold output")
        cold cached;
      Alcotest.(check string) (name ^ ": output equals an emptied instance cache's")
        (run_emptied program) (run_warm program);
      fresh_cache ();
      ignore (run program);
      let hits, builds = stat "model_instance" in
      Alcotest.(check bool) (name ^ ": a changed rate rebuilds the net") true
        (builds > 1);
      Alcotest.(check (pair int int)) (name ^ ": every rebuild re-weighs one skeleton")
        (builds - 1, 1) (stat "srn_skeleton");
      if List.mem name absorbed then
        Alcotest.(check bool) (name ^ ": the instance cache answers the repeats") true
          (hits > 0))
    rate_programs

(* A rate that calls an analysis builtin (a hierarchical model) is
   weighed like any other: a bind the block reads rebuilds the block and
   the net (3 builds each, the block's looked up again at every edge
   weighed), and the net re-weighs its one skeleton. *)
let test_hierarchical_rate_weights_path () =
  let program =
    {|format 8
bind lam 0.5
block b
comp c exp(lam)
end
|}
    ^ repairable "ind 1 / mean(b)"
        "expr srn_exrss(m; nup)\nexpr srn_exrt(1, m; nup)\nbind lam 2\n\
         expr srn_exrss(m; nup)\nbind lam 0.5\nexpr srn_exrss(m; nup)"
  in
  let cached, f1, cold, f2 = cached_and_cold program in
  Alcotest.(check int) "no failed statements (cold)" 0 f2;
  Alcotest.(check int) "no failed statements (cached)" 0 f1;
  Alcotest.(check string) "cached output equals cold output" cold cached;
  fresh_cache ();
  ignore (run program);
  Alcotest.(check (pair int int)) "builds of the net and the block" (10, 6)
    (stat "model_instance");
  Alcotest.(check (pair int int)) "one skeleton" (2, 1) (stat "srn_skeleton")

(* A binding named exp shadows the builtin, so exp(x) in a rate stops
   evaluating: the instance cache must not answer for it. *)
let test_shadowed_exp_rate () =
  let program =
    repairable "placedep up exp(0 - 1)"
      "expr srn_exrss(m; nup)\nbind exp 2\nexpr srn_exrss(m; nup)"
  in
  let cached, f1, cold, f2 = cached_and_cold program in
  Alcotest.(check int) "the shadowed call fails (cold)" 1 f2;
  Alcotest.(check int) "the shadowed call fails (cached)" 1 f1;
  Alcotest.(check string) "cached output equals cold output" cold cached

(* An output arc whose cardinality reads Rate(T1), a global also named T1:
   the rate decides the net's structure, so no skeleton may be filed
   under a key that leaves the rate out, and x = 2 sends two tokens. *)
let test_rate_in_cardinality () =
  let program name =
    Test_golden.read_file (Filename.concat Test_golden.src_root ("test/programs/" ^ name))
  in
  let cached, f1, cold, f2 = cached_and_cold (program "rate_cardinality.sharpe") in
  Alcotest.(check (pair int int)) "no failed statements (cached, cold)" (0, 0) (f1, f2);
  Alcotest.(check string) "cold answers" (program "rate_cardinality.out") cold;
  Alcotest.(check string) "cached output equals cold output" cold cached;
  Alcotest.(check (pair int int)) "the net is solved cold" (0, 0) (stat "srn_skeleton")

(* --- allocation on the sweep path --------------------------------------- *)

module Parser = Sharpe_lang.Parser
module Builtins = Sharpe_lang.Builtins
module Reach = Sharpe_petri.Reach

(* n tokens on a three-place ring: C(n + 2, 2) markings, three rate forms
   (a global, a model parameter, a marking-dependent expression) *)
let ring_program =
  {|bind lam 0.5
srn ring (n, mu)
p0 n
p1 0
p2 0
end
t0 placedep p0 lam
t1 ind mu
t2 gendep #(p2) * 0.5 + lam
end
end
p0 t0 1
p1 t1 1
p2 t2 1
end
t0 p1 1
t1 p2 1
t2 p0 1
end
end
|}

let least_words f =
  List.fold_left min infinity
    (List.init 3 (fun _ ->
         let w0 = Gc.minor_words () in
         ignore (Sys.opaque_identity (f ()));
         Gc.minor_words () -. w0))

let ring_session () =
  fresh_cache ();
  let env = Eval.make_env ~print:ignore () in
  let ctx = Eval.base_ctx env in
  List.iter (fun st -> ignore (Eval.exec_stmt ctx st)) (Parser.parse_string ring_program);
  let inst n =
    match Builtins.instantiate ctx "ring" [ float_of_int n; 2.0 ] with
    | Eval.ISrn s -> s
    | _ -> Alcotest.fail "ring is not an SRN"
  in
  (env, inst)

(* Evaluating an interpreted rate closure must not copy the interpreter
   context: what an edge costs is the expression's own evaluation (about
   7 words on this ring; a context copy alone was 10 more). *)
let test_edge_weights_allocation () =
  let _, inst = ring_session () in
  let s = inst 43 in
  let net = Srn.net s and sk = Srn.skeleton_of s in
  Alcotest.(check int) "990 markings" 990 (Reach.n_markings sk);
  let edges =
    Array.fold_left (fun a r -> a + Array.length r) 0 (Reach.edge_weights net sk)
  in
  let per_edge = least_words (fun () -> Reach.edge_weights net sk) /. float_of_int edges in
  if per_edge > 10.0 then
    Alcotest.failf "edge_weights allocates %.1f minor words per edge (bound 10)" per_edge

(* The marking a closure reads sits in a per-domain cell: two domains
   weighing the same interpreted net at once both get the serial weights. *)
let test_closures_on_two_domains () =
  let _, inst = ring_session () in
  let s = inst 20 in
  let net = Srn.net s and sk = Srn.skeleton_of s in
  let serial = Reach.edge_weights net sk in
  let weigh () = List.init 20 (fun _ -> Reach.edge_weights net sk) in
  let other = Domain.spawn weigh in
  let here = weigh () in
  let there = Domain.join other in
  List.iter
    (fun w ->
      if w <> serial then Alcotest.fail "weights differ from the serial ones")
    (here @ there)

(* A repeated lookup that the instance cache answers costs the same on a
   net four times the size: nothing in it is proportional to the edge
   count.  Each lookup comes in a new environment version, as after a
   bind the net does not read, so the hit compares what the build read
   and replays its records. *)
let test_instance_hit_allocation () =
  let env, inst = ring_session () in
  let hit n =
    ignore (inst n);
    least_words (fun () ->
        Eval.touch env;
        inst n)
  in
  let small = hit 20 and large = hit 43 in
  let s = inst 43 and s' = inst 20 in
  let edges s =
    Array.fold_left (fun a r -> a + Array.length r) 0
      (Reach.edge_weights (Srn.net s) (Srn.skeleton_of s))
  in
  let extra_edges = float_of_int (edges s - edges s') in
  if large -. small > extra_edges /. 10.0 then
    Alcotest.failf "an instance hit on %.0f more edges allocates %.0f more minor words"
      extra_edges (large -. small);
  Alcotest.(check (pair int int)) "the lookups hit the instance cache" (8, 2)
    (stat "model_instance")

(* --- structural keys --------------------------------------------------- *)

type field = S of string | I of int | B of bool | F of int64 | L of field list

let rec add_field b = function
  | S s -> Structhash.add_string b s
  | I i -> Structhash.add_int b i
  | B v -> Structhash.add_bool b v
  | F bits -> Structhash.add_float b (Int64.float_of_bits bits)
  | L fs -> Structhash.add_list b add_field fs

let key fs =
  let b = Structhash.builder "t" in
  List.iter (add_field b) fs;
  Structhash.finish b

(* Parse a key back into its fields.  A key that decodes to the sequence
   it was built from cannot equal the key of any other sequence, so a
   round trip over adversarial fields is an injectivity check. *)
let decode k =
  let pos = ref 2 (* past "t|" *) in
  let next () =
    let c = k.[!pos] in
    incr pos;
    c
  in
  let upto stop =
    let j = String.index_from k !pos stop in
    let s = String.sub k !pos (j - !pos) in
    pos := j + 1;
    s
  in
  let rec fields stop =
    if !pos = String.length k || k.[!pos] = stop then []
    else
      let f =
        match next () with
        | 's' ->
            let n = int_of_string (upto ':') in
            let s = String.sub k !pos n in
            pos := !pos + n;
            S s
        | 'i' -> I (int_of_string (upto ';'))
        | 'T' -> B true
        | 'F' -> B false
        | 'f' ->
            let bits = String.get_int64_le k !pos in
            pos := !pos + 8;
            F bits
        | '[' ->
            let fs = fields ']' in
            incr pos;
            L fs
        | c -> Alcotest.failf "unexpected key byte %C" c
      in
      f :: fields stop
  in
  fields '\000'

(* Floats whose raw bytes spell the encoding's own tags, brackets and
   terminators. *)
let tag_bytes = "sifTF[];:-0123456789"

let field_gen =
  QCheck.Gen.(
    let tagchar = map (String.get tag_bytes) (int_bound (String.length tag_bytes - 1)) in
    let tag_float =
      map (fun s -> F (String.get_int64_le s 0)) (string_size ~gen:tagchar (return 8))
    in
    let leaf =
      frequency
        [ (4, tag_float);
          (1, map (fun x -> F (Int64.bits_of_float x)) float);
          (1, map (fun s -> S s) (string_size ~gen:tagchar (int_bound 4)));
          (1, map (fun i -> I i) (int_range (-20) 20));
          (1, map (fun v -> B v) bool) ]
    in
    sized_size (int_bound 3)
      (fix (fun self n ->
           if n = 0 then leaf
           else frequency [ (3, leaf); (1, map (fun fs -> L fs) (list_size (int_bound 4) (self (n - 1)))) ])))

let prop_key_roundtrip =
  QCheck.Test.make ~name:"structural keys decode to their fields" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_bound 6) field_gen))
    (fun fs -> decode (key fs) = fs)

let test_float_keys () =
  Alcotest.(check bool) "0.0 and -0.0 give distinct keys" true
    (key [ F (Int64.bits_of_float 0.0) ] <> key [ F (Int64.bits_of_float (-0.0)) ]);
  (* a float spelling "]f]f]f]f" inside a list, next to the sequence its
     bytes would fake under a terminator-delimited encoding *)
  let x = String.get_int64_le "]f]f]f]f" 0 in
  let fs = [ L [ F x ]; B true ] in
  Alcotest.(check bool) "tag-spelling float round-trips" true (decode (key fs) = fs);
  Alcotest.(check bool) "and keeps its key apart" true
    (key fs <> key [ L []; F x; B true ])

(* --- parallel loop evaluation ---------------------------------------- *)

let with_jobs n f =
  Pool.set_jobs ~clamp:false n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let test_parallel_output_identical () =
  fresh_cache ();
  let serial, f1 = run rate_sweep in
  let parallel, f2 = with_jobs 4 (fun () -> run rate_sweep) in
  Alcotest.(check int) "no failed statements (serial)" 0 f1;
  Alcotest.(check int) "no failed statements (parallel)" 0 f2;
  Alcotest.(check string) "parallel output identical to serial" serial
    parallel

let test_parallel_loop_var_final_value () =
  let program = "loop i, 1, 10, 1\n  expr i * i\nend\nexpr i + 100" in
  let serial, _ = run program in
  let parallel, _ = with_jobs 3 (fun () -> run program) in
  Alcotest.(check string) "loop variable keeps its final value" serial
    parallel

let test_parallel_failure_matches_serial () =
  (* iteration 3 calls an undefined function: the loop statement fails,
     output of the iterations before it must still appear, in order *)
  let program =
    "loop i, 1, 5, 1\n  expr i * 10\n  if (i == 3)\n    expr nosuch(i)\n  end\nend"
  in
  let serial, f1 = run program in
  let parallel, f2 = with_jobs 4 (fun () -> run program) in
  Alcotest.(check int) "statement fails serially" 1 f1;
  Alcotest.(check int) "statement fails in parallel" 1 f2;
  Alcotest.(check string) "partial output identical to serial" serial
    parallel

let test_parallel_diag_order () =
  (* diagnostics from worker domains must replay in iteration order *)
  let _, records =
    Diag.capture (fun () ->
        Pool.set_jobs ~clamp:false 4;
        Fun.protect ~finally:(fun () -> Pool.set_jobs 1) (fun () ->
            ignore
              (Pool.run 8 (fun i ->
                   Diag.emitf Diag.Info ~solver:"test" "task %d" i;
                   i))))
  in
  let msgs = List.map (fun r -> r.Diag.message) records in
  Alcotest.(check (list string))
    "replayed in index order"
    (List.init 8 (Printf.sprintf "task %d"))
    msgs

(* --- parallel loops share model instances per domain ------------------ *)

(* A chain whose rate is the loop variable: every iteration builds its
   own.  The iterations one domain runs share an instance table, and only
   versions no two iterations hold keep the entry built under one value
   of [i] from answering for the next. *)
let test_parallel_build_reads_loop_var () =
  let program =
    "format 8\nmarkov mk\n0 1 i\n1 0 2\nend\n\
     loop i, 1, 6\n  expr prob(mk, 0)\nend\nend\n"
  in
  fresh_cache ();
  let serial, f1 = run program in
  let parallel, f2 = with_jobs 2 (fun () -> run program) in
  Alcotest.(check int) "no failed statements (serial)" 0 f1;
  Alcotest.(check int) "no failed statements (parallel)" 0 f2;
  Alcotest.(check int) "six distinct answers" 6
    (List.length (List.sort_uniq compare (String.split_on_char '\n' serial)) - 1);
  Alcotest.(check string) "parallel output identical to serial" serial parallel

(* A loop over a chain its body queries but whose build does not read the
   loop variable: serially one build serves all six iterations, in
   parallel one build per domain that ran an iteration. *)
let unread_loop chain =
  "bind lam 1\n" ^ chain ^ "loop i, 1, 6\n  expr prob(m, 0)\nend\nend\n"

let test_parallel_instances_per_domain () =
  fresh_cache ();
  Pool.reset_participation ();
  let out, failed =
    with_jobs 2 (fun () -> run (unread_loop "markov m\n0 1 lam\n1 0 2\nend\n"))
  in
  Alcotest.(check int) "no failed statements" 0 failed;
  Alcotest.(check string) "six answers"
    (String.concat "" (List.init 6 (fun _ -> "prob(m, 0): 6.666667e-001\n")))
    out;
  let domains = (Pool.participation ()).distinct_domains in
  let hits, misses = stat "model_instance" in
  Alcotest.(check int) "every iteration looks the chain up" 6 (hits + misses);
  if misses > domains then
    Alcotest.failf "%d builds on %d domains: more than one per domain" misses domains

(* The same loop over a chain whose steady state emits records: a hit in
   an iteration's own version replays them as a rebuild would, so the
   stream at jobs=2 is the one at jobs=1. *)
let test_parallel_instance_diag_stream () =
  let program =
    unread_loop "markov m\nloop k, 0, 600\n$(k) $(k+1) lam\n$(k+1) $(k) 2\nend\nend\n"
  in
  let stream jobs =
    fresh_cache ();
    let outcome =
      with_jobs jobs (fun () -> Interp.run_program ~print:ignore program)
    in
    Alcotest.(check int) "no failed statements" 0 outcome.Interp.failed_statements;
    List.map Diag.record_to_json outcome.Interp.diagnostics
  in
  let serial = stream 1 in
  Alcotest.(check bool) "the steady states emit records" true (List.length serial >= 6);
  Alcotest.(check (list string)) "jobs=2 stream equals jobs=1" serial (stream 2)

let test_pool_results_in_order () =
  let results =
    with_jobs 3 (fun () -> Pool.run 20 (fun i -> (i * i) + 1))
  in
  Alcotest.(check (array int))
    "results in index order"
    (Array.init 20 (fun i -> (i * i) + 1))
    results

(* --- real multi-domain execution and participation --------------------- *)

let test_pool_multi_domain_execution () =
  (* tasks sleep long enough that the woken workers claim chunks even on
     a single-core host (sleeping releases the domain, so the OS can
     schedule the others); [~clamp:false] bypasses the host clamp *)
  Pool.reset_participation ();
  let ids =
    with_jobs 4 (fun () ->
        Pool.run 8 (fun _ ->
            Unix.sleepf 0.05;
            (Domain.self () :> int)))
  in
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  Alcotest.(check bool) "tasks executed on more than one domain" true
    (List.length distinct > 1);
  let part = Pool.participation () in
  Alcotest.(check int) "participation sees the same distinct domains"
    (List.length distinct) part.Pool.distinct_domains;
  Alcotest.(check int) "every task accounted to some domain" 8
    (List.fold_left (fun a (_, c) -> a + c) 0 part.Pool.tasks_per_domain);
  Alcotest.(check bool) "the batch is recorded as multi-domain" true
    (part.Pool.batches >= 1 && part.Pool.max_batch_domains > 1)

let test_run_deadline_mid_batch () =
  (* the deadline expires while the batch is still being claimed: chunks
     claimed after expiry raise Timed_out from the deadline re-install
     BEFORE any of their tasks run (these tasks never check the deadline
     themselves), leaving their slots empty — Pool.run must surface the
     chunk's Timed_out, not trip over the never-filled slots *)
  match
    with_jobs 4 (fun () ->
        Deadline.with_timeout 0.05 (fun () ->
            Pool.run 64 (fun _ -> Unix.sleepf 0.01)))
  with
  | _ -> Alcotest.fail "expected Deadline.Timed_out"
  | exception Deadline.Timed_out -> ()

let test_run_ranges_disjoint_cover () =
  (* ranges are claimed exactly once: each cell is written by exactly one
     domain, so incrementing without synchronization is race-free *)
  let n = 1000 in
  let hits = Array.make n 0 in
  with_jobs 4 (fun () ->
      Pool.run_ranges n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done));
  Alcotest.(check bool) "every index covered exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_stale_tokens_purged () =
  (* the caller usually drains a trivial batch before the workers touch
     their queue tokens; those tokens must not outlive the batch *)
  ignore (with_jobs 4 (fun () -> Pool.run 32 Fun.id));
  Alcotest.(check int) "no leftover batch tokens after run" 0
    (Pool.queue_length ());
  match Pool.await (Pool.submit (fun () -> 41 + 1)) with
  | Ok v -> Alcotest.(check int) "server job runs after a batch" 42 v
  | Error (e, _) -> raise e

let test_clamp_warning_once_per_pair () =
  let recommended = Domain.recommended_domain_count () in
  let warnings f =
    let _, records = Diag.capture f in
    List.length
      (List.filter (fun r -> r.Diag.severity = Diag.Warning) records)
  in
  (* offsets chosen to be unique to this test: the dedup table is global *)
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs 1)
    (fun () ->
      Alcotest.(check int) "first clamp of a pair warns" 1
        (warnings (fun () -> Pool.set_jobs (recommended + 13)));
      Alcotest.(check int) "the same pair never warns again" 0
        (warnings (fun () -> Pool.set_jobs (recommended + 13)));
      Alcotest.(check int) "a different pair warns once" 1
        (warnings (fun () -> Pool.set_jobs (recommended + 17))))

(* --- deterministic parallel kernels ------------------------------------ *)

let bits v = Array.to_list (Array.map Int64.bits_of_float v)

let with_par_floor n f =
  let saved = Sparse.par_min_nnz () in
  Fun.protect
    ~finally:(fun () -> Sparse.set_par_min_nnz saved)
    (fun () ->
      Sparse.set_par_min_nnz n;
      f ())

(* deterministic LCG so the matrices are reproducible across runs *)
let make_rand seed =
  let state = ref seed in
  fun () ->
    state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x3FFFFFFF

let random_csr rand n =
  Sparse.of_rows ~rows:n ~cols:n (fun _ emit ->
      for j = 0 to n - 1 do
        if rand () < 0.2 then emit j ((rand () -. 0.5) *. 4.0)
      done)

let test_par_spmv_bit_identical () =
  let rand = make_rand 123456789 in
  let n = 97 in
  let m = random_csr rand n in
  let x = Array.init n (fun _ -> (rand () -. 0.5) *. 2.0) in
  let serial = Sparse.mat_vec m x in
  let par =
    with_par_floor 0 (fun () -> with_jobs 4 (fun () -> Sparse.par_mat_vec m x))
  in
  Alcotest.(check (list int64)) "parallel SpMV bit-identical to serial"
    (bits serial) (bits par)

let test_vec_mat_as_transposed_mat_vec () =
  (* the transient/power-iteration rewrite: for nonnegative systems,
     v P == P^T v bit-for-bit (same per-entry accumulation order) *)
  let rand = make_rand 987654321 in
  let n = 83 in
  let p =
    Sparse.of_rows ~rows:n ~cols:n (fun _ emit ->
        for j = 0 to n - 1 do
          if rand () < 0.15 then emit j (rand ())
        done)
  in
  let x = Array.init n (fun _ -> rand ()) in
  let via_vec_mat = Sparse.vec_mat x p in
  let via_transpose = Sparse.mat_vec (Sparse.transpose p) x in
  Alcotest.(check (list int64)) "vec_mat == transposed mat_vec bitwise"
    (bits via_vec_mat) (bits via_transpose)

let local_tbl = lazy (Structhash.Table.create "test_domain_local")

(* Every domain keeps its own table: each of the 16 keys misses at most
   once per domain that ran a task, and every other lookup hits. *)
let test_domain_local_cache_parallel () =
  fresh_cache ();
  let tbl = Lazy.force local_tbl in
  Pool.reset_participation ();
  let results =
    with_jobs 4 (fun () ->
        Pool.run 64 (fun i ->
            let k = i mod 16 in
            Structhash.Table.find_or_add tbl (Printf.sprintf "key%d" k)
              (fun () -> k * 7)))
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check int) "concurrent lookups see the right value"
        (i mod 16 * 7) v)
    results;
  let domains = (Pool.participation ()).distinct_domains in
  match
    List.find_opt
      (fun (s : Structhash.stat) -> s.name = "test_domain_local")
      (Structhash.stats ())
  with
  | None -> Alcotest.fail "the table is not in Structhash.stats"
  | Some s ->
      Alcotest.(check int) "every lookup counted once" 64 (s.hits + s.misses);
      Alcotest.(check bool)
        (Printf.sprintf "%d misses on %d domains: at most 16 per domain"
           s.misses domains)
        true
        (s.misses <= 16 * domains)

let test_ctmc_parallel_transient_bits () =
  (* birth-death chain large enough that uniformization does real work;
     forced-parallel SpMV must be bit-identical to the serial
     evaluation *)
  let n = 150 in
  let rates =
    List.concat
      (List.init n (fun i ->
           (if i + 1 < n then
              [ (i, i + 1, 0.8 +. (0.01 *. float_of_int i)) ]
            else [])
           @ if i > 0 then [ (i, i - 1, 1.3) ] else []))
  in
  let init = Array.make n 0.0 in
  init.(0) <- 1.0;
  let ts = [ 0.5; 1.0; 2.0; 5.0 ] in
  let transients c = List.map (fun t -> (t, Ctmc.transient c ~init t)) ts in
  let serial = transients (Ctmc.make ~n rates) in
  let serial_cum = Ctmc.cumulative (Ctmc.make ~n rates) ~init 3.0 in
  let par, par_cum =
    with_par_floor 0 (fun () ->
        with_jobs 4 (fun () ->
            ( transients (Ctmc.make ~n rates),
              Ctmc.cumulative (Ctmc.make ~n rates) ~init 3.0 )))
  in
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      Alcotest.(check (float 0.0)) "same time point" t1 t2;
      Alcotest.(check (list int64)) "transient distribution bit-identical"
        (bits v1) (bits v2))
    serial par;
  Alcotest.(check (list int64)) "cumulative distribution bit-identical"
    (bits serial_cum) (bits par_cum)

let repairable_net () =
  let one_ _ = 1 in
  let no_guard _ = true in
  Net.build
    ~places:[ ("up", 3); ("dn", 0) ]
    ~transitions:
      [ { Net.t_name = "fl"; kind = Net.Timed;
          rate = (fun m -> 0.4 *. float_of_int m.(0));
          guard = no_guard; priority = 0;
          inputs = [ (0, one_) ]; outputs = [ (1, one_) ]; inhibitors = [] };
        { Net.t_name = "rp"; kind = Net.Timed; rate = (fun _ -> 1.0);
          guard = no_guard; priority = 0;
          inputs = [ (1, one_) ]; outputs = [ (0, one_) ]; inhibitors = [] } ]

let test_srn_transient_many_bits () =
  (* horizons past the checkpoint-ladder spacing: the time grid at
     jobs=4 must carry the bits of the same queries one by one *)
  let ts = [ 50.0; 150.0; 250.0; 350.0 ] in
  let reward m = float_of_int m.(0) in
  let s_serial = Srn.solve (repairable_net ()) in
  let serial = List.map (fun t -> Srn.exrt s_serial reward t) ts in
  let s_par = Srn.solve (repairable_net ()) in
  let par = with_jobs 4 (fun () -> Srn.exrt_many s_par reward ts) in
  List.iter2
    (fun a (_, b) ->
      Alcotest.(check int64) "transient reward bit-identical"
        (Int64.bits_of_float a) (Int64.bits_of_float b))
    serial par

(* --- while-loop fuel -------------------------------------------------- *)

let test_while_fuel_exact_boundary () =
  (* a loop that terminates on exactly the last allowed iteration is NOT
     an exhaustion: regression for the false positive.  The fuel budget
     is per-environment (session-context refactor), so it is passed to
     the run instead of poked into a global. *)
  let run_fueled program =
    let buf = Buffer.create 1024 in
    let outcome =
      Interp.run_program ~fuel_limit:50 ~print:(Buffer.add_string buf) program
    in
    (Buffer.contents buf, outcome.Interp.failed_statements)
  in
  let out, failed =
    run_fueled "bind i 0\nwhile (i < 50)\n  bind i i + 1\nend\nexpr i"
  in
  Alcotest.(check int) "loop of exactly the fuel limit succeeds" 0 failed;
  Alcotest.(check string) "final value printed" "i: 50.000000\n"
    (String.concat "\n"
       (List.filter
          (fun l -> String.length l > 1 && l.[0] = 'i' && l.[1] = ':')
          (String.split_on_char '\n' out))
    ^ "\n");
  let _, failed =
    run_fueled "bind i 0\nwhile (i < 51)\n  bind i i + 1\nend\nexpr i"
  in
  Alcotest.(check int) "one iteration beyond the fuel limit fails" 1 failed

(* --- the instance cache --------------------------------------------------- *)

(* A markov chain, an SRN and a fault tree, and a chain built on all three:
   the statements below rebind, redefine and query them in random order. *)
let instance_prelude =
  {|format 8
bind a 1
bind b 0.5
func f() a + 1
var v a * 2
markov mk(k)
0 1 a*k
1 0 f()
1 2 v
2 0 1
end
srn sr(k)
up 2
dn 0
end
fl placedep up b
rp ind k + v
end
end
up fl 1
dn rp 1
end
fl dn 1
rp up 1
end
end
func nup() #(up)
ftree ft
basic e1 prob(a / (a + 1))
basic e2 prob(b)
or top e1 e2
end
markov h
0 1 sysprob(ft) + prob(mk, 1; 2)
1 0 srn_exrss(sr; nup; 1)
end
|}

let instance_statements =
  [| "bind a 1"; "bind a 2"; "bind a 0.5"; "bind b 0.5"; "bind b 0.25"; "bind z 1";
     "bind w 3"; "var v a * 2"; "var v b + 1"; "func f() a + 1"; "func f() 2";
     "markov mk(k)\n0 1 a*k\n1 0 f()\n1 2 v\n2 0 1\nend";
     "markov mk(k)\n0 1 k\n1 0 w\nend";
     "srn sr(k)\nup 2\ndn 0\nend\nfl placedep up b\nrp ind k * v\nend\nend\n\
      up fl 1\ndn rp 1\nend\nfl dn 1\nrp up 1\nend\nend";
     "ftree ft\nbasic e1 prob(b)\nbasic e2 prob(a / 4)\nand top e1 e2\nend";
     "expr prob(mk, 1; 1)"; "expr prob(mk, 0; 2)"; "expr srn_exrss(sr; nup; 1)";
     "expr srn_exrt(1, sr; nup; 2)"; "expr sysprob(ft)"; "expr prob(h, 0)";
     "loop i, 1, 2\n  expr prob(mk, 1; i)\n  expr prob(h, 1)\nend";
     "loop a, 1, 2\n  expr prob(h, 0)\n  expr srn_exrss(sr; nup; a)\nend";
     "loop b, 0.25, 0.5, 0.25\n  expr srn_exrss(sr; nup; 2)\n  expr sysprob(ft)\nend";
     "loop j, 1, 2\n  func f() 2\n  expr prob(mk, 1; 2)\n  expr prob(h, 1)\nend" |]

let gen_instance_program =
  QCheck.Gen.(
    map
      (fun picks ->
        instance_prelude
        ^ String.concat "\n" (List.map (fun i -> instance_statements.(i)) picks)
        ^ "\nend\n")
      (list_size (int_range 4 14) (int_bound (Array.length instance_statements - 1))))

(* Whatever a program rebinds, redefines or loops over, the instance cache
   answers what the statements would print with it emptied before each. *)
let prop_instance_cache_matches_emptied =
  QCheck.Test.make ~name:"instance cache prints what an emptied cache prints"
    ~count:60
    (QCheck.make ~print:Fun.id gen_instance_program)
    (fun program -> String.equal (run_warm program) (run_emptied program))

(* erlang_loss rebinds C per capacity, which its perf(C) chains do not
   read: one build per distinct (model, arguments, bindings read). *)
let test_instance_build_counts () =
  fresh_cache ();
  let outcome =
    Interp.run_program_file ~print:ignore
      (Filename.concat Test_golden.examples_dir "erlang_loss.sharpe")
  in
  Alcotest.(check int) "no failed statements" 0 outcome.Interp.failed_statements;
  Alcotest.(check int) "builds" 67 (snd (stat "model_instance"))

(* A rebuild in a new version emits its records again, so a hit replays
   them: a bind the chain does not read still shows the banded GTH record
   of its steady state at the next query, as a rebuild would. *)
let test_instance_diag_replay () =
  fresh_cache ();
  let program =
    "markov big\nloop i, 0, 600\n$(i) $(i+1) 1\n$(i+1) $(i) 2\nend\nend\n\
     expr prob(big, 0)\nbind z 1\nexpr prob(big, 0)\nexpr prob(big, 1)\nend\n"
  in
  let outcome = Interp.run_program ~print:ignore program in
  let gth =
    List.filter
      (fun (r : Diag.record) ->
        String.length r.message >= 10 && String.sub r.message 0 10 = "banded GTH")
      outcome.Interp.diagnostics
  in
  Alcotest.(check (list (list string))) "one banded GTH record per version"
    [ [ "statement 2" ]; [ "statement 4" ] ]
    (List.map (fun (r : Diag.record) -> r.context) gth);
  Alcotest.(check (pair int int)) "one build" (2, 1) (stat "model_instance");
  (* a PEPA model's compile warning is a build record like any other: a
     hit in a new version replays it where a rebuild would emit it, with
     the solve cache on or off *)
  let program =
    "bind lam 1\npepa pm\nP = (a, lam).Q\nQ = (b, 2).P\nP / {zz}\nend\n\
     expr prob(pm, P)\nbind z 1\nexpr prob(pm, P)\nbind lam 2\nexpr prob(pm, Q)\n\
     bind lam 1\nexpr prob(pm, Q)\nend\n"
  in
  let warnings () =
    let outcome = Interp.run_program ~print:ignore program in
    List.filter_map
      (fun (r : Diag.record) -> if r.solver = "pepa" then Some r.context else None)
      outcome.Interp.diagnostics
  in
  fresh_cache ();
  let cached = warnings () in
  Alcotest.(check (list (list string))) "one compile warning per version"
    (List.map (fun s -> [ "statement " ^ s; "model pm" ]) [ "3"; "5"; "7"; "9" ])
    cached;
  Alcotest.(check (pair int int)) "one build per lam binding" (1, 3)
    (stat "model_instance");
  Structhash.set_enabled false;
  let cold = Fun.protect ~finally:(fun () -> Structhash.set_enabled true) warnings in
  Alcotest.(check (list (list string))) "the same warnings without the solve cache"
    cached cold

let suite =
  [ Alcotest.test_case "cache on/off output invariant" `Quick
      test_cache_output_invariant;
    Alcotest.test_case "rate re-bind hits the skeleton cache" `Quick
      test_rate_mutation_hits;
    Alcotest.test_case "guard re-bind misses the skeleton cache" `Quick
      test_structure_mutation_misses;
    Alcotest.test_case "time sweep reuses the solved instance" `Quick
      test_instance_cache_transients;
    Alcotest.test_case "wfs loop cache hits and misses" `Quick
      test_wfs_loop_cache_counts;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
      prop_instance_cache_matches_emptied;
    Alcotest.test_case "instance builds per run" `Quick test_instance_build_counts;
    Alcotest.test_case "instance hit replays its Diag records" `Quick
      test_instance_diag_replay;
    Alcotest.test_case "zero-rate skeleton matches cold" `Quick
      test_zero_rate_skeleton;
    Alcotest.test_case "zero-rate skeleton across sessions" `Quick
      test_zero_rate_across_sessions;
    Alcotest.test_case "rate rebinds match cold runs" `Quick
      test_rate_rebinds_match_cold;
    Alcotest.test_case "hierarchical rate takes the weights path" `Quick
      test_hierarchical_rate_weights_path;
    Alcotest.test_case "shadowed exp in a rate matches cold" `Quick
      test_shadowed_exp_rate;
    Alcotest.test_case "Rate in a cardinality matches cold" `Quick
      test_rate_in_cardinality;
    Alcotest.test_case "edge weights allocate per edge, not per context" `Quick
      test_edge_weights_allocation;
    Alcotest.test_case "instance hit allocates nothing per edge" `Quick
      test_instance_hit_allocation;
    Alcotest.test_case "net closures on two domains at once" `Quick
      test_closures_on_two_domains;
    Alcotest.test_case "float keys are bit-exact and injective" `Quick
      test_float_keys;
    QCheck_alcotest.to_alcotest prop_key_roundtrip;
    Alcotest.test_case "parallel sweep output identical to serial" `Quick
      test_parallel_output_identical;
    Alcotest.test_case "parallel loop variable final value" `Quick
      test_parallel_loop_var_final_value;
    Alcotest.test_case "parallel failure keeps serial semantics" `Quick
      test_parallel_failure_matches_serial;
    Alcotest.test_case "parallel diagnostics replay in order" `Quick
      test_parallel_diag_order;
    Alcotest.test_case "parallel build reading the loop variable" `Quick
      test_parallel_build_reads_loop_var;
    Alcotest.test_case "parallel iterations share instances per domain" `Quick
      test_parallel_instances_per_domain;
    Alcotest.test_case "parallel instance hits replay like serial" `Quick
      test_parallel_instance_diag_stream;
    Alcotest.test_case "pool preserves result order" `Quick
      test_pool_results_in_order;
    Alcotest.test_case "batch tasks execute on multiple domains" `Quick
      test_pool_multi_domain_execution;
    Alcotest.test_case "mid-batch deadline expiry raises Timed_out" `Quick
      test_run_deadline_mid_batch;
    Alcotest.test_case "run_ranges covers every index exactly once" `Quick
      test_run_ranges_disjoint_cover;
    Alcotest.test_case "finished batches leave no queue tokens" `Quick
      test_stale_tokens_purged;
    Alcotest.test_case "clamp warns once per (requested, effective)" `Quick
      test_clamp_warning_once_per_pair;
    Alcotest.test_case "parallel SpMV is bit-identical" `Quick
      test_par_spmv_bit_identical;
    Alcotest.test_case "vec_mat equals transposed mat_vec bitwise" `Quick
      test_vec_mat_as_transposed_mat_vec;
    Alcotest.test_case "domain-local cache under parallel load" `Quick
      test_domain_local_cache_parallel;
    Alcotest.test_case "parallel CTMC transients are bit-identical" `Quick
      test_ctmc_parallel_transient_bits;
    Alcotest.test_case "SRN transient_many matches serial bitwise" `Quick
      test_srn_transient_many_bits;
    Alcotest.test_case "while fuel boundary is not an exhaustion" `Quick
      test_while_fuel_exact_boundary ]
