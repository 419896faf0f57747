(* Unit and property tests for the CDCL solver that backs the axiomatic
   litmus oracle. The solver is validated against a brute-force model
   enumerator on small random formulas (decision, model counting via
   blocking clauses, solving under assumptions) plus pigeonhole UNSAT
   instances and a learned-clause entailment invariant. *)

module S = Tbtso_sat.Solver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A formula as a list of clauses over variables [0, nvars); a literal is
   [(v, sign)] with [sign = true] for positive. *)
type cnf = { nvars : int; clauses : (int * bool) list list }

let to_lit (v, sign) = if sign then S.pos v else S.neg v

let solver_of cnf =
  let s = S.create () in
  for _ = 1 to cnf.nvars do
    ignore (S.new_var s)
  done;
  List.iter (fun c -> S.add_clause s (List.map to_lit c)) cnf.clauses;
  s

(* --- brute force reference --- *)

let eval_clause asn c = List.exists (fun (v, sign) -> asn.(v) = sign) c

let eval cnf asn = List.for_all (eval_clause asn) cnf.clauses

(* All satisfying assignments, as bool arrays, in lexicographic order. *)
let brute_models ?(fixed = []) cnf =
  let models = ref [] in
  let asn = Array.make (max 1 cnf.nvars) false in
  for bits = 0 to (1 lsl cnf.nvars) - 1 do
    for v = 0 to cnf.nvars - 1 do
      asn.(v) <- bits land (1 lsl v) <> 0
    done;
    if
      List.for_all (fun (v, sign) -> asn.(v) = sign) fixed
      && eval cnf asn
    then models := Array.copy asn :: !models
  done;
  List.rev !models

(* --- pigeonhole --- *)

(* PHP(n+1, n): n+1 pigeons in n holes, someone shares. Var p*n + h means
   pigeon p sits in hole h. *)
let pigeonhole n =
  let var p h = (p * n) + h in
  let at_least =
    List.init (n + 1) (fun p -> List.init n (fun h -> (var p h, true)))
  in
  let no_share = ref [] in
  for h = 0 to n - 1 do
    for p = 0 to n do
      for q = p + 1 to n do
        no_share := [ (var p h, false); (var q h, false) ] :: !no_share
      done
    done
  done;
  { nvars = (n + 1) * n; clauses = at_least @ !no_share }

let test_pigeonhole () =
  List.iter
    (fun n ->
      let s = solver_of (pigeonhole n) in
      check_bool (Printf.sprintf "PHP(%d,%d) unsat" (n + 1) n) false
        (S.solve s);
      check_bool "root unsat sticks" false (S.ok s);
      check_bool "resolve still unsat" false (S.solve s);
      let st = S.stats s in
      check_bool "refutation required conflicts" true (st.S.conflicts > 0))
    [ 2; 3; 4; 5 ]

let test_trivial () =
  (* Empty formula is SAT; empty clause is UNSAT; unit clauses fix the
     model; duplicate/tautological clauses are harmless. *)
  let s = S.create () in
  check_bool "empty formula" true (S.solve s);
  let v = S.new_var s in
  S.add_clause s [ S.pos v; S.neg v ];
  S.add_clause s [ S.neg v; S.neg v ];
  check_bool "tautology + duplicate lits" true (S.solve s);
  check_bool "unit forced false" false (S.value s v);
  S.add_clause s [ S.pos v ];
  check_bool "contradicting units" false (S.solve s);
  let s = S.create () in
  S.add_clause s [];
  check_bool "empty clause" false (S.solve s)

(* --- random 3-SAT vs brute force --- *)

let cnf_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 8 in
    let* nclauses = int_range 0 (4 * nvars) in
    let lit = pair (int_range 0 (nvars - 1)) bool in
    let clause = list_size (int_range 1 3) lit in
    let+ clauses = list_repeat nclauses clause in
    { nvars; clauses })

let cnf_print cnf =
  Printf.sprintf "nvars=%d %s" cnf.nvars
    (String.concat " "
       (List.map
          (fun c ->
            "("
            ^ String.concat "|"
                (List.map
                   (fun (v, s) -> (if s then "" else "~") ^ string_of_int v)
                   c)
            ^ ")")
          cnf.clauses))

let cnf_arb = QCheck.make ~print:cnf_print cnf_gen

let model_of_solver cnf s =
  Array.init cnf.nvars (fun v -> S.value s v)

let prop_decision =
  QCheck.Test.make ~count:500 ~name:"solver sat iff brute-force sat" cnf_arb
    (fun cnf ->
      let s = solver_of cnf in
      let sat = S.solve s in
      let models = brute_models cnf in
      if sat <> (models <> []) then false
      else if sat then eval cnf (model_of_solver cnf s)
      else true)

(* Enumerate every model by re-solving with blocking clauses; the solver's
   model set must equal the brute-force set exactly. *)
let enumerate_models cnf s =
  let models = ref [] in
  while S.solve s do
    let m = model_of_solver cnf s in
    models := m :: !models;
    S.add_clause s
      (List.init cnf.nvars (fun v ->
           if m.(v) then S.neg v else S.pos v))
  done;
  List.rev !models

let prop_model_enumeration =
  QCheck.Test.make ~count:300 ~name:"blocking-clause enumeration = brute force"
    cnf_arb (fun cnf ->
      QCheck.assume (cnf.nvars <= 6);
      let s = solver_of cnf in
      let got = List.sort compare (enumerate_models cnf s) in
      let want = List.sort compare (brute_models cnf) in
      got = want)

let prop_assumptions =
  QCheck.Test.make ~count:300
    ~name:"solve-under-assumptions (both polarities) = brute force with fixed lit"
    (QCheck.pair cnf_arb QCheck.small_nat)
    (fun (cnf, vraw) ->
      let v = vraw mod cnf.nvars in
      let s = solver_of cnf in
      let q fixed assumptions =
        let sat = S.solve ~assumptions s in
        sat = (brute_models ~fixed cnf <> [])
      in
      (* Same solver instance answers all queries: the two assumption
         polarities, then the unconstrained formula again. *)
      q [ (v, true) ] [ S.pos v ]
      && q [ (v, false) ] [ S.neg v ]
      && q [] []
      && q [ (v, true) ] [ S.pos v ])

(* --- learned-clause invariant --- *)

(* Every learned clause must be entailed by the original formula: adding
   its negation (as unit clauses) to a fresh solver over the same formula
   must be UNSAT. *)
let entailed cnf lits =
  let s = solver_of cnf in
  List.iter (fun l -> S.add_clause s [ S.negate l ]) lits;
  not (S.solve s)

let prop_learned_entailed =
  QCheck.Test.make ~count:150 ~name:"learned clauses entailed by formula"
    cnf_arb (fun cnf ->
      let s = solver_of cnf in
      ignore (S.solve s);
      ignore (enumerate_models cnf (solver_of cnf));
      List.for_all (entailed cnf) (S.learned_clauses s))

let test_learned_pigeonhole () =
  let cnf = pigeonhole 3 in
  let s = solver_of cnf in
  check_bool "unsat" false (S.solve s);
  let learned = S.learned_clauses s in
  check_int "learned count matches stats" (List.length learned)
    (S.stats s).S.learned;
  List.iter
    (fun c -> check_bool "learned clause entailed" true (entailed cnf c))
    learned

let test_incremental_growth () =
  (* add_clause between solves: constrain an 8-var formula one clause at a
     time down to a single model, then to UNSAT. *)
  let n = 8 in
  let s = S.create () in
  let vs = Array.init n (fun _ -> S.new_var s) in
  check_bool "free formula sat" true (S.solve s);
  for v = 0 to n - 1 do
    S.add_clause s [ (if v mod 2 = 0 then S.pos vs.(v) else S.neg vs.(v)) ];
    check_bool "still sat" true (S.solve s)
  done;
  for v = 0 to n - 1 do
    check_bool "pinned value" (v mod 2 = 0) (S.value s vs.(v))
  done;
  S.add_clause s [ S.neg vs.(0); S.pos vs.(1) ];
  check_bool "now unsat" false (S.solve s)

(* --- incremental session vs from-scratch axiomatic sweeps --- *)

module Ax = Tsim.Axiomatic
module L = Tsim.Litmus

(* One session answering every query of [modes] against [prog]: its
   outcome sets must equal a fresh solver's per query. Returns the
   session's total conflicts and the sum over the fresh solves. *)
let session_sweep name prog modes =
  let sess = Ax.session prog in
  let scratch = ref 0 in
  List.iter
    (fun mode ->
      let ir = Ax.enumerate_session sess mode in
      let sr = Ax.explore ~mode prog in
      check_bool (name ^ " both complete") true
        (ir.Ax.complete && sr.Ax.complete);
      check_bool
        (Printf.sprintf "%s %s: incremental = scratch outcome set" name
           (Tsim.Litmus_parse.mode_id mode))
        true
        (ir.Ax.outcomes = sr.Ax.outcomes);
      scratch := !scratch + sr.Ax.stats.Ax.conflicts)
    modes;
  let st = Ax.session_stats sess in
  (* Learned-clause reuse is observable: the session answered every
     query (one solve per outcome plus a closing UNSAT each) while
     keeping one clause database. *)
  check_bool (name ^ " solves cover all queries") true
    (st.Ax.solves >= st.Ax.outcomes + List.length modes);
  (st.Ax.conflicts, !scratch)

(* One long-lived session answering every mode × Δ query must produce
   exactly the outcome sets of a fresh solver per query, and the
   retained learned clauses must make the whole sweep cheaper than the
   sum of the from-scratch solves. The flag protocols over the
   geometric Δ grid are held to that per program. *)
let test_session_vs_scratch () =
  let x = 0 and y = 1 and z = 2 in
  let flag w =
    [ [ L.Store (x, 1); L.Load (y, 0) ];
      [ L.Store (y, 1); L.Fence; L.Wait w; L.Load (x, 0) ] ]
  in
  let programs =
    [
      ("sb", [ [ L.Store (x, 1); L.Load (y, 0) ];
               [ L.Store (y, 1); L.Load (x, 0) ] ]);
      ("flag", flag 4);
      (* Loadeq exercises the in-formula branch encoding. *)
      ("spin", [ [ L.Store (x, 1) ];
                 [ L.Loadeq (x, 1, 1); L.Store (y, 1); L.Load (x, 1) ] ]);
    ]
  in
  let modes =
    (L.M_sc :: L.M_tso :: List.init 8 (fun i -> L.M_tbtso (i + 1)))
  in
  let incr_total, scratch_total =
    List.fold_left
      (fun (i, s) (name, prog) ->
        let i', s' = session_sweep name prog modes in
        (i + i', s + s'))
      (0, 0) programs
  in
  check_bool
    (Printf.sprintf
       "incremental sweep strictly fewer conflicts (%d vs scratch %d)"
       incr_total scratch_total)
    true
    (incr_total < scratch_total);
  let grid =
    List.map (fun d -> L.M_tbtso d) [ 4; 8; 16; 32; 64; 128; 256; 512 ]
  in
  List.iter
    (fun (name, prog) ->
      let incr, scratch = session_sweep name prog grid in
      check_bool
        (Printf.sprintf "%s: Δ grid in strictly fewer conflicts (%d vs %d)"
           name incr scratch)
        true (incr < scratch))
    [
      ("flag wait=4", flag 4);
      ("flag wait=64", flag 64);
      ( "flag3 wait=4",
        flag 4 @ [ [ L.Store (z, 1); L.Load (x, 2) ] ] );
    ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial formulas" `Quick test_trivial;
          Alcotest.test_case "pigeonhole UNSAT" `Quick test_pigeonhole;
          Alcotest.test_case "learned clauses of PHP(4,3)" `Quick
            test_learned_pigeonhole;
          Alcotest.test_case "incremental clause addition" `Quick
            test_incremental_growth;
          Alcotest.test_case "axiomatic session vs from-scratch sweep" `Quick
            test_session_vs_scratch;
        ] );
      qsuite "differential"
        [
          prop_decision;
          prop_model_enumeration;
          prop_assumptions;
          prop_learned_entailed;
        ];
    ]
