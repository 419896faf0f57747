(* Exhaustive litmus tests: these check the memory-model semantics by
   enumerating every interleaving and drain schedule, including the paper's
   Section 3 flag-principle claims. *)

open Tsim
open Litmus

let check_bool = Alcotest.(check bool)

(* Addresses and registers used by the classic tests. *)
let x = 0
let y = 1
let r0 = 0
let r1 = 1

(* Store-buffering (SB): the litmus test distinguishing TSO from SC.
     T0: x := 1; r0 := y          T1: y := 1; r1 := x *)
let sb = [ [ Store (x, 1); Load (y, r0) ]; [ Store (y, 1); Load (x, r1) ] ]

let sb_fenced =
  [ [ Store (x, 1); Fence; Load (y, r0) ]; [ Store (y, 1); Fence; Load (x, r1) ] ]

let both_zero (o : outcome) = o.regs.(0).(r0) = 0 && o.regs.(1).(r1) = 0

let test_sb_tso_allows_00 () =
  let outcomes = enumerate ~mode:M_tso sb in
  check_bool "TSO admits (0,0)" true (exists outcomes both_zero)

let test_sb_sc_forbids_00 () =
  let outcomes = enumerate ~mode:M_sc sb in
  check_bool "SC forbids (0,0)" false (exists outcomes both_zero)

let test_sb_fenced_forbids_00 () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode sb_fenced in
      check_bool "fenced SB forbids (0,0)" false (exists outcomes both_zero))
    [ M_sc; M_tso; M_tbtso 3 ]

let test_sb_tbtso_allows_00 () =
  (* The Δ bound alone does not restore SC: without the wait, (0,0)
     remains observable. *)
  let outcomes = enumerate ~mode:(M_tbtso 4) sb in
  check_bool "TBTSO alone admits (0,0)" true (exists outcomes both_zero)

(* Message passing (MP): TSO does not reorder stores with stores or loads
   with loads, so seeing the flag implies seeing the data.
     T0: x := 1; y := 1           T1: r0 := y; r1 := x *)
let mp = [ [ Store (x, 1); Store (y, 1) ]; [ Load (y, r0); Load (x, r1) ] ]

let mp_violation (o : outcome) = o.regs.(1).(r0) = 1 && o.regs.(1).(r1) = 0

let test_mp_tso () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode mp in
      check_bool "MP violation impossible" false (exists outcomes mp_violation))
    [ M_sc; M_tso; M_tbtso 2 ]

(* Store-to-load forwarding: a thread always sees its own latest store. *)
let forwarding = [ [ Store (x, 1); Load (x, r0) ] ]

let test_forwarding () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode forwarding in
      check_bool "sees own store" true (for_all outcomes (fun o -> o.regs.(0).(r0) = 1)))
    [ M_sc; M_tso; M_tbtso 2 ]

(* Final memory state: all buffers drain eventually. *)
let test_final_memory () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode sb in
      check_bool "memory = (1,1) finally" true
        (for_all outcomes (fun o -> o.mem.(x) = 1 && o.mem.(y) = 1)))
    [ M_sc; M_tso; M_tbtso 3 ]

(* --- The paper's Section 3 constructions --- *)

(* Symmetric flag principle (both fence): at least one thread sees the
   other's flag. *)
let flag_symmetric =
  [
    [ Store (x, 1); Fence; Load (y, r0) ];
    [ Store (y, 1); Fence; Load (x, r1) ];
  ]

let test_flag_symmetric () =
  let outcomes = enumerate ~mode:M_tso flag_symmetric in
  check_bool "someone sees a flag" true
    (for_all outcomes (fun o -> o.regs.(0).(r0) = 1 || o.regs.(1).(r1) = 1))

(* TBTSO flag principle (Section 3): T0 is fence-free; T1 fences and then
   waits Δ time units before looking at T0's flag.

     T0: flag0 := 1;        r0 := flag1
     T1: flag1 := 1; fence; wait Δ; r1 := flag0

   Claim: under TBTSO[Δ] it is impossible that both threads miss the
   other's flag. *)
let tbtso_flag delta =
  [
    [ Store (x, 1); Load (y, r0) ];
    [ Store (y, 1); Fence; Wait delta; Load (x, r1) ];
  ]

let test_tbtso_flag_principle () =
  List.iter
    (fun delta ->
      let outcomes = enumerate ~mode:(M_tbtso delta) (tbtso_flag delta) in
      check_bool
        (Printf.sprintf "flag principle holds for delta=%d" delta)
        false (exists outcomes both_zero))
    [ 1; 2; 3; 5 ]

let test_tbtso_flag_principle_breaks_under_tso () =
  (* The same fence-free program under unbounded TSO: waiting does not
     help, (0,0) is observable. This is why the Δ bound is essential. *)
  let outcomes = enumerate ~mode:M_tso (tbtso_flag 5) in
  check_bool "unbounded TSO defeats the wait" true (exists outcomes both_zero)

let test_tbtso_flag_requires_full_wait () =
  (* Waiting less than Δ is unsound: with Δ=8 but only a 1-tick wait,
     (0,0) becomes observable again. (The threshold is not at wait < Δ
     exactly because every instruction costs a tick of its own, which
     pads short waits; Δ=8 puts us clearly past it.) *)
  let delta = 8 in
  let program =
    [
      [ Store (x, 1); Load (y, r0) ];
      [ Store (y, 1); Fence; Wait 1; Load (x, r1) ];
    ]
  in
  let outcomes = enumerate ~mode:(M_tbtso delta) program in
  check_bool "short wait is unsound" true (exists outcomes both_zero)

let test_tbtso_flag_requires_fence () =
  (* Dropping T1's fence is also unsound: T1's own flag store can linger
     in its buffer through the wait, so the Δ wait no longer covers
     stores of T0 issued just before T1's store drains. Requires Δ large
     enough to dominate per-instruction tick slack (Δ ≥ 5 here). *)
  let delta = 6 in
  let program =
    [
      [ Store (x, 1); Load (y, r0) ];
      [ Store (y, 1); Wait delta; Load (x, r1) ];
    ]
  in
  let outcomes = enumerate ~mode:(M_tbtso delta) program in
  check_bool "fence-free slow path is unsound" true (exists outcomes both_zero)

(* Loadeq conditional support. *)
let test_loadeq () =
  (* T0: if x = 0 then r0 := 7 else r0 := 9 — encoded with Loadeq skip. *)
  let program =
    [ [ Loadeq (x, 0, 1); Store (y, 9); Store (y, 7) ] ]
    (* if x=0 skip "Store y 9" then execute "Store y 7"; else run both,
       leaving y = 7 either way... so distinguish via different slots: *)
  in
  ignore program;
  let program =
    [ [ Loadeq (x, 0, 1); Load (y, r0); Wait 0 ] ]
    (* if x = 0: skip the load, r0 stays 0. *)
  in
  let outcomes = enumerate ~mode:M_sc program in
  check_bool "branch taken" true (for_all outcomes (fun o -> o.regs.(0).(r0) = 0))

(* --- Property-based model relationships --- *)

let instr_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a v -> Store (a, 1 + v)) (int_bound 1) (int_bound 2));
        (4, map2 (fun a r -> Load (a, r)) (int_bound 1) (int_bound 2));
        (1, return Fence);
        (1, map (fun d -> Wait (1 + d)) (int_bound 2));
        (1, map2 (fun a r -> Cas (a, 0, 1, r)) (int_bound 1) (int_bound 2));
      ])

let program_gen =
  QCheck.Gen.(
    map2
      (fun t0 t1 -> [ t0; t1 ])
      (list_size (int_range 1 4) instr_gen)
      (list_size (int_range 1 4) instr_gen))

let program_arb =
  QCheck.make
    ~print:(fun p ->
      String.concat " || "
        (List.map
           (fun t ->
             String.concat "; "
               (List.map
                  (function
                    | Store (a, v) -> Printf.sprintf "st x%d=%d" a v
                    | Load (a, r) -> Printf.sprintf "r%d=ld x%d" r a
                    | Loadeq (a, v, s) -> Printf.sprintf "ldeq x%d=%d skip %d" a v s
                    | Fence -> "fence"
                    | Wait d -> Printf.sprintf "wait %d" d
                    | Cas (a, e, d, r) -> Printf.sprintf "r%d=cas x%d %d->%d" r a e d)
                  t))
           p))
    program_gen

let subset o1 o2 = List.for_all (fun o -> List.mem o o2) o1

let prop_sc_subset_tbtso =
  QCheck.Test.make ~name:"SC outcomes ⊆ TBTSO outcomes" ~count:60 program_arb (fun p ->
      subset (enumerate ~mode:M_sc p) (enumerate ~mode:(M_tbtso 3) p))

let prop_tbtso_subset_tso =
  QCheck.Test.make ~name:"TBTSO outcomes ⊆ TSO outcomes" ~count:60 program_arb (fun p ->
      subset (enumerate ~mode:(M_tbtso 3) p) (enumerate ~mode:M_tso p))

let prop_tbtso_monotone_in_delta =
  QCheck.Test.make ~name:"TBTSO[Δ1] ⊆ TBTSO[Δ2] for Δ1 ≤ Δ2" ~count:40 program_arb
    (fun p -> subset (enumerate ~mode:(M_tbtso 2) p) (enumerate ~mode:(M_tbtso 5) p))

(* Run an arbitrary straight-line litmus program on the effects machine
   and return its outcome in the checker's format. *)
let machine_outcome ~seed program =
  let cfg =
    Config.(
      with_jitter 0.4 (with_seed (Int64.of_int seed) (with_consistency Tso default)))
  in
  let m = Machine.create cfg in
  let base = Machine.alloc_global m 64 in
  let addr a = base + (a * 8) in
  let nthreads = List.length program in
  let regs = Array.init nthreads (fun _ -> Array.make 4 0) in
  List.iteri
    (fun tid instrs ->
      ignore
        (Machine.spawn m (fun () ->
             List.iter
               (function
                 | Store (a, v) -> Sim.store (addr a) v
                 | Load (a, r) -> regs.(tid).(r) <- Sim.load (addr a)
                 | Loadeq (_, _, _) -> ()
                 | Fence -> Sim.fence ()
                 | Wait d -> Sim.stall_for d
                 | Cas (a, e, d, r) ->
                     regs.(tid).(r) <-
                       (if Sim.cas (addr a) ~expected:e ~desired:d then 1 else 0))
               instrs)))
    program;
  ignore (Machine.run m);
  Machine.drain_all m;
  let mem = Array.init 4 (fun a -> Memory.read (Machine.memory m) (addr a)) in
  { regs; mem }

let machine_outcome_hw ~seed program =
  let cfg =
    Config.(
      with_jitter 0.4
        (with_seed (Int64.of_int seed)
           (with_drain Drain_adversarial
              (with_consistency (Tbtso_hw { tau = 50; quiesce = 20 }) default))))
  in
  let m = Machine.create cfg in
  let base = Machine.alloc_global m 64 in
  let addr a = base + (a * 8) in
  let nthreads = List.length program in
  let regs = Array.init nthreads (fun _ -> Array.make 4 0) in
  List.iteri
    (fun tid instrs ->
      ignore
        (Machine.spawn m (fun () ->
             List.iter
               (function
                 | Store (a, v) -> Sim.store (addr a) v
                 | Load (a, r) -> regs.(tid).(r) <- Sim.load (addr a)
                 | Loadeq (_, _, _) -> ()
                 | Fence -> Sim.fence ()
                 | Wait d -> Sim.stall_for d
                 | Cas (a, e, d, r) ->
                     regs.(tid).(r) <-
                       (if Sim.cas (addr a) ~expected:e ~desired:d then 1 else 0))
               instrs)))
    program;
  ignore (Machine.run m);
  Machine.drain_all m;
  let mem = Array.init 4 (fun a -> Memory.read (Machine.memory m) (addr a)) in
  { regs; mem }

let prop_hw_machine_subset_of_tso =
  (* The Section 6.1 mechanism is a refinement of TSO: everything it
     produces is TSO-reachable. *)
  QCheck.Test.make ~name:"Tbtso_hw outcomes ⊆ TSO outcomes" ~count:40
    QCheck.(pair program_arb (int_range 1 1_000_000))
    (fun (p, seed) -> List.mem (machine_outcome_hw ~seed p) (enumerate ~mode:M_tso p))

let prop_machine_subset_of_checker_random =
  (* For random programs, every machine execution's outcome must be
     reachable in the exhaustive checker's TSO state space. *)
  QCheck.Test.make ~name:"machine outcomes ⊆ checker outcomes (random programs)" ~count:50
    QCheck.(pair program_arb (int_range 1 1_000_000))
    (fun (p, seed) ->
      let o = machine_outcome ~seed p in
      let reachable = enumerate ~mode:M_tso p in
      List.mem o reachable)

let prop_machine_agrees_with_checker =
  (* Randomized machine runs of the SB litmus only produce outcomes the
     exhaustive checker declares reachable under TSO. *)
  QCheck.Test.make ~name:"machine outcomes ⊆ checker outcomes (SB)" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let cfg =
        Config.(
          with_jitter 0.4
            (with_seed (Int64.of_int seed) (with_consistency Tso default)))
      in
      let m = Machine.create cfg in
      let g = Machine.alloc_global m 16 in
      let a = ref (-1) and b = ref (-1) in
      ignore
        (Machine.spawn m (fun () ->
             Sim.store g 1;
             a := Sim.load (g + 8)));
      ignore
        (Machine.spawn m (fun () ->
             Sim.store (g + 8) 1;
             b := Sim.load g));
      ignore (Machine.run m);
      let reachable = enumerate ~mode:M_tso sb in
      List.exists
        (fun (o : outcome) -> o.regs.(0).(r0) = !a && o.regs.(1).(r1) = !b)
        reachable)

(* --- CAS in the checker --- *)

let test_cas_atomicity () =
  (* Two CASes 0->own-id on the same cell: exactly one succeeds, under
     every model. *)
  let program = [ [ Cas (x, 0, 1, r0) ]; [ Cas (x, 0, 2, r0) ] ] in
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode program in
      check_bool "exactly one winner" true
        (for_all outcomes (fun o -> o.regs.(0).(r0) + o.regs.(1).(r0) = 1));
      check_bool "memory matches winner" true
        (for_all outcomes (fun o ->
             o.mem.(x) = if o.regs.(0).(r0) = 1 then 1 else 2)))
    [ M_sc; M_tso; M_tbtso 3; M_tsos 1 ]

let test_cas_drains_buffer_litmus () =
  (* A store followed by a CAS to another cell: observing the CAS's
     effect implies the earlier store is visible (locked ops flush). *)
  let program =
    [ [ Store (x, 1); Cas (y, 0, 1, r0) ]; [ Load (y, r0); Load (x, r1) ] ]
  in
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode program in
      check_bool "y=1 implies x visible" false
        (exists outcomes (fun o -> o.regs.(1).(r0) = 1 && o.regs.(1).(r1) = 0)))
    [ M_tso; M_tbtso 3 ]

let test_tas_lock_litmus () =
  (* One round of test-and-set locking per thread: both cannot win. *)
  let program =
    [
      [ Cas (x, 0, 1, r0); Store (y, 1) ];
      [ Cas (x, 0, 1, r0); Store (2, 1) (* z *) ];
    ]
  in
  let outcomes = enumerate ~mode:M_tso program in
  check_bool "mutual exclusion of winners" true
    (for_all outcomes (fun o -> not (o.regs.(0).(r0) = 1 && o.regs.(1).(r0) = 1)))

(* --- TSO[S]: the spatially bounded model (paper Section 8) --- *)

let test_tsos_flag_principle_still_broken () =
  (* The paper's core Section 8 argument: a spatial bound cannot make the
     fence-free flag principle safe, because a quiet thread's store can
     stay buffered forever. Exhaustively checked. *)
  List.iter
    (fun s ->
      let outcomes = enumerate ~mode:(M_tsos s) (tbtso_flag 5) in
      check_bool
        (Printf.sprintf "flag principle broken under TSO[S=%d]" s)
        true (exists outcomes both_zero))
    [ 1; 2; 3 ]

let test_tsos_spatial_flush () =
  (* Where TSO[S] IS stronger than TSO: issuing S further stores forces
     the oldest one out. T0: x:=1; y:=1; r0:=z || T1: z:=1; fence; r1:=x.
     Under S=1, enqueueing y commits x, which precedes T0's read of z;
     so r0 = 0 (read before T1's fenced store) implies T1's later read
     of x sees 1. Under unbounded TSO both can read 0. *)
  let program =
    [
      [ Store (x, 1); Store (1, 1) (* y *); Load (2, r0) (* z *) ];
      [ Store (2, 1); Fence; Load (x, r1) ];
    ]
  in
  let bad (o : outcome) = o.regs.(0).(r0) = 0 && o.regs.(1).(r1) = 0 in
  check_bool "observable under unbounded TSO" true (exists (enumerate ~mode:M_tso program) bad);
  check_bool "impossible under TSO[S=1]" false
    (exists (enumerate ~mode:(M_tsos 1) program) bad)

let prop_tsos_subset_tso =
  QCheck.Test.make ~name:"TSO[S] outcomes ⊆ TSO outcomes" ~count:50 program_arb (fun p ->
      subset (enumerate ~mode:(M_tsos 2) p) (enumerate ~mode:M_tso p))

let prop_sc_subset_tsos =
  QCheck.Test.make ~name:"SC outcomes ⊆ TSO[S] outcomes" ~count:50 program_arb (fun p ->
      subset (enumerate ~mode:M_sc p) (enumerate ~mode:(M_tsos 1) p))

(* --- Differential testing against the retained reference enumerator --- *)

(* Three-thread programs with slightly longer waits, to exercise the
   time-leap, slack-saturation and sleep-set machinery of the new
   explorer against the naive tick-by-tick oracle. *)
let instr_gen3 =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a v -> Store (a, 1 + v)) (int_bound 1) (int_bound 2));
        (4, map2 (fun a r -> Load (a, r)) (int_bound 1) (int_bound 2));
        (1, return Fence);
        (1, map (fun d -> Wait (1 + d)) (int_bound 6));
        (1, map2 (fun a r -> Cas (a, 0, 1, r)) (int_bound 1) (int_bound 2));
        (1, map2 (fun a s -> Loadeq (a, 0, 1 + s)) (int_bound 1) (int_bound 1));
      ])

let program_gen3 =
  QCheck.Gen.(
    int_range 1 3 >>= fun n ->
    list_repeat n (list_size (int_range 1 4) instr_gen3))

let program_arb3 =
  QCheck.make
    ~print:(fun p ->
      String.concat " || "
        (List.map
           (fun t ->
             String.concat "; "
               (List.map
                  (function
                    | Store (a, v) -> Printf.sprintf "st x%d=%d" a v
                    | Load (a, r) -> Printf.sprintf "r%d=ld x%d" r a
                    | Loadeq (a, v, s) -> Printf.sprintf "ldeq x%d=%d skip %d" a v s
                    | Fence -> "fence"
                    | Wait d -> Printf.sprintf "wait %d" d
                    | Cas (a, e, d, r) -> Printf.sprintf "r%d=cas x%d %d->%d" r a e d)
                  t))
           p))
    program_gen3

(* Every mode, with the TBTSO bound swept over the full Δ ∈ {1..8}
   window the zone caps are derived for. *)
let diff_modes =
  [ M_sc; M_tso; M_tsos 1; M_tsos 2 ] @ List.init 8 (fun i -> M_tbtso (i + 1))

let prop_new_equals_reference =
  (* The core soundness property of this module: the scaled explorer and
     the naive reference enumerator agree on the exact outcome set under
     every model. *)
  QCheck.Test.make ~name:"explore ≡ reference on random programs" ~count:60
    program_arb3 (fun p ->
      List.for_all
        (fun mode -> enumerate ~mode p = enumerate_reference ~mode p)
        diff_modes)

let test_diff_boundary_grid () =
  (* Wait-vs-Δ boundary sweep on the flag protocol (with and without the
     fence), including waits well past the explorer's wait cap: the
     region where the flag principle tips from violated to holding. *)
  List.iter
    (fun delta ->
      List.iter
        (fun w ->
          List.iter
            (fun fenced ->
              let t1 =
                if fenced then [ Store (y, 1); Fence; Wait w; Load (x, r1) ]
                else [ Store (y, 1); Wait w; Load (x, r1) ]
              in
              let p = [ [ Store (x, 1); Load (y, r0) ]; t1 ] in
              let mode = M_tbtso delta in
              let a = enumerate ~mode p and b = enumerate_reference ~mode p in
              Alcotest.(check bool)
                (Printf.sprintf "w=%d Δ=%d fenced=%b" w delta fenced)
                true (a = b))
            [ true; false ])
        [ 1; 2; 3; 5; 8; 25; 40 ])
    [ 1; 2; 4; 7; 11 ]

let test_recursion_killer () =
  (* A wait of 200k ticks: the seed's recursive tick-by-tick explorer
     dies on this shape (hundreds of thousands of stack frames / states);
     the worklist explorer with time-leap aging answers instantly. *)
  let p = [ [ Wait 200_000; Store (x, 1) ]; [ Wait 150_000; Store (y, 1) ] ] in
  let r = explore ~mode:M_tso p in
  check_bool "completes" true r.complete;
  check_bool "leaps taken" true (r.stats.time_leaps >= 1);
  check_bool "tiny state count" true (r.stats.visited < 1_000);
  check_bool "single outcome" true (List.length r.outcomes = 1);
  (* Huge wait racing concurrently-active threads: caught by the wait
     cap rather than the quiet-stretch leap. *)
  let q =
    [ [ Wait 1_000_000; Store (x, 1); Load (y, r0) ]; [ Store (y, 1); Load (x, r1) ] ]
  in
  List.iter
    (fun mode ->
      let r = explore ~mode q in
      check_bool "completes under cap" true r.complete;
      check_bool "tiny state count under cap" true (r.stats.visited < 10_000))
    [ M_tso; M_tbtso 4 ]

let test_paper_scale_delta () =
  (* Acceptance bar from the issue: SB and the flag protocol at the
     paper's Δ = 100 and Δ = 500 within the default budget. *)
  List.iter
    (fun delta ->
      let r = explore ~mode:(M_tbtso delta) sb in
      check_bool (Printf.sprintf "SB Δ=%d completes" delta) true r.complete;
      let flag = tbtso_flag delta in
      let r = explore ~mode:(M_tbtso delta) flag in
      check_bool (Printf.sprintf "flag Δ=%d completes" delta) true r.complete;
      check_bool
        (Printf.sprintf "flag principle Δ=%d" delta)
        false
        (exists r.outcomes both_zero))
    [ 100; 500 ]

(* --- Corpus differential: zone explorer vs the reference oracle --- *)

let corpus_paths () =
  (* dune runtest runs in _build/default/test; the corpus is a declared
     dependency one level up. *)
  match
    List.find_opt
      (fun dir -> Sys.file_exists dir && Sys.is_directory dir)
      [ "../litmus"; "litmus" ]
  with
  | None -> []
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".litmus")
      |> List.sort compare
      |> List.map (Filename.concat dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus_matches_reference () =
  (* The acceptance bar for the zone abstraction: byte-identical outcome
     sets over the whole corpus, in every mode. *)
  match corpus_paths () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      check_bool "wait=Δ regression file present" true
        (List.exists
           (fun p -> Filename.basename p = "tbtso_flag_wait_eq_delta.litmus")
           paths);
      List.iter
        (fun path ->
          let test = Litmus_parse.parse (read_file path) in
          List.iter
            (fun mode ->
              check_bool
                (Printf.sprintf "%s under %s" (Filename.basename path)
                   (Litmus_parse.mode_id mode))
                true
                (enumerate ~mode test.program
                = enumerate_reference ~mode test.program))
            diff_modes)
        paths

(* --- SAT oracle differential: axiomatic vs operational semantics --- *)

(* The acceptance grid from the issue: the declarative (SAT) oracle and
   the operational explorer must produce identical outcome sets in
   every mode, over random programs and the whole corpus. *)
let sat_corpus_modes = [ M_sc; M_tso; M_tbtso 1; M_tbtso 4; M_tbtso 64 ]

let oracles_agree p =
  List.for_all
    (fun mode ->
      let sat = Axiomatic.enumerate ~mode p in
      sat = enumerate ~mode p && sat = enumerate_reference ~mode p)
    diff_modes

let prop_sat_equals_explorer =
  QCheck.Test.make ~name:"SAT oracle ≡ explore ≡ reference on random programs"
    ~count:40 program_arb3 oracles_agree

(* Fixed programs for the same three-way differential. The first pins
   TSO[S=1] with CAS and multi-store buffers: a source-DPOR engine once
   found 32 of its 48 outcomes under tsos:1. *)
let fixed_diff_programs =
  [
    [
      [ Store (x, 3); Load (x, 2); Store (y, 3); Load (y, r1) ];
      [ Store (x, 2); Store (x, 1); Cas (y, 0, 1, r1) ];
      [ Load (y, r0); Load (x, r1) ];
    ];
  ]

let test_fixed_programs_match_oracles () =
  List.iteri
    (fun i p ->
      check_bool (Printf.sprintf "fixed program %d" i) true (oracles_agree p))
    fixed_diff_programs

let test_corpus_matches_sat () =
  match corpus_paths () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      List.iter
        (fun path ->
          let test = Litmus_parse.parse (read_file path) in
          List.iter
            (fun mode ->
              let sat = Axiomatic.explore ~mode test.program in
              check_bool
                (Printf.sprintf "%s complete under %s" (Filename.basename path)
                   (Litmus_parse.mode_id mode))
                true sat.Axiomatic.complete;
              check_bool
                (Printf.sprintf "%s SAT ≡ explorer under %s"
                   (Filename.basename path) (Litmus_parse.mode_id mode))
                true
                (sat.Axiomatic.outcomes = enumerate ~mode test.program))
            sat_corpus_modes)
        paths

(* --- Generated-corpus differential: litmus/gen (Tsim.Scenario) --- *)

(* The scenario compiler emits bounded client windows of the lib/core
   algorithms into litmus/gen (see `tbtso-litmus scenarios emit`); the
   committed files get the same three-way oracle treatment as the
   hand-written classics. *)
let gen_corpus_paths () =
  match
    List.find_opt
      (fun dir -> Sys.file_exists dir && Sys.is_directory dir)
      [ "../litmus/gen"; "litmus/gen" ]
  with
  | None -> []
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".litmus")
      |> List.sort compare
      |> List.map (Filename.concat dir)

let test_gen_corpus_matches_oracles () =
  (* Explorer ≡ reference enumerator ≡ SAT oracle on every generated
     file, across the mode grid. *)
  match gen_corpus_paths () with
  | [] -> Alcotest.fail "litmus/gen corpus not found (missing dune deps?)"
  | paths ->
      check_bool "one file per registry scenario" true
        (List.length paths = List.length Scenario.registry);
      List.iter
        (fun path ->
          let test = Litmus_parse.parse (read_file path) in
          List.iter
            (fun mode ->
              let name suffix =
                Printf.sprintf "%s %s under %s" (Filename.basename path) suffix
                  (Litmus_parse.mode_id mode)
              in
              let base = enumerate ~mode test.program in
              check_bool (name "explorer ≡ reference") true
                (base = enumerate_reference ~mode test.program);
              let sat = Axiomatic.explore ~mode test.program in
              check_bool (name "SAT complete") true sat.Axiomatic.complete;
              check_bool (name "explorer ≡ SAT") true
                (base = sat.Axiomatic.outcomes))
            [ M_sc; M_tso; M_tsos 2; M_tbtso 1; M_tbtso 4; M_tbtso 8 ])
        paths

let test_gen_corpus_fanout_parallel () =
  (* The fanout driver over litmus/gen: sequential ≡ -j 2, verdict for
     verdict. *)
  match gen_corpus_paths () with
  | [] -> Alcotest.fail "litmus/gen corpus not found (missing dune deps?)"
  | paths ->
      let tasks = Litmus_fanout.load ~modes:sat_corpus_modes paths in
      let signature vs =
        List.map
          (fun (v : Litmus_fanout.verdict) ->
            ( v.Litmus_fanout.task.Litmus_fanout.path,
              Litmus_parse.mode_id v.Litmus_fanout.task.Litmus_fanout.mode,
              Litmus_fanout.verdict_string v,
              (match v.Litmus_fanout.result with
              | Some r ->
                  Some
                    ( r.Litmus_parse.holds,
                      r.Litmus_parse.outcome_count,
                      r.Litmus_parse.complete )
              | None -> None),
              v.Litmus_fanout.disagree = None ))
          vs
      in
      let seq = Litmus_fanout.check ~oracle:Litmus_fanout.Both tasks in
      let par =
        Tbtso_par.Pool.with_pool ~domains:2 (fun pool ->
            Litmus_fanout.check ~pool ~oracle:Litmus_fanout.Both tasks)
      in
      check_bool "-j 2 ≡ sequential (both oracles)" true
        (signature seq = signature par);
      check_bool "no oracle disagreement over litmus/gen" true
        (List.for_all
           (fun (v : Litmus_fanout.verdict) -> v.Litmus_fanout.disagree = None)
           seq)

let test_sat_stats_exposed () =
  let r = Axiomatic.explore ~mode:(M_tbtso 4) sb in
  check_bool "some variables" true (r.Axiomatic.stats.Axiomatic.vars > 0);
  check_bool "some clauses" true (r.Axiomatic.stats.Axiomatic.clauses > 0);
  (* One formula covers every path, so an enumeration is one solve per
     outcome plus the closing UNSAT. *)
  check_bool "solves ≥ outcomes + 1" true
    (r.Axiomatic.stats.Axiomatic.solves
    >= r.Axiomatic.stats.Axiomatic.outcomes + 1);
  check_bool "paths counted" true (r.Axiomatic.stats.Axiomatic.paths >= 1);
  match Axiomatic.stats_json r.Axiomatic.stats with
  | Tbtso_obs.Json.Obj fields ->
      List.iter
        (fun k ->
          check_bool ("stats_json field " ^ k) true (List.mem_assoc k fields))
        [ "paths"; "vars"; "clauses"; "solves"; "conflicts"; "outcomes" ]
  | _ -> Alcotest.fail "stats_json not an object"

let test_sat_partial_and_validation () =
  (* Outcome budget: SB has 4 outcomes under TSO; a budget of 2 must
     report incompleteness (and a sound subset), and [enumerate] raises. *)
  let r = Axiomatic.explore ~mode:M_tso ~max_outcomes:2 sb in
  check_bool "partial flagged" false r.Axiomatic.complete;
  let full = enumerate ~mode:M_tso sb in
  check_bool "partial is a sound subset" true
    (List.for_all (fun o -> List.mem o full) r.Axiomatic.outcomes);
  check_bool "enumerate raises on budget" true
    (try
       ignore (Axiomatic.enumerate ~mode:M_tso ~max_outcomes:2 sb);
       false
     with Failure _ -> true);
  (* The operational model deadlocks on negative waits and can loop on
     negative skips; the axiomatic oracle refuses them up front. *)
  List.iter
    (fun bad ->
      check_bool "invalid program rejected" true
        (try
           ignore (Axiomatic.enumerate ~mode:M_tso bad);
           false
         with Invalid_argument _ -> true))
    [ [ [ Wait (-1) ] ]; [ [ Loadeq (x, 0, -2) ] ] ]

let test_sat_oversize_formula () =
  (* A wait of 10^7 would need 4·10^7 order-encoding literals before the
     first clause; the session refuses the formula and reports the query
     incomplete instead of exhausting memory. The explorer settles the
     same program exactly. Allocation, unlike wall time, is
     deterministic: the refusal must cost next to nothing. *)
  let racing w = [ [ Wait w; Store (x, 1) ]; [ Load (x, r0) ] ] in
  let p = racing 10_000_000 in
  let op = explore ~mode:M_tso p in
  check_bool "explorer complete" true op.complete;
  (* Memory grows with events² × horizon, not with the ladder alone:
     four threads of 25 events and a 40k wait need under 10^6 ladder
     literals but gigabytes of pairwise clauses. *)
  let wide =
    List.init 4 (fun t ->
        (if t = 0 then [ Wait 39_900 ] else [])
        @ [ Store (x, 1); Load (y, r0); Store (y, 1); Load (x, r1) ])
  in
  (* [max_int] must not overflow the size check into a tiny formula. *)
  List.iter
    (fun (p, mode) ->
      let a0 = Gc.allocated_bytes () in
      let r = Axiomatic.explore ~mode p in
      let bytes = Gc.allocated_bytes () -. a0 in
      check_bool
        (Printf.sprintf "%s: sat incomplete" (Litmus_parse.mode_id mode))
        false r.Axiomatic.complete;
      check_bool "no outcomes claimed" true (r.Axiomatic.outcomes = []);
      check_bool
        (Printf.sprintf "refusal allocates little (%.0f bytes)" bytes)
        true (bytes < 1e6))
    [
      (p, M_sc);
      (p, M_tso);
      (p, M_tbtso 4);
      (racing max_int, M_tso);
      (wide, M_tso);
    ];
  let sess = Axiomatic.session p in
  check_bool "robustness query refused" true
    (try
       ignore (Axiomatic.robust sess M_tso);
       false
     with Failure _ -> true)

let test_session_robustness () =
  (* One session answers every robustness query incrementally. SB's
     threshold: robust through Δ=3 (commit deadlines too tight to hide
     both stores), broken from Δ=4 up to plain TSO. *)
  let sess = Axiomatic.session sb in
  check_bool "SC robust by definition" true (Axiomatic.robust sess M_sc = `Robust);
  check_bool "TBTSO[1] robust" true (Axiomatic.robust sess (M_tbtso 1) = `Robust);
  check_bool "TBTSO[3] robust" true (Axiomatic.robust sess (M_tbtso 3) = `Robust);
  (match Axiomatic.robust sess (M_tbtso 4) with
  | `Robust -> Alcotest.fail "SB must break at Δ=4"
  | `Witness w ->
      check_bool "witness beyond SC" true
        (not (List.mem w (Axiomatic.sc_outcomes sess)));
      check_bool "witness reachable" true
        (List.mem w (enumerate ~mode:(M_tbtso 4) sb)));
  check_bool "TSO not robust" true (Axiomatic.robust sess M_tso <> `Robust);
  let sites = Axiomatic.fence_sites sess in
  check_bool "two fence sites" true (List.length sites = 2);
  check_bool "fully fenced TSO is robust" true
    (Axiomatic.robust sess ~fences:sites M_tso = `Robust);
  (* The session's enumeration still matches the explorer after all the
     guarded queries above retired their clauses. *)
  let r = Axiomatic.enumerate_session sess M_tso in
  check_bool "post-query enumeration intact" true
    (r.Axiomatic.complete && r.Axiomatic.outcomes = enumerate ~mode:M_tso sb)

let test_adviser_verdicts () =
  (match Adviser.minimal_delta (Axiomatic.session sb) with
  | Adviser.Breaks_at { max_robust = 3; min_unsafe = 4 }, Some _ -> ()
  | v, _ ->
      Alcotest.fail
        (Printf.sprintf "SB verdict: %s" (Adviser.verdict_string v)));
  (match Adviser.minimal_delta (Axiomatic.session mp) with
  | Adviser.Always_robust, None -> ()
  | v, _ ->
      Alcotest.fail
        (Printf.sprintf "MP verdict: %s" (Adviser.verdict_string v)));
  check_bool "SB needs both fences" true
    (match Adviser.minimal_fences (Axiomatic.session sb) with
    | Adviser.Fence_after [ (0, 0); (1, 0) ] -> true
    | _ -> false);
  check_bool "MP needs none" true
    (Adviser.minimal_fences (Axiomatic.session mp) = Adviser.No_fences_needed);
  (* Explorer confirmation: accepts the true verdict, refutes a wrong one. *)
  let v, _ = Adviser.minimal_delta (Axiomatic.session sb) in
  check_bool "explorer confirms SB threshold" true
    (Adviser.confirm sb v = Adviser.Confirmed);
  check_bool "explorer refutes a false verdict" true
    (match Adviser.confirm sb Adviser.Always_robust with
    | Adviser.Mismatch _ -> true
    | _ -> false)

let prop_pooled_sat_differential =
  (* The SAT oracle runs inside pool workers under -j N: no hidden
     module-level state may make pooled answers differ. *)
  QCheck.Test.make ~name:"pooled SAT oracle ≡ sequential" ~count:15
    program_arb3 (fun p ->
      Tbtso_par.Pool.with_pool ~domains:2 (fun pool ->
          Tbtso_par.Pool.map_list pool
            (fun mode -> Axiomatic.enumerate ~mode p)
            sat_corpus_modes
          = List.map (fun mode -> Axiomatic.enumerate ~mode p) sat_corpus_modes))

let test_flag_flat_in_delta () =
  (* The headline zone-abstraction result: the explored state count for
     the flag protocols at Δ = 64 stays within 2× of Δ = 4, where the
     concrete-counter explorer grew linearly. Both points must be
     complete — a budget-cut count undercounts the state space, so the
     ratio would pass vacuously. Every point of the Δ grid is also
     cross-checked against the SAT oracle: both complete, equal
     outcome sets. *)
  List.iter
    (fun (name, prog) ->
      let at d =
        let p = prog d in
        let r = explore ~mode:(M_tbtso d) p in
        let sat = Axiomatic.explore ~mode:(M_tbtso d) p in
        check_bool
          (Printf.sprintf "%s Δ=%d: both oracles complete" name d)
          true
          (r.complete && sat.Axiomatic.complete);
        check_bool
          (Printf.sprintf "%s Δ=%d: explorer ≡ SAT oracle" name d)
          true
          (r.outcomes = sat.Axiomatic.outcomes);
        r.stats.visited
      in
      let counts =
        List.map (fun d -> (d, at d)) [ 4; 8; 16; 32; 64; 128; 256; 512 ]
      in
      let lo = List.assoc 4 counts and hi = List.assoc 64 counts in
      check_bool
        (Printf.sprintf "%s: states at Δ=64 (%d) ≤ 2× Δ=4 (%d)" name hi lo)
        true
        (hi <= 2 * lo))
    [
      ("flag wait=4", fun _ -> tbtso_flag 4);
      ("flag wait=64", fun _ -> tbtso_flag 64);
      ("flag wait=Δ", fun d -> tbtso_flag d);
    ]

let test_minor_words_per_state () =
  (* The explorer's allocation ceiling: minor words per visited state
     over SB / MP / flag / flag3 under SC, TSO and TBTSO[4, 100] stay
     within 13.72 (the measured baseline) / 0.6 (the tolerance). Unlike
     states per second, allocation does not depend on machine load, so
     a breach is a real regression. The first pass is the one measured,
     as a user's first check would be. *)
  let z = 2 in
  let sb = [ [ Store (x, 1); Load (y, 0) ]; [ Store (y, 1); Load (x, 0) ] ] in
  let mp = [ [ Store (x, 1); Store (y, 1) ]; [ Load (y, 0); Load (x, 1) ] ] in
  let flag d =
    [ [ Store (x, 1); Load (y, 0) ];
      [ Store (y, 1); Fence; Wait d; Load (x, 0) ] ]
  in
  let flag3 d = flag d @ [ [ Store (z, 1); Load (x, 2) ] ] in
  let cases =
    [ (M_sc, sb); (M_tso, sb); (M_tso, mp) ]
    @ List.concat_map
        (fun d ->
          let m = M_tbtso d in
          [ (m, sb); (m, mp); (m, flag d); (m, flag3 d) ])
        [ 4; 100 ]
  in
  let states = ref 0 and complete = ref true in
  let mw0 = Gc.minor_words () in
  List.iter
    (fun (mode, p) ->
      let r = explore ~mode p in
      complete := !complete && r.complete;
      states := !states + r.stats.visited)
    cases;
  let per_state = (Gc.minor_words () -. mw0) /. float_of_int !states in
  check_bool "every case complete" true !complete;
  let ceiling = 13.72 /. 0.6 in
  check_bool
    (Printf.sprintf "%.1f minor words/state over %d states ≤ %.2f" per_state
       !states ceiling)
    true (per_state <= ceiling)

let test_zone_stats_exposed () =
  (* The wait ≈ Δ race exercises both zone rewrites and all three
     independence classes; the counters must surface in stats and its
     JSON rendering. *)
  let r = explore ~mode:(M_tbtso 64) (tbtso_flag 64) in
  check_bool "zones merged" true (r.stats.zones_merged > 0);
  check_bool "canonical states re-interned" true (r.stats.canon_hits > 0);
  check_bool "class split sums to total" true
    (r.stats.dd_skips + r.stats.di_skips + r.stats.ii_skips
    = r.stats.sleep_skips);
  match stats_json r.stats with
  | Tbtso_obs.Json.Obj fields ->
      List.iter
        (fun k -> check_bool ("stats_json field " ^ k) true (List.mem_assoc k fields))
        [ "canon_hits"; "zones_merged"; "dd_skips"; "di_skips"; "ii_skips" ]
  | _ -> Alcotest.fail "stats_json not an object"

let test_explore_partial_result () =
  let r = explore ~mode:M_tso ~max_states:10 sb in
  check_bool "partial flagged" false r.complete;
  check_bool "budget respected" true (r.stats.visited <= 10);
  (* [enumerate] keeps the seed's contract: budget exhaustion raises. *)
  check_bool "enumerate raises" true
    (try
       ignore (enumerate ~mode:M_tso ~max_states:10 sb);
       false
     with Failure _ -> true)

(* --- Litmus file parser --- *)

let test_parse_roundtrip () =
  let text =
    "name: demo\n\
     # a comment\n\
     thread\n\
     \tstore x 1\n\
     \tload y -> r0\n\
     thread\n\
     \tstore y 1\n\
     \tfence\n\
     \twait 3\n\
     \tload x r1\n\
     exists 0:r0 = 0 /\\ 1:r1 = 0\n"
  in
  let t = Litmus_parse.parse text in
  check_bool "name" true (t.name = "demo");
  check_bool "two threads" true (List.length t.program = 2);
  check_bool "quantifier" true (t.quantifier = Litmus_parse.Exists);
  check_bool "two terms" true (List.length t.condition = 2);
  check_bool "program content" true
    (t.program
    = [
        [ Store (0, 1); Load (1, 0) ];
        [ Store (1, 1); Fence; Wait 3; Load (0, 1) ];
      ])

let test_parse_check_agrees_with_enumerate () =
  let text =
    "thread\n store x 1\n load y -> r0\nthread\n store y 1\n load x -> r1\n\
     exists 0:r0 = 0 /\\ 1:r1 = 0\n"
  in
  let t = Litmus_parse.parse text in
  let tso = Litmus_parse.check t ~mode:M_tso in
  let sc = Litmus_parse.check t ~mode:M_sc in
  check_bool "TSO observable" true tso.holds;
  check_bool "SC impossible" false sc.holds;
  check_bool "TSO complete" true tso.complete;
  check_bool "TSO stats populated" true (tso.stats.visited > 0)

let test_parse_cas () =
  let text = "thread\n cas x 0 1 -> r0\nforall x = 1\n" in
  let t = Litmus_parse.parse text in
  check_bool "cas parsed" true (t.program = [ [ Cas (0, 0, 1, 0) ] ]);
  check_bool "cas executes" true (Litmus_parse.check t ~mode:M_tso).holds

let test_parse_forall () =
  let text = "thread\n store x 7\nforall x = 7\n" in
  let t = Litmus_parse.parse text in
  check_bool "forall" true (t.quantifier = Litmus_parse.Forall);
  check_bool "invariant holds" true (Litmus_parse.check t ~mode:M_tso).holds

let test_check_budget_exceeded () =
  (* Exhausting the state budget must surface as [complete = false], not
     as an exception, and a partial [exists] answer must stay sound. *)
  let text =
    "thread\n store x 1\n load y -> r0\nthread\n store y 1\n load x -> r1\n\
     exists 0:r0 = 0 /\\ 1:r1 = 0\n"
  in
  let t = Litmus_parse.parse text in
  let r = Litmus_parse.check ~max_states:5 t ~mode:M_tso in
  check_bool "incomplete" false r.complete;
  check_bool "visited capped" true (r.stats.visited <= 5)

let check_parse_error text =
  try
    ignore (Litmus_parse.parse text);
    false
  with Litmus_parse.Parse_error _ -> true

let test_parse_errors () =
  check_bool "no threads" true (check_parse_error "exists x = 1\n");
  check_bool "no condition" true (check_parse_error "thread\n store x 1\n");
  check_bool "bad instruction" true (check_parse_error "thread\n mumble\nexists x = 1\n");
  check_bool "bad address" true (check_parse_error "thread\n store q 1\nexists x = 1\n");
  check_bool "bad register" true
    (check_parse_error "thread\n load x -> r9\nexists x = 1\n");
  check_bool "orphan instruction" true (check_parse_error "store x 1\nexists x = 1\n");
  check_bool "duplicate condition" true
    (check_parse_error "thread\n store x 1\nexists x = 1\nexists x = 1\n");
  check_bool "negative wait" true
    (check_parse_error "thread\n wait -3\nexists x = 0\n");
  check_bool "negative skip" true
    (check_parse_error "thread\n loadeq x 0 skip -1\nexists x = 0\n");
  check_bool "condition names a missing thread" true
    (check_parse_error "thread\n load x -> r0\nforall 3:r0 = 0\n");
  (* The error carries the offending line, so the CLI can point at it. *)
  let line_of text =
    match Litmus_parse.parse text with
    | _ -> None
    | exception Litmus_parse.Parse_error { line; _ } -> Some line
  in
  check_bool "wait error on its line" true
    (line_of "thread\n store x 1\n wait -3\nexists x = 0\n" = Some 3);
  check_bool "thread error on the condition line" true
    (line_of "thread\n load x -> r0\n\nforall 1:r0 = 0\n" = Some 4)

let test_mode_of_string () =
  let ok s =
    match Litmus_parse.mode_of_string s with Ok m -> Some m | Error _ -> None
  in
  check_bool "sc" true (ok "sc" = Some M_sc);
  check_bool "case-insensitive" true (ok "TSO" = Some M_tso);
  check_bool "tbtso:4" true (ok "tbtso:4" = Some (M_tbtso 4));
  check_bool "tsos:2" true (ok "tsos:2" = Some (M_tsos 2));
  (* The negatives the old String.sub arithmetic mangled: empty bound,
     zero, negative, non-numeric. *)
  check_bool "tbtso: (empty bound)" true (ok "tbtso:" = None);
  check_bool "tbtso:0" true (ok "tbtso:0" = None);
  check_bool "tsos:-1" true (ok "tsos:-1" = None);
  check_bool "tsos: (empty capacity)" true (ok "tsos:" = None);
  check_bool "tbtso:x" true (ok "tbtso:x" = None);
  check_bool "unknown word" true (ok "weird" = None);
  check_bool "prefix alone" true (ok "tbtso" = None);
  (* [mode_id] round-trips through the parser for every mode. *)
  List.iter
    (fun m ->
      check_bool
        (Printf.sprintf "round-trip %s" (Litmus_parse.mode_id m))
        true
        (ok (Litmus_parse.mode_id m) = Some m))
    diff_modes;
  (* The shared helper underneath. *)
  check_bool "chop_prefix hit" true
    (Litmus_parse.chop_prefix ~prefix:"tbtso:" "tbtso:9" = Some "9");
  check_bool "chop_prefix whole string" true
    (Litmus_parse.chop_prefix ~prefix:"tso" "tso" = Some "");
  check_bool "chop_prefix miss" true
    (Litmus_parse.chop_prefix ~prefix:"tsos:" "tbtso:9" = None)

let prop_pooled_differential =
  (* The worker-pool analogue of [prop_new_equals_reference]: fanning the
     per-mode enumerations out across domains changes nothing — same
     outcome sets, same order. *)
  QCheck.Test.make ~name:"pooled enumerate ≡ sequential on random programs"
    ~count:30 program_arb3 (fun p ->
      Tbtso_par.Pool.with_pool ~domains:2 (fun pool ->
          Tbtso_par.Pool.map_list pool (fun mode -> enumerate ~mode p) diff_modes
          = List.map (fun mode -> enumerate ~mode p) diff_modes))

(* The hash-cons arena packs canonical states into one flat int array and
   interns them by (hash, length, word-compare) against the packed bytes.
   These checks pin the arena against a reference interner and against
   its own growth path. *)

let prop_packed_key_partition =
  (* The packed-key interner must induce the same partition as a plain
     structural interner: replay the (key, id) stream through a Hashtbl
     keyed by full key copies, assigning dense ids in arrival order, and
     demand the ids agree call by call. Catches hash truncation, missed
     length checks and stale-offset bugs in the open-addressing table. *)
  QCheck.Test.make ~name:"packed-key intern ≡ structural interning" ~count:40
    program_arb3 (fun p ->
      List.for_all
        (fun mode ->
          let reference : (int array, int) Hashtbl.t = Hashtbl.create 64 in
          let next = ref 0 in
          let ok = ref true in
          let on_intern key id =
            let rid =
              match Hashtbl.find_opt reference key with
              | Some rid -> rid
              | None ->
                  let rid = !next in
                  incr next;
                  Hashtbl.add reference key rid;
                  rid
            in
            if rid <> id then ok := false
          in
          let _r, dbg = For_tests.explore_instrumented ~mode ~on_intern p in
          !ok && dbg.For_tests.interned = !next)
        [ M_sc; M_tso; M_tbtso 3 ])

let test_arena_growth_stress () =
  (* Start the arena and the intern table deliberately tiny so both must
     reallocate mid-exploration (the arena at least twice), and check
     growth relocates nothing observable: outcomes and every stats
     counter match a run that started at the default capacities. *)
  let same_stats (a : stats) (b : stats) =
    a.visited = b.visited && a.dedup_hits = b.dedup_hits
    && a.canon_hits = b.canon_hits && a.zones_merged = b.zones_merged
    && a.max_frontier = b.max_frontier && a.time_leaps = b.time_leaps
    && a.sleep_skips = b.sleep_skips && a.dd_skips = b.dd_skips
    && a.di_skips = b.di_skips && a.ii_skips = b.ii_skips
  in
  List.iter
    (fun (name, mode, p) ->
      let big, dbg_big = For_tests.explore_instrumented ~mode p in
      let small, dbg_small =
        For_tests.explore_instrumented ~mode ~arena_words:64 ~table_slots:8 p
      in
      check_bool
        (Printf.sprintf "%s: arena grew at least twice" name)
        true
        (dbg_small.For_tests.arena_growths >= 2);
      check_bool
        (Printf.sprintf "%s: same packed words either way" name)
        true
        (dbg_small.For_tests.arena_words = dbg_big.For_tests.arena_words
        && dbg_small.For_tests.interned = dbg_big.For_tests.interned);
      check_bool
        (Printf.sprintf "%s: outcomes unchanged by growth" name)
        true
        (small.outcomes = big.outcomes && small.complete = big.complete);
      check_bool
        (Printf.sprintf "%s: stats unchanged by growth" name)
        true
        (same_stats small.stats big.stats))
    [
      ("SB tso", M_tso, sb);
      ("MP tbtso:4", M_tbtso 4, mp);
      ("flag tbtso:6", M_tbtso 6, tbtso_flag 6);
    ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "litmus"
    [
      ( "classic",
        [
          Alcotest.test_case "SB observable under TSO" `Quick test_sb_tso_allows_00;
          Alcotest.test_case "SB forbidden under SC" `Quick test_sb_sc_forbids_00;
          Alcotest.test_case "fenced SB forbidden everywhere" `Quick test_sb_fenced_forbids_00;
          Alcotest.test_case "SB observable under TBTSO" `Quick test_sb_tbtso_allows_00;
          Alcotest.test_case "MP safe under TSO" `Quick test_mp_tso;
          Alcotest.test_case "store forwarding" `Quick test_forwarding;
          Alcotest.test_case "final memory drained" `Quick test_final_memory;
          Alcotest.test_case "loadeq conditional" `Quick test_loadeq;
        ] );
      ( "flag-principle",
        [
          Alcotest.test_case "symmetric flag principle" `Quick test_flag_symmetric;
          Alcotest.test_case "TBTSO flag principle (Section 3)" `Quick
            test_tbtso_flag_principle;
          Alcotest.test_case "breaks under unbounded TSO" `Quick
            test_tbtso_flag_principle_breaks_under_tso;
          Alcotest.test_case "short wait unsound" `Quick test_tbtso_flag_requires_full_wait;
          Alcotest.test_case "slow-path fence required" `Quick test_tbtso_flag_requires_fence;
        ] );
      ( "cas",
        [
          Alcotest.test_case "atomicity" `Quick test_cas_atomicity;
          Alcotest.test_case "drains buffer" `Quick test_cas_drains_buffer_litmus;
          Alcotest.test_case "TAS lock" `Quick test_tas_lock_litmus;
        ] );
      ( "tsos",
        [
          Alcotest.test_case "flag principle still broken" `Quick
            test_tsos_flag_principle_still_broken;
          Alcotest.test_case "spatial flush restricts outcomes" `Quick
            test_tsos_spatial_flush;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "boundary grid vs reference" `Quick test_diff_boundary_grid;
          Alcotest.test_case "recursion killer (Wait 200k)" `Quick test_recursion_killer;
          Alcotest.test_case "paper-scale Δ ∈ {100, 500}" `Quick test_paper_scale_delta;
          Alcotest.test_case "corpus ≡ reference, every mode" `Quick
            test_corpus_matches_reference;
          Alcotest.test_case "flag states flat in Δ" `Quick test_flag_flat_in_delta;
          Alcotest.test_case "minor words per state ceiling" `Quick
            test_minor_words_per_state;
          Alcotest.test_case "zone stats exposed" `Quick test_zone_stats_exposed;
          Alcotest.test_case "partial result on budget" `Quick test_explore_partial_result;
          Alcotest.test_case "arena growth is invisible" `Quick
            test_arena_growth_stress;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "check agrees with enumerate" `Quick
            test_parse_check_agrees_with_enumerate;
          Alcotest.test_case "cas syntax" `Quick test_parse_cas;
          Alcotest.test_case "forall" `Quick test_parse_forall;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "budget exceeded is a verdict" `Quick
            test_check_budget_exceeded;
          Alcotest.test_case "mode_of_string" `Quick test_mode_of_string;
        ] );
      ( "gen-corpus",
        [
          Alcotest.test_case "litmus/gen ≡ all oracles, every mode" `Quick
            test_gen_corpus_matches_oracles;
          Alcotest.test_case "litmus/gen fanout: pooled ≡ sequential" `Quick
            test_gen_corpus_fanout_parallel;
        ] );
      ( "sat-oracle",
        [
          Alcotest.test_case "corpus ≡ SAT oracle, acceptance grid" `Quick
            test_corpus_matches_sat;
          Alcotest.test_case "solver stats exposed" `Quick test_sat_stats_exposed;
          Alcotest.test_case "partial result and validation" `Quick
            test_sat_partial_and_validation;
          Alcotest.test_case "session robustness queries" `Quick
            test_session_robustness;
          Alcotest.test_case "oversize formula is incomplete" `Quick
            test_sat_oversize_formula;
          Alcotest.test_case "adviser verdicts vs explorer" `Quick
            test_adviser_verdicts;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_new_equals_reference;
            prop_pooled_differential;
            prop_sat_equals_explorer;
            prop_pooled_sat_differential;
            prop_packed_key_partition;
          ]
        @ [
            Alcotest.test_case "fixed programs: SAT ≡ explore ≡ reference"
              `Quick test_fixed_programs_match_oracles;
          ] );
      qsuite "properties"
        [
          prop_sc_subset_tbtso;
          prop_tbtso_subset_tso;
          prop_tbtso_monotone_in_delta;
          prop_machine_agrees_with_checker;
          prop_machine_subset_of_checker_random;
          prop_tsos_subset_tso;
          prop_sc_subset_tsos;
          prop_hw_machine_subset_of_tso;
        ];
    ]
