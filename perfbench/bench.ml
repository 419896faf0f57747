(* Whole-system benchmark driver.

   Four seeded workloads: two on the TBTSO[Δ] simulator (the paper's
   Figure 6 hash table, the store-buffer residency loop) and two on the
   checkers (seeded random litmus programs, the scenario registry at a
   scaled Δ). BENCHMARK.json names two of them; README.md says why. An untraced run prints the end-to-end metrics; a traced
   run prints the per-layer metrics, and writes a Chrome trace of spans
   recorded here, around the calls into each layer. README.md beside
   this file defines every metric; run.py builds and runs this program.

   The last line of standard output is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {name: {"value": _, "unit": _}}}.
   The lines before it are the run record, each starting with "# ". *)

open Tsim
open Tbtso_workload
module Span = Tbtso_obs.Span
module Json = Tbtso_obs.Json
module Chrome = Tbtso_obs.Chrome
module Pool = Tbtso_par.Pool

let now () = float_of_int (Span.now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let record fmt = Printf.printf ("# " ^^ fmt ^^ "\n")

(* ------------------------------------------------------------------ *)
(* Items: one checked unit of work                                     *)
(* ------------------------------------------------------------------ *)

type result = {
  time : float;  (** Host seconds of the end-to-end call alone. *)
  failure : string option;  (** Why the unit failed, if it did. *)
  incorrect : bool;  (** The failure is a wrong output, not a budget cut. *)
  exact : (string * int) list;
      (** Deterministic counters: identical for every pass of a seed. *)
  layer : (string * float) list;
      (** Per-layer seconds, words and work counts, summed over a pass. *)
}

(* A simulator cell or one (program, mode) verdict. [run] records its
   spans on the profiler it is given: {!Span.disabled} in untraced
   passes. [direct] (checker items only) makes the two oracle calls
   directly, each in a span of its own, and returns their per-layer
   values; it runs in a pass of its own, so that the plain and traced
   passes differ only by the profiler. *)
type item = {
  name : string;
  run : Span.t -> result;
  direct : Span.t -> (string * float) list;
}

(* Counters that aggregate by maximum; all others sum. *)
let max_counters = [ "machine.max_residency"; "heap.peak_words" ]

type size = Full | Smoke

type prepared = {
  items : item list;
  warm : unit -> unit;  (** One small call into each layer. *)
  tasks : Litmus_fanout.task list;
      (** The checker tasks (empty for the simulator): phases, pool pass. *)
}

type workload = {
  wname : string;
  prepare : size -> seed:int -> prepared;
  layer_metrics : (string * float) list -> (string * float * string) list;
      (** Per-layer metrics from one traced pass's summed [layer] values. *)
  pool_pass : bool;  (** Also times the task list on a 2-domain pool. *)
}

let outcome ~time ?failure ?(incorrect = false) exact layer =
  { time; failure; incorrect; exact; layer }

let get k layer = try List.assoc k layer with Not_found -> 0.

(* ------------------------------------------------------------------ *)
(* sim_hashtable: Figure 6 cells                                        *)
(* ------------------------------------------------------------------ *)

(* The quick bench's Figure 6 methods, with its OS-adaptation period. *)
let fig6_specs =
  let r = 512 in
  [
    (Smr_methods.S_hp { r }, None);
    (Smr_methods.S_ffhp { r; bound = `Delta (Config.us 500) }, None);
    (Smr_methods.S_ffhp { r; bound = `Os_adapted }, Some (Config.us 200));
    (Smr_methods.S_rcu { period = Config.ms 2 }, None);
    (Smr_methods.S_dta { batch = 1 }, None);
    (Smr_methods.S_stacktrack { capacity = 48 }, None);
  ]

let fig6_mixes = [ (Hashtable_bench.Read_write, 4); (Hashtable_bench.Read_only, 64) ]

let hashtable_params ~seed ~run_ticks (spec, interrupt) (mix, avg_chain) =
  {
    Hashtable_bench.spec;
    config =
      {
        Config.default with
        Config.cache_bits = 8;
        seed = Int64.of_int seed;
        interrupt_period = interrupt;
      };
    nthreads = 8;
    mix;
    buckets = 128;
    avg_chain;
    run_ticks;
    stall = None;
    seed;
  }

let hashtable_item p =
  let name =
    Printf.sprintf "%s/%s/L=%d"
      (Smr_methods.name p.Hashtable_bench.spec)
      (match p.mix with Read_write -> "rw" | Read_only -> "ro")
      p.avg_chain
  in
  let run prof =
    let mw0 = Gc.minor_words () in
    let t0 = now () in
    match
      Span.with_span prof "Hashtable_bench.run" (fun () -> Hashtable_bench.run p)
    with
    | exception e ->
        outcome ~time:(now () -. t0) ~failure:(Printexc.to_string e)
          ~incorrect:true [] []
    | r ->
        let time = now () -. t0 in
        let words = Gc.minor_words () -. mw0 in
        let ops = r.reader_ops + r.updater_ops in
        let failure = if ops = 0 then Some "no operation completed" else None in
        outcome ~time ?failure ~incorrect:(failure <> None)
          [
            ("machine.ops", ops);
            ("machine.fences", r.fences);
            ("machine.rmws", r.rmws);
            ("machine.cache_misses", r.cache_misses);
            ("heap.peak_words", r.peak_heap_words);
            ("machine.ticks", r.run_ticks);
          ]
          [
            ("workload.hashtable_run_s", time);
            ("minor_words", words);
            ("ops", float_of_int ops);
            ("ticks", float_of_int r.run_ticks);
          ]
  in
  { name; run; direct = (fun _ -> []) }

let sim_hashtable =
  let prepare size ~seed =
    let run_ticks = match size with Full -> 200_000 | Smoke -> 4_000 in
    let cells =
      List.concat_map
        (fun spec ->
          List.map (fun mix -> hashtable_params ~seed ~run_ticks spec mix) fig6_mixes)
        fig6_specs
    in
    let warm_cell = { (List.hd cells) with run_ticks = 2_000 } in
    {
      items = List.map hashtable_item cells;
      warm = (fun () -> ignore (Hashtable_bench.run warm_cell));
      tasks = [];
    }
  in
  let layer_metrics l =
    let run_s = get "workload.hashtable_run_s" l and ops = get "ops" l in
    [
      ("workload.hashtable_run_s", run_s, "s");
      ("machine.minor_words_per_op", get "minor_words" l /. ops, "words/op");
      ("sim_ticks_per_s", get "ticks" l /. run_s, "1/s");
      ("sim_ops_per_s", ops /. run_s, "1/s");
    ]
  in
  { wname = "sim_hashtable"; prepare; layer_metrics; pool_pass = false }

(* ------------------------------------------------------------------ *)
(* sim_storebuf: the residency loop under adversarial drains            *)
(* ------------------------------------------------------------------ *)

let residency_item ~seed ~run_ticks (label, consistency) =
  let config =
    {
      (Config.with_drain Config.Drain_adversarial
         (Config.with_consistency consistency Config.default))
      with
      Config.seed = Int64.of_int seed;
    }
  in
  let run prof =
    let mw0 = Gc.minor_words () in
    let t0 = now () in
    match
      Span.with_span prof "Residency_bench.run" (fun () ->
          Residency_bench.run ~label ~nthreads:8 ~config ~run_ticks ())
    with
    | exception e ->
        outcome ~time:(now () -. t0) ~failure:(Printexc.to_string e)
          ~incorrect:true [] []
    | r ->
        let time = now () -. t0 in
        let words = Gc.minor_words () -. mw0 in
        let sum f =
          List.fold_left (fun acc t -> acc + f t.Residency_bench.stats) 0 r.threads
        in
        let instructions =
          sum (fun s -> s.Machine.loads + s.stores + s.rmws + s.fences + s.clock_reads)
        in
        let stores = sum (fun s -> s.Machine.stores) in
        let failure =
          match r.delta_bound with
          | Some d when not (Residency_bench.bound_ok r) ->
              Some (Printf.sprintf "max residency %d exceeds the bound %d" r.max_residency d)
          | _ -> None
        in
        outcome ~time ?failure ~incorrect:(failure <> None)
          [
            ("machine.instructions", instructions);
            ("machine.stores", stores);
            ("machine.drains", sum (fun s -> s.Machine.drains));
            ("machine.forced_drains", sum (fun s -> s.Machine.forced_drains));
            ("machine.max_residency", r.max_residency);
            ("machine.ticks", r.run_ticks);
          ]
          [
            ("workload.residency_run_s", time);
            ("minor_words", words);
            ("instructions", float_of_int instructions);
            ("stores", float_of_int stores);
            ("ticks", float_of_int r.run_ticks);
          ]
  in
  { name = label; run; direct = (fun _ -> []) }

let sim_storebuf =
  let prepare size ~seed =
    let run_ticks = match size with Full -> 100_000 | Smoke -> 4_000 in
    let cells =
      [ ("tbtso[50000]", Config.Tbtso 50_000); ("tso", Config.Tso) ]
    in
    let warm =
      {
        (Config.with_drain Config.Drain_adversarial Config.default) with
        Config.seed = Int64.of_int seed;
      }
    in
    {
      items = List.map (residency_item ~seed ~run_ticks) cells;
      warm =
        (fun () ->
          ignore (Residency_bench.run ~nthreads:8 ~config:warm ~run_ticks:2_000 ()));
      tasks = [];
    }
  in
  let layer_metrics l =
    let run_s = get "workload.residency_run_s" l
    and instr = get "instructions" l in
    [
      ("workload.residency_run_s", run_s, "s");
      ("machine.minor_words_per_instr", get "minor_words" l /. instr, "words/instr");
      ("machine.instr_per_s", instr /. run_s, "1/s");
      ("sim_ticks_per_s", get "ticks" l /. run_s, "1/s");
      ("sim_ops_per_s", get "stores" l /. run_s, "1/s");
    ]
  in
  { wname = "sim_storebuf"; prepare; layer_metrics; pool_pass = false }

(* ------------------------------------------------------------------ *)
(* Checker items: one (program, mode) verdict from both oracles         *)
(* ------------------------------------------------------------------ *)

let the_verdict = function [ v ] -> v | _ -> invalid_arg "one task, one verdict"

let check_item (task : Litmus_fanout.task) =
  let program = task.test.Litmus_parse.program in
  let name = task.path ^ ":" ^ Litmus_parse.mode_id task.mode in
  let run prof =
    let v, time =
      timed (fun () ->
          Span.with_span prof "Litmus_fanout.check" (fun () ->
              the_verdict (Litmus_fanout.check ~oracle:Both ~profiler:prof [ task ])))
    in
    let ex = Option.get v.result and sat = Option.get v.sat in
    let st = ex.Litmus_parse.stats and ss = sat.sat_stats in
    let failure, incorrect =
      match Litmus_fanout.severity v with
      | `Disagree | `Inconclusive as s ->
          (Some (Litmus_fanout.verdict_string v), s = `Disagree)
      | `Ok | `Violated -> (None, false)
    in
    let exact =
      [
        ("litmus.states", st.Litmus.visited);
        ("litmus.incomplete", if ex.complete then 0 else 1);
        ("litmus.outcomes", ex.outcome_count);
        ("verdict.holds", if ex.holds then 1 else 0);
        ("sat.vars", ss.Axiomatic.vars);
        ("sat.clauses", ss.clauses);
        ("sat.propagations", ss.propagations);
        ("sat.conflicts", ss.conflicts);
      ]
    in
    outcome ~time ?failure ~incorrect exact [ ("fanout.check_s", time) ]
  in
  (* The oracle calls [Litmus_fanout.check] makes, made directly so that
     each layer gets a span and a time of its own. *)
  let direct prof =
    let mw0 = Gc.minor_words () in
    let op, explore_s =
      timed (fun () ->
          Span.with_span prof "Litmus.explore" (fun () -> Litmus.explore ~mode:task.mode program))
    in
    let words = Gc.minor_words () -. mw0 in
    let sess, session_s =
      timed (fun () ->
          Span.with_span prof "Axiomatic.session" (fun () -> Axiomatic.session program))
    in
    let sx, enumerate_s =
      timed (fun () ->
          Span.with_span prof "Axiomatic.enumerate_session" (fun () ->
              Axiomatic.enumerate_session sess task.mode))
    in
    [
      ("litmus.explore_s", explore_s);
      ("litmus.minor_words", words);
      ("litmus.states", float_of_int op.stats.visited);
      ("axiomatic.session_s", session_s);
      ("axiomatic.enumerate_s", enumerate_s);
      ("sat.propagations", float_of_int sx.stats.propagations);
    ]
  in
  { name; run; direct }

let check_layer_metrics l =
  let explore_s = get "litmus.explore_s" l
  and sat_s = get "axiomatic.session_s" l +. get "axiomatic.enumerate_s" l in
  [
    ("fanout.check_s", get "fanout.check_s" l, "s");
    ("litmus.explore_s", explore_s, "s");
    ("litmus.states_per_s", get "litmus.states" l /. explore_s, "1/s");
    ( "litmus.minor_words_per_state",
      get "litmus.minor_words" l /. get "litmus.states" l,
      "words/state" );
    ("axiomatic.session_s", get "axiomatic.session_s" l, "s");
    ("axiomatic.enumerate_s", get "axiomatic.enumerate_s" l, "s");
    ("sat.propagations_per_s", get "sat.propagations" l /. sat_s, "1/s");
  ]

let warm_check task () = ignore (Litmus_fanout.check ~oracle:Both [ task ])

(* ------------------------------------------------------------------ *)
(* check_random: seeded random litmus programs                          *)
(* ------------------------------------------------------------------ *)

let random_op rng ~remaining =
  let addr () = Rng.int rng 4 and reg () = Rng.int rng 4 in
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> Scenario.Store (addr (), 1 + Rng.int rng 2)
  | 3 | 4 | 5 -> Scenario.Load (addr (), reg ())
  | 6 -> Scenario.Loadeq (addr (), Rng.int rng 2, min 1 remaining)
  | 7 -> Scenario.Fence
  | 8 -> Scenario.Wait (1 + Rng.int rng 4)
  | _ -> Scenario.Cas (addr (), Rng.int rng 2, 1 + Rng.int rng 2, reg ())

(* 2–3 threads of 3–4 instructions drawn from [rng]; the exists
   condition, drawn from [cond_rng], names one register a thread writes
   (or, failing that, one memory cell). *)
let random_scenario rng ~cond_rng i =
  let threads =
    List.init (Rng.int_in rng 2 3) (fun _ ->
        let len = Rng.int_in rng 3 4 in
        List.init len (fun k -> random_op rng ~remaining:(len - k - 1)))
  in
  let written =
    List.concat
      (List.mapi
         (fun t ops ->
           List.filter_map
             (function
               | Scenario.Load (_, r) | Scenario.Cas (_, _, _, r) -> Some (t, r)
               | _ -> None)
             ops)
         threads)
  in
  let condition =
    match written with
    | [] -> [ Litmus_parse.Mem_eq (Rng.int cond_rng 4, Rng.int cond_rng 3) ]
    | ws ->
        let t, r = List.nth ws (Rng.int cond_rng (List.length ws)) in
        [ Litmus_parse.Reg_eq (t, r, Rng.int cond_rng 2) ]
  in
  {
    Scenario.name = Printf.sprintf "rand_%03d" i;
    algorithm = "random";
    descr = [];
    threads;
    quantifier = Litmus_parse.Exists;
    condition;
    expect = [];
  }

let random_modes = Litmus.[ M_sc; M_tso; M_tbtso 1; M_tbtso 4; M_tbtso 16 ]

(* The instructions come from a pinned generator seed, so that every run
   checks the same sample of a heavy-tailed cost distribution (README.md
   gives the cross-sample spread that rules out a fresh sample per
   seed). The run's seed draws the conditions: both oracles enumerate
   every outcome whatever the condition, so the seed changes the
   verdicts and not the work. *)
let corpus_seed = 1

let check_random =
  let prepare size ~seed =
    let programs = match size with Full -> 200 | Smoke -> 3 in
    let rng = Rng.create (Int64.of_int corpus_seed) in
    let cond_rng = Rng.create (Int64.of_int seed) in
    let tasks =
      List.concat_map
        (fun i ->
          let s = random_scenario rng ~cond_rng i in
          (match Scenario.well_formed s with
          | Ok () -> ()
          | Error e -> invalid_arg ("generated program is ill-formed: " ^ e));
          let test = Litmus_parse.parse (Scenario.render s) in
          List.map
            (fun mode -> { Litmus_fanout.path = s.name; test; mode })
            random_modes)
        (List.init programs Fun.id)
    in
    {
      items = List.map check_item tasks;
      warm = warm_check { (List.hd tasks) with mode = Litmus.M_sc };
      tasks;
    }
  in
  {
    wname = "check_random";
    prepare;
    layer_metrics = check_layer_metrics;
    pool_pass = true;
  }

(* ------------------------------------------------------------------ *)
(* check_scaled_delta: the scenario registry with waits and Δ × S       *)
(* ------------------------------------------------------------------ *)

let shuffle ~seed xs =
  let rng = Rng.create (Int64.of_int seed) in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let scale_waits s =
  List.map (List.map (function Litmus.Wait n -> Litmus.Wait (n * s) | i -> i))

let check_scaled_delta =
  let prepare size ~seed =
    let scale = match size with Full -> 150 | Smoke -> 2 in
    let tasks =
      List.concat_map
        (fun sc ->
          let t = Scenario.to_litmus sc in
          let test = { t with program = scale_waits scale t.program } in
          List.map
            (fun k ->
              { Litmus_fanout.path = sc.Scenario.name; test; mode = Litmus.M_tbtso (k * scale) })
            [ 1; 4; 8; 16 ])
        Scenario.registry
    in
    (* The registry is fixed; the seed orders the tasks. *)
    let tasks = shuffle ~seed tasks in
    let unscaled = Scenario.to_litmus (List.hd Scenario.registry) in
    {
      items = List.map check_item tasks;
      warm =
        warm_check { Litmus_fanout.path = "warm"; test = unscaled; mode = Litmus.M_tbtso 1 };
      tasks;
    }
  in
  {
    wname = "check_scaled_delta";
    prepare;
    layer_metrics = check_layer_metrics;
    pool_pass = false;
  }

(* Together these give every per-layer metric. *)
let layer_sources = [ sim_hashtable; sim_storebuf; check_random ]

let workloads = layer_sources @ [ check_scaled_delta ]

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall : float;  (** Sum of the items' end-to-end times. *)
  times : float list;
  counters : (string * int) list;  (** Sorted by name. *)
  layer : (string * float) list;
  failures : (string * string * bool) list;  (** Item, reason, incorrect. *)
}

let add_assoc merge acc xs =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | None -> (k, v) :: acc
      | Some v0 -> (k, merge k v0 v) :: List.remove_assoc k acc)
    acc xs

let sum_layer acc xs = add_assoc (fun _ -> ( +. )) acc xs

let run_pass prof items =
  let results : (item * result) list = List.map (fun it -> (it, it.run prof)) items in
  let counters =
    List.fold_left
      (fun acc (_, r) ->
        add_assoc (fun k a b -> if List.mem k max_counters then max a b else a + b) acc r.exact)
      [] results
  in
  {
    wall = List.fold_left (fun acc (_, r) -> acc +. r.time) 0. results;
    times = List.map (fun (_, r) -> r.time) results;
    counters = List.sort compare counters;
    layer = List.fold_left (fun acc (_, (r : result)) -> sum_layer acc r.layer) [] results;
    failures =
      List.filter_map
        (fun (it, r) -> Option.map (fun why -> (it.name, why, r.incorrect)) r.failure)
        results;
  }

(* Passes while another one, as long as the last, still ends within
   [budget] seconds, and at least [min_passes]. *)
let passes ~budget ~min_passes f =
  let t0 = now () in
  let rec go acc n last =
    let t = now () in
    if n >= min_passes && t -. t0 +. last > budget then List.rev acc
    else
      let x = f () in
      go (x :: acc) (n + 1) (now () -. t)
  in
  go [] 0 0.

(* The value at the highest percentile with at least 10 samples above
   it; with fewer than 110 samples, at the p90 (nearest rank). Returned
   with that percentile and the sample count. *)
let tail times =
  let a = Array.of_list times in
  Array.sort compare a;
  let n = Array.length a in
  let i = if n >= 110 then n - 11 else max 0 (((9 * n) + 9) / 10 - 1) in
  (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n, n)

let own_spans =
  [
    "pass";
    "Hashtable_bench.run";
    "Residency_bench.run";
    "Litmus_fanout.check";
    "direct pass";
    "Litmus.explore";
    "Axiomatic.session";
    "Axiomatic.enumerate_session";
  ]

(* Self time per span name: duration minus the part covered by direct
   children on the same domain. *)
let self_times prof =
  let spans =
    List.filter (fun s -> s.Span.sp_dur_ns >= 0) (Span.spans prof)
    |> List.sort (fun (a : Span.span) (b : Span.span) ->
           compare
             (a.sp_domain, a.sp_start_ns, a.sp_depth)
             (b.sp_domain, b.sp_start_ns, b.sp_depth))
  in
  let tbl = Hashtbl.create 16 in
  let bump name ~total ~child ~calls =
    let t, c, n = Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0, 0) in
    Hashtbl.replace tbl name (t + total, c + child, n + calls)
  in
  (* Open ancestors of the current span, innermost first. *)
  let stack = ref [] in
  List.iter
    (fun s ->
      let ends (a : Span.span) = a.sp_start_ns + a.sp_dur_ns in
      stack :=
        List.filter
          (fun (a : Span.span) ->
            a.sp_domain = s.Span.sp_domain
            && ends a > s.sp_start_ns
            && a.sp_depth < s.sp_depth)
          !stack;
      (match !stack with
      | parent :: _ when parent.sp_depth = s.sp_depth - 1 ->
          bump parent.sp_name ~total:0 ~child:s.sp_dur_ns ~calls:0
      | _ -> ());
      bump (if List.mem s.sp_name own_spans then s.sp_name else "(Litmus_fanout task spans)")
        ~total:s.sp_dur_ns ~child:0 ~calls:1;
      stack := s :: !stack)
    spans;
  Hashtbl.fold (fun name (t, c, n) acc -> (name, n, t, t - c) :: acc) tbl []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

(* One set-up measurement: the fastest of [setup_reps] set-ups (input
   generation and warm-up), after a full collection. One set-up takes
   0.3–6 ms, the size of a major GC slice, so the fastest is the one no
   slice fell into. Returns the last set-up's inputs. *)
let setup_reps = 5

let set_up w size ~seed =
  Gc.full_major ();
  let best = ref infinity and last = ref None in
  for _ = 1 to setup_reps do
    let p, t =
      timed (fun () ->
          let p = w.prepare size ~seed in
          p.warm ();
          p)
    in
    best := Float.min !best t;
    last := Some p
  done;
  (Option.get !last, !best)

let fingerprint counters =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters)))

(* A traced run measures in rounds: an untraced pass (the run's own
   workload only), the same pass traced, for the checkers the direct
   oracle calls, and for check_random the task list on a 2-domain pool,
   so that host speed drifts alike for all of them. *)
type round = {
  plain : pass option;
  traced : pass;
  direct : (string * float) list;  (** Summed per-layer values of the direct calls. *)
  phase_s : (string * float) list;  (** The traced pass's profiler phases. *)
  pool_times : (float * float) option;
      (** The whole task list checked sequentially and on the pool. *)
}

let minimum = List.fold_left min infinity

(* Host noise (other tenants sharing the machine's cores and memory)
   only ever slows a call, and comes in bursts from milliseconds to tens
   of seconds long, so each verdict counts once, at its fastest time
   over the timed passes. The pass time is the sum of these: a whole pass
   rarely falls into a quiet stretch, a single verdict often does. *)
let end_to_end ~setup_s ~n_items passes =
  let walls = List.map (fun p -> p.wall) passes in
  record "pass_walls_s %s" (String.concat " " (List.map (Printf.sprintf "%.4f") walls));
  let times = List.map (fun p -> Array.of_list p.times) passes in
  let verdicts = List.init n_items (fun i -> minimum (List.map (fun a -> a.(i)) times)) in
  let wall = List.fold_left ( +. ) 0. verdicts in
  record "fastest pass %.4f s, sum of fastest verdicts %.4f s" (minimum walls) wall;
  let tail_v, tail_pct, n = tail verdicts in
  record "verdict_tail_ms is the p%.2f of %d verdicts" tail_pct n;
  let top = (Gc.quick_stat ()).top_heap_words in
  [
    ("setup_s", setup_s, "s");
    ("wall_s", wall, "s");
    ("verdicts_per_s", float_of_int n_items /. wall, "1/s");
    ("verdict_p50_ms", 1e3 *. median verdicts, "ms");
    ("verdict_tail_ms", 1e3 *. tail_v, "ms");
    ("host_heap_mb", float_of_int (top * (Sys.word_size / 8)) /. 1e6, "MB");
  ]

(* Exact counters reported as per-layer metrics; the others only enter
   the fingerprint. *)
let exact_metric (k, v) =
  match k with
  | "machine.ticks" | "machine.stores" | "litmus.outcomes" | "verdict.holds" -> None
  | "heap.peak_words" -> Some (k, float_of_int v, "words")
  | "machine.max_residency" -> Some (k, float_of_int v, "ticks")
  | _ -> Some (k, float_of_int v, "count")

(* A workload's per-layer metrics: medians over its traced rounds, and
   its exact counters. *)
let per_layer w (prepared : prepared) ~counters rounds =
  let med f = median (List.map f rounds) in
  let layer =
    List.map
      (fun (name, _, unit) ->
        ( name,
          med (fun r ->
              let _, v, _ =
                List.find (fun (n, _, _) -> n = name)
                  (w.layer_metrics (r.traced.layer @ r.direct))
              in
              v),
          unit ))
      (let r = List.hd rounds in
       w.layer_metrics (r.traced.layer @ r.direct))
  in
  let phases =
    if prepared.tasks <> [] then
      List.map
        (fun name ->
          ( name ^ "_s",
            med (fun r -> Option.value (List.assoc_opt name r.phase_s) ~default:0.),
            "s" ))
        [ "explore.expand"; "explore.canon"; "explore.intern"; "explore.sleep" ]
    else []
  in
  let pool =
    if w.pool_pass then
      [
        ( "pool.efficiency_j2",
          med (fun r ->
              let seq, par = Option.get r.pool_times in
              seq /. (2. *. par)),
          "ratio" );
      ]
    else []
  in
  layer @ phases @ List.filter_map exact_metric counters @ pool

(* Traced rounds of one workload while another, as long as the last,
   still ends within [budget] seconds, and at least one. With [plain],
   each round also makes an untraced pass, which runs first in every
   other round. *)
let traced_rounds w (prepared : prepared) prof ~plain ~budget =
  let items = prepared.items in
  let pool = if w.pool_pass then Some (Pool.create ~domains:2 ()) else None in
  let last = ref [] in
  let n = ref 0 in
  let rounds =
    passes ~budget ~min_passes:1 (fun () ->
        let flip = !n mod 2 = 1 in
        incr n;
        let pair a b =
          if flip then
            let y = b () in
            (a (), y)
          else
            let x = a () in
            (x, b ())
        in
        let traced () = Span.with_span prof "pass" (fun () -> run_pass prof items) in
        let plain, traced =
          if plain then
            let p, t = pair (fun () -> run_pass Span.disabled items) traced in
            (Some p, t)
          else (None, traced ())
        in
        let totals = Span.phase_totals prof in
        let direct =
          if prepared.tasks = [] then []
          else
            Span.with_span prof "direct pass" (fun () ->
                List.fold_left (fun acc (it : item) -> sum_layer acc (it.direct prof)) [] items)
        in
        let phase_s =
          List.map
            (fun (t : Span.phase_total) ->
              let before =
                List.find_opt (fun (b : Span.phase_total) -> b.pt_name = t.pt_name) !last
                |> Option.fold ~none:0 ~some:(fun (b : Span.phase_total) -> b.pt_ns)
              in
              (t.pt_name, float_of_int (t.pt_ns - before) *. 1e-9))
            totals
        in
        last := totals;
        let pool_times =
          Option.map
            (fun pool ->
              let check pool () =
                snd (timed (fun () -> Litmus_fanout.check ?pool ~oracle:Both prepared.tasks))
              in
              pair (check None) (check (Some pool)))
            pool
        in
        { plain; traced; direct; phase_s; pool_times })
  in
  Option.iter Pool.shutdown pool;
  rounds

let write_chrome prof path =
  let oc = open_out path in
  let wr = Chrome.to_channel oc in
  Span.to_chrome prof ~pid:1 wr;
  Chrome.close wr;
  close_out oc;
  record "chrome trace %s" path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let size = ref Full and nproc = ref "unknown" and chrome = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ( "--size",
        Arg.Symbol ([ "full"; "smoke" ], fun s -> size := if s = "smoke" then Smoke else Full),
        " input size" );
      ("--nproc", Arg.Set_string nproc, "N processors available (recorded only)");
      ("--chrome", Arg.Set_string chrome, "PATH Chrome trace of a traced run");
    ]
  in
  let usage = "bench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("bench: unknown workload " ^ !workload ^ "; one of "
          ^ String.concat ", " (List.map (fun w -> w.wname) workloads));
        exit 2
  in
  let traced = !trace = 1 in
  record "perfbench workload=%s seed=%d seconds=%g trace=%d size=%s" w.wname !seed
    !seconds !trace
    (match !size with Full -> "full" | Smoke -> "smoke");
  record "host ocaml=%s nproc=%s recommended_domain_count=%d" Sys.ocaml_version !nproc
    (Domain.recommended_domain_count ());
  let prepared, setup0 = set_up w !size ~seed:!seed in
  let items = prepared.items in
  let n_items = List.length items in
  let prof = if traced then Span.create () else Span.disabled in
  let setups = ref [ setup0 ] in
  (* A traced run reports every per-layer metric, also those of layers
     its own workload does not call. Those come from companions: one
     traced round of each other layer source on the same seed, with a
     profiler of its own, made first and counted in the run's time. *)
  let t0 = now () in
  let companions =
    if not traced then []
    else
      List.filter_map
        (fun c ->
          if c.wname = w.wname then None
          else begin
            let p = c.prepare !size ~seed:!seed in
            p.warm ();
            Some (c, p, traced_rounds c p (Span.create ()) ~plain:false ~budget:0.)
          end)
        layer_sources
  in
  if companions <> [] then Gc.compact ();
  let untraced, rounds =
    if not traced then
      (* Enough passes for a tail with 10 timings above it. *)
      let min_passes = max 3 ((11 + n_items - 1) / n_items) in
      (* The first pass fills the heap and caches; it is checked but not timed. *)
      let first = run_pass Span.disabled items in
      (* Set-up is measured again before each timed pass, so that its
         median spans the run's host noise like the passes do; those
         inputs are dropped. Each timed pass starts from a fully
         collected heap. *)
      let pass () =
        setups := snd (set_up w !size ~seed:!seed) :: !setups;
        Gc.full_major ();
        run_pass Span.disabled items
      in
      (first :: passes ~budget:!seconds ~min_passes pass, [])
    else ([], traced_rounds w prepared prof ~plain:true ~budget:(!seconds -. (now () -. t0)))
  in
  (* Correctness, per workload: failures by name, and exact counters
     repeating over its passes. *)
  let check (p : prepared) passes =
    let failures = List.concat_map (fun p -> p.failures) passes in
    List.iter (fun (name, why, _) -> record "failed %s: %s" name why) failures;
    let counters = (List.hd passes).counters in
    let repeat = List.for_all (fun p -> p.counters = counters) passes in
    if not repeat then record "exact counters differ between passes of one seed";
    ( List.length p.items * List.length passes,
      List.length failures,
      counters,
      repeat && not (List.exists (fun (_, _, incorrect) -> incorrect) failures) )
  in
  let all =
    untraced @ List.concat_map (fun r -> Option.to_list r.plain @ [ r.traced ]) rounds
  in
  let attempted, failed, counters, correct = check prepared all in
  record "exact %s"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters));
  record "fingerprint %s" (fingerprint counters);
  record "passes %d of %d items" (List.length all) n_items;
  let companions =
    List.map
      (fun (c, p, rounds) ->
        let n, f, counters, ok = check p (List.map (fun r -> r.traced) rounds) in
        record "companion %s exact %s" c.wname
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters));
        record "companion %s fingerprint %s" c.wname (fingerprint counters);
        ((c, p, rounds, counters), (n, f, ok)))
      companions
  in
  let attempted, failed, correct =
    List.fold_left
      (fun (a, f, c) (_, (n, f', ok)) -> (a + n, f + f', c && ok))
      (attempted, failed, correct) companions
  in
  let metrics =
    if not traced then begin
      record "setup_s is the median of %d set-up measurements" (List.length !setups);
      end_to_end ~setup_s:(median !setups) ~n_items (List.tl untraced)
    end
    else begin
      List.iter
        (fun (name, calls, total, self) ->
          record "span %s calls=%d total_s=%.6f self_s=%.6f" name calls
            (float_of_int total *. 1e-9) (float_of_int self *. 1e-9))
        (self_times prof);
      if !chrome <> "" then write_chrome prof !chrome;
      let overhead r = r.traced.wall /. (Option.get r.plain).wall in
      let own =
        ("trace.overhead_share", median (List.map overhead rounds) -. 1., "fraction")
        :: ("failed_share", float_of_int failed /. float_of_int attempted, "fraction")
        :: per_layer w prepared ~counters rounds
      in
      (* A metric the run's own workload gives is never taken from a
         companion. *)
      List.fold_left
        (fun acc ((c, p, rounds, counters), _) ->
          let fresh (name, _, _) = not (List.exists (fun (n, _, _) -> n = name) acc) in
          acc @ List.filter fresh (per_layer c p ~counters rounds))
        own companions
    end
  in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string line)
