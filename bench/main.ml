(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) plus the Section 6 measurements, on the tsim
   abstract machine. Absolute numbers are simulation-scale; the shapes
   (who wins, by what factor, where curves cross) are the reproduction
   target. See EXPERIMENTS.md for paper-vs-measured notes.

   Usage: main.exe [EXPERIMENT]... [--paper] [--seed N] [--csv DIR]
                   [--json PATH] [--trace PATH] [--profile PATH] [-j N]
   Default runs every experiment at quick scale. --json writes every
   experiment's data series (and the residency histograms) as one
   machine-readable document; --trace writes a Chrome trace_event
   timeline (plus a .jsonl event log) of one TBTSO residency run;
   --profile writes a Chrome trace of the harness's own spans (one
   per experiment, pool chunks on their domain tracks) plus a phase
   table — the simulated-time --trace and the wall-clock --profile
   are different clocks on purpose. An unknown option, a missing option
   value or a non-integer --seed prints usage and exits 2. *)

open Tsim
open Tbtso_workload
module Chart = Tbtso_workload.Chart
module Json = Tbtso_obs.Json
module Pool = Tbtso_par.Pool
open Tbtso_hwmodel

let pf fmt = Printf.printf fmt

let hline () = pf "%s\n" (String.make 78 '-')

let header title =
  pf "\n";
  hline ();
  pf "%s\n" title;
  hline ()

type mode = {
  paper : bool;
  seed : int;
  csv : string option;
  json : string option;
  trace : string option;
  pool : Pool.t;
      (* Worker pool the sweep-shaped experiments (residency, fig7,
         abl_delta) fan their independent configurations over; a pool of
         one runs them in-line. Results are consumed in submission
         order, so the report is identical at any -j. *)
}

(* JSON accumulation: while an experiment runs, its tabular series (the
   same rows --csv writes) and any extra structured payloads collect
   here; the driver flushes them into one record per experiment. *)
let cur_series : Json.t list ref = ref []
let cur_extra : (string * Json.t) list ref = ref []

let record_series m ~name ~header rows =
  if m.json <> None then
    cur_series :=
      Json.obj
        [
          ("name", Json.String name);
          ("header", Json.List (List.map (fun h -> Json.String h) header));
          ( "rows",
            Json.List
              (List.map
                 (fun r -> Json.List (List.map (fun c -> Json.String c) r))
                 rows) );
        ]
      :: !cur_series

let add_json_field m key v =
  if m.json <> None then cur_extra := (key, v) :: !cur_extra

(* Emit a figure's data series when --csv DIR was given; always feed the
   same rows to the JSON document when --json is active. *)
let maybe_csv m ~name ~header rows =
  record_series m ~name ~header rows;
  match m.csv with
  | Some dir ->
      Chart.write_csv ~dir ~name ~header rows;
      pf "(wrote %s/%s.csv)\n" dir name
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Figure 4: time to system-wide quiescence vs #quiescing threads      *)
(* ------------------------------------------------------------------ *)

let fig4 m =
  header
    "Figure 4: time to reach system-wide quiescence (hardware model, log-scale in paper)";
  let q = Quiesce.create ~seed:(Int64.of_int m.seed) () in
  let rounds = if m.paper then 2000 else 300 in
  pf "%-10s %20s %24s\n" "threads" "quiesce avg (us)" "normal atomic avg (us)";
  List.iter
    (fun threads ->
      let lq = Quiesce.avg_quiesce_latency_ns q ~threads ~rounds /. 1_000.0 in
      let la = Quiesce.avg_atomic_latency_ns q ~threads ~rounds:(rounds * 10) /. 1_000.0 in
      pf "%-10d %20.2f %24.4f\n" threads lq la)
    [ 1; 2; 5; 10; 20; 40; 60; 80 ];
  let rows =
    List.map
      (fun threads ->
        ( Printf.sprintf "%d threads" threads,
          Quiesce.avg_quiesce_latency_ns q ~threads ~rounds /. 1_000.0 ))
      [ 1; 5; 20; 80 ]
  in
  pf "%s" (Chart.bars_log ~unit:" us" rows);
  maybe_csv m ~name:"fig4" ~header:[ "threads"; "quiesce_us"; "atomic_us" ]
    (List.map
       (fun threads ->
         [
           string_of_int threads;
           Printf.sprintf "%.3f" (Quiesce.avg_quiesce_latency_ns q ~threads ~rounds /. 1_000.0);
           Printf.sprintf "%.4f"
             (Quiesce.avg_atomic_latency_ns q ~threads ~rounds:(rounds * 10) /. 1_000.0);
         ])
       [ 1; 2; 5; 10; 20; 40; 60; 80 ]);
  pf "shape check: quiescence serializes (~linear in threads); ~600x a normal atomic.\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: CDF of store-buffering times                              *)
(* ------------------------------------------------------------------ *)

let fig5 m =
  header "Figure 5: cumulative distribution of store-buffering times (ns)";
  let n = if m.paper then 2_000_000 else 200_000 in
  let ps = [ 0.5; 0.9; 0.99; 0.999; 0.9999 ] in
  pf "%-28s %10s %10s %10s %10s %10s\n" "placement" "p50" "p90" "p99" "p99.9" "p99.99";
  List.iter
    (fun loaded ->
      List.iter
        (fun placement ->
          let samples =
            Storebuf_timing.sample_many
              ~seed:(Int64.of_int (m.seed + 13))
              placement ~loaded ~n
          in
          let pcts = Storebuf_timing.percentiles samples ps in
          pf "%-28s"
            (Printf.sprintf "%s%s"
               (Storebuf_timing.placement_name placement)
               (if loaded then " +STREAM" else ""));
          List.iter (fun (_, v) -> pf " %10.0f" v) pcts;
          pf "\n")
        Storebuf_timing.all_placements)
    [ false; true ];
  (* Cross-validation: the same writer/reader microbenchmark on the
     abstract machine itself. *)
  let rounds = if m.paper then 3000 else 500 in
  let samples = Storebuf_timing.measure_on_machine ~rounds ~extra_reader_distance:5 () in
  let pcts = Storebuf_timing.percentiles samples ps in
  pf "%-28s" "tsim machine (measured)";
  List.iter (fun (_, v) -> pf " %10.0f" v) pcts;
  pf "\n";
  maybe_csv m ~name:"fig5"
    ~header:[ "placement"; "loaded"; "p50"; "p90"; "p99"; "p99.9"; "p99.99" ]
    (List.concat_map
       (fun loaded ->
         List.map
           (fun placement ->
             let samples =
               Storebuf_timing.sample_many
                 ~seed:(Int64.of_int (m.seed + 13))
                 placement ~loaded ~n
             in
             Storebuf_timing.placement_name placement
             :: string_of_bool loaded
             :: List.map (fun (_, v) -> Printf.sprintf "%.0f" v)
                  (Storebuf_timing.percentiles samples ps))
           Storebuf_timing.all_placements)
       [ false; true ]);
  pf "shape check: 99.9%% of stores visible within ~10us; medians are ~100s of ns.\n"

(* ------------------------------------------------------------------ *)
(* Figure 6: hash-table throughput                                     *)
(* ------------------------------------------------------------------ *)

let smr_specs m =
  let r = if m.paper then 2048 else 512 in
  (* The OS-adapted variant needs run_ticks >> interrupt period for its
     visibility horizon to advance within the measurement window; periods
     scale with the run length (paper: 4 ms period vs 10 s runs). *)
  let os_period = if m.paper then Config.ms 1 else Config.us 200 in
  [
    (Smr_methods.S_hp { r }, None);
    (Smr_methods.S_ffhp { r; bound = `Delta (Config.us 500) }, None);
    (Smr_methods.S_ffhp { r; bound = `Os_adapted }, Some os_period);
    (Smr_methods.S_rcu { period = Config.ms 2 }, None);
    (Smr_methods.S_dta { batch = 1 }, None);
    (Smr_methods.S_stacktrack { capacity = 48 }, None);
  ]

let fig6_config m ~costs interrupt =
  let base =
    { Config.default with Config.cache_bits = 8; seed = Int64.of_int m.seed; costs }
  in
  match interrupt with
  | None -> base
  | Some period -> { base with Config.interrupt_period = Some period }

let fig6_generic m ~platform ~costs =
  header
    (Printf.sprintf "Figure 6 (%s): hash-table throughput (Mops per simulated second)"
       platform);
  let thread_counts =
    if platform = "Haswell" then [ 1; 2; 4; 8 ]
    else if m.paper then [ 1; 2; 4; 8; 16; 32; 64 ]
    else [ 1; 2; 4; 8 ]
  in
  let chains = if m.paper then [ 4; 256 ] else [ 4; 64 ] in
  let buckets = if m.paper then 256 else 128 in
  let run_ticks = if m.paper then 1_500_000 else 400_000 in
  let csv_rows = ref [] in
  List.iter
    (fun avg_chain ->
      List.iter
        (fun mix ->
          let mix_name =
            match mix with
            | Hashtable_bench.Read_only -> "read-only"
            | Hashtable_bench.Read_write -> "3/4 readers + 1/4 updaters"
          in
          pf "\n[L=%d, %s] — reader Mop/s per cell%s\n" avg_chain mix_name
            (match mix with
            | Hashtable_bench.Read_write -> "; updater Mop/s after '|'"
            | Hashtable_bench.Read_only -> "");
          pf "%-14s" "method";
          List.iter (fun n -> pf " %8s" (Printf.sprintf "n=%d" n)) thread_counts;
          pf "\n";
          let summary = ref [] in
          List.iter
            (fun (spec, interrupt) ->
              pf "%-14s" (Smr_methods.name spec);
              let upd = Buffer.create 64 in
              List.iter
                (fun nthreads ->
                  let p =
                    {
                      Hashtable_bench.spec;
                      config = fig6_config m ~costs interrupt;
                      nthreads;
                      mix;
                      buckets;
                      avg_chain;
                      run_ticks;
                      stall = None;
                      seed = m.seed;
                    }
                  in
                  let r = Hashtable_bench.run p in
                  pf " %8.2f" (Hashtable_bench.reader_mops r);
                  csv_rows :=
                    [
                      string_of_int avg_chain;
                      (match mix with
                      | Hashtable_bench.Read_only -> "read-only"
                      | Hashtable_bench.Read_write -> "read-write");
                      Smr_methods.name spec;
                      string_of_int nthreads;
                      Printf.sprintf "%.4f" (Hashtable_bench.reader_mops r);
                      Printf.sprintf "%.4f" (Hashtable_bench.updater_mops r);
                    ]
                    :: !csv_rows;
                  if nthreads = List.nth thread_counts (List.length thread_counts - 1) then
                    summary :=
                      (Smr_methods.name spec, Hashtable_bench.reader_mops r) :: !summary;
                  Buffer.add_string upd
                    (Printf.sprintf " %8.3f" (Hashtable_bench.updater_mops r)))
                thread_counts;
              (match mix with
              | Hashtable_bench.Read_write -> pf "  |%s" (Buffer.contents upd)
              | Hashtable_bench.Read_only -> ());
              pf "\n%!")
            (smr_specs m);
          pf "reader throughput at the largest thread count:\n%s"
            (Chart.bars ~unit:" Mop/s" (List.rev !summary)))
        [ Hashtable_bench.Read_only; Hashtable_bench.Read_write ])
    chains;
  maybe_csv m
    ~name:(Printf.sprintf "fig6_%s" (String.lowercase_ascii platform))
    ~header:[ "L"; "mix"; "method"; "threads"; "reader_mops"; "updater_mops" ]
    (List.rev !csv_rows);
  pf
    "\nshape check: FFHP ~ RCU, both above HP (fence tax) and DTA/StackTrack;\n\
     StackTrack collapses on long chains (capacity splits); DTA updaters collapse\n\
     as thread count grows (per-retire all-thread timestamp scan).\n"

let fig6 m = fig6_generic m ~platform:"Westmere-EX" ~costs:Config.default_costs

let fig6_haswell m =
  (* The paper's second platform (reported in text): cheaper misses make
     the fence tax loom larger, widening the HP gap on short chains. *)
  fig6_generic m ~platform:"Haswell" ~costs:Config.haswell_costs

(* ------------------------------------------------------------------ *)
(* Figure 7: retired-node memory consumption vs reader stall           *)
(* ------------------------------------------------------------------ *)

let fig7 m =
  header "Figure 7: peak heap consumption (words) vs reader stall time";
  let r = 256 in
  let specs =
    [
      Smr_methods.S_hp { r };
      Smr_methods.S_ffhp { r; bound = `Delta (Config.us 500) };
      Smr_methods.S_ffhp { r; bound = `Delta (Config.ms 4) };
      Smr_methods.S_rcu { period = Config.ms 2 };
    ]
  in
  let stalls_ms = if m.paper then [ 0; 1; 4; 16; 64; 256 ] else [ 0; 1; 4; 16 ] in
  let base_ticks = if m.paper then 1_500_000 else 600_000 in
  let last_points = ref [] in
  let csv_rows = ref [] in
  pf "%-14s" "method";
  List.iter (fun s -> pf " %12s" (Printf.sprintf "s=%dms" s)) stalls_ms;
  pf "\n";
  (* One independent simulator run per (method, stall) cell: fan the
     whole grid over the pool, then print it row-major. *)
  let grid =
    List.concat_map (fun spec -> List.map (fun s -> (spec, s)) stalls_ms) specs
  in
  let cells =
    Pool.map_list m.pool
      (fun (spec, stall_ms) ->
        (* The run must cover the whole stall so updaters keep
           retiring while the reader is out (the growth the figure
           measures); all methods see identical windows per column. *)
        let run_ticks = base_ticks + Config.ms stall_ms in
        let stall =
          if stall_ms = 0 then None
          else
            Some { Hashtable_bench.at = base_ticks / 4; duration = Config.ms stall_ms }
        in
        let p =
          {
            Hashtable_bench.spec;
            config =
              { Config.default with Config.cache_bits = 8; seed = Int64.of_int m.seed };
            nthreads = 4;
            mix = Hashtable_bench.Read_write;
            buckets = 128;
            avg_chain = 4;
            run_ticks;
            stall;
            seed = m.seed;
          }
        in
        (Hashtable_bench.run p).peak_heap_words)
      grid
  in
  let rest = ref (List.combine grid cells) in
  List.iter
    (fun spec ->
      pf "%-14s" (Smr_methods.name spec);
      List.iter
        (fun stall_ms ->
          let peak =
            match !rest with
            | ((spec', stall'), peak) :: tl ->
                assert (spec' == spec && stall' = stall_ms);
                rest := tl;
                peak
            | [] -> assert false
          in
          pf " %12d" peak;
          csv_rows :=
            [ Smr_methods.name spec; string_of_int stall_ms; string_of_int peak ]
            :: !csv_rows;
          last_points := (Smr_methods.name spec, float_of_int peak) :: !last_points)
        stalls_ms;
      pf "\n%!")
    specs;
  let biggest_stall = List.nth stalls_ms (List.length stalls_ms - 1) in
  pf "\npeak memory at s=%dms:\n" biggest_stall;
  (* Keep only each method's final (largest-stall) sample, oldest first. *)
  let seen = Hashtbl.create 8 in
  let finals =
    List.filter
      (fun (name, _) ->
        if Hashtbl.mem seen name then false
        else begin
          Hashtbl.add seen name ();
          true
        end)
      !last_points
  in
  pf "%s" (Chart.bars_log ~unit:" words" (List.rev finals));
  maybe_csv m ~name:"fig7" ~header:[ "method"; "stall_ms"; "peak_words" ] (List.rev !csv_rows);
  pf
    "\nshape check: HP flat; FFHP slightly above HP (Delta-deferred tail); RCU grows\n\
     with stall time because a stalled reader blocks every grace period.\n"

(* ------------------------------------------------------------------ *)
(* Figure 8: biased-lock throughput normalized to pthreads             *)
(* ------------------------------------------------------------------ *)

let fig8 m =
  header "Figure 8: biased-lock throughput normalized to the pthread baseline";
  let run_ticks = if m.paper then 8_000_000 else 2_500_000 in
  let csv_rows = ref [] in
  let kinds =
    [
      Lock_bench.L_safepoint;
      Lock_bench.L_ffbl { delta = Config.us 500; echo = true };
      Lock_bench.L_ffbl { delta = Config.us 500; echo = false };
      Lock_bench.L_ffbl_adapted { period = Config.ms 4; echo = true };
      Lock_bench.L_ffbl { delta = Config.ms 4; echo = false };
    ]
  in
  List.iter
    (fun pattern ->
      pf "\n[pattern: %s]\n" pattern.Lock_bench.pattern_name;
      let base =
        Lock_bench.run
          {
            Lock_bench.kind = Lock_bench.L_pthread;
            pattern;
            config = { Config.default with Config.seed = Int64.of_int m.seed };
            run_ticks;
            cs_ticks = 60;
            seed = m.seed;
          }
      in
      pf "%-24s %12s %12s %14s %12s\n" "lock" "owner/pthr" "nonown/pthr" "owner acq/ms"
        "echo cuts";
      pf "%-24s %12.2f %12.2f %14.1f %12s\n" "pthread" 1.0 1.0 (Lock_bench.owner_rate base)
        "-";
      let bars_rows = ref [ ("pthread", 1.0) ] in
      List.iter
        (fun kind ->
          let r =
            Lock_bench.run
              {
                Lock_bench.kind;
                pattern;
                config = { Config.default with Config.seed = Int64.of_int m.seed };
                run_ticks;
                cs_ticks = 60;
                seed = m.seed;
              }
          in
          let norm a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b in
          pf "%-24s %12.2f %12.2f %14.1f %12d\n" r.kind_name
            (norm r.owner_acquisitions base.owner_acquisitions)
            (norm r.nonowner_acquisitions base.nonowner_acquisitions)
            (Lock_bench.owner_rate r) r.echo_cuts;
          csv_rows :=
            [
              pattern.Lock_bench.pattern_name;
              r.kind_name;
              Printf.sprintf "%.4f" (norm r.owner_acquisitions base.owner_acquisitions);
              Printf.sprintf "%.4f" (norm r.nonowner_acquisitions base.nonowner_acquisitions);
            ]
            :: !csv_rows;
          bars_rows :=
            (r.kind_name, norm r.nonowner_acquisitions base.nonowner_acquisitions)
            :: !bars_rows)
        kinds;
      pf "non-owner throughput, normalized:\n%s%!"
        (Chart.bars ~unit:"x" (List.rev !bars_rows)))
    (Lock_bench.paper_patterns ());
  maybe_csv m ~name:"fig8" ~header:[ "pattern"; "lock"; "owner_norm"; "nonowner_norm" ]
    (List.rev !csv_rows);
  pf
    "\nshape check: biased owners beat pthread when the non-owner is rare; FFBL\n\
     without echo collapses as non-owner frequency rises; under owner stalls all\n\
     biased locks lose to pthread but FFBL (bounded Delta wait) far outperforms\n\
     the safe-point lock (which blocks for the whole stall).\n"

(* ------------------------------------------------------------------ *)
(* In-text tables                                                      *)
(* ------------------------------------------------------------------ *)

let tab_retire m =
  header "Section 4.2.1 table: retirement rate and R sizing";
  let run_ticks = if m.paper then 2_000_000 else 600_000 in
  let p =
    {
      Hashtable_bench.spec =
        Smr_methods.S_ffhp { r = 2048; bound = `Delta (Config.us 500) };
      config = { Config.default with Config.cache_bits = 8; seed = Int64.of_int m.seed };
      nthreads = 4;
      mix = Hashtable_bench.Read_write;
      buckets = 128;
      avg_chain = 4;
      run_ticks;
      stall = None;
      seed = m.seed;
    }
  in
  let r = Hashtable_bench.run p in
  (* Each updater alternates insert/delete: retirements ~ ops/2. *)
  let retires = r.updater_ops / 2 in
  let per_thread_per_ms =
    float_of_int retires
    /. float_of_int r.updater_threads
    /. (float_of_int run_ticks /. float_of_int (Config.ms 1))
  in
  pf "measured retirement rate: %.0f nodes/ms per updater thread\n" per_thread_per_ms;
  List.iter
    (fun delta_ms ->
      let needed = 2.0 *. per_thread_per_ms *. float_of_int delta_ms in
      pf "Delta=%2d ms -> R = rate x Delta x 2 = %8.0f nodes (%.2f MB at 64B/node)\n"
        delta_ms needed
        (needed *. 64.0 /. 1_048_576.0))
    [ 1; 4; 10 ];
  pf
    "(paper: 1300 nodes/ms/thread; R = 1300 x 10 x 2 = 26000 ~ 2 MB; guarantees a\n\
     reclaim() frees >= R/2 nodes.)\n"

let tab_quiesce m =
  header "Section 6.1.2 table: worst-case quiescence and Delta extrapolation";
  let q = Quiesce.create ~seed:(Int64.of_int m.seed) () in
  pf "%-10s %24s %20s\n" "threads P" "worst-case quiesce (us)" "Delta estimate (us)";
  List.iter
    (fun p ->
      pf "%-10d %24.0f %20.0f\n" p
        (Quiesce.worst_case_quiescence_ns q ~threads:p /. 1_000.0)
        (Quiesce.estimate_delta_us q ~threads:p))
    [ 10; 20; 40; 80 ];
  pf "(paper: 80 x 5us = 400us worst case, extrapolated Delta = 500us ~ 6us/thread.)\n";
  (* Operational check of the Section 6.1 design on the abstract machine
     itself: with realistic drains the bail-out never fires; with
     pathological (starving) drains it fires and still bounds
     visibility. *)
  let run_hw drain label =
    let cfg =
      {
        (Config.with_drain drain
           (Config.with_consistency
              (Config.Tbtso_hw { tau = Config.us 100; quiesce = Config.us 5 })
              Config.default))
        with
        Config.seed = Int64.of_int m.seed;
      }
    in
    let machine = Machine.create cfg in
    let g = Machine.alloc_global machine 64 in
    for i = 0 to 3 do
      ignore
        (Machine.spawn machine (fun () ->
             while not (Sim.stopping ()) do
               Sim.store (g + (i * 8)) 1;
               ignore (Sim.load (g + (((i + 1) mod 4) * 8)));
               Sim.work 20
             done))
    done;
    let run_ticks = Config.ms 2 in
    ignore (Machine.run ~stop_when:(fun mm -> Machine.now mm >= run_ticks) machine);
    Machine.request_stop machine;
    ignore (Machine.run ~max_ticks:run_ticks machine);
    Machine.kill_remaining machine;
    pf "operational (tau=100us): %-28s %5d bail-outs in 2 ms-sim\n" label
      (Machine.quiescence_events machine)
  in
  run_hw (Config.Drain_geometric { p = 0.5; cap = 200 }) "normal drains";
  run_hw Config.Drain_adversarial "pathological starvation"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let abl_echo m =
  header "Ablation: echoing vs non-owner arrival rate (FFBL)";
  let run_ticks = if m.paper then 6_000_000 else 2_000_000 in
  let gaps = [ Config.ms 1; Config.us 250; Config.us 60; Config.us 15; Config.us 4 ] in
  pf "%-16s %14s %14s %14s %14s\n" "nonowner gap" "echo own/ms" "echo non/ms"
    "noecho own/ms" "noecho non/ms";
  List.iter
    (fun gap ->
      let pattern =
        {
          Lock_bench.pattern_name = "sweep";
          owner_gap = 300;
          nonowner_gap = gap;
          owner_stall_every = None;
          owner_stall = 0;
        }
      in
      let run echo =
        Lock_bench.run
          {
            Lock_bench.kind = Lock_bench.L_ffbl { delta = Config.us 500; echo };
            pattern;
            config = { Config.default with Config.seed = Int64.of_int m.seed };
            run_ticks;
            cs_ticks = 60;
            seed = m.seed;
          }
      in
      let e = run true and n = run false in
      pf "%-16s %14.1f %14.1f %14.1f %14.1f\n"
        (Printf.sprintf "%d ticks" gap)
        (Lock_bench.owner_rate e) (Lock_bench.nonowner_rate e) (Lock_bench.owner_rate n)
        (Lock_bench.nonowner_rate n))
    gaps;
  pf "shape check: without echoing, throughput collapses as the non-owner speeds up.\n"

let abl_delta m =
  header "Ablation: FFHP sensitivity to Delta (updater throughput and memory)";
  let run_ticks = if m.paper then 4_000_000 else 2_500_000 in
  (* Section 4.2.1's sizing rule: R must exceed 2 x retire-rate x Delta
     for reclamation to stay off the critical path; size R for the
     largest Delta in the sweep so the claim under test is the paper's. *)
  pf "R = 16384 for every row (sized for Delta = 16 ms per Section 4.2.1)\n";
  pf "%-14s %16s %16s %12s\n" "Delta" "updater Mop/s" "reader Mop/s" "peak words";
  (* Each Delta is an independent simulator run: sweep them across the
     pool and print the rows in sweep order. *)
  let rows =
    Pool.map_list m.pool
      (fun (label, delta) ->
        let p =
          {
            Hashtable_bench.spec = Smr_methods.S_ffhp { r = 16384; bound = `Delta delta };
            config = { Config.default with Config.cache_bits = 8; seed = Int64.of_int m.seed };
            nthreads = 4;
            mix = Hashtable_bench.Read_write;
            buckets = 128;
            avg_chain = 4;
            run_ticks;
            stall = None;
            seed = m.seed;
          }
        in
        (label, Hashtable_bench.run p))
      [
        ("0.05 ms", Config.us 50);
        ("0.5 ms", Config.us 500);
        ("4 ms", Config.ms 4);
        ("16 ms", Config.ms 16);
      ]
  in
  List.iter
    (fun (label, r) ->
      pf "%-14s %16.3f %16.2f %12d\n" label (Hashtable_bench.updater_mops r)
        (Hashtable_bench.reader_mops r) r.peak_heap_words)
    rows;
  pf "shape check: little throughput impact while R gives headroom (Section 7.1.1).\n"

let abl_r m =
  header "Ablation: FFHP R sizing (Section 4.2.1 regimes)";
  let run_ticks = if m.paper then 1_500_000 else 600_000 in
  let nthreads = 4 in
  let h = nthreads * 3 in
  pf "H = %d hazard pointers; Delta = 0.5 ms-sim\n" h;
  pf "%-14s %16s %16s %12s\n" "R" "updater Mop/s" "reader Mop/s" "peak words";
  List.iter
    (fun r_max ->
      let p =
        {
          Hashtable_bench.spec =
            Smr_methods.S_ffhp { r = r_max; bound = `Delta (Config.us 500) };
          config = { Config.default with Config.cache_bits = 8; seed = Int64.of_int m.seed };
          nthreads;
          mix = Hashtable_bench.Read_write;
          buckets = 128;
          avg_chain = 4;
          run_ticks;
          stall = None;
          seed = m.seed;
        }
      in
      let res = Hashtable_bench.run p in
      pf "%-14d %16.3f %16.2f %12d\n" r_max (Hashtable_bench.updater_mops res)
        (Hashtable_bench.reader_mops res) res.peak_heap_words)
    [ h + 4; h + 32; 128; 512; 2048 ];
  pf
    "shape check: R barely above H (the Delta > R > H constrained regime) throttles\n\
     updaters on reclaim waits; ample R costs only memory.\n"

let abl_adapt m =
  header "Ablation: TBTSO Delta-wait vs adapted x86 core-array scan (slow-path cost)";
  let run_ticks = if m.paper then 4_000_000 else 2_500_000 in
  let run spec interrupt =
    let config =
      {
        Config.default with
        Config.cache_bits = 8;
        seed = Int64.of_int m.seed;
        interrupt_period = interrupt;
      }
    in
    Hashtable_bench.run
      {
        Hashtable_bench.spec;
        config;
        nthreads = 4;
        mix = Hashtable_bench.Read_write;
        buckets = 128;
        avg_chain = 4;
        run_ticks;
        stall = None;
        seed = m.seed;
      }
  in
  pf "%-18s %16s %16s %12s\n" "variant" "updater Mop/s" "reader Mop/s" "peak words";
  (* R sized for the coarser adapted bound (Section 4.2.1 rule). *)
  let t = run (Smr_methods.S_ffhp { r = 8192; bound = `Delta (Config.us 500) }) None in
  pf "%-18s %16.3f %16.2f %12d\n" "TBTSO[0.5ms]" (Hashtable_bench.updater_mops t)
    (Hashtable_bench.reader_mops t) t.peak_heap_words;
  let a = run (Smr_methods.S_ffhp { r = 8192; bound = `Os_adapted }) (Some (Config.ms 4)) in
  pf "%-18s %16.3f %16.2f %12d\n" "adapted[4ms]" (Hashtable_bench.updater_mops a)
    (Hashtable_bench.reader_mops a) a.peak_heap_words;
  pf
    "shape check: the adapted variant's extra slow-path work (scanning the per-core\n\
     time array) and coarser Delta cost little (Section 7.1.1).\n"

(* ------------------------------------------------------------------ *)
(* Extension: fence-free passive reader-writer lock                    *)
(* ------------------------------------------------------------------ *)

let ext_prw m =
  header "Extension: fence-free passive rwlock vs atomic rwlock (reader throughput)";
  let open Tbtso_core in
  let run_ticks = if m.paper then 4_000_000 else 1_500_000 in
  let nreaders = 4 in
  let writer_gap = Config.ms 1 in
  let bench make =
    let config = { Config.default with Config.seed = Int64.of_int m.seed } in
    let machine = Machine.create config in
    let rlock, runlock, wlock, wunlock = make machine in
    let reads = ref 0 and writes = ref 0 in
    for r = 0 to nreaders - 1 do
      ignore
        (Machine.spawn machine (fun () ->
             while not (Sim.stopping ()) do
               rlock r;
               Sim.work 40;
               runlock r;
               incr reads;
               Sim.work 20
             done))
    done;
    ignore
      (Machine.spawn machine (fun () ->
           let rng = Rng.create (Int64.of_int (m.seed + 5)) in
           while not (Sim.stopping ()) do
             wlock ();
             Sim.work 100;
             wunlock ();
             incr writes;
             Sim.work (Rng.int_in rng (writer_gap / 2) (writer_gap * 3 / 2))
           done));
    ignore (Machine.run ~stop_when:(fun mm -> Machine.now mm >= run_ticks) machine);
    Machine.request_stop machine;
    ignore (Machine.run ~max_ticks:(run_ticks + (10 * writer_gap)) machine);
    Machine.kill_remaining machine;
    let reader_fences = ref 0 and reader_rmws = ref 0 in
    for tid = 0 to nreaders - 1 do
      let s = Machine.stats machine tid in
      reader_fences := !reader_fences + s.fences;
      reader_rmws := !reader_rmws + s.rmws
    done;
    (!reads, !writes, !reader_fences, !reader_rmws)
  in
  pf "%-22s %12s %10s %14s %12s\n" "lock" "reads" "writes" "reader fences" "reader RMWs";
  let r, w, f, a =
    bench (fun machine ->
        let l = Prwlock.create machine ~nreaders ~bound:(Bound.Delta (Config.us 500)) in
        ( (fun reader -> Prwlock.read_lock l ~reader),
          (fun reader -> Prwlock.read_unlock l ~reader),
          (fun () -> Prwlock.write_lock l),
          fun () -> Prwlock.write_unlock l ))
  in
  pf "%-22s %12d %10d %14d %12d\n" "FF-prwlock (TBTSO)" r w f a;
  let r, w, f, a =
    bench (fun machine ->
        let l =
          Prwlock.create ~echo:false machine ~nreaders ~bound:(Bound.Delta (Config.us 500))
        in
        ( (fun reader -> Prwlock.read_lock l ~reader),
          (fun reader -> Prwlock.read_unlock l ~reader),
          (fun () -> Prwlock.write_lock l),
          fun () -> Prwlock.write_unlock l ))
  in
  pf "%-22s %12d %10d %14d %12d\n" "FF-prwlock no-echo" r w f a;
  let r, w, f, a =
    bench (fun machine ->
        let l = Rwlock_atomic.create machine in
        ( (fun _ -> Rwlock_atomic.read_lock l),
          (fun _ -> Rwlock_atomic.read_unlock l),
          (fun () -> Rwlock_atomic.write_lock l),
          fun () -> Rwlock_atomic.write_unlock l ))
  in
  pf "%-22s %12d %10d %14d %12d\n" "atomic rwlock" r w f a;
  pf
    "shape check: the fence-free readers execute zero atomics and beat the\n\
     reader-count design; writers pay the Delta wait (rare by assumption).\n"

(* ------------------------------------------------------------------ *)
(* Residency: store-buffer entry age at commit, TSO vs TBTSO[Δ]        *)
(* ------------------------------------------------------------------ *)

let residency m =
  header
    "Residency: store-buffer entry age at commit (ticks; 100 ticks = 1 us-sim)";
  let run_ticks = if m.paper then Config.ms 4 else Config.ms 1 in
  let cfg cons drain =
    {
      (Config.with_drain drain (Config.with_consistency cons Config.default))
      with
      Config.seed = Int64.of_int m.seed;
    }
  in
  (* Drain_adversarial never drains voluntarily: under plain TSO the
     residency is bounded only by the run length, under TBTSO[Δ] the
     Δ-deadline forces every entry out at age exactly Δ. The geometric
     row is the realistic-hardware contrast. The third component marks
     the run --trace exports. *)
  let cases =
    [
      ("tso+adversarial", cfg Config.Tso Config.Drain_adversarial, false);
      ( "tbtso[50us]+adversarial",
        cfg (Config.Tbtso (Config.us 50)) Config.Drain_adversarial,
        true );
      ( "tbtso[500us]+adversarial",
        cfg (Config.Tbtso (Config.us 500)) Config.Drain_adversarial,
        false );
      ( "tbtso[500us]+geometric",
        cfg
          (Config.Tbtso (Config.us 500))
          (Config.Drain_geometric { p = 0.5; cap = 200 }),
        false );
    ]
  in
  pf "%-26s %8s %8s %8s %8s %8s  %s\n" "run" "Delta" "commits" "p50" "p99"
    "max" "max<=Delta";
  let runs = ref [] in
  let csv_rows = ref [] in
  (* Each (consistency, drain) configuration is an independent machine
     run: fan them over the pool. Traces are created inside the worker
     and exported in order below. *)
  let results =
    Pool.map_list m.pool
      (fun (label, config, traced) ->
        let trace =
          match (m.trace, traced) with
          | Some _, true -> Some (Trace.create ~capacity:65536 ())
          | _ -> None
        in
        let r = Residency_bench.run ?trace ~label ~config ~run_ticks () in
        (label, r, trace))
      cases
  in
  List.iter
    (fun (label, (r : Residency_bench.run), trace) ->
      let merged =
        match r.Residency_bench.threads with
        | [] -> Tbtso_obs.Hist.create ()
        | t :: ts ->
            List.fold_left
              (fun acc t -> Tbtso_obs.Hist.merge acc t.Residency_bench.residency)
              t.Residency_bench.residency ts
      in
      let p50 = Tbtso_obs.Hist.percentile merged 0.5 in
      let p99 = Tbtso_obs.Hist.percentile merged 0.99 in
      pf "%-26s %8s %8d %8d %8d %8d  %s\n" label
        (match r.delta_bound with Some d -> string_of_int d | None -> "-")
        (Tbtso_obs.Hist.count merged)
        p50 p99 r.max_residency
        (match r.delta_bound with
        | None -> "(unbounded)"
        | Some _ -> if Residency_bench.bound_ok r then "yes" else "VIOLATED");
      csv_rows :=
        [
          label;
          (match r.delta_bound with Some d -> string_of_int d | None -> "");
          string_of_int (Tbtso_obs.Hist.count merged);
          string_of_int p50;
          string_of_int p99;
          string_of_int r.max_residency;
        ]
        :: !csv_rows;
      runs := Residency_bench.run_json r :: !runs;
      match (trace, m.trace) with
      | Some tr, Some path ->
          Trace_export.write_chrome_file path tr;
          Trace_export.write_jsonl_file (path ^ ".jsonl") tr;
          pf "(wrote %s + %s.jsonl; open the former in https://ui.perfetto.dev)\n"
            path path
      | _ -> ())
    results;
  add_json_field m "runs" (Json.List (List.rev !runs));
  maybe_csv m ~name:"residency"
    ~header:[ "run"; "delta"; "commits"; "p50"; "p99"; "max" ]
    (List.rev !csv_rows);
  pf
    "shape check: adversarial TSO residency grows with the run (unbounded);\n\
     every TBTSO run keeps max residency <= Delta — adversarial drains pin the\n\
     max at exactly Delta, realistic drains keep percentiles far below it.\n"

(* ------------------------------------------------------------------ *)
(* Native microbenchmark (bechamel): fence cost grounding              *)
(* ------------------------------------------------------------------ *)

let native _m =
  header "Native grounding: plain store vs fenced atomic store (bechamel)";
  let open Bechamel in
  let plain = ref 0 in
  let atomic = Atomic.make 0 in
  let tests =
    [
      Test.make ~name:"plain ref set (MOV)" (Staged.stage (fun () -> plain := 1));
      Test.make ~name:"Atomic.set (store+fence)"
        (Staged.stage (fun () -> Atomic.set atomic 1));
      Test.make ~name:"Atomic.fetch_and_add (locked RMW)"
        (Staged.stage (fun () -> ignore (Atomic.fetch_and_add atomic 1)));
    ]
  in
  List.iter
    (fun test ->
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> pf "%-40s %10.2f ns/op\n" name est
          | Some _ | None -> pf "%-40s (no estimate)\n" name)
        results)
    tests;
  pf
    "grounding: the gap between the plain store and the fenced atomic is the\n\
     per-protection cost FFHP removes from the hazard-pointer fast path.\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", "quiescence latency vs threads (hardware model)", fig4);
    ("fig5", "store-buffering time CDF", fig5);
    ("fig6", "hash-table throughput across SMR methods", fig6);
    ("fig6_haswell", "fig6 on the Haswell cost calibration (paper's in-text numbers)", fig6_haswell);
    ("fig7", "peak memory vs reader stall", fig7);
    ("fig8", "biased-lock throughput, 4 access patterns", fig8);
    ("tab_retire", "retirement rate and R sizing (Sec 4.2.1)", tab_retire);
    ("tab_quiesce", "worst-case quiescence / Delta estimate (Sec 6.1.2)", tab_quiesce);
    ("abl_echo", "ablation: echoing vs arrival rate", abl_echo);
    ("abl_delta", "ablation: FFHP Delta sensitivity", abl_delta);
    ("abl_r", "ablation: FFHP R sizing regimes", abl_r);
    ("abl_adapt", "ablation: TBTSO vs adapted-x86 bound", abl_adapt);
    ("ext_prw", "extension: fence-free passive rwlock", ext_prw);
    ("residency", "store-buffer residency distributions vs Delta", residency);
    ("native", "native bechamel microbench (fence cost)", native);
  ]

let usage () =
  pf
    "usage: main.exe [EXPERIMENT]... [--paper] [--seed N] [--csv DIR] \
     [--json PATH] [--trace PATH] [--profile PATH] [-j N]\nexperiments:\n";
  List.iter (fun (n, d, _) -> pf "  %-12s %s\n" n d) experiments;
  exit 2

let () =
  let paper = ref false and seed = ref 1 and jobs = ref 1 in
  let csv = ref None and json = ref None and trace = ref None in
  let profile = ref None and selected = ref [] in
  (* Any other argument starting with '-' is a mistake, not a no-op: a
     misspelt flag must not silently run the default experiments. *)
  let rec parse = function
    | [] -> ()
    | "--paper" :: rest ->
        paper := true;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> seed := n
        | None ->
            pf "--seed expects an integer\n";
            usage ());
        parse rest
    | "-j" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 0 -> jobs := n
        | Some _ | None ->
            pf "-j expects a non-negative integer (0 = auto)\n";
            exit 2);
        parse rest
    | "--csv" :: v :: rest ->
        csv := Some v;
        parse rest
    | "--json" :: v :: rest ->
        json := Some v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := Some v;
        parse rest
    | "--profile" :: v :: rest ->
        profile := Some v;
        parse rest
    | [ ("--seed" | "-j" | "--csv" | "--json" | "--trace" | "--profile") as f ]
      ->
        pf "%s needs a value\n" f;
        usage ()
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        pf "unknown option %S\n" a;
        usage ()
    | a :: rest ->
        selected := a :: !selected;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paper = !paper and seed = !seed and jobs = !jobs in
  let csv = !csv and json = !json and trace = !trace and profile = !profile in
  let selected = List.rev !selected in
  if List.mem "help" selected then usage ();
  let profiler =
    match profile with
    | None -> Tbtso_obs.Span.disabled
    | Some _ -> Tbtso_obs.Span.create ()
  in
  let pool =
    Pool.create
      ~domains:(if jobs = 0 then Pool.default_domains () else jobs)
      ~profiler ()
  in
  let mode = { paper; seed; csv; json; trace; pool } in
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun (en, _, _) -> en = n) experiments with
            | Some e -> e
            | None ->
                pf "unknown experiment %S\n" n;
                usage ())
          names
  in
  let t0 = Unix.gettimeofday () in
  pf "TBTSO reproduction benchmarks (%s scale, seed %d)\n"
    (if paper then "paper" else "quick")
    seed;
  let experiment_docs = ref [] in
  List.iter
    (fun (name, description, f) ->
      cur_series := [];
      cur_extra := [];
      Tbtso_obs.Span.with_span profiler name (fun () -> f mode);
      if json <> None then
        experiment_docs :=
          Json.obj
            ([
               ("name", Json.String name);
               ("description", Json.String description);
               ("series", Json.List (List.rev !cur_series));
             ]
            @ List.rev !cur_extra)
          :: !experiment_docs)
    to_run;
  (match json with
  | None -> ()
  | Some path ->
      Json.write_file path
        (Json.obj
           [
             ("schema", Json.String "tbtso-bench/1");
             ("scale", Json.String (if paper then "paper" else "quick"));
             ("seed", Json.Int seed);
             ("experiments", Json.List (List.rev !experiment_docs));
           ]);
      pf "(wrote %s)\n" path);
  Pool.shutdown pool;
  (match profile with
  | None -> ()
  | Some path ->
      Format.printf "%a%!" Tbtso_obs.Span.pp_phase_table profiler;
      let oc = open_out path in
      let w = Tbtso_obs.Chrome.to_channel oc in
      Tbtso_obs.Span.to_chrome profiler ~pid:(Unix.getpid ()) w;
      Tbtso_obs.Chrome.close w;
      close_out oc;
      pf "(wrote %s; open in https://ui.perfetto.dev)\n" path);
  pf "\ntotal wall time: %.1f s (%d domain%s)\n"
    (Unix.gettimeofday () -. t0)
    (Pool.domains pool)
    (if Pool.domains pool = 1 then "" else "s")
