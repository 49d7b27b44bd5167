(* The benchmark harness: regenerates every table and figure of the paper
   (Table 1, Figures 2-13), runs the ablation studies, the self-similarity
   extension, and a Bechamel microbenchmark section for the simulator
   primitives. `dune exec bench/main.exe` runs everything at paper scale
   (~1 minute); `--fast` shrinks runs for smoke testing. *)

let std = Format.std_formatter

let fast = ref false
let skip_micro = ref false
let only : string option ref = ref None

let usage = "main.exe [--fast] [--skip-micro] [--only SECTION]"

let args =
  [
    ("--fast", Arg.Set fast, " reduced scale (60 s runs, sparser sweep)");
    ("--skip-micro", Arg.Set skip_micro, " skip the Bechamel microbenchmarks");
    ( "--only",
      Arg.String (fun s -> only := Some s),
      " run one section: table1 | figures | cwnd | queue | ablations | selfsim | sync | fluid | parking | twoway | telemetry | parallel | pdes | alloc | flows | burst | hybrid | micro" );
  ]

let section name = Format.fprintf std "@.==== %s ====@.@." name

let wants name = match !only with None -> true | Some s -> s = name

(* Write a BENCH_*.json report, then hold it to its committed gates:
   [Telemetry.Report.check], the same gate table `report-check` applies.
   [failed] carries a gate only the bench can apply (a wall-clock floor,
   a leak in a run the file does not record). Either failure exits 1,
   after the file is written so the evidence survives. *)
let write_report ?(failed = false) kind file json =
  Burstcore.Export.write_file file (Burstcore.Json.to_string json ^ "\n");
  Format.fprintf std "@.wrote %s@." file;
  (match Telemetry.Report.check kind json with
  | Ok () -> ()
  | Error msg ->
      Format.eprintf "%s: invalid %s report: %s@." file
        (Telemetry.Report.name kind) msg;
      exit 1);
  if failed then exit 1

(* ------------------------------------------------------------------ *)
(* Paper tables and figures                                            *)

let config () =
  if !fast then { Burstcore.Config.default with duration_s = 60.; warmup_s = 20. }
  else Burstcore.Config.default

let sweep_counts () =
  if !fast then [ 5; 15; 25; 30; 36; 39; 42; 50; 60 ]
  else Burstcore.Figures.default_client_counts

let run_table1 () =
  section "Table 1";
  Burstcore.Figures.table1 std (config ())

let run_figures () =
  section "Figures 2, 3, 4, 13 (one sweep)";
  let cfg = config () in
  let progress label = Format.eprintf "  sweep: %s@." label in
  let sweep = Burstcore.Figures.run_sweep ~progress cfg (sweep_counts ()) in
  Burstcore.Figures.fig2 std sweep cfg;
  Format.fprintf std "@.";
  Burstcore.Figures.fig3 std sweep;
  Format.fprintf std "@.";
  Burstcore.Figures.fig4 std sweep;
  Format.fprintf std "@.";
  Burstcore.Figures.fig13 std sweep

let run_cwnd_figures () =
  section "Figures 5-12 (congestion-window evolution)";
  let cfg = config () in
  List.iter
    (fun (k, scenario, clients) ->
      Burstcore.Figures.fig_cwnd std cfg ~scenario ~clients
        ~label:(Printf.sprintf "Figure %d" k);
      Format.fprintf std "@.")
    Burstcore.Figures.cwnd_figures

let run_queue_occupancy () =
  section "Extension: gateway queue occupancy";
  Burstcore.Figures.queue_occupancy std (config ()) ~clients:30

let run_ablations () =
  section "Ablations";
  let cfg = config () in
  Burstcore.Ablation.buffer_sweep std cfg ~clients:45;
  Format.fprintf std "@.";
  Burstcore.Ablation.red_threshold_sweep std cfg ~clients:45;
  Format.fprintf std "@.";
  Burstcore.Ablation.vegas_alpha_beta_sweep std cfg ~clients:45;
  Format.fprintf std "@.";
  Burstcore.Ablation.cc_comparison std cfg [ 30; 45; 60 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.ecn_comparison std cfg [ 45; 60 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.latency std cfg [ 20; 40; 60 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.cwnd_validation std cfg [ 30; 50 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.pacing std cfg [ 30; 50 ]

let run_selfsim () =
  section "Extension: self-similarity";
  Burstcore.Selfsim.report std (config ())

let run_twoway () =
  section "Extension: two-way traffic (ACK compression)";
  Burstcore.Twoway.report std (Burstcore.Config.with_clients (config ()) 30)

let run_parking_lot () =
  section "Extension: parking-lot topology";
  Burstcore.Parking_lot.report std (config ())

let run_fluid () =
  section "Extension: fluid model vs packet simulation";
  Burstcore.Fluid_compare.report std (config ()) [ 4; 8; 16 ]

let run_sync () =
  section "Extension: congestion-control synchronization";
  let cfg = config () in
  Burstcore.Sync.report std cfg (if !fast then [ 30; 60 ] else [ 20; 30; 40; 50; 60 ]);
  Format.fprintf std "@.";
  Burstcore.Sync.desync_ablation std cfg ~clients:50

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: events/sec with and without a probe             *)

(* Three configurations of the same Reno N=50 run, same seed (so the
   event count is identical and only wall time differs; min-of-N
   suppresses scheduler noise):

   - baseline: no probe at all;
   - probed: a probe with no subscribers (phase timers + run notes);
   - recorded: the probe plus a full-lifecycle ring-buffer flight
     recorder (Drop_oldest, 4Ki records) — the "always-on" shape: a
     bounded last-N window sized to stay cache-resident, unlike the
     Grow configuration --record-out uses for complete captures.

   Committed gates, applied to the JSON by [write_report] (and again by
   `report-check --kind=bench-telemetry` in `make check`):
   - probe overhead vs baseline within [probe_budget_pct], on total wall;
   - recorder overhead vs probed within [recorder_budget_pct], on the
     probe-timed {e run phase} (the recorder's per-run setup constant
     amortizes to nothing at paper-scale durations but would swamp a
     --fast run's few-millisecond wall — the same run-phase discipline
     the alloc bench applies to GC counters). Probed and recorded reps
     are interleaved pairs and the estimate is the {e median} of the
     per-pair deltas. Measured steady state on this workload is ~2-3%;
     the committed budget adds headroom for shared-vCPU jitter, which
     swings individual pairs by +-5% or more on the CI box (measured:
     the same binary's median ranges 1.8-5.5% across invocations). The
     budget is a regression tripwire for the failure modes that matter
     — an accidental allocation, a per-record scan, a boxed float on
     the hot path — all of which cost far more than the headroom. The
     deterministic words/event delta below is the precise gate;
   - recorder minor words/event within [recorder_words_budget] of the
     probed run (the hot path is integer stores into a preallocated
     ring, so the delta must be ~0). *)
let probe_budget_pct = 15.0
let recorder_budget_pct = 8.0
let recorder_words_budget = 0.05

let run_telemetry_bench () =
  section "Telemetry overhead (events/sec)";
  let cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      (* A long-enough simulated horizon that a single run's ~25 ms run
         phase rises above single-vCPU scheduler jitter — at 10 s the
         per-rep deltas are pure noise. Kept the same under --fast: the
         whole section still costs well under a second. *)
      Burstcore.Config.duration_s = 30.;
      warmup_s = 2.;
    }
  in
  let scenario = Burstcore.Scenario.reno in
  let reps = if !fast then 9 else 5 in
  let min_wall f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Telemetry.Perf.wall_clock_s () in
      f ();
      let dt = Telemetry.Perf.wall_clock_s () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let baseline_wall = min_wall (fun () -> ignore (Burstcore.Run.run cfg scenario)) in
  let events = ref 0 in
  let words_per_event probe =
    let words =
      Telemetry.Registry.gauge_value
        (Telemetry.Registry.gauge probe.Telemetry.Probe.registry
           Telemetry.Probe.m_minor_words)
    in
    words /. float_of_int (Stdlib.max 1 (Telemetry.Probe.events_total probe))
  in
  let run_phase_s probe =
    Telemetry.Perf.duration_s probe.Telemetry.Probe.phases "run"
  in
  let probed_words = ref 0. in
  let probed_run = ref infinity in
  let probed_wall = ref infinity in
  let recorded_words = ref 0. in
  let recorded_run = ref infinity in
  let recorded_wall = ref infinity in
  let recorder_records = ref 0 in
  let recorder_dropped = ref 0 in
  let deltas = Array.make reps 0. in
  (* Interleave probed and recorded reps so slow drift (CPU frequency,
     cache state) lands on both configurations alike; each iteration
     contributes one paired run-phase delta. *)
  for rep = 0 to reps - 1 do
    (* Settle major-GC debt from the previous rep so collection work
       does not land inside the next timed run phase. *)
    Gc.full_major ();
    let t0 = Telemetry.Perf.wall_clock_s () in
    let probe = Telemetry.Probe.create () in
    ignore (Burstcore.Run.run ~probe cfg scenario);
    probed_wall := Float.min !probed_wall (Telemetry.Perf.wall_clock_s () -. t0);
    events := Telemetry.Probe.events_total probe;
    probed_words := words_per_event probe;
    let probed_rep_run = run_phase_s probe in
    probed_run := Float.min !probed_run probed_rep_run;
    Gc.full_major ();
    let t0 = Telemetry.Perf.wall_clock_s () in
    let probe = Telemetry.Probe.create () in
    Telemetry.Probe.set_recording probe
      {
        Telemetry.Recorder.capacity = 4096;
        overflow = Telemetry.Recorder.Drop_oldest;
        lifecycle = true;
      };
    ignore (Burstcore.Run.run ~probe cfg scenario);
    recorded_wall :=
      Float.min !recorded_wall (Telemetry.Perf.wall_clock_s () -. t0);
    recorded_words := words_per_event probe;
    let recorded_rep_run = run_phase_s probe in
    recorded_run := Float.min !recorded_run recorded_rep_run;
    deltas.(rep) <-
      (if probed_rep_run > 0. then
         100. *. (recorded_rep_run -. probed_rep_run) /. probed_rep_run
       else 0.);
    let segments = Telemetry.Probe.segments probe in
    recorder_records :=
      List.fold_left
        (fun acc r -> acc + Telemetry.Recorder.total_recorded r)
        0 segments;
    recorder_dropped :=
      List.fold_left
        (fun acc r -> acc + Telemetry.Recorder.total_dropped r)
        0 segments
  done;
  let eps wall = if wall > 0. then float_of_int !events /. wall else 0. in
  let pct over base = if base > 0. then 100. *. (over -. base) /. base else 0. in
  let probe_overhead_pct = pct !probed_wall baseline_wall in
  let recorder_overhead_pct =
    Array.sort Float.compare deltas;
    deltas.(reps / 2)
  in
  let words_delta = !recorded_words -. !probed_words in
  Format.fprintf std "events per run        %12d@." !events;
  Format.fprintf std "baseline (no probe)   %12.0f ev/s  (%.4f s)@."
    (eps baseline_wall) baseline_wall;
  Format.fprintf std "probed                %12.0f ev/s  (%.4f s)@."
    (eps !probed_wall) !probed_wall;
  Format.fprintf std "recorded (lifecycle)  %12.0f ev/s  (%.4f s)@."
    (eps !recorded_wall) !recorded_wall;
  Format.fprintf std "run phase             %12.4f s probed, %.4f s recorded@."
    !probed_run !recorded_run;
  Format.fprintf std "probe overhead        %12.2f %%  (budget %.1f)@."
    probe_overhead_pct probe_budget_pct;
  Format.fprintf std
    "recorder overhead     %12.2f %%  (median of %d pairs, budget %.1f)@."
    recorder_overhead_pct reps recorder_budget_pct;
  Format.fprintf std "recorder words/event  %12.4f  (delta %.4f, budget %.2f)@."
    !recorded_words words_delta recorder_words_budget;
  Format.fprintf std "recorder records      %12d  (%d dropped by ring)@."
    !recorder_records !recorder_dropped;
  let json =
    Burstcore.Json.Obj
      [
        ("scenario", Burstcore.Json.String (Burstcore.Scenario.label scenario));
        ("clients", Burstcore.Json.Int cfg.Burstcore.Config.clients);
        ("duration_s", Burstcore.Json.Float cfg.Burstcore.Config.duration_s);
        ("reps", Burstcore.Json.Int reps);
        ("events", Burstcore.Json.Int !events);
        ("baseline_wall_s", Burstcore.Json.Float baseline_wall);
        ("probed_wall_s", Burstcore.Json.Float !probed_wall);
        ("recorded_wall_s", Burstcore.Json.Float !recorded_wall);
        ("probed_run_s", Burstcore.Json.Float !probed_run);
        ("recorded_run_s", Burstcore.Json.Float !recorded_run);
        ("baseline_events_per_sec", Burstcore.Json.Float (eps baseline_wall));
        ("probed_events_per_sec", Burstcore.Json.Float (eps !probed_wall));
        ("recorded_events_per_sec", Burstcore.Json.Float (eps !recorded_wall));
        ("probe_overhead_pct", Burstcore.Json.Float probe_overhead_pct);
        ("probe_overhead_budget_pct", Burstcore.Json.Float probe_budget_pct);
        ("recorder_overhead_pct", Burstcore.Json.Float recorder_overhead_pct);
        ( "recorder_overhead_budget_pct",
          Burstcore.Json.Float recorder_budget_pct );

        ( "probed_minor_words_per_event",
          Burstcore.Json.Float !probed_words );
        ( "recorded_minor_words_per_event",
          Burstcore.Json.Float !recorded_words );
        ( "recorder_minor_words_per_event_delta",
          Burstcore.Json.Float words_delta );
        ("recorder_words_budget", Burstcore.Json.Float recorder_words_budget);
        ("recorder_records", Burstcore.Json.Int !recorder_records);
        ("recorder_dropped", Burstcore.Json.Int !recorder_dropped);
      ]
  in
  write_report Telemetry.Report.Bench_telemetry "BENCH_telemetry.json" json

(* ------------------------------------------------------------------ *)
(* Allocation budget: events/sec and GC words per event                *)

(* One Reno N=50 run, instrumented with [Gc.quick_stat] deltas. The
   committed baseline below was measured on this machine before the
   allocation-free inner loop landed (float Time.t, Int64 RNG, no event
   free-list); the JSON report carries both so regressions and the
   before/after ratios are visible in one file. [make check] runs this
   section and fails when minor words/event exceeds the committed
   threshold. *)

(* Pre-optimisation numbers (seed + PR 2 state), recorded by running
   this very section before the inner-loop rewrite: Reno N=50, 30 s,
   best of 3. The baseline bracketed the whole run with [Gc.quick_stat]
   (run-phase GC counters did not exist yet); at 30 s setup amortises to
   under 0.3 words/event, so it is comparable to the run-phase figures
   measured below. *)
let alloc_baseline_minor_words_per_event = 30.48
let alloc_baseline_events_per_sec = 1_311_337.

(* Per-scenario allocation budgets. The packet-pool rewrite measures
   ~3 minor words/event on Reno/drop-tail (down from 14.16 with heap
   packets); each row gates its own committed ceiling with headroom for
   GC-counter jitter. The primary Reno/drop-tail row also carries the
   committed events/sec floor: 1.15x over the 1.79M ev/s recorded before
   the pool landed. Wall-clock gates are machine-sensitive, so only that
   row has one, and it is enforced only on full-length runs — under
   [--fast] the wall time is a few milliseconds and the ratio is noise,
   so the floor prints as informational there. *)
type alloc_budget = {
  ab_scenario : Burstcore.Scenario.t;
  words_threshold : float;
  min_events_per_sec : float option;
}

let alloc_budgets =
  [
    {
      ab_scenario = Burstcore.Scenario.reno;
      words_threshold = 6.0;
      min_events_per_sec = Some 2_060_000.;
    };
    {
      ab_scenario = Burstcore.Scenario.reno_red;
      words_threshold = 8.0;
      min_events_per_sec = None;
    };
    {
      ab_scenario = Burstcore.Scenario.vegas;
      words_threshold = 8.0;
      min_events_per_sec = None;
    };
  ]

let run_alloc_bench () =
  section "Allocation budget (events/sec, GC words/event)";
  let cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      (* Full mode simulates long enough that the best-of wall time is a
         few hundred ms — at 30 s the whole run fits in ~50 ms and the
         events/sec figure swings ±20% with scheduler noise. *)
      Burstcore.Config.duration_s = (if !fast then 10. else 180.);
      warmup_s = 2.;
    }
  in
  let reps = if !fast then 3 else 5 in
  (* Same seed every rep: the event count and allocation profile are
     deterministic, only wall time varies; keep the fastest rep. The GC
     figures come from the probe's run-phase counters (what [note_run]
     records), so they cover exactly the inner loop the gate is about —
     setup and metric collection are excluded, which also keeps
     words/event independent of the run duration. Every run also passes
     [Run.run]'s pool-leak check (live handles must drain to zero), so a
     row in the report doubles as a leak-free certificate. *)
  let measure scenario =
    let best_wall = ref infinity in
    let events = ref 0 in
    let minor_words = ref 0. in
    let promoted_words = ref 0. in
    let major_collections = ref 0 in
    for _ = 1 to reps do
      let probe = Telemetry.Probe.create () in
      let t0 = Telemetry.Perf.wall_clock_s () in
      ignore (Burstcore.Run.run ~probe cfg scenario);
      let dt = Telemetry.Perf.wall_clock_s () -. t0 in
      if dt < !best_wall then begin
        let r = probe.Telemetry.Probe.registry in
        best_wall := dt;
        events := Telemetry.Probe.events_total probe;
        minor_words :=
          Telemetry.Registry.gauge_value
            (Telemetry.Registry.gauge r Telemetry.Probe.m_minor_words);
        promoted_words :=
          Telemetry.Registry.gauge_value
            (Telemetry.Registry.gauge r Telemetry.Probe.m_promoted_words);
        major_collections :=
          Telemetry.Registry.counter_value
            (Telemetry.Registry.counter r Telemetry.Probe.m_major_collections)
      end
    done;
    let fe = float_of_int (Stdlib.max 1 !events) in
    let eps = if !best_wall > 0. then fe /. !best_wall else 0. in
    (!events, !best_wall, eps, !minor_words /. fe, !promoted_words /. fe,
     !major_collections)
  in
  let ratio num den = if den > 0. then num /. den else 0. in
  let failed = ref false in
  let rows =
    List.map
      (fun budget ->
        let label = Burstcore.Scenario.label budget.ab_scenario in
        let events, wall, eps, wpe, ppe, majors = measure budget.ab_scenario in
        Format.fprintf std "@.%s@." label;
        Format.fprintf std "  events per run        %12d@." events;
        Format.fprintf std "  wall (best of %d)     %13.4f s@." reps wall;
        Format.fprintf std "  events/sec            %12.0f@." eps;
        Format.fprintf std "  minor words/event     %12.2f  (budget %.2f)@."
          wpe budget.words_threshold;
        Format.fprintf std "  promoted words/event  %12.4f@." ppe;
        Format.fprintf std "  major collections     %12d@." majors;
        (match budget.min_events_per_sec with
        | Some floor ->
            Format.fprintf std
              "  baseline words/event  %12.2f  (%.2fx reduction)@."
              alloc_baseline_minor_words_per_event
              (ratio alloc_baseline_minor_words_per_event wpe);
            Format.fprintf std
              "  baseline events/sec   %12.0f  (%.2fx speedup)@."
              alloc_baseline_events_per_sec
              (ratio eps alloc_baseline_events_per_sec);
            if eps < floor then
              if !fast then
                Format.fprintf std
                  "  (events/sec floor %.0f not enforced under --fast)@." floor
              else begin
                Format.eprintf
                  "throughput regression (%s): %.0f events/sec is below the \
                   committed floor %.0f@."
                  label eps floor;
                failed := true
              end
        | None -> ());
        Burstcore.Json.Obj
          [
            ("scenario", Burstcore.Json.String label);
            ("clients", Burstcore.Json.Int cfg.Burstcore.Config.clients);
            ("events", Burstcore.Json.Int events);
            ("wall_s", Burstcore.Json.Float wall);
            ("events_per_sec", Burstcore.Json.Float eps);
            ("minor_words_per_event", Burstcore.Json.Float wpe);
            ("promoted_words_per_event", Burstcore.Json.Float ppe);
            ("major_collections", Burstcore.Json.Int majors);
            ( "threshold_minor_words_per_event",
              Burstcore.Json.Float budget.words_threshold );
            ( "min_events_per_sec",
              match budget.min_events_per_sec with
              | Some f -> Burstcore.Json.Float f
              | None -> Burstcore.Json.Null );
            ("leak_free", Burstcore.Json.Bool true);
          ])
      alloc_budgets
  in
  let json =
    Burstcore.Json.Obj
      [
        ("clients", Burstcore.Json.Int cfg.Burstcore.Config.clients);
        ("duration_s", Burstcore.Json.Float cfg.Burstcore.Config.duration_s);
        ("reps", Burstcore.Json.Int reps);
        ( "baseline_minor_words_per_event",
          Burstcore.Json.Float alloc_baseline_minor_words_per_event );
        ( "baseline_events_per_sec",
          Burstcore.Json.Float alloc_baseline_events_per_sec );
        ("rows", Burstcore.Json.List rows);
      ]
  in
  write_report ~failed:!failed Telemetry.Report.Alloc "BENCH_alloc.json" json

(* ------------------------------------------------------------------ *)
(* Parallel sweep: sequential vs domain-fanned wall time               *)

(* One replicated Reno sweep, run twice: sequentially and fanned over
   [Domain.recommended_domain_count ()] domains. The two result lists
   must compare equal — the pool guarantees bit-identical metrics — so
   the only thing allowed to change is wall time. Speedup depends on the
   machine; the recorded [domains] field says what was available. *)
let run_parallel_bench () =
  section "Parallel sweep (sequential vs domains)";
  let cfg =
    {
      (config ()) with
      Burstcore.Config.duration_s = (if !fast then 10. else 30.);
      warmup_s = 2.;
    }
  in
  let ns = if !fast then [ 10; 20 ] else [ 10; 20; 30 ] in
  let replicates = 4 in
  let scenario = Burstcore.Scenario.reno in
  let timed f =
    let t0 = Telemetry.Perf.wall_clock_s () in
    let r = f () in
    (r, Telemetry.Perf.wall_clock_s () -. t0)
  in
  let seq, seq_wall =
    timed (fun () -> Burstcore.Sweep.replicated cfg scenario ~replicates ns)
  in
  (* Cap the pool: beyond 8 domains this sweep has fewer points than
     workers, so extra domains only add spawn cost and scheduler noise. *)
  let domains = min 8 (max 1 (Domain.recommended_domain_count ())) in
  let pool_size = ref 1 in
  let par, par_wall =
    timed (fun () ->
        Parallel.Pool.with_pool ~domains (fun pool ->
            pool_size := Parallel.Pool.size pool;
            Burstcore.Sweep.replicated ~pool cfg scenario ~replicates ns))
  in
  let domains = !pool_size in
  let deterministic = par = seq in
  (* With one domain the "parallel" path degrades to an inline map, so
     the ratio measures nothing but noise — report it as skipped rather
     than commit a meaningless (often < 1) figure. *)
  let speedup =
    if domains < 2 || par_wall <= 0. then None else Some (seq_wall /. par_wall)
  in
  Format.fprintf std
    "points                %12d  (%d client counts x %d replicates)@."
    (List.length ns * replicates)
    (List.length ns) replicates;
  Format.fprintf std "domains               %12d@." domains;
  Format.fprintf std "sequential            %12.4f s@." seq_wall;
  Format.fprintf std "parallel              %12.4f s@." par_wall;
  (match speedup with
  | Some s -> Format.fprintf std "speedup               %12.2fx@." s
  | None ->
      Format.fprintf std "speedup               %12s@." "skipped (1 domain)");
  Format.fprintf std "bit-identical results %12s@."
    (if deterministic then "yes" else "NO");
  (match speedup with
  | Some s when s < 1.05 ->
      Format.fprintf std
        "warning: %d domains yielded only %.2fx — check machine load@." domains
        s
  | Some _ | None -> ());
  (* --- single-run sharded PDES: one N = 10^4 Reno/RED run over K
     domains. Uses the mean-field scaled regime of the flows bench
     (per-flow capacity constant) so the run is steady rather than
     collapsed at this client count. Two sub-claims, both gated on the
     written file:

     - determinism: a 1-shard and a 4-shard run of a smaller
       configuration produce identical Metrics.t — always gated, on any
       machine, because it does not depend on physical parallelism;
     - scaling: wall time for 1/2/4 shards at N = 10^4, with speedup
       recorded as wall(1)/wall(4) when the machine has at least 4
       domains and null otherwise (fewer domains measure
       oversubscription, not scaling). *)
  section "Sharded PDES (single run over K domains)";
  let module C = Burstcore.Config in
  let pdes_cfg n duration_s =
    let f = float_of_int n in
    {
      (C.with_clients C.default n) with
      C.bottleneck_bandwidth_mbps = 0.192 *. f;
      client_delay_s = 0.05;
      bottleneck_delay_s = 0.05;
      adv_window = 12;
      buffer_packets = 10 * n;
      red_min_th = f;
      red_max_th = 7.0 *. f;
      red_max_p = 0.05;
      duration_s;
      warmup_s = duration_s /. 2.;
    }
  in
  let pdes_scenario = Burstcore.Scenario.reno_red in
  let det_cfg = pdes_cfg 64 (if !fast then 2.0 else 4.0) in
  let det_run shards =
    Burstcore.Run.run { det_cfg with C.shards } pdes_scenario
  in
  let sharded_deterministic = det_run 1 = det_run 4 in
  Format.fprintf std "1-shard == 4-shard      %10s  (n=%d, %.0f s sim)@."
    (if sharded_deterministic then "yes" else "NO")
    det_cfg.C.clients det_cfg.C.duration_s;
  let pdes_n = 10_000 in
  let pdes_duration = if !fast then 1.0 else 2.0 in
  let scale_cfg = pdes_cfg pdes_n pdes_duration in
  let shard_counts = [ 1; 2; 4 ] in
  let pdes_rows =
    List.map
      (fun shards ->
        let _, wall =
          timed (fun () ->
              ignore
                (Burstcore.Run.run { scale_cfg with C.shards } pdes_scenario))
        in
        Format.fprintf std "shards=%d              %12.4f s@." shards wall;
        (shards, wall))
      shard_counts
  in
  let wall_of k = List.assoc k pdes_rows in
  let min_single_run_speedup = 3.0 in
  let single_run_speedup =
    if domains >= 4 && wall_of 4 > 0. then Some (wall_of 1 /. wall_of 4)
    else None
  in
  (match single_run_speedup with
  | Some s ->
      Format.fprintf std "single-run speedup    %12.2fx  (floor %.1fx)@." s
        min_single_run_speedup
  | None ->
      Format.fprintf std "single-run speedup    %12s@."
        (Printf.sprintf "skipped (%d domain%s)" domains
           (if domains = 1 then "" else "s")));
  let single_run_json =
    Burstcore.Json.Obj
      [
        ( "scenario",
          Burstcore.Json.String (Burstcore.Scenario.label pdes_scenario) );
        ("clients", Burstcore.Json.Int pdes_n);
        ("duration_s", Burstcore.Json.Float pdes_duration);
        ("window_s", Burstcore.Json.Float (Burstcore.Pdes.window_s scale_cfg));
        ("available_domains", Burstcore.Json.Int domains);
        ("min_speedup", Burstcore.Json.Float min_single_run_speedup);
        ( "rows",
          Burstcore.Json.List
            (List.map
               (fun (shards, wall) ->
                 Burstcore.Json.Obj
                   [
                     ("shards", Burstcore.Json.Int shards);
                     ("wall_s", Burstcore.Json.Float wall);
                   ])
               pdes_rows) );
        ( "speedup",
          match single_run_speedup with
          | Some s -> Burstcore.Json.Float s
          | None -> Burstcore.Json.Null );
        ("sharded_deterministic", Burstcore.Json.Bool sharded_deterministic);
      ]
  in
  let json =
    Burstcore.Json.Obj
      [
        ("scenario", Burstcore.Json.String (Burstcore.Scenario.label scenario));
        ( "clients",
          Burstcore.Json.List (List.map (fun n -> Burstcore.Json.Int n) ns) );
        ("replicates", Burstcore.Json.Int replicates);
        ("duration_s", Burstcore.Json.Float cfg.Burstcore.Config.duration_s);
        ("domains", Burstcore.Json.Int domains);
        ("sequential_wall_s", Burstcore.Json.Float seq_wall);
        ("parallel_wall_s", Burstcore.Json.Float par_wall);
        ( "speedup",
          match speedup with
          | Some s -> Burstcore.Json.Float s
          | None -> Burstcore.Json.Null );
        ("deterministic", Burstcore.Json.Bool deterministic);
        ("single_run", single_run_json);
      ]
  in
  write_report Telemetry.Report.Parallel "BENCH_parallel.json" json

(* ------------------------------------------------------------------ *)
(* Flow scaling: one run pushed from 10^3 to 10^5 greedy flows         *)

(* Mean-field scaling regime: bottleneck capacity, gateway buffer and
   RED thresholds all scale linearly with N, so every size solves the
   same per-flow fluid fixed point and the measured steady state can be
   validated against [Fluidmodel.Reno_fluid.equilibrium] at any N. The
   per-flow constants:

   - 16 pkt/s of bottleneck share per flow (0.192 Mbps at 1500 B);
   - 200 ms round-trip propagation;
   - adv_window 12: the largest window that keeps the sequence tables at
     16 slots (sender + receiver rows at 496 bytes, inside the budget)
     while clearing the AIMD sawtooth's peak, so flows stay
     congestion-limited;
   - buffer 10N, RED band [N, 7N] with max_p 0.05.

   The fixed point is w* ~ 8.0 packets, p* ~ 0.031, queue ~ 4.8N — a
   drop rate low enough that discrete Reno recovers losses with fast
   retransmit instead of collapsing into RTO backoff (at p ~ 0.1 and
   w ~ 4, whole windows die and every flow sits in exponential
   timeout backoff; the fluid ODE knows nothing about timeouts).

   The fluid ratios are gated on the two smaller sizes, which run long
   enough (~20 equilibrium RTTs) for the AIMD ensemble to converge; the
   N = 10^5 point is the memory/throughput row — a shorter run whose
   gates are bytes/flow, zero slab growth, leak-freedom and events/sec,
   with the fluid ratios reported but not enforced. Unlike the
   fluid-comparison section this sweep never records cwnd traces (a
   boxed per-sample list per flow is exactly the O(N) cost it exists to
   avoid): the model is checked through aggregate queue and throughput
   only. *)

let flows_bytes_per_flow_budget = 512

(* Committed floor for the N = 10^5 point, full mode only (wall time is
   machine-dependent; --fast prints but does not enforce). *)
let flows_min_events_per_sec = 300_000.
let flows_minor_words_per_event_budget = 8.0
let flows_throughput_ratio_min, flows_throughput_ratio_max = (0.80, 1.05)
(* The packet sim settles at ~0.5x the ODE's queue (the ODE has no
   timeouts, no sub-RTT burstiness, and a first-order RED average); the
   observable that matters is that the ratio is N-independent, so the
   band is wide but the scaling is tight. *)
let flows_queue_ratio_min, flows_queue_ratio_max = (0.35, 1.5)

let run_flows_bench () =
  section "Flow scaling (greedy Reno/RED flows, N = 10^3 .. 10^5)";
  let module C = Burstcore.Config in
  let module Time = Sim_engine.Time in
  let module Scheduler = Sim_engine.Scheduler in
  let flows_cfg n duration_s =
    let f = float_of_int n in
    {
      (C.with_clients C.default n) with
      C.bottleneck_bandwidth_mbps = 0.192 *. f;
      client_delay_s = 0.05;
      bottleneck_delay_s = 0.05;
      adv_window = 12;
      buffer_packets = 10 * n;
      red_min_th = f;
      red_max_th = 7.0 *. f;
      red_max_p = 0.05;
      duration_s;
      warmup_s = duration_s /. 2.;
    }
  in
  (* (size, sim seconds, fluid ratios enforced?, smoke?) — the
     converged points need ~20 equilibrium RTTs (r* ~ 0.5 s); the 10^5
     point is a short memory/throughput run. The N = 10^6 row (full
     mode only) is a scale smoke probe: its horizon is far too short
     for steady state, so it commits only to the per-flow byte budget
     and leak-freedom — pre-sized slabs are allowed to grow and no
     words/event or fluid gate applies. *)
  let points =
    if !fast then
      [
        (1_000, 8.0, true, false);
        (10_000, 8.0, true, false);
        (100_000, 2.0, false, false);
      ]
    else
      [
        (1_000, 10.0, true, false);
        (10_000, 10.0, true, false);
        (100_000, 2.5, false, false);
        (1_000_000, 0.5, false, true);
      ]
  in
  let failed = ref false in
  let rows =
    List.map
      (fun (n, duration_s, fluid_gated, smoke) ->
        let measure_from = 0.6 *. duration_s in
        let cfg = flows_cfg n duration_s in
        let net = Burstcore.Dumbbell.create cfg Burstcore.Scenario.reno_red in
        let sched = Burstcore.Dumbbell.scheduler net in
        let horizon = Time.of_sec duration_s in
        let queue_series =
          Netsim.Monitor.queue_sampler sched
            (Burstcore.Dumbbell.bottleneck net)
            ~every:(Time.of_ms 10.) ~until:horizon
        in
        (* Deterministic start stagger across the first 200 ms: N
           synchronized slow starts would otherwise dump N packets into
           the gateway within one RTT of t = 0. *)
        for i = 0 to n - 1 do
          ignore
            (Traffic.Bulk.start sched
               ~size:Traffic.Bulk.infinite_backlog_size
               ~start:(Time.of_sec (0.2 *. float_of_int i /. float_of_int n))
               ~sink:(Burstcore.Dumbbell.sink net i))
        done;
        let delivered_at_mark = ref 0 in
        ignore
          (Scheduler.at sched (Time.of_sec measure_from) (fun () ->
               delivered_at_mark := Burstcore.Dumbbell.delivered_total net));
        let g0 = Telemetry.Perf.gc_read () in
        let t0 = Telemetry.Perf.wall_clock_s () in
        Scheduler.run ~until:horizon sched;
        let wall = Telemetry.Perf.wall_clock_s () -. t0 in
        let gc = Telemetry.Perf.gc_since g0 in
        let events = Scheduler.events_processed sched in
        let fe = float_of_int (Stdlib.max 1 events) in
        let eps = if wall > 0. then fe /. wall else 0. in
        let wpe = gc.Telemetry.Perf.minor_words /. fe in
        let bytes_per_flow =
          Burstcore.Dumbbell.flow_table_bytes_per_flow net
        in
        let footprint = Burstcore.Dumbbell.flow_table_footprint_bytes net in
        let ft_growths = Burstcore.Dumbbell.flow_table_growths net in
        let q_growths = Scheduler.queue_growths sched in
        let delivered = Burstcore.Dumbbell.delivered_total net in
        let measured_throughput =
          float_of_int (delivered - !delivered_at_mark)
          /. (duration_s -. measure_from)
        in
        let measured_queue =
          let steady =
            Netstats.Series.between queue_series measure_from duration_s
          in
          List.fold_left (fun acc (_, v) -> acc +. v) 0. steady
          /. float_of_int (Stdlib.max 1 (List.length steady))
        in
        (* The two leak sweeps [Run.run] performs, inlined: every packet
           handle and every flow row must drain back to its slab. *)
        Burstcore.Dumbbell.reclaim net;
        let pool_live =
          Netsim.Packet_pool.live (Burstcore.Dumbbell.pool net)
        in
        Burstcore.Dumbbell.release_flows net;
        let flows_live = Burstcore.Dumbbell.flows_live net in
        let leak_free = pool_live = 0 && flows_live = 0 in
        let eq =
          Fluidmodel.Reno_fluid.equilibrium
            {
              Fluidmodel.Reno_fluid.flows = n;
              capacity_pps =
                cfg.C.bottleneck_bandwidth_mbps *. 1e6
                /. float_of_int (8 * cfg.C.packet_bytes);
              base_rtt_s = C.rtt_prop_s cfg;
              buffer_packets = float_of_int cfg.C.buffer_packets;
              red_min_th = cfg.C.red_min_th;
              red_max_th = cfg.C.red_max_th;
              red_max_p = cfg.C.red_max_p;
              avg_gain = 10.;
            }
        in
        let ratio num den = if den > 0. then num /. den else 0. in
        let queue_ratio =
          ratio measured_queue eq.Fluidmodel.Reno_fluid.eq_queue
        in
        let throughput_ratio =
          ratio measured_throughput
            eq.Fluidmodel.Reno_fluid.eq_throughput_pps
        in
        Format.fprintf std "@.N = %d flows@." n;
        Format.fprintf std "  events                %12d@." events;
        Format.fprintf std "  wall                  %13.4f s@." wall;
        Format.fprintf std "  events/sec            %12.0f@." eps;
        Format.fprintf std "  minor words/event     %12.3f  (budget %.2f)@."
          wpe flows_minor_words_per_event_budget;
        Format.fprintf std "  bytes/flow            %12d  (budget %d)@."
          bytes_per_flow flows_bytes_per_flow_budget;
        Format.fprintf std "  flow-table footprint  %12d bytes@." footprint;
        Format.fprintf std "  growths (flows/queue) %9d / %d@." ft_growths
          q_growths;
        Format.fprintf std "  queue: sim %.0f  fluid %.0f  (ratio %.3f)@."
          measured_queue eq.Fluidmodel.Reno_fluid.eq_queue queue_ratio;
        Format.fprintf std
          "  throughput: sim %.0f  fluid %.0f pps  (ratio %.3f)@."
          measured_throughput eq.Fluidmodel.Reno_fluid.eq_throughput_pps
          throughput_ratio;
        if n = 100_000 && eps < flows_min_events_per_sec then
          if !fast then
            Format.fprintf std
              "  (events/sec floor %.0f not enforced under --fast)@."
              flows_min_events_per_sec
          else begin
            Format.eprintf
              "flow-scaling regression: N=%d: %.0f events/sec is below the \
               committed floor %.0f@."
              n eps flows_min_events_per_sec;
            failed := true
          end;
        Burstcore.Json.Obj
          [
            ("flows", Burstcore.Json.Int n);
            ("duration_s", Burstcore.Json.Float duration_s);
            ("fluid_gated", Burstcore.Json.Bool fluid_gated);
            ("smoke", Burstcore.Json.Bool smoke);
            ("events", Burstcore.Json.Int events);
            ("wall_s", Burstcore.Json.Float wall);
            ("events_per_sec", Burstcore.Json.Float eps);
            ("minor_words_per_event", Burstcore.Json.Float wpe);
            ( "promoted_words_per_event",
              Burstcore.Json.Float (gc.Telemetry.Perf.promoted_words /. fe)
            );
            ( "major_collections",
              Burstcore.Json.Int gc.Telemetry.Perf.major_collections );
            ("bytes_per_flow", Burstcore.Json.Int bytes_per_flow);
            ("flow_footprint_bytes", Burstcore.Json.Int footprint);
            ("flow_table_growths", Burstcore.Json.Int ft_growths);
            ("queue_growths", Burstcore.Json.Int q_growths);
            ( "queue_capacity",
              Burstcore.Json.Int (Scheduler.queue_capacity sched) );
            ( "queue_hwm",
              Burstcore.Json.Int (Scheduler.queue_high_water_mark sched) );
            ( "wheel_parked",
              Burstcore.Json.Int (Scheduler.queue_wheel_parked sched) );
            ("delivered", Burstcore.Json.Int delivered);
            ("measured_queue", Burstcore.Json.Float measured_queue);
            ( "fluid_queue",
              Burstcore.Json.Float eq.Fluidmodel.Reno_fluid.eq_queue );
            ("queue_ratio", Burstcore.Json.Float queue_ratio);
            ( "measured_throughput_pps",
              Burstcore.Json.Float measured_throughput );
            ( "fluid_throughput_pps",
              Burstcore.Json.Float eq.Fluidmodel.Reno_fluid.eq_throughput_pps
            );
            ("throughput_ratio", Burstcore.Json.Float throughput_ratio);
            ("leak_free", Burstcore.Json.Bool leak_free);
          ])
      points
  in
  let json =
    Burstcore.Json.Obj
      [
        ("per_flow_capacity_pps", Burstcore.Json.Float 16.);
        ("base_rtt_s", Burstcore.Json.Float 0.2);
        ( "bytes_per_flow_budget",
          Burstcore.Json.Int flows_bytes_per_flow_budget );
        ( "minor_words_per_event_budget",
          Burstcore.Json.Float flows_minor_words_per_event_budget );
        ("min_events_per_sec", Burstcore.Json.Float flows_min_events_per_sec);
        ( "throughput_ratio_min",
          Burstcore.Json.Float flows_throughput_ratio_min );
        ( "throughput_ratio_max",
          Burstcore.Json.Float flows_throughput_ratio_max );
        ("queue_ratio_min", Burstcore.Json.Float flows_queue_ratio_min);
        ("queue_ratio_max", Burstcore.Json.Float flows_queue_ratio_max);
        ("rows", Burstcore.Json.List rows);
      ]
  in
  write_report ~failed:!failed Telemetry.Report.Flows "BENCH_flows.json" json

(* ------------------------------------------------------------------ *)
(* Burstiness observability: streaming aggregator cost + correctness   *)

(* Three claims, one JSON artifact (BENCH_burst.json), gated from the
   file's own budgets by [write_report] and `report-check --kind=burst`:

   - cost: enabling the always-on [Telemetry.Burst] aggregator on a
     probed Reno N=50 run adds at most [burst_words_budget] minor
     words per scheduler event. The hot path is a streaming dyadic
     fold over flat float arrays, so the only allocation the burst
     configuration adds during the run phase is the oscillation
     sampler's timer closures (~50/simulated-second); like the
     recorder gate next door, probed and burst-enabled reps are
     interleaved pairs and the wall-clock overhead is the median of
     per-pair run-phase deltas (informational — words/event is the
     deterministic gate);

   - correctness: the streaming c.o.v. at the paper's RTT timescale
     must match the offline [Binned] + [Summary] estimate on the same
     run within [burst_cov_tolerance]. Both paths fold the identical
     complete-bin count sequence through the identical Welford update,
     so the gap is zero up to float noise;

   - discrimination: a RED w_q sweep bracketing the linearized
     (Reynier/Hollot-style) stability threshold from
     [Fluidmodel.Reno_fluid.red_stability]. The sweep topology is
     tightened (150 ms RTT, RED band 15..25 at max_p 0.6) so the
     critical gain w_q* lands where both sides are observable in a
     90 s run: the stable row averages slowly enough to keep the
     queue pinned near its RED equilibrium, the unstable row tracks
     the instantaneous queue and limit-cycles. The oscillation
     detector must fire on the unstable row and stay quiet on the
     stable row. *)

let burst_words_budget = 0.05
let burst_cov_tolerance = 1e-6

let run_burst_bench () =
  section "Burstiness observability (Telemetry.Burst)";
  let scenario = Burstcore.Scenario.reno in
  let cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      Burstcore.Config.duration_s = 30.;
      warmup_s = 2.;
    }
  in
  let reps = if !fast then 3 else 5 in
  let words_per_event probe =
    let words =
      Telemetry.Registry.gauge_value
        (Telemetry.Registry.gauge probe.Telemetry.Probe.registry
           Telemetry.Probe.m_minor_words)
    in
    words /. float_of_int (Stdlib.max 1 (Telemetry.Probe.events_total probe))
  in
  let run_phase_s probe =
    Telemetry.Perf.duration_s probe.Telemetry.Probe.phases "run"
  in
  let events = ref 0 in
  let probed_words = ref 0. in
  let burst_words = ref 0. in
  let probed_run = ref infinity in
  let burst_run = ref infinity in
  let deltas = Array.make reps 0. in
  let burst_metrics = ref None in
  for rep = 0 to reps - 1 do
    Gc.full_major ();
    let probe = Telemetry.Probe.create () in
    ignore (Burstcore.Run.run ~probe cfg scenario);
    probed_words := words_per_event probe;
    let probed_rep_run = run_phase_s probe in
    probed_run := Float.min !probed_run probed_rep_run;
    Gc.full_major ();
    let probe = Telemetry.Probe.create () in
    Telemetry.Probe.set_burst probe (Some Telemetry.Burst.default_config);
    let m = Burstcore.Run.run ~probe cfg scenario in
    events := Telemetry.Probe.events_total probe;
    burst_words := words_per_event probe;
    let burst_rep_run = run_phase_s probe in
    burst_run := Float.min !burst_run burst_rep_run;
    deltas.(rep) <-
      (if probed_rep_run > 0. then
         100. *. (burst_rep_run -. probed_rep_run) /. probed_rep_run
       else 0.);
    burst_metrics := Some m
  done;
  let words_delta = !burst_words -. !probed_words in
  let overhead_pct =
    Array.sort Float.compare deltas;
    deltas.(reps / 2)
  in
  let m =
    match !burst_metrics with Some m -> m | None -> assert false
  in
  let s =
    match m.Burstcore.Metrics.burst with
    | Some s -> s
    | None -> failwith "burst-enabled run produced no burst summary"
  in
  let cov_offline = m.Burstcore.Metrics.cov in
  let cov_streaming =
    match
      List.find_opt (fun r -> r.Telemetry.Burst.level = 0)
        s.Telemetry.Burst.scales
    with
    | Some { Telemetry.Burst.s_cov = Some c; _ } -> c
    | _ -> nan
  in
  let cov_abs_err = Float.abs (cov_streaming -. cov_offline) in
  let hurst =
    match s.Telemetry.Burst.s_hurst with Some h -> h | None -> nan
  in
  Format.fprintf std "events per run        %12d@." !events;
  Format.fprintf std "run phase             %12.4f s probed, %.4f s burst@."
    !probed_run !burst_run;
  Format.fprintf std
    "burst overhead        %12.2f %%  (median of %d pairs, informational)@."
    overhead_pct reps;
  Format.fprintf std
    "burst words/event     %12.4f  (delta %.4f, budget %.2f)@." !burst_words
    words_delta burst_words_budget;
  Format.fprintf std
    "cov at RTT scale      %12.7f streaming, %.7f offline (|err| %.2e, \
     tolerance %g)@."
    cov_streaming cov_offline cov_abs_err burst_cov_tolerance;
  Format.fprintf std "hurst (wavelet)       %12.3f@." hurst;
  (* --- RED w_q sweep across the linearized stability threshold --- *)
  let sweep_cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      Burstcore.Config.client_delay_s = 0.0375;
      bottleneck_delay_s = 0.0375;
      red_min_th = 15.;
      red_max_th = 25.;
      red_max_p = 0.6;
      duration_s = 90.;
      warmup_s = 30.;
    }
  in
  let capacity_pps =
    sweep_cfg.Burstcore.Config.bottleneck_bandwidth_mbps *. 1e6
    /. float_of_int (8 * sweep_cfg.Burstcore.Config.packet_bytes)
  in
  let params =
    {
      Fluidmodel.Reno_fluid.flows = sweep_cfg.Burstcore.Config.clients;
      capacity_pps;
      base_rtt_s = Burstcore.Config.rtt_prop_s sweep_cfg;
      buffer_packets =
        float_of_int sweep_cfg.Burstcore.Config.buffer_packets;
      red_min_th = sweep_cfg.Burstcore.Config.red_min_th;
      red_max_th = sweep_cfg.Burstcore.Config.red_max_th;
      red_max_p = sweep_cfg.Burstcore.Config.red_max_p;
      avg_gain = 10.;
    }
  in
  let stability = Fluidmodel.Reno_fluid.red_stability params in
  let wq_critical =
    match stability.Fluidmodel.Reno_fluid.wq_critical with
    | Some w -> w
    | None ->
        Format.eprintf
          "burst bench misconfigured: loop gain %.3f <= 1, no critical w_q@."
          stability.Fluidmodel.Reno_fluid.loop_gain;
        exit 1
  in
  Format.fprintf std
    "@.RED stability (N=%d, R=%.3f s, C=%.1f pps): loop gain %.3f, \
     w_q* = %.2e@."
    sweep_cfg.Burstcore.Config.clients
    (Burstcore.Config.rtt_prop_s sweep_cfg)
    capacity_pps stability.Fluidmodel.Reno_fluid.loop_gain wq_critical;
  let osc_row side w_q =
    let cfg = { sweep_cfg with Burstcore.Config.red_w_q = w_q } in
    let probe = Telemetry.Probe.create () in
    Telemetry.Probe.set_burst probe (Some Telemetry.Burst.default_config);
    let m = Burstcore.Run.run ~probe cfg Burstcore.Scenario.reno_red in
    let o =
      match m.Burstcore.Metrics.burst with
      | Some { Telemetry.Burst.s_osc = Some o; _ } -> o
      | _ -> failwith "RED sweep run produced no oscillation summary"
    in
    Format.fprintf std
      "  w_q %.2e (%8s): rel amplitude %.3f, %d crossings, %.3f Hz, mean \
       queue %.1f -> %s@."
      w_q side o.Telemetry.Burst.o_rel_amplitude
      o.Telemetry.Burst.o_crossings o.Telemetry.Burst.o_frequency_hz
      o.Telemetry.Burst.o_mean
      (if o.Telemetry.Burst.o_oscillating then "OSCILLATING" else "quiet");
    (w_q, side, o)
  in
  let rows =
    [ osc_row "stable" (wq_critical /. 10.); osc_row "unstable" (wq_critical *. 100.) ]
  in
  let row_json (w_q, side, o) =
    Burstcore.Json.Obj
      [
        ("w_q", Burstcore.Json.Float w_q);
        ("side", Burstcore.Json.String side);
        ( "rel_amplitude",
          Burstcore.Json.Float o.Telemetry.Burst.o_rel_amplitude );
        ("frequency_hz", Burstcore.Json.Float o.Telemetry.Burst.o_frequency_hz);
        ("crossings", Burstcore.Json.Int o.Telemetry.Burst.o_crossings);
        ("mean_queue", Burstcore.Json.Float o.Telemetry.Burst.o_mean);
        ("oscillating", Burstcore.Json.Bool o.Telemetry.Burst.o_oscillating);
      ]
  in
  let json =
    Burstcore.Json.Obj
      [
        ("scenario", Burstcore.Json.String (Burstcore.Scenario.label scenario));
        ("clients", Burstcore.Json.Int cfg.Burstcore.Config.clients);
        ("duration_s", Burstcore.Json.Float cfg.Burstcore.Config.duration_s);
        ("reps", Burstcore.Json.Int reps);
        ("events", Burstcore.Json.Int !events);
        ("probed_run_s", Burstcore.Json.Float !probed_run);
        ("burst_run_s", Burstcore.Json.Float !burst_run);
        ("burst_overhead_pct", Burstcore.Json.Float overhead_pct);
        ("probed_minor_words_per_event", Burstcore.Json.Float !probed_words);
        ("burst_minor_words_per_event", Burstcore.Json.Float !burst_words);
        ("burst_minor_words_per_event_delta", Burstcore.Json.Float words_delta);
        ("burst_words_budget", Burstcore.Json.Float burst_words_budget);
        ("cov_offline", Burstcore.Json.Float cov_offline);
        ("cov_streaming", Burstcore.Json.Float cov_streaming);
        ("cov_abs_err", Burstcore.Json.Float cov_abs_err);
        ("cov_tolerance", Burstcore.Json.Float burst_cov_tolerance);
        ("hurst_wavelet", Burstcore.Json.Float hurst);
        ( "red_sweep",
          Burstcore.Json.Obj
            [
              ( "flows",
                Burstcore.Json.Int sweep_cfg.Burstcore.Config.clients );
              ( "base_rtt_s",
                Burstcore.Json.Float (Burstcore.Config.rtt_prop_s sweep_cfg)
              );
              ("capacity_pps", Burstcore.Json.Float capacity_pps);
              ( "loop_gain",
                Burstcore.Json.Float
                  stability.Fluidmodel.Reno_fluid.loop_gain );
              ("wq_critical", Burstcore.Json.Float wq_critical);
              ("rows", Burstcore.Json.List (List.map row_json rows));
            ] );
      ]
  in
  write_report Telemetry.Report.Burst "BENCH_burst.json" json

(* ------------------------------------------------------------------ *)
(* Hybrid fluid/packet engine: validation, converged 10^6, stability   *)

(* Three claims, one JSON artifact (BENCH_hybrid.json), gated from the
   file's own tolerance bands by [write_report] and `report-check
   --kind=hybrid`:

   - validity: at N in {10^3, 10^4} total flows on the mean-field
     regime (the flow-scaling bench's shape), replacing all but K = 50
     flows with the fluid background population reproduces the pure
     packet-level run's per-flow foreground throughput, combined
     bottleneck backlog and gateway loss rate within committed bands —
     while processing a fraction of the events;
   - scale: the converged N = 10^6 run (K = 100 packet-level foreground
     + 999,900 fluid background, a steady-state >= 20-equilibrium-RTT
     horizon) is leak-free with zero slab growth and does at least
     [hybrid_work_ratio_min] times less work per simulated second than
     a pure packet-level run at equal N (measured, full mode only; the
     --fast row is a smoke probe and records null);
   - stability: the RED w_q sweep rerun at mean-field scale (N = 10^4,
     hybrid engine) is classified by the fluid Hopf threshold — the
     oscillation detector fires on the super-critical side and stays
     quiet on the sub-critical side, closing the stability-boundary
     question at a population size the packet engine alone cannot hold
     at this horizon. *)

let hybrid_foreground = 50

(* The fluid Reno law has no timeouts and no sub-RTT burstiness, so the
   fluid-dominated side settles at a somewhat higher queue (and its
   foreground a somewhat higher throughput) than the pure packet run —
   the same inherent bias the flow-scaling bench gates at ~0.5x queue
   ratio against the standalone ODE. The observable that matters is
   that the ratios are N-independent; the bands are set around the
   measured bias with replicate headroom. *)
let hybrid_throughput_ratio_min, hybrid_throughput_ratio_max = (0.80, 1.25)
let hybrid_queue_ratio_min, hybrid_queue_ratio_max = (0.5, 2.0)
let hybrid_loss_abs_tol = 0.025
let hybrid_work_ratio_min = 10.

let run_hybrid_bench () =
  section "Hybrid fluid/packet engine (fluid background population)";
  let module C = Burstcore.Config in
  let module Time = Sim_engine.Time in
  let module Scheduler = Sim_engine.Scheduler in
  let failed = ref false in
  let gate cond fmt =
    Format.ksprintf
      (fun msg ->
        if not cond then begin
          Format.eprintf "hybrid regression: %s@." msg;
          failed := true
        end)
      fmt
  in
  (* The flow-scaling bench's mean-field shape: 16 pps/flow, 0.2 s
     propagation RTT, RED spanning [N, 7N]. *)
  let flows_cfg n duration_s =
    let f = float_of_int n in
    {
      (C.with_clients C.default n) with
      C.bottleneck_bandwidth_mbps = 0.192 *. f;
      client_delay_s = 0.05;
      bottleneck_delay_s = 0.05;
      adv_window = 12;
      buffer_packets = 10 * n;
      red_min_th = f;
      red_max_th = 7.0 *. f;
      red_max_p = 0.05;
      duration_s;
      warmup_s = duration_s /. 2.;
    }
  in
  (* Drive [k] packet-level greedy flows over [cfg], attaching the
     fluid background when [cfg.background >= 1]; measure over the last
     40 % of the horizon. *)
  let drive cfg k =
    let duration_s = cfg.C.duration_s in
    let measure_from = 0.6 *. duration_s in
    let net = Burstcore.Dumbbell.create cfg Burstcore.Scenario.reno_red in
    let sched = Burstcore.Dumbbell.scheduler net in
    let horizon = Time.of_sec duration_s in
    let bottleneck = Burstcore.Dumbbell.bottleneck net in
    let hybrid =
      if cfg.C.background >= 1 then
        Some (Burstcore.Hybrid.attach ~sched ~bottleneck cfg)
      else None
    in
    let queue_series =
      Netsim.Monitor.queue_sampler sched bottleneck ~every:(Time.of_ms 10.)
        ~until:horizon
    in
    for i = 0 to k - 1 do
      ignore
        (Traffic.Bulk.start sched ~size:Traffic.Bulk.infinite_backlog_size
           ~start:(Time.of_sec (0.2 *. float_of_int i /. float_of_int k))
           ~sink:(Burstcore.Dumbbell.sink net i))
    done;
    let delivered_at_mark = ref 0 in
    let arrivals_at_mark = ref 0 in
    let drops_at_mark = ref 0 in
    ignore
      (Scheduler.at sched (Time.of_sec measure_from) (fun () ->
           delivered_at_mark := Burstcore.Dumbbell.delivered_total net;
           arrivals_at_mark := Netsim.Link.arrivals bottleneck;
           drops_at_mark := Netsim.Link.drops bottleneck));
    let t0 = Telemetry.Perf.wall_clock_s () in
    Scheduler.run ~until:horizon sched;
    let wall = Telemetry.Perf.wall_clock_s () -. t0 in
    let events = Scheduler.events_processed sched in
    let window = duration_s -. measure_from in
    let per_flow_pps =
      float_of_int
        (Burstcore.Dumbbell.delivered_total net - !delivered_at_mark)
      /. window /. float_of_int k
    in
    let arr = Netsim.Link.arrivals bottleneck - !arrivals_at_mark in
    let drops = Netsim.Link.drops bottleneck - !drops_at_mark in
    let loss_rate =
      if arr = 0 then 0. else float_of_int drops /. float_of_int arr
    in
    let queue_phys =
      let steady =
        Netstats.Series.between queue_series measure_from duration_s
      in
      List.fold_left (fun acc (_, v) -> acc +. v) 0. steady
      /. float_of_int (Stdlib.max 1 (List.length steady))
    in
    let summary = Option.map Burstcore.Hybrid.summary hybrid in
    let queue_comb =
      queue_phys
      +.
      match summary with
      | Some s -> s.Burstcore.Metrics.bg_queue_mean
      | None -> 0.
    in
    let ft_growths = Burstcore.Dumbbell.flow_table_growths net in
    let q_growths = Scheduler.queue_growths sched in
    Burstcore.Dumbbell.reclaim net;
    let pool_live = Netsim.Packet_pool.live (Burstcore.Dumbbell.pool net) in
    Burstcore.Dumbbell.release_flows net;
    let flows_live = Burstcore.Dumbbell.flows_live net in
    ( events,
      wall,
      per_flow_pps,
      loss_rate,
      queue_comb,
      pool_live = 0 && flows_live = 0,
      ft_growths,
      q_growths,
      summary )
  in
  (* --- validation: hybrid vs pure packet at N in {10^3, 10^4} ------ *)
  let k_fg = hybrid_foreground in
  let validation_rows =
    List.map
      (fun n ->
        let duration_s = if !fast then 8.0 else 10.0 in
        let base = flows_cfg n duration_s in
        let p_events, p_wall, p_pf, p_loss, p_queue, p_leak, _, _, _ =
          drive base n
        in
        let hcfg = { (C.with_clients base k_fg) with C.background = n - k_fg } in
        let h_events, h_wall, h_pf, h_loss, h_queue, h_leak, h_ft, h_qg, h_sum
            =
          drive hcfg k_fg
        in
        let ratio num den = if den > 0. then num /. den else 0. in
        let thr_ratio = ratio h_pf p_pf in
        let queue_ratio = ratio h_queue p_queue in
        let loss_err = Float.abs (h_loss -. p_loss) in
        let event_ratio = ratio (float_of_int p_events) (float_of_int h_events) in
        Format.fprintf std "@.N = %d (K = %d foreground, %d fluid)@." n k_fg
          (n - k_fg);
        Format.fprintf std
          "  per-flow throughput   %9.2f pps packet, %8.2f hybrid  (ratio \
           %.3f)@."
          p_pf h_pf thr_ratio;
        Format.fprintf std
          "  combined queue        %9.0f packet, %12.0f hybrid  (ratio \
           %.3f)@."
          p_queue h_queue queue_ratio;
        Format.fprintf std
          "  gateway loss rate     %9.4f packet, %12.4f hybrid  (|err| \
           %.4f)@."
          p_loss h_loss loss_err;
        Format.fprintf std
          "  events                %9d packet, %12d hybrid  (%.0fx less \
           work)@."
          p_events h_events event_ratio;
        Format.fprintf std "  wall                  %9.3f s packet, %10.3f s \
                            hybrid@."
          p_wall h_wall;
        (* Leaks and slab growth of the validation runs are not in the
           file, so only the bench can gate them. *)
        gate p_leak "N=%d: pure packet run leaked" n;
        gate h_leak "N=%d: hybrid run leaked" n;
        gate (h_ft = 0 && h_qg = 0)
          "N=%d: hybrid slabs grew (%d flow-table, %d event-queue)" n h_ft
          h_qg;
        Burstcore.Json.Obj
          ([
             ("flows", Burstcore.Json.Int n);
             ("foreground", Burstcore.Json.Int k_fg);
             ("background", Burstcore.Json.Int (n - k_fg));
             ("duration_s", Burstcore.Json.Float duration_s);
             ("packet_throughput_pps", Burstcore.Json.Float p_pf);
             ("hybrid_throughput_pps", Burstcore.Json.Float h_pf);
             ("throughput_ratio", Burstcore.Json.Float thr_ratio);
             ("packet_queue_mean", Burstcore.Json.Float p_queue);
             ("hybrid_queue_mean", Burstcore.Json.Float h_queue);
             ("queue_ratio", Burstcore.Json.Float queue_ratio);
             ("packet_loss_rate", Burstcore.Json.Float p_loss);
             ("hybrid_loss_rate", Burstcore.Json.Float h_loss);
             ("loss_abs_err", Burstcore.Json.Float loss_err);
             ("packet_events", Burstcore.Json.Int p_events);
             ("hybrid_events", Burstcore.Json.Int h_events);
             ("event_ratio", Burstcore.Json.Float event_ratio);
             ("packet_wall_s", Burstcore.Json.Float p_wall);
             ("hybrid_wall_s", Burstcore.Json.Float h_wall);
           ]
          @
          match h_sum with
          | Some s ->
              [ ("hybrid", Burstcore.Export.hybrid_summary_to_json s) ]
          | None -> []))
      [ 1_000; 10_000 ]
  in
  (* --- converged N = 10^6 ------------------------------------------ *)
  let conv_n = 1_000_000 and conv_k = 100 in
  let conv_duration = if !fast then 4.0 else 10.0 in
  let conv_cfg =
    {
      (C.with_clients (flows_cfg conv_n conv_duration) conv_k) with
      C.background = conv_n - conv_k;
    }
  in
  let c_events, c_wall, c_pf, c_loss, _c_queue, c_leak, c_ft, c_qg, c_sum =
    drive conv_cfg conv_k
  in
  let c_eps = float_of_int c_events /. Stdlib.max 1e-9 c_wall in
  let hybrid_work = float_of_int c_events /. conv_duration in
  Format.fprintf std
    "@.N = %d converged (K = %d foreground, %d fluid, %.1f s horizon)@."
    conv_n conv_k (conv_n - conv_k) conv_duration;
  Format.fprintf std "  events                %12d  (%.0f per simulated s)@."
    c_events hybrid_work;
  Format.fprintf std "  wall                  %13.4f s  (%.0f events/s)@."
    c_wall c_eps;
  Format.fprintf std "  foreground throughput %12.2f pps/flow, loss %.4f@."
    c_pf c_loss;
  (match c_sum with
  | Some s ->
      Format.fprintf std
        "  background            %12.2f window, %.0f virtual queue, \
         slowdown %.2f@."
        s.Burstcore.Metrics.bg_window_mean s.Burstcore.Metrics.bg_queue_mean
        s.Burstcore.Metrics.slowdown_mean
  | None -> ());
  let work_ratio =
    if !fast then begin
      Format.fprintf std
        "  (pure-packet work baseline skipped under --fast; work ratio not \
         enforced)@.";
      None
    end
    else begin
      (* Pure packet at equal N: a short scale probe is enough to
         measure its work per simulated second. *)
      let probe_s = 0.3 in
      let p_events, p_wall, _, _, _, _, _, _, _ =
        drive (flows_cfg conv_n probe_s) conv_n
      in
      let packet_work = float_of_int p_events /. probe_s in
      let r = packet_work /. Stdlib.max 1. hybrid_work in
      Format.fprintf std
        "  pure packet at N=%d:  %12d events in %.1f simulated s (%.3f s \
         wall) -> %.0f events per simulated s@."
        conv_n p_events probe_s p_wall packet_work;
      Format.fprintf std "  work ratio            %12.0fx  (floor %.0fx)@." r
        hybrid_work_ratio_min;
      Some r
    end
  in
  let converged_json =
    Burstcore.Json.Obj
      ([
         ("flows", Burstcore.Json.Int conv_n);
         ("foreground", Burstcore.Json.Int conv_k);
         ("background", Burstcore.Json.Int (conv_n - conv_k));
         ("duration_s", Burstcore.Json.Float conv_duration);
         ("events", Burstcore.Json.Int c_events);
         ("wall_s", Burstcore.Json.Float c_wall);
         ("events_per_sec", Burstcore.Json.Float c_eps);
         ("events_per_sim_s", Burstcore.Json.Float hybrid_work);
         ("foreground_throughput_pps", Burstcore.Json.Float c_pf);
         ("foreground_loss_rate", Burstcore.Json.Float c_loss);
         ( "bg_window_mean",
           Burstcore.Json.Float
             (match c_sum with
             | Some s -> s.Burstcore.Metrics.bg_window_mean
             | None -> 0.) );
         ( "bg_queue_mean",
           Burstcore.Json.Float
             (match c_sum with
             | Some s -> s.Burstcore.Metrics.bg_queue_mean
             | None -> 0.) );
         ( "slowdown_mean",
           Burstcore.Json.Float
             (match c_sum with
             | Some s -> s.Burstcore.Metrics.slowdown_mean
             | None -> 0.) );
         ("flow_table_growths", Burstcore.Json.Int c_ft);
         ("queue_growths", Burstcore.Json.Int c_qg);
         ("leak_free", Burstcore.Json.Bool c_leak);
         ("smoke", Burstcore.Json.Bool !fast);
         ( "work_ratio",
           match work_ratio with
           | Some r -> Burstcore.Json.Float r
           | None -> Burstcore.Json.Null );
       ]
      @
      match c_sum with
      | Some s -> [ ("hybrid", Burstcore.Export.hybrid_summary_to_json s) ]
      | None -> [])
  in
  (* --- RED w_q stability sweep at mean-field scale ------------------ *)
  (* The burst bench's sweep shape scaled x200 to N = 10^4 total flows:
     the loop gain L = slope (RC)^3 / (2N)^2 is invariant under
     (C, thresholds, buffer) proportional to N, so the Hopf threshold
     survives the scaling while the population becomes far too large to
     sweep packet-level at this horizon. *)
  let sweep_n = 10_000 in
  let sweep_cfg w_q =
    {
      (C.with_clients C.default hybrid_foreground) with
      C.bottleneck_bandwidth_mbps = 1000.;
      client_delay_s = 0.0375;
      bottleneck_delay_s = 0.0375;
      buffer_packets = 10_000;
      red_min_th = 3000.;
      red_max_th = 5000.;
      red_max_p = 0.6;
      red_w_q = w_q;
      duration_s = 90.;
      warmup_s = 30.;
      background = sweep_n - hybrid_foreground;
    }
  in
  let probe_cfg = sweep_cfg 0.002 in
  let capacity_pps = Burstcore.Hybrid.capacity_pps probe_cfg in
  let params =
    {
      Fluidmodel.Reno_fluid.flows = sweep_n;
      capacity_pps;
      base_rtt_s = C.rtt_prop_s probe_cfg;
      buffer_packets = float_of_int probe_cfg.C.buffer_packets;
      red_min_th = probe_cfg.C.red_min_th;
      red_max_th = probe_cfg.C.red_max_th;
      red_max_p = probe_cfg.C.red_max_p;
      avg_gain = 10.;
    }
  in
  let stability = Fluidmodel.Reno_fluid.red_stability params in
  let wq_critical =
    match stability.Fluidmodel.Reno_fluid.wq_critical with
    | Some w -> w
    | None ->
        Format.eprintf
          "hybrid bench misconfigured: loop gain %.3f <= 1, no critical w_q@."
          stability.Fluidmodel.Reno_fluid.loop_gain;
        exit 1
  in
  Format.fprintf std
    "@.RED stability at mean-field scale (N=%d, R=%.3f s, C=%.0f pps): loop \
     gain %.3f, w_q* = %.2e@."
    sweep_n
    (C.rtt_prop_s probe_cfg)
    capacity_pps stability.Fluidmodel.Reno_fluid.loop_gain wq_critical;
  let osc_row side w_q =
    let cfg = sweep_cfg w_q in
    let probe = Telemetry.Probe.create () in
    Telemetry.Probe.set_burst probe (Some Telemetry.Burst.default_config);
    let m = Burstcore.Run.run ~probe cfg Burstcore.Scenario.reno_red in
    let o =
      match m.Burstcore.Metrics.burst with
      | Some { Telemetry.Burst.s_osc = Some o; _ } -> o
      | _ -> failwith "hybrid sweep run produced no oscillation summary"
    in
    Format.fprintf std
      "  w_q %.2e (%8s): rel amplitude %.3f, %d crossings, %.3f Hz, mean \
       queue %.1f -> %s@."
      w_q side o.Telemetry.Burst.o_rel_amplitude
      o.Telemetry.Burst.o_crossings o.Telemetry.Burst.o_frequency_hz
      o.Telemetry.Burst.o_mean
      (if o.Telemetry.Burst.o_oscillating then "OSCILLATING" else "quiet");
    (w_q, side, o)
  in
  let sweep_rows =
    [
      osc_row "stable" (wq_critical /. 10.);
      osc_row "unstable" (wq_critical *. 100.);
    ]
  in
  let sweep_row_json (w_q, side, o) =
    Burstcore.Json.Obj
      [
        ("w_q", Burstcore.Json.Float w_q);
        ("side", Burstcore.Json.String side);
        ( "rel_amplitude",
          Burstcore.Json.Float o.Telemetry.Burst.o_rel_amplitude );
        ("frequency_hz", Burstcore.Json.Float o.Telemetry.Burst.o_frequency_hz);
        ("crossings", Burstcore.Json.Int o.Telemetry.Burst.o_crossings);
        ("mean_queue", Burstcore.Json.Float o.Telemetry.Burst.o_mean);
        ("oscillating", Burstcore.Json.Bool o.Telemetry.Burst.o_oscillating);
      ]
  in
  let json =
    Burstcore.Json.Obj
      [
        ("scenario", Burstcore.Json.String "reno-red");
        ("foreground", Burstcore.Json.Int k_fg);
        ( "throughput_ratio_min",
          Burstcore.Json.Float hybrid_throughput_ratio_min );
        ( "throughput_ratio_max",
          Burstcore.Json.Float hybrid_throughput_ratio_max );
        ("queue_ratio_min", Burstcore.Json.Float hybrid_queue_ratio_min);
        ("queue_ratio_max", Burstcore.Json.Float hybrid_queue_ratio_max);
        ("loss_abs_tol", Burstcore.Json.Float hybrid_loss_abs_tol);
        ("work_ratio_min", Burstcore.Json.Float hybrid_work_ratio_min);
        ("validation", Burstcore.Json.List validation_rows);
        ("converged", converged_json);
        ( "stability_sweep",
          Burstcore.Json.Obj
            [
              ("flows", Burstcore.Json.Int sweep_n);
              ("foreground", Burstcore.Json.Int hybrid_foreground);
              ( "base_rtt_s",
                Burstcore.Json.Float (C.rtt_prop_s probe_cfg) );
              ("capacity_pps", Burstcore.Json.Float capacity_pps);
              ( "loop_gain",
                Burstcore.Json.Float stability.Fluidmodel.Reno_fluid.loop_gain
              );
              ("wq_critical", Burstcore.Json.Float wq_critical);
              ("rows", Burstcore.Json.List (List.map sweep_row_json sweep_rows));
            ] );
      ]
  in
  write_report ~failed:!failed Telemetry.Report.Hybrid "BENCH_hybrid.json" json

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator primitives                *)

module Micro = struct
  open Bechamel
  open Toolkit

  let event_queue_cycle =
    Test.make ~name:"event_queue schedule+pop x100"
      (Staged.stage (fun () ->
           let q = Sim_engine.Event_queue.create () in
           for i = 0 to 99 do
             ignore
               (Sim_engine.Event_queue.schedule q
                  (Sim_engine.Time.of_sec (float_of_int ((i * 31) mod 17)))
                  ignore)
           done;
           while Sim_engine.Event_queue.pop q <> None do
             ()
           done))

  let rng_exponential =
    let rng = Sim_engine.Rng.create ~seed:1L in
    Test.make ~name:"rng exponential"
      (Staged.stage (fun () -> ignore (Sim_engine.Rng.exponential rng ~mean:0.1)))

  let red_enqueue_dequeue =
    let rng = Sim_engine.Rng.create ~seed:2L in
    let pool = Netsim.Packet_pool.create () in
    let params = Netsim.Red.default_params ~capacity:50 ~min_th:10. ~max_th:40. in
    let red = Netsim.Red.create ~rng ~pool params in
    (* One live handle recycled through the queue; RED never frees, so a
       drop just leaves it valid for the next iteration. *)
    let packet =
      Netsim.Packet_pool.alloc_data pool ~flow:0 ~src:1 ~dst:0 ~size_bytes:1500
        ~sent_at:Sim_engine.Time.zero ~seq:0 ~is_retransmit:false ()
    in
    Test.make ~name:"red enqueue+dequeue"
      (Staged.stage (fun () ->
           ignore (Netsim.Red.enqueue red ~now:Sim_engine.Time.zero packet);
           ignore (Netsim.Red.dequeue red ~now:Sim_engine.Time.zero)))

  let welford_add =
    let w = Netstats.Welford.create () in
    Test.make ~name:"welford add"
      (Staged.stage (fun () -> Netstats.Welford.add w 1.234))

  let mini_simulation =
    Test.make ~name:"dumbbell 2 clients x 5s"
      (Staged.stage (fun () ->
           let cfg =
             {
               (Burstcore.Config.with_clients Burstcore.Config.default 2) with
               Burstcore.Config.duration_s = 5.;
               warmup_s = 1.;
             }
           in
           ignore (Burstcore.Run.run cfg Burstcore.Scenario.reno)))

  let tests =
    Test.make_grouped ~name:"primitives" ~fmt:"%s %s"
      [
        event_queue_cycle;
        rng_exponential;
        red_enqueue_dequeue;
        welford_add;
        mini_simulation;
      ]

  let run () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    Hashtbl.iter
      (fun _clock per_test ->
        let rows = ref [] in
        Hashtbl.iter
          (fun name ols_result ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some (x :: _) -> x
              | _ -> Float.nan
            in
            rows := (name, ns) :: !rows)
          per_test;
        let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
        List.iter
          (fun (name, ns) ->
            if ns > 1e6 then Format.fprintf std "%-40s %12.3f ms/run@." name (ns /. 1e6)
            else if ns > 1e3 then Format.fprintf std "%-40s %12.3f us/run@." name (ns /. 1e3)
            else Format.fprintf std "%-40s %12.1f ns/run@." name ns)
          rows)
      results
end

let run_micro () =
  section "Microbenchmarks (Bechamel)";
  Micro.run ()

let () =
  Arg.parse (Arg.align args) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if wants "table1" then run_table1 ();
  if wants "figures" then run_figures ();
  if wants "cwnd" then run_cwnd_figures ();
  if wants "queue" then run_queue_occupancy ();
  if wants "ablations" then run_ablations ();
  if wants "selfsim" then run_selfsim ();
  if wants "sync" then run_sync ();
  if wants "fluid" then run_fluid ();
  if wants "parking" then run_parking_lot ();
  if wants "twoway" then run_twoway ();
  if wants "telemetry" then run_telemetry_bench ();
  (* "pdes" is an alias for the parallel section: the sweep fan-out and
     the single-run sharded engine write one BENCH_parallel.json. *)
  if wants "parallel" || wants "pdes" then run_parallel_bench ();
  if wants "alloc" then run_alloc_bench ();
  if wants "flows" then run_flows_bench ();
  if wants "burst" then run_burst_bench ();
  if wants "hybrid" then run_hybrid_bench ();
  if (not !skip_micro) && wants "micro" then run_micro ();
  Format.pp_print_flush std ()
