(* The scenario-matrix benchmark's measuring program.

   perfbench.exe pass  --workload W --seed N [--quick]
   perfbench.exe trace --workload W --seed N [--quick] [--spans FILE]

   [pass] runs one untraced pass of the workload between two runs of
   the reference kernel ([Calib]) and prints its phase times, counters,
   per-run statistics and the kernel's time as one JSON line. [trace]
   runs one traced pass plus its companion runs and layer replays and
   prints the per-layer metrics. [perfbench/run.py] drives both. *)

module C = Burstcore.Config
module M = Burstcore.Metrics
module Probe = Telemetry.Probe
module J = Telemetry.Json

let ratio a b = if b > 0. && Float.is_finite a then a /. b else 0.
let fi = float_of_int

(* --- traced run --------------------------------------------------- *)

type layer_metric = { name : string; unit : string; value : float }

let per_layer w =
  let gc = Trace.Gc_timeline.start () in
  let run_windows = ref [] in
  let pass w =
    Measure.pass
      ~around:(fun probe label f ->
        let phases = probe.Probe.phases in
        let d name = Telemetry.Perf.duration_s phases name in
        let s0 = d "setup" and r0 = d "run" and c0 = d "collect" in
        let parent = Trace.current () in
        let o = f () in
        let ds = d "setup" -. s0 and dr = d "run" -. r0 and dc = d "collect" -. c0 in
        let t = o.Measure.start_s in
        let id =
          Trace.add ~name:("run:" ^ label) ~parent ~start_s:t
            ~end_s:(Telemetry.Perf.wall_clock_s ())
        in
        let phase name a b = ignore (Trace.add ~name ~parent:id ~start_s:a ~end_s:b) in
        phase "setup" t (t +. ds);
        phase "run" (t +. ds) (t +. ds +. dr);
        phase "collect" (t +. ds +. dr) (t +. ds +. dr +. dc);
        run_windows := (t +. ds, t +. ds +. dr) :: !run_windows;
        Trace.Gc_timeline.poll gc;
        o)
      w
  in
  let p = Trace.with_span "pass:traced" (fun () -> pass w) in
  let windows = !run_windows in
  let companion name f =
    let r = Trace.with_span ("companion:" ^ name) f in
    Trace.Gc_timeline.poll gc;
    r
  in
  let replay name f =
    Gc.full_major ();
    let r = Trace.with_span ("replay:" ^ name) f in
    Trace.Gc_timeline.poll gc;
    r
  in
  let outcomes = p.Measure.outcomes in
  let metrics = List.filter_map (fun o -> o.Measure.metrics) outcomes in
  let run_s = Measure.phase p "run" in
  let share ops_ns = ratio (ops_ns *. 1e-9) run_s in
  let events = Measure.events p in
  let sum_m f = List.fold_left (fun acc m -> acc + f m) 0 metrics in
  let arrivals = Measure.counter p Probe.m_arrivals in
  let drops = Measure.counter p Probe.m_drops in
  let sim_s =
    List.fold_left (fun acc o -> acc +. o.Measure.cfg.C.duration_s) 0. outcomes
  in
  (* engine *)
  let queue_hwm = int_of_float (Measure.gauge p Probe.m_eq_hwm) in
  let queue_capacity = Measure.net_max p (fun n -> n.Measure.queue_capacity) in
  let wheel_parked = Measure.net_sum p (fun n -> n.Measure.wheel_parked) in
  let schedule_pop_ns =
    replay "engine.schedule_pop" (fun () ->
        Replay.schedule_pop ~depth:queue_hwm ~capacity:queue_capacity
          ~mean_delay_s:(ratio (fi queue_hwm) (ratio (fi events) sim_s)))
  in
  let engine_share = share (fi events *. schedule_pop_ns) in
  (* net: the gateway held at its Little's-law mean occupancy *)
  let qdisc =
    List.map
      (fun o ->
        let cfg = o.Measure.cfg in
        match o.Measure.metrics with
        | None -> (0, 0.)
        | Some m ->
            let bits = fi (cfg.C.packet_bytes * 8) in
            let base =
              cfg.C.client_delay_s +. cfg.C.bottleneck_delay_s
              +. (bits /. (cfg.C.client_bandwidth_mbps *. 1e6))
              +. (bits /. (cfg.C.bottleneck_bandwidth_mbps *. 1e6))
            in
            let rate =
              fi (m.M.gateway_arrivals - m.M.gateway_drops) /. cfg.C.duration_s
            in
            let wait = Float.max 0. (m.M.delay_mean_s -. base) in
            let occupancy = int_of_float (rate *. wait) in
            ( m.M.gateway_arrivals,
              replay "net.qdisc" (fun () ->
                  Replay.qdisc_op cfg o.Measure.scenario ~occupancy) ))
      outcomes
  in
  let qdisc_work = List.fold_left (fun acc (a, ns) -> acc +. (fi a *. ns)) 0. qdisc in
  let qdisc_op_ns = ratio qdisc_work (fi arrivals) in
  let pool_hwm = Measure.net_max p (fun n -> n.Measure.pool_hwm) in
  let pool_allocs = Measure.net_sum p (fun n -> n.Measure.pool_allocs) in
  let pool_ns =
    if pool_allocs = 0 then 0.
    else replay "net.pool_alloc_free" (fun () -> Replay.pool_alloc_free ~live:pool_hwm)
  in
  let net_share = share (qdisc_work +. (fi pool_allocs *. pool_ns)) in
  (* traffic *)
  let offered = sum_m (fun m -> m.M.offered) in
  let cfg0 = match outcomes with o :: _ -> o.Measure.cfg | [] -> C.default in
  let rng_ns =
    replay "traffic.rng_exponential" (fun () ->
        Replay.rng_exponential ~mean:cfg0.C.mean_interarrival_s)
  in
  let traffic_share = share (fi offered *. rng_ns) in
  (* parallel: the same inputs on the sharded engine with 2 domains (one
     per CPU of the reference machine) and with 1; the two must agree *)
  let windows_n, barrier_ns, barrier_share, speedup, vs_classic, k_invariant =
    if not w.Workload.sharded then (0, 0., 0., 0., 0., true)
    else begin
      let sharded k =
        companion (Printf.sprintf "k%d" k) (fun () ->
            pass (Workload.with_shards k w))
      in
      let k2 = sharded 2 and k1 = sharded 1 in
      let k2_run_s = Measure.phase k2 "run" in
      let stats p =
        List.map (fun o -> J.to_string (Measure.outcome_json o)) p.Measure.outcomes
      in
      let windows_n =
        List.fold_left
          (fun acc o ->
            let cfg = o.Measure.cfg in
            acc
            + int_of_float
                (Float.ceil (cfg.C.duration_s /. Burstcore.Pdes.window_s cfg)))
          0 k2.Measure.outcomes
      in
      let barrier_ns =
        replay "parallel.barrier" (fun () -> Replay.barrier ~domains:2)
      in
      ( windows_n,
        barrier_ns,
        ratio (fi (2 * windows_n) *. barrier_ns *. 1e-9) k2_run_s,
        ratio (Measure.phase k1 "run") k2_run_s,
        ratio k2_run_s run_s,
        List.equal String.equal (stats k1) (stats k2) )
    end
  in
  (* fluid: hybrid runs only *)
  let fluid_steps =
    sum_m (fun m -> match m.M.hybrid with Some h -> h.M.steps | None -> 0)
  in
  let fluid_ns =
    if fluid_steps = 0 then 0.
    else
      replay "fluid.step" (fun () ->
          Replay.fluid_step cfg0
            ~q_pkt:(Measure.gauge p Probe.m_gw_hwm /. 2.)
            ~p_drop:(ratio (fi drops) (fi arrivals)))
  in
  let fluid_share = share (fi fluid_steps *. fluid_ns) in
  (* telemetry: the paired run with burst and recorder off *)
  let wpe p = ratio (Measure.gauge p Probe.m_minor_words) (fi (Measure.events p)) in
  let tel_overhead, tel_words, burst_ns, rec_ns, tel_share =
    if not w.Workload.telemetry then (0., 0., 0., 0., 0.)
    else begin
      let off =
        companion "telemetry-off" (fun () ->
            pass (Workload.without_telemetry w))
      in
      let records =
        List.fold_left
          (fun acc r -> acc + Telemetry.Recorder.total_recorded r)
          0 (Probe.segments p.Measure.probe)
      in
      let burst_ns =
        replay "telemetry.burst_observe" (fun () ->
            Replay.burst_observe ~origin:cfg0.C.warmup_s ~width:(C.rtt_prop_s cfg0)
              ~spacing_s:(ratio sim_s (fi arrivals)))
      in
      let rec_ns = replay "telemetry.recorder_record" Replay.recorder_record in
      ( run_s -. Measure.phase off "run",
        wpe p -. wpe off,
        burst_ns,
        rec_ns,
        share ((fi arrivals *. burst_ns) +. (fi records *. rec_ns)) )
    end
  in
  (* core: Dumbbell.create replayed once per run *)
  let dumbbell_create_s =
    replay "core.dumbbell_create" (fun () ->
        List.fold_left
          (fun acc o ->
            Gc.full_major ();
            let t0 = Telemetry.Perf.wall_clock_s () in
            ignore
              (Sys.opaque_identity
                 (Burstcore.Dumbbell.create o.Measure.cfg o.Measure.scenario));
            acc +. (Telemetry.Perf.wall_clock_s () -. t0))
          0. outcomes)
  in
  (* gc: run-phase windows of the traced pass *)
  Trace.Gc_timeline.poll gc;
  let minor_s, major_s, minor_n = Trace.Gc_timeline.within gc windows in
  let gc_share = ratio (minor_s +. major_s) run_s in
  let transport_retx = sum_m (fun m -> m.M.retransmits) in
  let segments = sum_m (fun m -> m.M.segments_sent) in
  let m name unit value = { name; unit; value } in
  let c name unit v = m name unit (fi v) in
  let layer =
    [
      m "core.setup_s" "s" (Measure.phase p "setup");
      m "core.run_s" "s" run_s;
      m "core.collect_s" "s" (Measure.phase p "collect");
      m "core.dumbbell_create_s" "s" dumbbell_create_s;
      c "engine.events" "count" events;
      c "engine.queue_hwm" "count" queue_hwm;
      c "engine.queue_capacity" "count" queue_capacity;
      c "engine.queue_growths" "count"
        (Measure.net_sum p (fun n -> n.Measure.queue_growths));
      m "engine.wheel_parked_share" "share" (ratio (fi wheel_parked) (fi events));
      m "engine.schedule_pop_ns" "ns" schedule_pop_ns;
      m "engine.est_share" "share" engine_share;
      c "net.gateway_arrivals" "count" arrivals;
      c "net.gateway_drops" "count" drops;
      m "net.gateway_queue_hwm" "count" (Measure.gauge p Probe.m_gw_hwm);
      m "net.qdisc_op_ns" "ns" qdisc_op_ns;
      c "net.pool_hwm" "count" pool_hwm;
      c "net.pool_allocs" "count" pool_allocs;
      m "net.pool_alloc_free_ns" "ns" pool_ns;
      c "net.bytes_per_flow" "bytes"
        (Measure.net_max p (fun n -> n.Measure.bytes_per_flow));
      c "net.flow_footprint_bytes" "bytes"
        (Measure.net_max p (fun n -> n.Measure.footprint_bytes));
      m "net.est_share" "share" net_share;
      c "transport.segments_sent" "count" segments;
      m "transport.retransmit_share" "share" (ratio (fi transport_retx) (fi segments));
      c "transport.timeouts" "count" (sum_m (fun m -> m.M.timeouts));
      c "transport.dup_acks" "count" (sum_m (fun m -> m.M.dup_acks));
      m "transport.events_per_delivered" "ratio"
        (ratio (fi events) (fi (sum_m (fun m -> m.M.delivered))));
      c "traffic.offered" "count" offered;
      m "traffic.rng_exponential_ns" "ns" rng_ns;
      m "traffic.est_share" "share" traffic_share;
      c "parallel.windows" "count" windows_n;
      m "parallel.barrier_ns" "ns" barrier_ns;
      m "parallel.barrier_est_share" "share" barrier_share;
      m "parallel.speedup_vs_k1" "ratio" speedup;
      m "parallel.run_vs_classic" "ratio" vs_classic;
      c "fluid.steps" "count" fluid_steps;
      m "fluid.step_ns" "ns" fluid_ns;
      m "fluid.est_share" "share" fluid_share;
      m "telemetry.overhead_s" "s" tel_overhead;
      m "telemetry.words_per_event_delta" "words" tel_words;
      m "telemetry.burst_observe_ns" "ns" burst_ns;
      m "telemetry.recorder_record_ns" "ns" rec_ns;
      m "telemetry.est_share" "share" tel_share;
      m "gc.minor_words_per_event" "words" (wpe p);
      m "gc.promoted_words_per_event" "words"
        (ratio (Measure.gauge p Probe.m_promoted_words) (fi events));
      c "gc.minor_collections" "count" minor_n;
      c "gc.major_collections" "count" (Measure.counter p Probe.m_major_collections);
      m "gc.minor_s" "s" minor_s;
      m "gc.major_s" "s" major_s;
      m "gc.est_share" "share" gc_share;
      m "attribution.residual_share" "share"
        (1.
        -. (engine_share +. net_share +. traffic_share +. fluid_share
          +. tel_share +. gc_share));
      c "trace.gc_lost_events" "count" !(gc.Trace.Gc_timeline.lost);
    ]
  in
  (p, layer, k_invariant)

(* --- command line ------------------------------------------------- *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 in
  let quick = ref false and spans = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the matrix workloads");
      ("--seed", Arg.Set_int seed, "N simulation seed (default 1)");
      ("--quick", Arg.Set quick, " shortened horizons, for the self-test");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans here");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "perfbench.exe (pass|trace) --workload NAME";
  let w = Workload.make ~quick:!quick ~seed:!seed !workload in
  let fields =
    match !mode with
    | "pass" ->
        (* the reference kernel on both sides of the pass, so that
           run.py can scale its times to the host's speed *)
        let k0 = Calib.run () in
        let p = Measure.pass w in
        let k1 = Calib.run () in
        Measure.pass_json p @ [ ("ref_s", J.Float ((k0 +. k1) /. 2.)) ]
    | "trace" ->
        let p, layer, k_invariant =
          Trace.with_span ("workload:" ^ w.Workload.name) (fun () ->
              per_layer w)
        in
        if !spans <> "" then Trace.write_spans !spans;
        Measure.pass_json p
        @ [
            ("k_invariant", J.Bool k_invariant);
            ( "per_layer",
              J.Obj
                (List.map
                   (fun l ->
                     ( l.name,
                       J.Obj
                         [
                           ("value", J.Float l.value);
                           ("unit", J.String l.unit);
                         ] ))
                   layer) );
          ]
    | m -> raise (Arg.Bad ("unknown mode " ^ m))
  in
  print_endline (J.to_string (J.Obj (("workload", J.String w.Workload.name) :: fields)))
