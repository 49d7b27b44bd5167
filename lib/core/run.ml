module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler

let run_classic ?probe ?(trace_clients = []) ?(sample_queue = false)
    ?(measure_sync = false) ?(prepare = fun (_ : Dumbbell.t) -> ()) cfg scenario
    =
  let time name f = Telemetry.Probe.time probe name f in
  let run_label =
    Printf.sprintf "%s n=%d" (Scenario.label scenario) cfg.Config.clients
  in
  (* One recorder = one segment per run; the probe accumulates them. *)
  let recorder =
    Option.bind probe (Telemetry.Probe.start_recorder ~label:run_label)
  in
  let net, sched, bottleneck, horizon, plane, lifecycle, sources =
    time "setup" (fun () ->
        let net = Dumbbell.create ?recorder ~trace_clients cfg scenario in
        prepare net;
        let sched = Dumbbell.scheduler net in
        let pool = Dumbbell.pool net in
        let bottleneck = Dumbbell.bottleneck net in
        (* Only the bottleneck records per-packet events: the paper's
           trace is the gateway's. *)
        Option.iter
          (fun r -> Netsim.Link.record bottleneck (Telemetry.Recorder.lane r 0))
          recorder;
        let lifecycle = Plane.lifecycle recorder ~label:run_label in
        Option.iter
          (fun m ->
            Scheduler.set_instrument sched
              ~on_run_start:(fun clock ->
                Plane.mark m ~kind:Telemetry.Record.run_start
                  ~tick:(Time.to_ns clock) ~a:0)
              ~on_run_end:(fun clock fired ->
                Plane.mark m ~kind:Telemetry.Record.run_end
                  ~tick:(Time.to_ns clock) ~a:fired))
          lifecycle;
        let horizon = Time.of_sec cfg.Config.duration_s in
        let plane =
          Plane.attach ?probe ~sample_queue ~measure_sync cfg ~sched ~pool
            ~bottleneck
        in
        let sources =
          Dumbbell.start_sources cfg sched ~lo:0 ~n:cfg.Config.clients
            ~sink:(Dumbbell.sink net)
        in
        (net, sched, bottleneck, horizon, plane, lifecycle, sources))
  in
  let run_wall, run_gc =
    let g0 = Telemetry.Perf.gc_read () in
    let t0 = Telemetry.Perf.wall_clock_s () in
    Scheduler.run ~until:horizon sched;
    let dt = Telemetry.Perf.wall_clock_s () -. t0 in
    let gc = Telemetry.Perf.gc_since g0 in
    (match probe with
    | Some p -> Telemetry.Perf.add_s p.Telemetry.Probe.phases "run" dt
    | None -> ());
    (dt, gc)
  in
  (* End-of-run sweep: links free whatever the horizon left queued or in
     flight, and a nonzero live count afterwards means some layer dropped
     a handle without freeing it — fail loudly rather than leak. *)
  Dumbbell.reclaim net;
  let live = Netsim.Packet_pool.live (Dumbbell.pool net) in
  if live <> 0 then
    failwith (Printf.sprintf "Run.run: %d packet(s) leaked from the pool" live);
  let metrics =
    time "collect" (fun () ->
        Plane.metrics plane scenario
          {
            Plane.sources;
            per_client_delivered = Dumbbell.per_client_delivered net;
            stats = Dumbbell.tcp_stats_total net;
            segments_sent = Dumbbell.segments_sent_total net;
            ecn_reactions = Dumbbell.ecn_reactions_total net;
            cwnd_traces =
              List.filter_map
                (fun i ->
                  Option.map
                    (fun sender -> (i, Transport.Tcp_sender.cwnd_trace sender))
                    (Dumbbell.tcp_sender net i))
                trace_clients;
          })
  in
  (* Burst and hybrid exposition while the recorder is still live. *)
  Plane.finish ?probe ~run_label ~lifecycle ~tick:(Time.to_ns horizon) metrics;
  (* Lifecycle spans fold the retained records into the probe's metric
     registry while the recorder is still live (tick counters restart
     per segment, so this must happen per run). *)
  (match (probe, recorder) with
  | Some p, Some r when Telemetry.Recorder.lifecycle r ->
      time "spans" (fun () ->
          Telemetry.Spans.of_recorder ~registry:p.Telemetry.Probe.registry r)
  | _ -> ());
  (match probe with
  | Some p ->
      Telemetry.Probe.note_run p ~label:run_label
        ~sim_s:cfg.Config.duration_s ~wall_s:run_wall
        ~events:(Scheduler.events_processed sched)
        ~event_queue_hwm:(Scheduler.queue_high_water_mark sched)
        ~gateway_queue_hwm:(Dumbbell.gateway_queue_high_water_mark net)
        ~arrivals:(Netsim.Link.arrivals bottleneck)
        ~drops:(Netsim.Link.drops bottleneck)
        ~gc:run_gc ()
  | None -> ());
  (* Flow-table sweep, after every metric that reads sender/receiver
     rows: detach all endpoints and assert the slabs drained — the
     flow-level twin of the packet-pool leak check above. *)
  Dumbbell.release_flows net;
  let flows_live = Dumbbell.flows_live net in
  if flows_live <> 0 then
    failwith
      (Printf.sprintf "Run.run: %d flow row(s) leaked from the flow tables"
         flows_live);
  metrics

(* [cfg.shards] selects the engine: 0 keeps the classic single-domain
   scheduler (and its pinned trace digests); K >= 1 runs the sharded
   conservative-PDES engine. Both measure through {!Plane}. [prepare]
   hooks into the classic topology object, which the sharded engine does
   not build. *)
let run ?probe ?trace_clients ?sample_queue ?measure_sync ?prepare cfg scenario
    =
  List.iter
    (fun i ->
      if i < 0 || i >= cfg.Config.clients then
        invalid_arg
          (Printf.sprintf "Run.run: trace_clients index %d outside [0, %d)" i
             cfg.Config.clients))
    (Option.value trace_clients ~default:[]);
  if cfg.Config.shards >= 1 then begin
    (match prepare with
    | Some _ ->
        invalid_arg
          "Run.run: ?prepare hooks into the classic engine's topology; it is \
           not supported when cfg.shards >= 1"
    | None -> ());
    Pdes.run ?probe ?trace_clients ?sample_queue ?measure_sync cfg scenario
  end
  else
    run_classic ?probe ?trace_clients ?sample_queue ?measure_sync ?prepare cfg
      scenario
