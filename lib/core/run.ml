module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Perf = Telemetry.Perf

(* Every bad argument fails here, before any setup, at every [shards]. *)
let check_entry ~trace_clients ~prepare cfg scenario =
  Config.validate cfg;
  List.iter
    (fun i ->
      if i < 0 || i >= cfg.Config.clients then
        invalid_arg
          (Printf.sprintf "Run.run: trace_clients index %d outside [0, %d)" i
             cfg.Config.clients))
    trace_clients;
  if cfg.Config.shards >= 1 then begin
    if Option.is_some prepare then
      invalid_arg
        "Run.run: ?prepare hooks into the classic engine's topology; it is \
         not supported when cfg.shards >= 1";
    if scenario.Scenario.transport = Scenario.Udp then
      invalid_arg "Run.run: UDP scenarios need the classic engine (shards = 0)"
  end

(* One topology, one lifecycle: both engines build a {!Dumbbell.t},
   measure it through one {!Plane} and close it with the same checks.
   They differ only in how simulated time advances — the classic engine
   drains its one scheduler, the sharded engine runs {!Pdes}'s windows. *)
let run ?probe ?(trace_clients = []) ?(sample_queue = false)
    ?(measure_sync = false) ?prepare cfg scenario =
  check_entry ~trace_clients ~prepare cfg scenario;
  let time name f = Telemetry.Probe.time probe name f in
  (* Run markers and summaries carry the K-free label, the segment and
     the probe's run records the engine's. *)
  let label =
    Printf.sprintf "%s n=%d" (Scenario.label scenario) cfg.Config.clients
  in
  let run_label =
    if cfg.Config.shards >= 1 then
      Printf.sprintf "%s shards=%d" label (Pdes.shards cfg)
    else label
  in
  (* One recorder = one segment per run; the probe accumulates them. *)
  let recorder =
    Option.bind probe (Telemetry.Probe.start_recorder ~label:run_label)
  in
  let horizon = Time.of_sec cfg.Config.duration_s in
  let net, pdes, plane, lifecycle =
    time "setup" (fun () ->
        let net, pdes =
          if cfg.Config.shards >= 1 then
            let e = Pdes.create ?probe ?recorder ~trace_clients cfg scenario in
            (Pdes.dumbbell e, Some e)
          else (Dumbbell.create ?recorder ~trace_clients cfg scenario, None)
        in
        Option.iter (fun f -> f net) prepare;
        (* Only the bottleneck records per-packet events: the paper's
           trace is the gateway's. *)
        Option.iter
          (fun r ->
            Netsim.Link.record (Dumbbell.bottleneck net)
              (Telemetry.Recorder.lane r 0))
          recorder;
        (* Lane 0 and the interned label in lifecycle mode: where run
           markers and summaries go. *)
        let lifecycle =
          match recorder with
          | Some r when Telemetry.Recorder.lifecycle r ->
              Some (Telemetry.Recorder.lane r 0, Telemetry.Recorder.intern r label)
          | _ -> None
        in
        let plane = Plane.attach ?probe ~sample_queue ~measure_sync cfg net in
        Dumbbell.start_sources net;
        (net, pdes, plane, lifecycle))
  in
  (* Allocation-free: the markers sit inside the measured GC window. *)
  let mark kind ~tick ~a =
    match lifecycle with
    | Some (lane, sid) ->
        Telemetry.Recorder.record lane ~tick ~kind ~flow:(-1) ~a ~b:0 ~c:0 ~sid
          ~depth:0
    | None -> ()
  in
  let run_wall, run_gc =
    let g0 = Perf.gc_read () in
    let t0 = Perf.wall_clock_s () in
    mark Telemetry.Record.run_start ~tick:0 ~a:0;
    let sharded_gc =
      match pdes with
      | None ->
          Scheduler.run ~until:horizon (Dumbbell.scheduler net);
          None
      | Some e -> Some (Pdes.advance e ~until:horizon)
    in
    mark Telemetry.Record.run_end ~tick:(Time.to_ns horizon)
      ~a:(Dumbbell.events_processed net);
    let dt = Perf.wall_clock_s () -. t0 in
    (* The sharded engine sums what each of its domains allocated. *)
    let gc =
      match sharded_gc with Some gc -> gc | None -> Perf.gc_since g0
    in
    Option.iter (fun p -> Perf.add_s p.Telemetry.Probe.phases "run" dt) probe;
    (dt, gc)
  in
  (* Links free whatever the horizon left queued or in flight (ring
     entries were freed when shipped); a packet still live after that
     was dropped without being freed — fail loudly rather than leak. *)
  Dumbbell.reclaim net;
  let live = Dumbbell.packets_live net in
  if live <> 0 then
    failwith
      (Printf.sprintf "Run.run: %d packet(s) leaked from the packet pools" live);
  let metrics = time "collect" (fun () -> Plane.metrics plane scenario) in
  (* Burst and hybrid exposition while the recorder is still live; the
     sharded engine then merges its lanes into one canonical order. *)
  Plane.finish ?probe ~run_label ~lifecycle ~tick:(Time.to_ns horizon) metrics;
  Option.iter Pdes.merge_recording pdes;
  (* Spans fold the retained records into the registry while the
     recorder is live: tick counters restart per segment. *)
  (match (probe, recorder) with
  | Some p, Some r when Telemetry.Recorder.lifecycle r ->
      time "spans" (fun () ->
          Telemetry.Spans.of_recorder ~registry:p.Telemetry.Probe.registry r)
  | _ -> ());
  Option.iter Pdes.merge_probes pdes;
  (match probe with
  | Some p ->
      let bottleneck = Dumbbell.bottleneck net in
      Telemetry.Probe.note_run p ~label:run_label
        ~sim_s:cfg.Config.duration_s ~wall_s:run_wall
        ~events:(Dumbbell.events_processed net)
        ~event_queue_hwm:(Dumbbell.event_queue_high_water_mark net)
        ~gateway_queue_hwm:(Dumbbell.gateway_queue_high_water_mark net)
        ~arrivals:(Netsim.Link.arrivals bottleneck)
        ~drops:(Netsim.Link.drops bottleneck)
        ~gc:run_gc ()
  | None -> ());
  (* After every metric that reads sender/receiver rows: the slabs must
     drain, the flow-level twin of the packet-leak check. *)
  Dumbbell.release_flows net;
  let flows_live = Dumbbell.flows_live net in
  if flows_live <> 0 then
    failwith
      (Printf.sprintf "Run.run: %d flow row(s) leaked from the flow tables"
         flows_live);
  metrics
