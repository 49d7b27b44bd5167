(** Execute one experiment: build the dumbbell, attach Poisson sources and
    monitors, run to the configured duration, and collect {!Metrics}. *)

val run :
  ?probe:Telemetry.Probe.t ->
  ?trace_clients:int list ->
  ?sample_queue:bool ->
  ?measure_sync:bool ->
  ?prepare:(Dumbbell.t -> unit) ->
  Config.t ->
  Scenario.t ->
  Metrics.t
(** [probe] (default absent) instruments the run: the setup/run/collect
    phases are timed, scheduler and gateway counters are folded into the
    probe's registry after the run, a [packet_delay_seconds] histogram is
    observed, and — when the probe has a recording configuration
    ({!Telemetry.Probe.set_recording}) — the run records one segment:
    the bottleneck link's packets, the RED gateway's decisions and the
    TCP senders' congestion decisions, plus the lifecycle kinds in
    lifecycle mode. [trace_clients] selects client indices whose congestion-window
    evolution is recorded (ignored for UDP); [sample_queue] (default
    false) additionally samples the gateway queue length every 10 ms;
    [measure_sync] (default false) computes {!Metrics.t.sync_index} from
    per-flow gateway arrival counts. [prepare] runs after the topology is
    built but before any traffic flows — attach extra monitors there.

    [cfg.shards] selects the engine: 0 (the default) runs the classic
    single-domain scheduler; [K >= 1] dispatches to the sharded
    conservative-PDES engine ({!Pdes.run}), which parallelises this one
    run over [K] domains with K-invariant bit-identical results. Both
    engines measure through one {!Plane}; they differ only in topology
    and scheduling. [prepare] is rejected with [Invalid_argument] when
    [cfg.shards >= 1] (there is no single topology object to hook into).
    @raise Invalid_argument before any setup, at every [cfg.shards],
    when a [trace_clients] index lies outside [\[0, cfg.clients)]. *)
