(** Execute one experiment: build the dumbbell, attach Poisson sources and
    monitors, run to the configured duration, and collect {!Metrics}.

    One topology, one lifecycle: both engines build a {!Dumbbell.t},
    measure it through one {!Plane}, and close it with the same reclaim,
    packet-leak check, metrics, summaries, probe records and flow-leak
    check. They differ only in how simulated time advances. *)

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
    lifecycle mode. [trace_clients] selects clients whose congestion
    window is traced (ignored for UDP); [sample_queue] (default false)
    samples the gateway queue every 10 ms; [measure_sync] (default
    false) computes {!Metrics.t.sync_index} from per-flow gateway
    arrivals. [prepare] runs after the topology is built but before any
    traffic flows — attach extra monitors there.

    [cfg.shards] selects how time advances: 0 (the default) drains the
    classic engine's one scheduler; [K >= 1] runs the sharded
    conservative-PDES engine ({!Pdes}) over [K] domains, with
    K-invariant bit-identical results.
    @raise Invalid_argument before any setup, with one message at every
    [cfg.shards], on an invalid [cfg], a [trace_clients] index outside
    [\[0, cfg.clients)], or — when [cfg.shards >= 1] — [prepare] or a UDP
    scenario.
    @raise Failure ["Run.run: ..."] if a packet or a flow-table row
    leaked. *)
