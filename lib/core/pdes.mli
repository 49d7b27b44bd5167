(** Sharded conservative parallel discrete-event simulation of the
    paper's dumbbell.

    {!run} partitions the client population into [cfg.shards] contiguous
    shards, each owning its clients' access links, transports, timers,
    packet pool and event queue on its own domain, while the bottleneck
    link, gateway queue discipline and the measurement plane
    ({!Plane}, shared with the classic engine: the two differ only in
    topology and scheduling) live in a hub simulated by rank 0. Because every packet
    crossing a domain boundary traverses a propagation leg of at least
    {!window_s} seconds, the domains advance in lock-step windows of that
    width and exchange sorted packet batches at window boundaries — a
    conservative schedule with zero rollback.

    A [K]-shard run is bit-identical to a 1-shard run of the same seed
    (both run the same windowed machinery; batches are merged in a
    canonical order independent of [K]). It is {e not} required to match
    the classic single-domain engine ([cfg.shards = 0], {!Run.run}):
    same-tick event tie-breaking differs between the two engines, so
    each pins its own trace digests. *)

val window_s : Config.t -> float
(** The conservative lookahead: the minimum cross-domain propagation
    delay, [bottleneck_delay_s] or the lower bound of
    {!Dumbbell.client_delay_bounds_s}, whichever is smaller. Domains
    synchronise once per window. *)

val run :
  ?probe:Telemetry.Probe.t ->
  ?trace_clients:int list ->
  ?sample_queue:bool ->
  ?measure_sync:bool ->
  Config.t ->
  Scenario.t ->
  Metrics.t
(** Like {!Run.run} but sharded over [cfg.shards] domains (clamped to
    the client count; rank 0 simulates shard 0 and the hub, so
    [cfg.shards = K] uses [K] domains in total). TCP scenarios only;
    [trace_clients] must lie in [\[0, cfg.clients)], which {!Run.run}
    checks on entry.

    Flight recording ([Probe.set_recording]) gives the hub lane 0 and
    shard [s] lane [s + 1]; at the end of the run the lanes merge into
    one canonical order ({!Telemetry.Recorder.merge_canonical}), so the
    segment decodes identically at every shard count when nothing was
    dropped. It holds the parity kinds (bottleneck packets, gateway
    queue decisions, TCP congestion decisions) and, in lifecycle mode,
    the per-flow TCP phase/RTT and receiver reorder/duplicate records,
    drop-tail/SFQ gateway drops, one run-start/run-end marker pair and
    the burst/hybrid summaries, written from the hub under the classic
    engine's K-free run label. Router retransmit forwards have no site:
    the hub routes packets without a {!Netsim.Router}.
    @raise Invalid_argument on [cfg.shards < 1] or a UDP scenario. *)
