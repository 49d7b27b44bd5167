(** The measurement plane: everything anchored at the bottleneck.

    One topology, one lifecycle: both engines build a {!Dumbbell.t} and
    {!Run.run} measures it on the hub's scheduler, so the monitors, the
    collectors and the {!Metrics.t} they produce are wired here once. *)

type t

val attach :
  ?probe:Telemetry.Probe.t ->
  sample_queue:bool ->
  measure_sync:bool ->
  Config.t ->
  Dumbbell.t ->
  t
(** Wire onto the dumbbell's bottleneck, in this order: the hybrid fluid
    coupling ([cfg.background >= 1]), the per-RTT arrival binner behind
    {!Metrics.t.cov}, the burst aggregator and oscillation sampler (when
    the probe carries a burst config), per-flow binners for
    {!Metrics.t.sync_index} ([measure_sync], N >= 2), the drop-run
    recorder, the one-way delay statistics (plus the probe's
    [packet_delay_seconds] histogram) and the 10 ms queue sampler
    ([sample_queue]). Without a probe, [sample_queue] and background
    load, it only adds bottleneck listeners and schedules nothing. *)

val metrics : t -> Scenario.t -> Metrics.t
(** Close the collectors at [cfg.duration_s] and build the run's
    metrics, with the per-client totals the dumbbell sums over its
    slices in client order. Call once, after the run. *)

val finish :
  ?probe:Telemetry.Probe.t ->
  run_label:string ->
  lifecycle:(Telemetry.Recorder.lane * int) option ->
  tick:int ->
  Metrics.t ->
  unit
(** Export the burst and hybrid summaries into the probe's registry
    under [run_label], and write them as records at [tick] into the
    [lifecycle] lane (lane 0 in lifecycle mode) under its interned
    name. *)
