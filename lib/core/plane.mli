(** The measurement plane: everything anchored at the bottleneck.

    Both engines measure the same gateway the same way — the classic
    engine on its one scheduler, the sharded engine ({!Pdes}) on its hub
    scheduler — so the monitors, the collectors and the {!Metrics.t}
    they produce are wired here once. An engine contributes only its
    topology and scheduling: it builds the bottleneck, calls {!attach}
    before traffic starts, runs, and hands its per-client totals to
    {!metrics}. *)

type t

val attach :
  ?probe:Telemetry.Probe.t ->
  sample_queue:bool ->
  measure_sync:bool ->
  Config.t ->
  sched:Sim_engine.Scheduler.t ->
  pool:Netsim.Packet_pool.t ->
  bottleneck:Netsim.Link.t ->
  t
(** Wire, in this order: the hybrid fluid coupling ([cfg.background >=
    1]), the per-RTT arrival binner behind {!Metrics.t.cov}, the burst
    aggregator and oscillation sampler (when the probe carries a burst
    config), per-flow binners for {!Metrics.t.sync_index}
    ([measure_sync], N >= 2), the drop-run recorder, the one-way delay
    statistics (plus the probe's [packet_delay_seconds] histogram) and
    the 10 ms queue sampler ([sample_queue]). [pool] is the pool the
    bottleneck's packets live in. *)

type totals = {
  sources : Traffic.Source.t array;  (** their total is the offered load *)
  per_client_delivered : int array;
  stats : Transport.Tcp_stats.t;  (** summed over every sender *)
  segments_sent : int;
  ecn_reactions : int;
  cwnd_traces : (int * Netstats.Series.t) list;
}
(** What only the engine knows: its sources' and endpoints' counters. *)

val metrics : t -> Scenario.t -> totals -> Metrics.t
(** Close the collectors at [cfg.duration_s] and build the run's
    metrics. Call once, after the run. *)

val lifecycle :
  Telemetry.Recorder.t option ->
  label:string ->
  (Telemetry.Recorder.lane * int) option
(** Lane 0 and the interned [label], when the recorder is in lifecycle
    mode: where run markers and summaries go. *)

val mark :
  Telemetry.Recorder.lane * int -> kind:int -> tick:int -> a:int -> unit
(** Write a run marker ([run_start] / [run_end], payload [a]) into a
    {!lifecycle} lane. *)

val finish :
  ?probe:Telemetry.Probe.t ->
  run_label:string ->
  lifecycle:(Telemetry.Recorder.lane * int) option ->
  tick:int ->
  Metrics.t ->
  unit
(** Export the burst and hybrid summaries into the probe's registry
    under [run_label], and write them as records at [tick] into the
    [lifecycle] lane under its interned name. *)
