(** Sharded conservative parallel discrete-event simulation of the
    paper's dumbbell, the engine {!Run.run} selects with
    [cfg.shards >= 1].

    One topology, one lifecycle: this engine builds the same
    {!Dumbbell.t} as the classic one ({!Dumbbell.create_sharded}: one
    client slice per domain, the hub on rank 0 with slice 0), and
    {!Run.run} measures and closes both with the same code. Only time
    advances differently: packets crossing a domain boundary go into
    rings, and the domains run in lock-step windows of {!window_s}, the
    minimum crossing delay, merging the rings between windows — a
    conservative schedule with zero rollback.

    A [K]-shard run is bit-identical to a 1-shard run of the same seed
    (batches merge in a canonical order independent of [K]). It is
    {e not} required to match the classic engine: same-tick events tie
    in a different order, so each engine pins its own trace digests. *)

val window_s : Config.t -> float
(** The conservative lookahead: [bottleneck_delay_s] or the lower bound
    of {!Dumbbell.client_delay_bounds_s}, whichever is smaller. *)

val shards : Config.t -> int
(** Domains a run uses: [cfg.shards] clamped to the client count. *)

type t

val create :
  ?probe:Telemetry.Probe.t ->
  ?recorder:Telemetry.Recorder.t ->
  ?trace_clients:int list ->
  Config.t ->
  Scenario.t ->
  t
(** The sliced dumbbell with its rings and import sides; every recorder
    lane is created here, before any domain starts. {!Run.run} checks
    the arguments on entry. *)

val dumbbell : t -> Dumbbell.t

val advance : t -> until:Sim_engine.Time.t -> Telemetry.Perf.gc_counters
(** Run every domain to [until], window by window; returns the GC
    activity summed over the domains. *)

val merge_recording : t -> unit
(** Merge the recorder's lanes into one canonical order
    ({!Telemetry.Recorder.merge_canonical}), so the recording decodes
    identically at every shard count. Call after the last record. *)

val merge_probes : t -> unit
(** Fold the per-domain probes (shard-run timers, per-shard
    [pdes_boundary_packets_total]) into the run's probe. *)
