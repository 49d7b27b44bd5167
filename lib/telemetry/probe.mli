(** A probe bundles the telemetry facilities — metric registry, phase
    timers, flight recording and burst configuration — into the single
    handle that threads through the simulator as a [Probe.t option].
    [None] means telemetry is off and every helper below degrades to a
    no-op.

    Metric names used by {!note_run} are exposed as [m_*] constants so
    reporters and tests never spell them twice. *)

type recording = {
  config : Recorder.config;
  mutable segments_rev : Recorder.t list; (* newest first *)
}

type t = {
  registry : Registry.t;
  phases : Perf.phases;
  mutable recording : recording option;
  mutable burst : Burst.config option;
}

val create : unit -> t

(** {2 Flight recording}

    When a recording configuration is set, each run starts its own
    {!Recorder.t} (one segment per run); segments accumulate on the
    probe in run order and parallel workers' segments are carried back
    by {!merge} in input order, so the final record file is
    deterministic and identical to a sequential run's. *)

val set_recording : t -> Recorder.config -> unit

val recording_config : t -> Recorder.config option

val create_like : t -> t
(** A fresh probe inheriting only the recording and burst
    configurations (workers always buffer with [Grow]; their segments
    travel via {!merge}). *)

val set_burst : t -> Burst.config option -> unit
(** Ask runs driven through this probe to maintain streaming burstiness
    telemetry ({!Burst}); the summary lands on each run's metrics, in
    [burst_*] registry gauges and (when lifecycle recording is on) in
    the flight-recorder stream. *)

val burst_config : t -> Burst.config option

val start_recorder : t -> label:string -> Recorder.t option
(** Begin a new segment for one run; [None] when recording is off. *)

val segments : t -> Recorder.t list
(** Accumulated segments in run order. *)

val take_segments : t -> Recorder.t list
(** {!segments}, forgetting them: a caller that decodes each run's
    segment as soon as the run ends holds one run's records at a
    time. *)

val time : t option -> string -> (unit -> 'a) -> 'a
(** [time probe name f] times [f] under phase [name] when the probe is
    present, and is exactly [f ()] when it is [None]. *)

(** {2 Well-known metric names} *)

val m_runs : string  (** counter: simulation runs completed *)

val m_events : string  (** counter: scheduler events fired, all runs *)

val m_sim_seconds : string  (** gauge: simulated seconds, summed *)

val m_run_wall : string  (** gauge: wall seconds inside the run phase *)

val m_eq_hwm : string  (** gauge: event-queue high-water mark (max) *)

val m_gw_hwm : string  (** gauge: gateway-queue high-water mark (max) *)

val m_arrivals : string  (** counter: gateway packet arrivals *)

val m_drops : string  (** counter: gateway packet drops *)

val m_minor_words : string
(** gauge: minor-heap words allocated during runs, summed *)

val m_promoted_words : string
(** gauge: words promoted to the major heap during runs, summed *)

val m_major_collections : string
(** counter: major GC cycles observed during runs *)

val m_words_per_event : string
(** gauge: minor words per scheduler event, derived from the totals
    above after every {!note_run} and {!merge} — the allocation-budget
    number the bench gate watches *)

val note_run :
  t ->
  label:string ->
  sim_s:float ->
  wall_s:float ->
  events:int ->
  event_queue_hwm:int ->
  gateway_queue_hwm:int ->
  arrivals:int ->
  drops:int ->
  ?gc:Perf.gc_counters ->
  unit ->
  unit
(** Fold one completed run into the registry: bump the aggregate
    counters and gauges above and record the per-run labelled series
    [run_events_total{run=label}] and [run_wall_seconds{run=label}].
    [gc] is the GC-counter delta measured across the run phase
    (default {!Perf.gc_zero}, meaning "not measured"); it feeds the
    [gc_*] series and refreshes {!m_words_per_event}. *)

val merge : into:t -> t -> unit
(** Fold a worker probe into the main one after a parallel sweep:
    registry series merge with run-aware gauge rules (high-water marks
    take the max, seconds totals sum, other gauges keep last-write) and
    phase timers accumulate; the worker's recorder segments are appended
    in merge order. [src] is left untouched. *)

val runs_total : t -> int

val events_total : t -> int
