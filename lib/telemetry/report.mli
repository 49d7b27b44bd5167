(** The end-of-run JSON report: a summary snapshot of a {!Probe.t}.

    The report is the machine-readable contract behind [--telemetry]:
    {!required_fields} lists the keys every report carries. {!check}
    holds it, and every [BENCH_*.json] file the bench runner writes, to
    that file's committed gates (used by the bench runner itself, the
    [report-check] subcommand and [make check]). *)

type t = {
  label : string;
  runs : int;
  events_fired : int;
  event_queue_hwm : int;
  gateway_queue_hwm : int;
  sim_time_s : float;
  run_wall_s : float;  (** wall seconds inside the run phase only *)
  wall_s : float;  (** total wall seconds (all phases) *)
  events_per_sec : float;
  sim_wall_ratio : float;
  words_per_event : float;
      (** minor-heap words allocated per scheduler event, 0 when GC
          counters were not recorded *)
  phases : (string * float) list;
  metrics : Json.t;  (** [Registry.to_json] dump *)
}

val of_probe : ?label:string -> Probe.t -> t
(** Rates are derived from the run phase: [events_per_sec] and
    [sim_wall_ratio] are 0 when no run time was recorded. [wall_s] is
    the "total" phase when one was timed, otherwise the sum of phases. *)

val to_json : t -> Json.t

type kind =
  | Telemetry
  | Alloc
  | Flows
  | Bench_telemetry
  | Burst
  | Parallel
  | Hybrid

val kinds : (string * kind) list
(** The [report-check --kind] names, in [--help] order. *)

val name : kind -> string
(** The kind's [--kind] name, e.g. ["bench-telemetry"]. *)

val check : kind -> Json.t -> (unit, string) result
(** Hold a parsed document to the gates of its kind; the error joins
    every failure with ["; "]. Every kind first requires an object
    carrying its required fields (nested objects and rows likewise);
    budgets and bands are read from the file itself, but which gates
    apply is decided here, never by the file. Row failures are labelled
    by the row ("N=1000: ", "w_q=0.000149: "), section failures by the
    section ("converged: ").

    - [Telemetry] (a [--telemetry] run report): [phases] is an object
      and [metrics] a list.
    - [Alloc] ([BENCH_alloc.json]): a non-empty [rows]; each row's
      [minor_words_per_event] within its [threshold_minor_words_per_event]
      and [leak_free] true.
    - [Flows] ([BENCH_flows.json]): a non-empty [rows]; each row's
      [bytes_per_flow] within [bytes_per_flow_budget] and [leak_free]
      true; unless the row is a [smoke] row (absent reads as false),
      [minor_words_per_event] within [minor_words_per_event_budget] and
      zero flow-table and event-queue growth; when [fluid_gated], the
      throughput and queue ratios inside the header's bands.
    - [Bench_telemetry] ([BENCH_telemetry.json]): probe overhead,
      recorder overhead and recorder words/event delta each within the
      budget the file carries; [recorder_records] positive.
    - [Burst] ([BENCH_burst.json]): words/event delta within
      [burst_words_budget], [cov_abs_err] within [cov_tolerance], and
      [red_sweep.rows] non-empty with both sides present and every row's
      [oscillating] verdict matching its [side].
    - [Parallel] ([BENCH_parallel.json]): [deterministic] true;
      [single_run.sharded_deterministic] true, non-empty [single_run.rows]
      carrying [shards] and [wall_s], and [single_run.speedup] at least
      [min_speedup] — or null, accepted only below 4
      [available_domains].
    - [Hybrid] ([BENCH_hybrid.json]): a non-empty [validation] whose rows
      keep the throughput and queue ratios inside the header bands,
      [loss_abs_err] within [loss_abs_tol] and [event_ratio] at least 1;
      [converged] leak-free with zero slab growth and [work_ratio] at
      least [work_ratio_min] — or null, accepted only when [smoke]; and
      [stability_sweep] with a positive [wq_critical] and the same sweep
      gates as [Burst].

    Wall-clock floors ([min_events_per_sec]) are not gated here: they
    depend on the machine and on [--fast], and the bench enforces them
    in full mode only. *)

(** Required fields, by object: the run report ([required_fields]), the
    alloc header, the flows header and rows, the parallel header and
    [single_run] section, and the hybrid header, [validation] rows and
    [converged] section. *)

val required_fields : string list
val alloc_required_fields : string list
val flows_required_fields : string list
val flows_row_required_fields : string list
val parallel_required_fields : string list
val parallel_single_run_required_fields : string list
val hybrid_required_fields : string list
val hybrid_validation_row_required_fields : string list
val hybrid_converged_required_fields : string list
