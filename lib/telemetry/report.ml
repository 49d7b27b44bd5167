type t = {
  label : string;
  runs : int;
  events_fired : int;
  event_queue_hwm : int;
  gateway_queue_hwm : int;
  sim_time_s : float;
  run_wall_s : float;
  wall_s : float;
  events_per_sec : float;
  sim_wall_ratio : float;
  words_per_event : float;
  phases : (string * float) list;
  metrics : Json.t;
}

let of_probe ?(label = "run") (p : Probe.t) =
  let r = p.Probe.registry in
  let gauge name = Registry.gauge_value (Registry.gauge r name) in
  let events_fired = Probe.events_total p in
  let sim_time_s = gauge Probe.m_sim_seconds in
  let run_wall_s = gauge Probe.m_run_wall in
  let total = Perf.duration_s p.Probe.phases "total" in
  let wall_s = if total > 0. then total else Perf.total_s p.Probe.phases in
  let rate x = if run_wall_s > 0. then x /. run_wall_s else 0. in
  {
    label;
    runs = Probe.runs_total p;
    events_fired;
    event_queue_hwm = int_of_float (gauge Probe.m_eq_hwm);
    gateway_queue_hwm = int_of_float (gauge Probe.m_gw_hwm);
    sim_time_s;
    run_wall_s;
    wall_s;
    events_per_sec = rate (float_of_int events_fired);
    sim_wall_ratio = rate sim_time_s;
    words_per_event = gauge Probe.m_words_per_event;
    phases = Perf.durations_s p.Probe.phases;
    metrics = Registry.to_json r;
  }

let to_json t =
  Json.Obj
    [
      ("label", Json.String t.label);
      ("runs", Json.Int t.runs);
      ("events_fired", Json.Int t.events_fired);
      ("event_queue_hwm", Json.Int t.event_queue_hwm);
      ("gateway_queue_hwm", Json.Int t.gateway_queue_hwm);
      ("sim_time_s", Json.Float t.sim_time_s);
      ("run_wall_s", Json.Float t.run_wall_s);
      ("wall_s", Json.Float t.wall_s);
      ("events_per_sec", Json.Float t.events_per_sec);
      ("sim_wall_ratio", Json.Float t.sim_wall_ratio);
      ("words_per_event", Json.Float t.words_per_event);
      ("phases", Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) t.phases));
      ("metrics", t.metrics);
    ]

(* ------------------------------------------------------------------ *)
(* Gate combinators                                                    *)

(* A gate ([scope -> string list]) checks the object in scope and
   returns its failure messages. The scope carries the enclosing objects
   too, innermost first, so a row can be held to a bound stored in its
   file's header: [number] looks a field up from the inside out.
   Messages are prefixed with the scope's label ("N=1000: ",
   "converged: "). *)
type scope = { prefix : string; here : Json.t; outer : Json.t list }

let number sc f =
  Option.bind
    (List.find_map (Json.member f) (sc.here :: sc.outer))
    Json.to_float

let failf sc fmt = Printf.ksprintf (fun m -> [ sc.prefix ^ m ]) fmt
let fail msg sc = [ sc.prefix ^ msg ]
let all gates sc = List.concat_map (fun g -> g sc) gates
let enter sc prefix here = { prefix; here; outer = sc.here :: sc.outer }

(* An object carrying every one of [fields]; only then are [gates] run,
   since a missing field would make their messages noise. *)
let obj fields gates sc =
  match sc.here with
  | Json.Obj _ -> (
      match List.filter (fun f -> Json.member f sc.here = None) fields with
      | [] -> all gates sc
      | missing -> failf sc "missing fields: %s" (String.concat ", " missing))
  | _ -> fail "not a JSON object" sc

(* The object at [key], checked by [spec] under the label "key: ". *)
let section key spec sc =
  spec
    (enter sc
       (sc.prefix ^ key ^ ": ")
       (Option.value (Json.member key sc.here) ~default:Json.Null))

(* The non-empty list at [key]; each row is checked by [spec] under the
   label [tag] followed by the row's own [field] ("N=" and "flows" give
   "N=1000: "). *)
let rows key ~tag:(tag, field) spec sc =
  let label row =
    match Json.member field row with
    | Some (Json.String s) -> tag ^ s
    | Some (Json.Int n) -> Printf.sprintf "%s%d" tag n
    | Some (Json.Float x) -> Printf.sprintf "%s%g" tag x
    | _ -> "<unnamed row>"
  in
  match Json.member key sc.here with
  | Some (Json.List []) -> failf sc "%s is empty" key
  | Some (Json.List rs) ->
      List.concat_map (fun r -> spec (enter sc (label r ^ ": ") r)) rs
  | _ -> failf sc "%s is not a list" key

(* [v] at most the bound stored at [b] (NaN fails every comparison). *)
let le ?(bound = "budget") what v b sc =
  match (number sc v, number sc b) with
  | Some x, Some y ->
      if x <= y then [] else failf sc "%s %g exceeds %s %g" what x bound y
  | _ -> failf sc "%s fields are not numbers" what

(* [v] at least the floor stored at [b]. *)
let ge what v b sc =
  match (number sc v, number sc b) with
  | Some x, Some y ->
      if x >= y then []
      else failf sc "%s %gx is below the committed floor %gx" what x y
  | _ -> failf sc "%s fields are not numbers" what

(* [v] inside the band stored at [lo], [hi]. *)
let between what v lo hi sc =
  match (number sc v, number sc lo, number sc hi) with
  | Some x, Some a, Some b ->
      if x >= a && x <= b then []
      else failf sc "%s %g outside [%g, %g]" what x a b
  | _ -> failf sc "%s fields are not numbers" what

(* A number satisfying [ok]; [msg] formats the offending value. *)
let holds f ok msg sc =
  match number sc f with
  | Some v -> if ok v then [] else failf sc msg v
  | None -> failf sc "%s is not a number" f

let is_true ?why f sc =
  match Json.member f sc.here with
  | Some (Json.Bool true) -> []
  | Some (Json.Bool false) -> (
      match why with
      | Some why -> failf sc "%s is false (%s)" f why
      | None -> failf sc "%s is false" f)
  | _ -> failf sc "%s is not a bool" f

(* [gates] apply only while the bool [flag] equals [is]; an absent
   flag reads as false. *)
let flag ?(is = true) f gates sc =
  match Json.member f sc.here with
  | Some (Json.Bool b) -> if b = is then all gates sc else []
  | None -> if not is then all gates sc else []
  | Some _ -> failf sc "%s is not a bool" f

(* [if_null] when field [f] is null, [gates] otherwise. *)
let on_null f ~if_null gates sc =
  all (if Json.member f sc.here = Some Json.Null then if_null else gates) sc

let slabs_stable sc =
  match (number sc "flow_table_growths", number sc "queue_growths") with
  | Some ft, Some q ->
      if ft = 0. && q = 0. then []
      else failf sc "slabs grew (%g flow-table, %g event-queue)" ft q
  | _ -> fail "growth fields are not numbers" sc

(* A RED w_q sweep: every row's oscillation-detector verdict matches its
   declared side of the stability threshold, and both sides occur. *)
let verdict sc =
  match (Json.member "side" sc.here, Json.member "oscillating" sc.here) with
  | Some (Json.String (("stable" | "unstable") as side)), Some (Json.Bool osc)
    ->
      if osc = (side = "unstable") then []
      else
        failf sc "detector verdict oscillating=%b contradicts side %S" osc side
  | Some (Json.String side), Some (Json.Bool _) ->
      failf sc "side %S is not stable|unstable" side
  | _ -> fail "side/oscillating have the wrong types" sc

let has_side side sc =
  match Json.member "rows" sc.here with
  | Some (Json.List (_ :: _ as rs))
    when not
           (List.exists
              (fun r -> Json.member "side" r = Some (Json.String side))
              rs) ->
      failf sc "no %s row" side
  | _ -> []

let sweep_row_fields =
  [ "w_q"; "side"; "rel_amplitude"; "frequency_hz"; "crossings"; "oscillating" ]

let sweep =
  [
    rows "rows" ~tag:("w_q=", "w_q") (obj sweep_row_fields [ verdict ]);
    has_side "stable";
    has_side "unstable";
  ]

(* ------------------------------------------------------------------ *)
(* The gate table: one entry per report kind                           *)

type kind =
  | Telemetry
  | Alloc
  | Flows
  | Bench_telemetry
  | Burst
  | Parallel
  | Hybrid

let kinds =
  [
    ("telemetry", Telemetry);
    ("alloc", Alloc);
    ("flows", Flows);
    ("bench-telemetry", Bench_telemetry);
    ("burst", Burst);
    ("parallel", Parallel);
    ("hybrid", Hybrid);
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

let required_fields =
  [
    "label"; "runs"; "events_fired"; "event_queue_hwm"; "gateway_queue_hwm";
    "events_per_sec"; "phases"; "metrics";
  ]

let alloc_required_fields =
  [
    "clients"; "duration_s"; "reps"; "baseline_minor_words_per_event";
    "baseline_events_per_sec"; "rows";
  ]

let alloc_row_fields =
  [
    "scenario"; "clients"; "events"; "wall_s"; "events_per_sec";
    "minor_words_per_event"; "promoted_words_per_event"; "major_collections";
    "threshold_minor_words_per_event"; "min_events_per_sec"; "leak_free";
  ]

let flows_required_fields =
  [
    "per_flow_capacity_pps"; "base_rtt_s"; "bytes_per_flow_budget";
    "minor_words_per_event_budget"; "min_events_per_sec";
    "throughput_ratio_min"; "throughput_ratio_max"; "queue_ratio_min";
    "queue_ratio_max"; "rows";
  ]

let flows_row_required_fields =
  [
    "flows"; "duration_s"; "fluid_gated"; "events"; "wall_s"; "events_per_sec";
    "minor_words_per_event"; "bytes_per_flow"; "flow_footprint_bytes";
    "flow_table_growths"; "queue_growths"; "queue_capacity"; "queue_hwm";
    "wheel_parked"; "delivered"; "measured_queue"; "fluid_queue"; "queue_ratio";
    "measured_throughput_pps"; "fluid_throughput_pps"; "throughput_ratio";
    "leak_free";
  ]

let parallel_required_fields =
  [
    "scenario"; "clients"; "replicates"; "duration_s"; "domains";
    "sequential_wall_s"; "parallel_wall_s"; "speedup"; "deterministic";
    "single_run";
  ]

let parallel_single_run_required_fields =
  [
    "scenario"; "clients"; "duration_s"; "window_s"; "available_domains";
    "min_speedup"; "rows"; "speedup"; "sharded_deterministic";
  ]

let bench_telemetry_fields =
  [
    "scenario"; "clients"; "events"; "baseline_events_per_sec";
    "probed_events_per_sec"; "recorded_events_per_sec"; "probed_run_s";
    "recorded_run_s"; "probe_overhead_pct"; "probe_overhead_budget_pct";
    "recorder_overhead_pct"; "recorder_overhead_budget_pct";
    "recorder_minor_words_per_event_delta"; "recorder_words_budget";
    "recorder_records"; "recorder_dropped";
  ]

let burst_fields =
  [
    "scenario"; "clients"; "reps"; "events"; "probed_run_s"; "burst_run_s";
    "burst_overhead_pct"; "burst_minor_words_per_event_delta";
    "burst_words_budget"; "cov_offline"; "cov_streaming"; "cov_abs_err";
    "cov_tolerance"; "red_sweep";
  ]

let hybrid_required_fields =
  [
    "scenario"; "foreground"; "throughput_ratio_min"; "throughput_ratio_max";
    "queue_ratio_min"; "queue_ratio_max"; "loss_abs_tol"; "work_ratio_min";
    "validation"; "converged"; "stability_sweep";
  ]

let hybrid_validation_row_required_fields =
  [
    "flows"; "background"; "packet_throughput_pps"; "hybrid_throughput_pps";
    "throughput_ratio"; "packet_queue_mean"; "hybrid_queue_mean"; "queue_ratio";
    "packet_loss_rate"; "hybrid_loss_rate"; "loss_abs_err"; "event_ratio";
  ]

let hybrid_converged_required_fields =
  [
    "flows"; "foreground"; "background"; "duration_s"; "events"; "wall_s";
    "events_per_sec"; "bg_window_mean"; "bg_queue_mean"; "slowdown_mean";
    "flow_table_growths"; "queue_growths"; "leak_free"; "smoke"; "work_ratio";
  ]

let gates = function
  | Telemetry ->
      obj required_fields
        [
          (fun sc ->
            match Json.member "phases" sc.here with
            | Some (Json.Obj _) -> []
            | _ -> fail "phases is not an object" sc);
          (fun sc ->
            match Json.member "metrics" sc.here with
            | Some (Json.List _) -> []
            | _ -> fail "metrics is not a list" sc);
        ]
  | Alloc ->
      obj alloc_required_fields
        [
          rows "rows" ~tag:("", "scenario")
            (obj alloc_row_fields
               [
                 le ~bound:"threshold" "minor_words_per_event"
                   "minor_words_per_event" "threshold_minor_words_per_event";
                 is_true "leak_free";
               ]);
        ]
  | Flows ->
      obj flows_required_fields
        [
          rows "rows" ~tag:("N=", "flows")
            (obj flows_row_required_fields
               [
                 le "bytes_per_flow" "bytes_per_flow" "bytes_per_flow_budget";
                 is_true "leak_free";
                 (* The N = 10^6 scale probe is too short for steady-state
                    words/event and its slabs may grow. *)
                 flag ~is:false "smoke"
                   [
                     le "minor words/event" "minor_words_per_event"
                       "minor_words_per_event_budget";
                     slabs_stable;
                   ];
                 flag "fluid_gated"
                   [
                     between "throughput ratio" "throughput_ratio"
                       "throughput_ratio_min" "throughput_ratio_max";
                     between "queue ratio" "queue_ratio" "queue_ratio_min"
                       "queue_ratio_max";
                   ];
               ]);
        ]
  | Bench_telemetry ->
      obj bench_telemetry_fields
        [
          le "probe overhead pct" "probe_overhead_pct"
            "probe_overhead_budget_pct";
          le "recorder overhead pct" "recorder_overhead_pct"
            "recorder_overhead_budget_pct";
          le "recorder minor words/event delta"
            "recorder_minor_words_per_event_delta" "recorder_words_budget";
          holds "recorder_records" (fun r -> r > 0.)
            "recorder_records %g is not positive";
        ]
  | Burst ->
      obj burst_fields
        [
          le "burst minor words/event delta" "burst_minor_words_per_event_delta"
            "burst_words_budget";
          le "streaming-vs-offline c.o.v. error" "cov_abs_err" "cov_tolerance";
          section "red_sweep" (obj [] sweep);
        ]
  | Parallel ->
      obj parallel_required_fields
        [
          is_true ~why:"parallel sweep diverged" "deterministic";
          section "single_run"
            (obj parallel_single_run_required_fields
               [
                 is_true ~why:"1-shard and K-shard runs diverged"
                   "sharded_deterministic";
                 rows "rows" ~tag:("shards=", "shards")
                   (obj [ "shards"; "wall_s" ] []);
                 (* Null below 4 domains, where the ratio would measure
                    oversubscription rather than scaling. *)
                 on_null "speedup"
                   ~if_null:
                     [
                       holds "available_domains" (fun d -> d < 4.)
                         "speedup is null despite %g available domains";
                     ]
                   [ ge "speedup" "speedup" "min_speedup" ];
               ]);
        ]
  | Hybrid ->
      obj hybrid_required_fields
        [
          rows "validation" ~tag:("N=", "flows")
            (obj hybrid_validation_row_required_fields
               [
                 between "foreground throughput ratio" "throughput_ratio"
                   "throughput_ratio_min" "throughput_ratio_max";
                 between "combined queue ratio" "queue_ratio" "queue_ratio_min"
                   "queue_ratio_max";
                 le ~bound:"tolerance" "loss-rate error" "loss_abs_err"
                   "loss_abs_tol";
                 holds "event_ratio" (fun r -> r >= 1.)
                   "hybrid did more work than pure packet (event ratio %g)";
               ]);
          section "converged"
            (obj hybrid_converged_required_fields
               [
                 is_true "leak_free";
                 slabs_stable;
                 (* Null in smoke mode: the --fast horizon is too short to
                    measure the ratio honestly. *)
                 on_null "work_ratio"
                   ~if_null:
                     [
                       flag ~is:false "smoke"
                         [ fail "work_ratio is null outside smoke mode" ];
                     ]
                   [ ge "work ratio" "work_ratio" "work_ratio_min" ];
               ]);
          section "stability_sweep"
            (obj []
               (holds "wq_critical" (fun w -> w > 0.)
                  "wq_critical %g is not positive"
               :: sweep));
        ]

let check kind j =
  match gates kind { prefix = ""; here = j; outer = [] } with
  | [] -> Ok ()
  | errors -> Error (String.concat "; " errors)
