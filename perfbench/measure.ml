(* One untraced pass of a workload: every run goes through [Run.run]
   with a probe, and the outcome of each is checked from outside. *)

module C = Burstcore.Config
module Probe = Telemetry.Probe
module Registry = Telemetry.Registry
module Scheduler = Sim_engine.Scheduler

(* Counters read from a classic-engine topology after its run; the
   sharded engine builds no [Dumbbell.t], so it has none. *)
type net = {
  queue_capacity : int;
  queue_growths : int;
  wheel_parked : int;
  pool_hwm : int;
  pool_allocs : int;
  bytes_per_flow : int;
  footprint_bytes : int;
}

type outcome = {
  label : string;
  cfg : C.t;
  scenario : Burstcore.Scenario.t;
  error : string option;  (** the exception the run raised *)
  metrics : Burstcore.Metrics.t option;
  events : int;
  pool_live : int;
  flows_live : int;
  net : net option;
  start_s : float;  (** wall clock when [Run.run] was entered *)
}

type pass = {
  probe : Probe.t;
  outcomes : outcome list;
  wall_s : float;
}

let wall = Telemetry.Perf.wall_clock_s

let run_one probe (label, cfg, scenario) =
  let topology = ref None in
  let prepare =
    if cfg.C.shards = 0 then Some (fun net -> topology := Some net) else None
  in
  let events0 = Probe.events_total probe in
  let start_s = wall () in
  let result =
    try Ok (Burstcore.Run.run ~probe ?prepare cfg scenario)
    with e -> Error (Printexc.to_string e)
  in
  let pool_live, flows_live, net =
    match !topology with
    | None -> (0, 0, None)
    | Some t ->
        let sched = Burstcore.Dumbbell.scheduler t in
        let pool = Burstcore.Dumbbell.pool t in
        ( Netsim.Packet_pool.live pool,
          Burstcore.Dumbbell.flows_live t,
          Some
            {
              queue_capacity = Scheduler.queue_capacity sched;
              queue_growths = Scheduler.queue_growths sched;
              wheel_parked = Scheduler.queue_wheel_parked sched;
              pool_hwm = Netsim.Packet_pool.high_water_mark pool;
              pool_allocs = Netsim.Packet_pool.allocated pool;
              bytes_per_flow = Burstcore.Dumbbell.flow_table_bytes_per_flow t;
              footprint_bytes = Burstcore.Dumbbell.flow_table_footprint_bytes t;
            } )
  in
  {
    label;
    cfg;
    scenario;
    error = (match result with Error e -> Some e | Ok _ -> None);
    metrics = Result.to_option result;
    events = Probe.events_total probe - events0;
    pool_live;
    flows_live;
    net;
    start_s;
  }

let pass ?(around = fun _ _ f -> f ()) w =
  let probe = Workload.probe w in
  let t0 = wall () in
  let outcomes =
    List.map
      (fun ((label, _, _) as run) ->
        around probe label (fun () -> run_one probe run))
      w.Workload.runs
  in
  { probe; outcomes; wall_s = wall () -. t0 }

(* Probe readings over every run of a pass. *)
let phase p name = Telemetry.Perf.duration_s p.probe.Probe.phases name

let gauge p name =
  Registry.gauge_value (Registry.gauge p.probe.Probe.registry name)

let counter p name =
  Registry.counter_value (Registry.counter p.probe.Probe.registry name)

let events p = Probe.events_total p.probe

let net_max p f =
  List.fold_left
    (fun acc o -> match o.net with Some n -> max acc (f n) | None -> acc)
    0 p.outcomes

let net_sum p f =
  List.fold_left
    (fun acc o -> match o.net with Some n -> acc + f n | None -> acc)
    0 p.outcomes

(* The simulated statistics a run is checked on. *)
let outcome_json o =
  let open Telemetry.Json in
  let stats =
    match o.metrics with
    | None -> []
    | Some m ->
        [
          ("cov", Float m.Burstcore.Metrics.cov);
          ("delivered", Int m.Burstcore.Metrics.delivered);
          ("gateway_drops", Int m.Burstcore.Metrics.gateway_drops);
          ("timeouts", Int m.Burstcore.Metrics.timeouts);
          ("events", Int o.events);
        ]
  in
  Obj
    ([
       ("label", String o.label);
       ("error", match o.error with Some e -> String e | None -> Null);
       ("pool_live", Int o.pool_live);
       ("flows_live", Int o.flows_live);
     ]
    @ stats)

let pass_json p =
  let open Telemetry.Json in
  [
    ("pass_wall_s", Float p.wall_s);
    ("setup_s", Float (phase p "setup"));
    ("run_s", Float (phase p "run"));
    ("collect_s", Float (phase p "collect"));
    ("events", Int (events p));
    ("minor_words", Float (gauge p Probe.m_minor_words));
    ("runs", List (List.map outcome_json p.outcomes));
  ]
