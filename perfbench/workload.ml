(* The workloads of the scenario matrix: which configurations run,
   through which engine, with which telemetry. *)

module C = Burstcore.Config
module S = Burstcore.Scenario

type t = {
  name : string;
  runs : (string * C.t * S.t) list;  (** label, config, scenario *)
  telemetry : bool;
      (** keep the burst aggregator and a Drop_oldest lifecycle flight
          recorder on the probe *)
  sharded : bool;
      (** the traced run measures the parallel layer on these inputs,
          with K = 2 and K = 1 companions on the sharded engine *)
}

(* Table 1 at N = 50: the paper's own runs. *)
let paper ~quick seed =
  let base = { (C.with_clients C.default 50) with C.seed } in
  if quick then { base with C.duration_s = 40.; warmup_s = 10. } else base

(* Table 1 scaled x200 to N = 10^4: capacity, buffer and RED thresholds
   grow with N while the per-client Poisson rate stays fixed, so the
   offered load stays 1.2x capacity as at N = 50. *)
let meanfield ~quick seed =
  let k = 200 in
  let f = float_of_int k in
  let d = C.default in
  {
    (C.with_clients d (50 * k)) with
    C.bottleneck_bandwidth_mbps = d.C.bottleneck_bandwidth_mbps *. f;
    buffer_packets = d.C.buffer_packets * k;
    red_min_th = d.C.red_min_th *. f;
    red_max_th = d.C.red_max_th *. f;
    duration_s = (if quick then 1.5 else 3.);
    warmup_s = (if quick then 0.5 else 1.);
    seed;
  }

(* The hybrid bench's mean-field shape at N = 10^6 total flows: 16 pkt/s
   of capacity per flow, 0.2 s propagation RTT, buffer 10N, RED band
   [N, 7N]; 100 packet-level Poisson clients in the foreground and the
   rest as the fluid background. *)
let hybrid ~quick seed =
  let n = 1_000_000 and k = 100 in
  let f = float_of_int n in
  let duration_s = if quick then 6. else 60. in
  {
    (C.with_clients C.default k) with
    C.bottleneck_bandwidth_mbps = 0.192 *. f;
    client_delay_s = 0.05;
    bottleneck_delay_s = 0.05;
    adv_window = 12;
    buffer_packets = 10 * n;
    red_min_th = f;
    red_max_th = 7.0 *. f;
    red_max_p = 0.05;
    duration_s;
    warmup_s = duration_s /. 2.;
    background = n - k;
    seed;
  }

let make ?(quick = false) ~seed name =
  let seed = Int64.of_int seed in
  let one cfg = [ ("reno-red", cfg, S.reno_red) ] in
  match name with
  | "paper-n50" ->
      let cfg = paper ~quick seed in
      {
        name;
        runs =
          [
            ("reno", cfg, S.reno);
            ("reno-red", cfg, S.reno_red);
            ("vegas", cfg, S.vegas);
          ];
        telemetry = true;
        sharded = false;
      }
  | "meanfield-1e4" ->
      { name; runs = one (meanfield ~quick seed); telemetry = false; sharded = true }
  | "hybrid-1e6" ->
      { name; runs = one (hybrid ~quick seed); telemetry = false; sharded = false }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Every run on the sharded engine with [shards] domains. *)
let with_shards shards w =
  { w with runs = List.map (fun (l, cfg, sc) -> (l, { cfg with C.shards }, sc)) w.runs }

let without_telemetry w = { w with telemetry = false }

let probe w =
  let p = Telemetry.Probe.create () in
  if w.telemetry then begin
    Telemetry.Probe.set_burst p (Some Telemetry.Burst.default_config);
    Telemetry.Probe.set_recording p
      {
        Telemetry.Recorder.capacity = 4096;
        overflow = Telemetry.Recorder.Drop_oldest;
        lifecycle = true;
      }
  end;
  p
