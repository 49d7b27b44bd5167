(* Replays of one layer's public call at the depth or occupancy a
   workload reached, timed from outside. Each returns nanoseconds per
   operation: the median over several rounds, each round long enough
   (~20 ms) to rise above clock resolution. *)

module Time = Sim_engine.Time
module Rng = Sim_engine.Rng
module Scheduler = Sim_engine.Scheduler
module Pool = Netsim.Packet_pool
module Q = Netsim.Queue_disc

let wall = Telemetry.Perf.wall_clock_s
let rounds = 7

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [f n] performs [n] operations. The batch size doubles until one
   batch takes 20 ms, then [rounds] batches are timed. *)
let ns_per_op f =
  let rec calibrate n =
    let t0 = wall () in
    f n;
    if wall () -. t0 >= 0.02 || n >= 1 lsl 26 then n else calibrate (2 * n)
  in
  let n = calibrate 1024 in
  median
    (Array.init rounds (fun _ ->
         let t0 = wall () in
         f n;
         (wall () -. t0) *. 1e9 /. float_of_int n))

(* Scheduler fire + re-arm at a constant [depth] of pending events.
   Delays are exponential with the mean that Little's law gives the
   workload: depth over events per simulated second. *)
let schedule_pop ~depth ~capacity ~mean_delay_s =
  let sched = Scheduler.create ~queue_capacity:(max capacity depth) () in
  let rng = Rng.create ~seed:1L in
  let delays =
    Array.init 4096 (fun _ ->
        Time.of_ns (1 + Rng.exponential_ns rng ~mean:mean_delay_s))
  in
  let fired = ref 0 and target = ref 0 in
  let rec tick () =
    incr fired;
    if !fired >= !target then Scheduler.stop sched;
    ignore (Scheduler.after sched delays.(!fired land 4095) tick)
  in
  for _ = 1 to max 1 depth do
    ignore (Scheduler.after sched delays.(Rng.int rng 4096) tick)
  done;
  ns_per_op (fun n ->
      target := !fired + n;
      Scheduler.run sched)

(* Gateway enqueue + dequeue through the scenario's own queue
   discipline, held at [occupancy] packets. *)
let qdisc_op cfg scenario ~occupancy =
  let module C = Burstcore.Config in
  let occupancy = max 1 (min occupancy (cfg.C.buffer_packets - 1)) in
  let pool = Pool.create ~capacity:(occupancy + 64) () in
  let q =
    Burstcore.Dumbbell.gateway_queue cfg scenario (Rng.create ~seed:cfg.C.seed) pool
  in
  let alloc () =
    Pool.alloc_data pool ~flow:0 ~src:0 ~dst:1 ~size_bytes:cfg.C.packet_bytes
      ~sent_at:Time.zero ~seq:0 ~is_retransmit:false ()
  in
  let spare = Stack.create () in
  let take () = if Stack.is_empty spare then alloc () else Stack.pop spare in
  let service_ns =
    max 1
      (int_of_float
         (float_of_int (cfg.C.packet_bytes * 8)
         /. (cfg.C.bottleneck_bandwidth_mbps *. 1e6)
         *. 1e9))
  in
  let now = ref 0 in
  let offer () =
    let h = take () in
    match Q.enqueue q ~now:(Time.of_ns !now) h with
    | `Enqueued -> ()
    | `Dropped -> Stack.push h spare
    | `Enqueued_dropping v -> Stack.push v spare
  in
  for _ = 1 to occupancy do
    offer ()
  done;
  ns_per_op (fun n ->
      for _ = 1 to n do
        now := !now + service_ns;
        offer ();
        if Q.length q < occupancy then offer ();
        let d = Q.dequeue q ~now:(Time.of_ns !now) in
        if not (Pool.is_nil d) then Stack.push d spare
      done)

(* Packet allocation + release with [live] packets outstanding, freed
   in allocation order like packets leaving the network. *)
let pool_alloc_free ~live =
  let live = max 1 live in
  let pool = Pool.create ~capacity:(live + 1) () in
  let alloc () =
    Pool.alloc_data pool ~flow:0 ~src:0 ~dst:1 ~size_bytes:1500 ~sent_at:Time.zero
      ~seq:0 ~is_retransmit:false ()
  in
  let ring = Array.init live (fun _ -> alloc ()) in
  let i = ref 0 in
  ns_per_op (fun n ->
      for _ = 1 to n do
        Pool.free pool ring.(!i);
        ring.(!i) <- alloc ();
        i := if !i + 1 = live then 0 else !i + 1
      done)

(* One Poisson inter-arrival draw. *)
let rng_exponential ~mean =
  let rng = Rng.create ~seed:1L in
  let sink = ref 0 in
  let ns =
    ns_per_op (fun n ->
        for _ = 1 to n do
          sink := !sink + Rng.exponential_ns rng ~mean
        done)
  in
  ignore (Sys.opaque_identity !sink);
  ns

(* One gateway arrival fed to the streaming burst aggregator, at the
   workload's mean arrival spacing. *)
let burst_observe ~origin ~width ~spacing_s =
  let burst = Telemetry.Burst.create ~origin ~width () in
  let step = max 1 (int_of_float (spacing_s *. 1e9)) in
  let tick = ref (int_of_float (origin *. 1e9)) in
  ns_per_op (fun n ->
      for _ = 1 to n do
        tick := !tick + step;
        Telemetry.Burst.observe_tick burst !tick
      done)

(* One record appended to a Drop_oldest 4Ki lifecycle ring. *)
let recorder_record () =
  let r =
    Telemetry.Recorder.create
      {
        Telemetry.Recorder.capacity = 4096;
        overflow = Telemetry.Recorder.Drop_oldest;
        lifecycle = true;
      }
  in
  let lane = Telemetry.Recorder.lane r 0 in
  let tick = ref 0 in
  ns_per_op (fun n ->
      for _ = 1 to n do
        incr tick;
        Telemetry.Recorder.record lane ~tick:!tick ~kind:Telemetry.Record.run_start
          ~flow:(!tick land 1023) ~a:!tick ~b:0 ~c:0 ~sid:0 ~depth:0
      done)

(* One coupled fluid quantum: a projected RK4 step of the background
   ODE with the packet side's inputs frozen. *)
let fluid_step cfg ~q_pkt ~p_drop =
  let module C = Burstcore.Config in
  let module H = Burstcore.Hybrid in
  let params =
    {
      H.Coupling.n_bg = float_of_int cfg.C.background;
      capacity_pps = H.capacity_pps cfg;
      base_rtt_s = C.rtt_prop_s cfg;
      buffer_packets = float_of_int cfg.C.buffer_packets;
      max_window = float_of_int cfg.C.adv_window;
    }
  in
  let inputs = { H.Coupling.q_pkt; mu_fg_pps = 0.; p_drop } in
  let stepper = Fluidmodel.Ode.stepper 2 in
  let dt = H.default_quantum_s cfg in
  let y = [| 1.; 0. |] in
  ns_per_op (fun n ->
      for _ = 1 to n do
        H.Coupling.step stepper params inputs ~dt y
      done)

(* One rendezvous of a [domains]-rank team, as the sharded engine makes
   twice per window. *)
let barrier ~domains =
  let module Team = Parallel.Pool.Team in
  Team.with_team ~domains (fun team ->
      ns_per_op (fun n ->
          Team.run team (fun _ ->
              for _ = 1 to n do
                Team.barrier team
              done)))
