module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Link = Netsim.Link
module Node = Netsim.Node
module Router = Netsim.Router
module Units = Netsim.Units
module Queue_disc = Netsim.Queue_disc
module Packet_pool = Netsim.Packet_pool

type endpoint =
  | Tcp_end of Transport.Tcp_sender.t * Transport.Tcp_receiver.t
  | Udp_end of Transport.Udp.sender * Transport.Udp.receiver

(* Clients [lo, lo + Array.length endpoints): their access links and
   transports, on one scheduler and packet pool. *)
type slice = {
  lo : int;
  sched : Scheduler.t;
  pool : Packet_pool.t;
  up_links : Link.t array;
  down_links : Link.t array;
  endpoints : endpoint array;
  (* The flow-table groups behind the TCP endpoints ([None] for UDP):
     the slice's senders share one struct-of-arrays slab, its receivers
     another — see {!Transport.Tcp_sender.create_group}. *)
  flows : (Transport.Tcp_sender.group * Transport.Tcp_receiver.group) option;
}

(* The gateway half, on its own scheduler and pool in the sharded build
   and on the one slice's in the classic build. *)
type hub = {
  sched : Scheduler.t;
  pool : Packet_pool.t;
  gateway_queue : Queue_disc.t;
  bottleneck : Link.t;
  reverse_bottleneck : Link.t;
}

type t = {
  cfg : Config.t;
  hub : hub;
  slices : slice array;
  endpoints : endpoint array; (* every slice's, in client order *)
  mutable sources : Traffic.Source.t array;
  trace_clients : int list;
}

let server_id = 0

let client_id i = i + 1

let red_params cfg ~ecn_mark ~adaptive =
  {
    Netsim.Red.min_th = cfg.Config.red_min_th;
    max_th = cfg.Config.red_max_th;
    max_p = cfg.Config.red_max_p;
    w_q = cfg.Config.red_w_q;
    capacity = cfg.Config.buffer_packets;
    idle_packet_time =
      float_of_int (8 * cfg.Config.packet_bytes)
      /. (cfg.Config.bottleneck_bandwidth_mbps *. 1e6);
    ecn_mark;
    adaptive;
  }

let gateway_queue ?recorder cfg scenario rng pool =
  let red ~ecn_mark ~adaptive =
    Queue_disc.red ?recorder ~name:"gateway"
      ~rng:(Rng.split_named rng "red-gateway")
      ~pool
      (red_params cfg ~ecn_mark ~adaptive)
  in
  match scenario.Scenario.gateway with
  | Scenario.Fifo -> Queue_disc.droptail ~capacity:cfg.Config.buffer_packets
  | Scenario.Red -> red ~ecn_mark:false ~adaptive:false
  | Scenario.Red_ecn -> red ~ecn_mark:true ~adaptive:false
  | Scenario.Red_adaptive -> red ~ecn_mark:false ~adaptive:true
  | Scenario.Sfq_gw -> Queue_disc.sfq ~pool ~capacity:cfg.Config.buffer_packets ()

(* Per-client propagation delays: homogeneous by default, optionally
   spread uniformly around tau_c (floored at [delay_floor_s]) to break
   RTT synchronization. *)
let delay_floor_s = 1e-4

let client_delay_bounds_s cfg =
  let d = cfg.Config.client_delay_s
  and spread = cfg.Config.client_delay_spread_s in
  if spread = 0. then (d, d)
  else (Stdlib.max delay_floor_s (d -. (spread /. 2.)), d +. (spread /. 2.))

let client_delays cfg =
  let n = cfg.Config.clients in
  let spread = cfg.Config.client_delay_spread_s in
  if spread = 0. then Array.make n (Time.of_sec cfg.Config.client_delay_s)
  else begin
    let delay_rng =
      Rng.split_named (Rng.create ~seed:cfg.Config.seed) "client-delays"
    in
    Array.init n (fun _ ->
        let jitter = (Rng.float delay_rng -. 0.5) *. spread in
        Time.of_sec
          (Stdlib.max delay_floor_s (cfg.Config.client_delay_s +. jitter)))
  end

let client_stream cfg i =
  let rng =
    Rng.split_named
      (Rng.create ~seed:cfg.Config.seed)
      (Printf.sprintf "client-%d" i)
  in
  let start =
    if cfg.Config.start_stagger_s > 0. then
      Time.of_sec (Rng.float rng *. cfg.Config.start_stagger_s)
    else Time.zero
  in
  (rng, start)

let tcp_groups ?recorder cfg scenario ~capacity sched ~pool ~transmit_data
    ~transmit_ack =
  match scenario.Scenario.transport with
  | Scenario.Udp -> invalid_arg "Dumbbell.tcp_groups: UDP scenario"
  | Scenario.Tcp { cc; delayed_ack } ->
      let ecn_capable = scenario.Scenario.gateway = Scenario.Red_ecn in
      let sack = cc = Scenario.Sack in
      (* Window bounds default to the advertised window in the groups. *)
      let variant, vegas =
        match cc with
        | Scenario.Tahoe -> (Transport.Cc.Tahoe, None)
        | Scenario.Reno -> (Transport.Cc.Reno, None)
        | Scenario.Newreno -> (Transport.Cc.Newreno, None)
        | Scenario.Vegas -> (Transport.Cc.Vegas, Some cfg.Config.vegas)
        | Scenario.Sack -> (Transport.Cc.Sack, None)
      in
      let sender_group =
        Transport.Tcp_sender.create_group ~ecn_capable ~sack
          ~cwnd_validation:cfg.Config.cwnd_validation ~pacing:cfg.Config.pacing
          ?recorder ?vegas ~capacity sched ~pool ~cc:variant
          ~rto_params:cfg.Config.rto ~mss_bytes:cfg.Config.packet_bytes
          ~adv_window:cfg.Config.adv_window ~transmit:transmit_data
      in
      let receiver_group =
        Transport.Tcp_receiver.create_group ~sack ?recorder ~capacity sched
          ~pool ~ack_bytes:cfg.Config.ack_bytes ~delayed_ack
          ~adv_window:cfg.Config.adv_window ~transmit:transmit_ack
      in
      (sender_group, receiver_group)

(* ------------------------------------------------------------------ *)
(* Building blocks shared by both builds *)

(* A link's far end: a local delivery, or — at a domain boundary — a
   handoff that simulates the propagation leg on the sending side
   ({!Link.set_handoff}). *)
type handoff = Time.t -> Packet_pool.handle -> unit

type far_end = Deliver of (Packet_pool.handle -> unit) | Handoff of handoff

let link sched pool ~name ~bandwidth ~delay ~queue = function
  | Deliver deliver -> Link.create sched ~name ~bandwidth ~delay ~queue ~pool ~deliver
  | Handoff handoff ->
      let link =
        Link.create sched ~name ~bandwidth ~delay ~queue ~pool
          ~deliver:(fun _ -> assert false)
      in
      Link.set_handoff link handoff;
      link

(* Only the gateway buffer is finite in the paper's model; access and
   reverse links never drop. *)
let lossless () = Queue_disc.droptail ~capacity:1_000_000

let make_hub ?lane ?lifecycle_lane cfg scenario sched pool ~bottleneck
    ~reverse:(reverse_delay, reverse) =
  let rng = Rng.create ~seed:cfg.Config.seed in
  let gateway_queue = gateway_queue ?recorder:lane cfg scenario rng pool in
  Option.iter
    (fun recorder ->
      Queue_disc.set_recorder gateway_queue ~recorder ~pool ~name:"gateway")
    lifecycle_lane;
  let bandwidth = Units.mbps cfg.Config.bottleneck_bandwidth_mbps in
  let link = link sched pool ~bandwidth in
  {
    sched;
    pool;
    gateway_queue;
    bottleneck =
      link ~name:"bottleneck"
        ~delay:(Time.of_sec cfg.Config.bottleneck_delay_s)
        ~queue:gateway_queue bottleneck;
    reverse_bottleneck =
      link ~name:"bottleneck-rev" ~delay:reverse_delay ~queue:(lossless ())
        reverse;
  }

(* The down link's far end: the client's sender consumes the ACK. *)
let to_sender pool = function
  | Tcp_end (sender, _) ->
      fun h ->
        Transport.Tcp_sender.handle_packet sender h;
        Packet_pool.free pool h
  | Udp_end _ -> Packet_pool.free pool

(* A data packet to its flow's receiver; the caller keeps the handle. *)
let serve (s : slice) h =
  let j = Packet_pool.flow s.pool h - s.lo in
  if j >= 0 && j < Array.length s.endpoints then
    match s.endpoints.(j) with
    | Tcp_end (_, receiver) -> Transport.Tcp_receiver.handle_packet receiver h
    | Udp_end (_, receiver) -> Transport.Udp.handle_packet receiver h

(* Clients [lo, lo + n): up links ending at [up], one sender and one
   receiver group (receivers put ACKs on [transmit_ack]), the endpoints,
   and down links of [down_delay i] ending at the senders. *)
let make_slice ?lane ~trace_clients cfg scenario sched pool ~lo ~n ~delays ~up
    ~down_delay ~transmit_ack =
  let bandwidth = Units.mbps cfg.Config.client_bandwidth_mbps in
  let access name i delay far_end =
    link sched pool ~name:(Printf.sprintf name i) ~bandwidth ~delay
      ~queue:(lossless ()) far_end
  in
  let up_links =
    Array.init n (fun j -> access "up-%d" (lo + j) delays.(lo + j) up)
  in
  (* One sender and one receiver group carry every TCP flow of the
     slice: a flow is a row in each slab, not a record or closure. *)
  let flows =
    match scenario.Scenario.transport with
    | Scenario.Udp -> None
    | Scenario.Tcp _ ->
        Some
          (tcp_groups ?recorder:lane cfg scenario ~capacity:n sched ~pool
             ~transmit_data:(fun ~flow p -> Link.send up_links.(flow - lo) p)
             ~transmit_ack)
  in
  let endpoints =
    Array.init n (fun j ->
        let i = lo + j in
        match flows with
        | None ->
            let sender =
              Transport.Udp.create_sender sched ~pool ~flow:i ~src:(client_id i)
                ~dst:server_id ~size_bytes:cfg.Config.packet_bytes
                ~transmit:(Link.send up_links.(j))
            in
            Udp_end (sender, Transport.Udp.create_receiver ~pool ())
        | Some (sender_group, receiver_group) ->
            let sender =
              Transport.Tcp_sender.attach sender_group ~flow:i
                ~src:(client_id i) ~dst:server_id
                ~trace_cwnd:(List.mem i trace_clients) ()
            in
            let receiver =
              Transport.Tcp_receiver.attach receiver_group ~flow:i
                ~src:server_id ~dst:(client_id i) ()
            in
            Tcp_end (sender, receiver))
  in
  let down_links =
    Array.init n (fun j ->
        access "down-%d" (lo + j) (down_delay (lo + j))
          (Deliver (to_sender pool endpoints.(j))))
  in
  { lo; sched; pool; up_links; down_links; endpoints; flows }

(* Lane [id] for parity records, and again for lifecycle-only sites. *)
let lanes recorder id =
  let lane = Option.map (fun r -> Telemetry.Recorder.lane r id) recorder in
  match recorder with
  | Some r when Telemetry.Recorder.lifecycle r -> (lane, lane)
  | _ -> (lane, None)

(* An event queue pre-sized for [n] clients holding [windows] advertised
   windows of packets (two events each: tx-done and delivery), per-flow
   timers and a small fixed overhead. This is far from free — at
   N = 10^4 the classic bound is 880k slots x 11 words (~77 MB) against
   a high-water mark of ~58k — but the flow-scaling bench gates zero
   event-queue growth. The packet pool, by contrast, starts small. *)
let scheduler_for cfg ~n ~windows =
  Scheduler.create
    ~queue_capacity:(64 + (n * ((windows * cfg.Config.adv_window) + 8)))
    ()

(* ------------------------------------------------------------------ *)
(* The two builds *)

let assemble cfg hub slices trace_clients =
  let endpoints =
    Array.concat (List.map (fun (s : slice) -> s.endpoints) (Array.to_list slices))
  in
  { cfg; hub; slices; endpoints; sources = [||]; trace_clients }

let create ?recorder ?(trace_clients = []) cfg scenario =
  Config.validate cfg;
  (* Everything records into lane 0: the RED gateway and TCP senders
     always (parity kinds), lifecycle-only sites in lifecycle mode. *)
  let lane, lifecycle_lane = lanes recorder 0 in
  let n = cfg.Config.clients in
  let sched = scheduler_for cfg ~n ~windows:4 in
  let pool = Packet_pool.create () in
  let router = Router.create ?recorder:lifecycle_lane ~name:"gateway" ~pool () in
  let server = Node.create ~id:server_id ~pool in
  let delays = client_delays cfg in
  let hub =
    make_hub ?lane ?lifecycle_lane cfg scenario sched pool
      ~bottleneck:(Deliver (Node.receive server))
      ~reverse:
        ( Time.of_sec cfg.Config.bottleneck_delay_s,
          Deliver (Router.receive router) )
  in
  Router.set_default router hub.bottleneck;
  let slice =
    make_slice ?lane ~trace_clients cfg scenario sched pool ~lo:0 ~n ~delays
      ~up:(Deliver (Router.receive router))
      ~down_delay:(fun i -> delays.(i))
      ~transmit_ack:(fun ~flow:_ p -> Link.send hub.reverse_bottleneck p)
  in
  Array.iteri
    (fun i link -> Router.add_route router ~dst:(client_id i) link)
    slice.down_links;
  Node.set_handler server (fun h -> serve slice h);
  assemble cfg hub [| slice |] trace_clients

(* Every crossing is a handoff that applies its propagation leg on the
   sending side: the ACK leaves its slice already shifted by the
   bottleneck delay, the reverse bottleneck serializes and adds the
   access delay, and the down links only serialize. *)
let create_sharded ?recorder ?(trace_clients = []) cfg scenario ~shards ~to_hub
    ~to_slice =
  Config.validate cfg;
  let n = cfg.Config.clients in
  if shards < 1 || shards > n then
    invalid_arg "Dumbbell.create_sharded: shards outside [1, clients]";
  let lo_of s = s * n / shards in
  (* The s with [lo_of s <= i < lo_of (s + 1)]. *)
  let slice_of = Array.init n (fun i -> (((i + 1) * shards) - 1) / n) in
  let lane, lifecycle_lane = lanes recorder 0 in
  let delays = client_delays cfg in
  let pool = Packet_pool.create () in
  let ship = Array.init shards (fun s -> to_slice s pool) in
  let hub =
    make_hub ?lane ?lifecycle_lane cfg scenario
      (scheduler_for cfg ~n ~windows:2)
      pool
      ~bottleneck:
        (Handoff
           (fun arrival h -> ship.(slice_of.(Packet_pool.flow pool h)) arrival h))
      ~reverse:
        ( Time.zero,
          Handoff
            (fun arrival h ->
              let flow = Packet_pool.flow pool h in
              ship.(slice_of.(flow)) (Time.add arrival delays.(flow)) h) )
  in
  let bottleneck_delay = Time.of_sec cfg.Config.bottleneck_delay_s in
  let slices =
    Array.init shards (fun s ->
        let lo = lo_of s in
        let n = lo_of (s + 1) - lo in
        let sched = scheduler_for cfg ~n ~windows:4 in
        let pool = Packet_pool.create () in
        let up = to_hub s pool in
        make_slice
          ?lane:(fst (lanes recorder (s + 1)))
          ~trace_clients cfg scenario sched pool ~lo ~n ~delays
          ~up:(Handoff up)
          ~down_delay:(fun _ -> Time.zero)
          ~transmit_ack:(fun ~flow:_ p ->
            up (Time.add (Scheduler.now sched) bottleneck_delay) p))
  in
  assemble cfg hub slices trace_clients

let enter_hub t h =
  if Packet_pool.kind t.hub.pool h = Packet_pool.Tcp_ack then
    Link.send t.hub.reverse_bottleneck h
  else Link.send t.hub.bottleneck h

let enter_slice t s h =
  let sl = t.slices.(s) in
  if Packet_pool.kind sl.pool h = Packet_pool.Tcp_ack then
    Link.send sl.down_links.(Packet_pool.flow sl.pool h - sl.lo) h
  else begin
    serve sl h;
    Packet_pool.free sl.pool h
  end

(* ------------------------------------------------------------------ *)
(* Accessors *)

let scheduler t = t.hub.sched

let pool t = t.hub.pool

let bottleneck t = t.hub.bottleneck

let slices t = Array.length t.slices

let slice t s = (t.slices.(s).sched, t.slices.(s).pool)

(* [f] folded with [op] over the distinct schedulers and pools, hub's
   first; allocation-free, as [Run] calls it inside the GC window. *)
let across t op f =
  let acc = ref (f t.hub.sched t.hub.pool) in
  for s = 0 to Array.length t.slices - 1 do
    let sl = t.slices.(s) in
    if sl.sched != t.hub.sched then acc := op !acc (f sl.sched sl.pool)
  done;
  !acc

let events_processed t =
  across t ( + ) (fun sched _ -> Scheduler.events_processed sched)

let event_queue_high_water_mark t =
  across t Stdlib.max (fun sched _ -> Scheduler.queue_high_water_mark sched)

let packets_live t = across t ( + ) (fun _ pool -> Packet_pool.live pool)

let reclaim t =
  Link.reclaim t.hub.bottleneck;
  Link.reclaim t.hub.reverse_bottleneck;
  Array.iter
    (fun s ->
      Array.iter Link.reclaim s.up_links;
      Array.iter Link.reclaim s.down_links)
    t.slices

let write = function
  | Tcp_end (sender, _) -> Transport.Tcp_sender.write sender
  | Udp_end (sender, _) -> Transport.Udp.write sender

let sink t i = write t.endpoints.(i)

let start_sources t =
  let cfg = t.cfg in
  let until = Time.of_sec cfg.Config.duration_s in
  t.sources <-
    Array.concat
      (List.map
         (fun (s : slice) ->
           Array.mapi
             (fun j ep ->
               let rng, start = client_stream cfg (s.lo + j) in
               Traffic.Poisson.start s.sched ~rng
                 ~mean_interarrival:cfg.Config.mean_interarrival_s ~start
                 ~until ~sink:(write ep))
             s.endpoints)
         (Array.to_list t.slices))

let tcp_sender t i =
  match t.endpoints.(i) with
  | Tcp_end (sender, _) -> Some sender
  | Udp_end _ -> None

let offered t =
  Array.fold_left (fun acc s -> acc + s.Traffic.Source.generated ()) 0 t.sources

let per_client_delivered t =
  Array.map
    (function
      | Tcp_end (_, receiver) -> Transport.Tcp_receiver.delivered receiver
      | Udp_end (_, receiver) -> Transport.Udp.received receiver)
    t.endpoints

let delivered_total t = Array.fold_left ( + ) 0 (per_client_delivered t)

(* [f] folded over the TCP senders (none for UDP). *)
let fold_senders f init t =
  Array.fold_left
    (fun acc -> function Tcp_end (sender, _) -> f acc sender | Udp_end _ -> acc)
    init t.endpoints

let tcp_stats_total t =
  fold_senders
    (fun acc s -> Transport.Tcp_stats.add acc (Transport.Tcp_sender.stats s))
    (Transport.Tcp_stats.create ()) t

let ecn_reactions_total t =
  fold_senders (fun acc s -> acc + Transport.Tcp_sender.ecn_reactions s) 0 t

let segments_sent_total t =
  Array.fold_left
    (fun acc -> function
      | Tcp_end (sender, _) ->
          acc + (Transport.Tcp_sender.stats sender).Transport.Tcp_stats.segments_sent
      | Udp_end (sender, _) -> acc + Transport.Udp.sent sender)
    0 t.endpoints

let cwnd_traces t =
  List.filter_map
    (fun i ->
      Option.map
        (fun sender -> (i, Transport.Tcp_sender.cwnd_trace sender))
        (tcp_sender t i))
    t.trace_clients

let gateway_queue_high_water_mark t =
  Queue_disc.high_water_mark t.hub.gateway_queue

(* ------------------------------------------------------------------ *)
(* Flow-table accounting (0 / no-op for UDP scenarios) *)

let release_flows t =
  Array.iter
    (function
      | Tcp_end (sender, receiver) ->
          Transport.Tcp_sender.detach sender;
          Transport.Tcp_receiver.detach receiver
      | Udp_end _ -> ())
    t.endpoints

(* [f] summed over a slice's sender and receiver tables. *)
let slice_tables f s =
  match s.flows with
  | None -> 0
  | Some (sg, rg) ->
      f (Transport.Tcp_sender.table sg) + f (Transport.Tcp_receiver.table rg)

let flow_tables f t =
  Array.fold_left (fun acc s -> acc + slice_tables f s) 0 t.slices

let flows_live = flow_tables Netsim.Flow_table.live

let flow_table_growths = flow_tables Netsim.Flow_table.growth_count

let flow_table_bytes_per_flow t =
  slice_tables Netsim.Flow_table.bytes_per_flow t.slices.(0)

let flow_table_footprint_bytes = flow_tables Netsim.Flow_table.footprint_bytes
