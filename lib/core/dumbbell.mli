(** The paper's network model (Figure 1): N clients on dedicated access
    links into a common gateway, one bottleneck link to the server.

    One topology for both engines: a {e hub} — the gateway queue, the
    bottleneck and the reverse bottleneck — and one or more client
    {e slices}, each holding clients [\[lo, lo + n)] with their
    scheduler, packet pool, access links, TCP groups, endpoints and
    sources. {!create} builds the classic engine's dumbbell, one slice
    on the hub's scheduler and pool; {!create_sharded} the sharded
    engine's, one slice per domain. Everything after construction is
    the same code for both. *)

type t

val create :
  ?recorder:Telemetry.Recorder.t ->
  ?trace_clients:int list ->
  Config.t ->
  Scenario.t ->
  t
(** The RED gateway queue (as ["gateway"]) and every TCP sender record
    into [recorder]'s lane 0; in lifecycle mode so do the drop-tail/SFQ
    gateway, the router and the receivers. The caller wires the
    bottleneck's own packet records ({!Netsim.Link.record}).
    [trace_clients] (default none) lists the clients whose senders trace
    their congestion window. Sources are attached separately
    ({!start_sources} or {!sink}). *)

type handoff = Sim_engine.Time.t -> Netsim.Packet_pool.handle -> unit
(** Takes a packet leaving a domain, with its arrival time on the far
    side; see {!Netsim.Link.set_handoff}. *)

val create_sharded :
  ?recorder:Telemetry.Recorder.t ->
  ?trace_clients:int list ->
  Config.t ->
  Scenario.t ->
  shards:int ->
  to_hub:(int -> Netsim.Packet_pool.t -> handoff) ->
  to_slice:(int -> Netsim.Packet_pool.t -> handoff) ->
  t
(** The same dumbbell cut into [shards] (in [\[1, cfg.clients\]])
    contiguous slices, each on its own scheduler and pool, and a hub on
    another. Every crossing applies its propagation leg on the sending
    side: slice [s]'s data and ACKs go to [to_hub s pool], the hub's
    packets for slice [s] to [to_slice s pool] ([pool] is the sender's),
    and the far side re-injects them with {!enter_hub} and
    {!enter_slice}. The hub records into lane 0, slice [s] into lane
    [s + 1]. *)

val enter_hub : t -> Netsim.Packet_pool.handle -> unit
(** An arrival at the hub: ACKs join the reverse bottleneck, data the
    gateway queue. *)

val enter_slice : t -> int -> Netsim.Packet_pool.handle -> unit
(** An arrival at slice [s]: ACKs go down their client's access link,
    data reaches the flow's receiver. *)

(** {2 Topology facts} *)

val client_delays : Config.t -> Sim_engine.Time.t array
(** Per-client access-link propagation delay: [client_delay_s] for every
    client, or — when [client_delay_spread_s > 0] — drawn in client order
    from the ["client-delays"] stream, uniform on tau_c +/- spread/2 and
    floored at 0.1 ms. *)

val client_delay_bounds_s : Config.t -> float * float
(** [(lo, hi)] in seconds: every entry of {!client_delays} lies in
    [\[lo, hi\]] (after rounding to ticks). *)

val client_stream : Config.t -> int -> Sim_engine.Rng.t * Sim_engine.Time.t
(** Client [i]'s traffic stream, its own ["client-<i>"] split of the run
    seed, and its start time: a uniform offset in
    [\[0, start_stagger_s\]] drawn first from that stream, or 0. *)

val tcp_groups :
  ?recorder:Telemetry.Recorder.lane ->
  Config.t ->
  Scenario.t ->
  capacity:int ->
  Sim_engine.Scheduler.t ->
  pool:Netsim.Packet_pool.t ->
  transmit_data:(flow:int -> Netsim.Packet_pool.handle -> unit) ->
  transmit_ack:(flow:int -> Netsim.Packet_pool.handle -> unit) ->
  Transport.Tcp_sender.group * Transport.Tcp_receiver.group
(** The scenario's sender and receiver flow-table groups, sized for
    [capacity] flows: senders put data on [transmit_data], receivers
    put ACKs on [transmit_ack].
    @raise Invalid_argument for a UDP scenario. *)

val gateway_queue :
  ?recorder:Telemetry.Recorder.lane ->
  Config.t ->
  Scenario.t ->
  Sim_engine.Rng.t ->
  Netsim.Packet_pool.t ->
  Netsim.Queue_disc.t
(** The scenario's gateway queue discipline (RED splits ["red-gateway"]
    off the given master RNG, and records into [recorder] when given). *)

(** {2 The hub and the slices} *)

(** The hub's scheduler and pool are the only ones of a {!create}
    dumbbell. *)

val scheduler : t -> Sim_engine.Scheduler.t

val pool : t -> Netsim.Packet_pool.t

val bottleneck : t -> Netsim.Link.t
(** The gateway → server link whose queue is the discipline under test. *)

val slices : t -> int

val slice : t -> int -> Sim_engine.Scheduler.t * Netsim.Packet_pool.t

val events_processed : t -> int
(** Events fired, summed over every scheduler; allocation-free. *)

val event_queue_high_water_mark : t -> int
(** The largest of any scheduler. *)

val reclaim : t -> unit
(** Free every packet still queued or in flight on any link — after the
    run, so {!packets_live} is 0 for a leak-free run. *)

val packets_live : t -> int
(** Summed over every pool. *)

(** {2 Traffic and per-client totals} *)

val start_sources : t -> unit
(** Start every client's Poisson source on its slice's scheduler, from
    its {!client_stream} and offset until [duration_s]. *)

val sink : t -> int -> int -> unit
(** [sink t i n] submits [n] application packets on client [i]'s
    transport. *)

val tcp_sender : t -> int -> Transport.Tcp_sender.t option
(** [None] for UDP scenarios. *)

val offered : t -> int
(** Packets the {!start_sources} sources have submitted. *)

val per_client_delivered : t -> int array
(** In-order segments (TCP) or datagrams (UDP) delivered per client. *)

val delivered_total : t -> int

val tcp_stats_total : t -> Transport.Tcp_stats.t
(** Summed in client order; all-zero for UDP. *)

val segments_sent_total : t -> int
(** Data packets put on the wire, retransmissions included. *)

val ecn_reactions_total : t -> int
(** Window reductions the senders performed in response to ECE echoes. *)

val cwnd_traces : t -> (int * Netstats.Series.t) list
(** The congestion-window traces of the [trace_clients] given at
    construction, in that order (none for UDP). *)

val gateway_queue_high_water_mark : t -> int
(** Peak gateway queue occupancy (packets) seen so far. *)

(** {2 Flow-table accounting}

    Each slice's TCP endpoints are rows of one sender and one receiver
    slab; UDP scenarios report 0. *)

val release_flows : t -> unit
(** Detach every TCP endpoint — after metrics are collected, so
    {!flows_live} is 0 for a leak-free run. *)

val flows_live : t -> int

val flow_table_growths : t -> int
(** Capacity doublings; 0 means the client-count pre-size held. *)

val flow_table_bytes_per_flow : t -> int
(** Bytes one flow costs across its sender and receiver tables (the
    flows bench gates ≤ 512 B). *)

val flow_table_footprint_bytes : t -> int
(** Total slab bytes at current capacity. *)
