(** The paper's network model (Figure 1): N clients on dedicated access
    links into a common gateway, one bottleneck link to the server.

    Building a dumbbell wires nodes, links, the gateway router, the queue
    discipline under test and one transport connection per client; traffic
    sources are attached separately through {!sink}, so the same topology
    serves the paper's Poisson workload and the bulk-transfer examples. *)

type t

val create :
  ?recorder:Telemetry.Recorder.t ->
  ?trace_clients:int list ->
  Config.t ->
  Scenario.t ->
  t
(** Fresh scheduler, RNG streams, packet pool, topology and transports.
    When [recorder] is given, the RED gateway queue (as ["gateway"])
    and every TCP sender record their decisions into its lane 0; if the
    recorder is in lifecycle mode, the drop-tail/SFQ gateway, router and
    receivers are wired too (drops, retransmit forwards, reordering).
    The bottleneck link's own packet records are wired by the caller
    ({!Netsim.Link.record}).
    [trace_clients] (default none) lists client indices whose senders
    record a congestion-window trace; tracing costs boxed floats per
    ACK, so it is opt-in. *)

(** {2 Topology facts shared with the sharded builder}

    {!Pdes} splits this dumbbell across domains and takes these from
    here, so the engines cannot drift on ids, delays, RNG streams or
    transport parameters. *)

val lossless_capacity : int
(** Buffer of every access and reverse link: only the gateway buffer is
    finite in the paper's model. *)

val server_id : int

val client_id : int -> int
(** Node id of client [i]. *)

val make_cc :
  Config.t ->
  Scenario.cc_kind ->
  Transport.Cc.variant * Transport.Cc.vegas_params option
(** The congestion-control variant tag plus its parameters, if any. *)

val client_delays : Config.t -> Sim_engine.Time.t array
(** Per-client access-link propagation delay: [client_delay_s] for every
    client, or — when [client_delay_spread_s > 0] — drawn in client order
    from the ["client-delays"] stream, uniform on tau_c +/- spread/2 and
    floored at 0.1 ms. *)

val client_delay_bounds_s : Config.t -> float * float
(** [(lo, hi)] in seconds: every entry of {!client_delays} lies in
    [\[lo, hi\]] (after rounding to ticks). {!Pdes.window_s} takes its
    lookahead from [lo]. *)

val start_sources :
  Config.t ->
  Sim_engine.Scheduler.t ->
  lo:int ->
  n:int ->
  sink:(int -> int -> unit) ->
  Traffic.Source.t array
(** Start the Poisson sources of clients [lo .. lo + n - 1]: client [i]
    draws from its own ["client-<i>"] stream of the run seed, starts at
    a uniform offset in [\[0, start_stagger_s\]] and writes into
    [sink i] until [duration_s]. The streams depend only on [i], so a
    shard can start its own slice. *)

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
(** Build the scenario's gateway queue discipline (RED splits
    ["red-gateway"] off the given master RNG, and records its decisions
    into [recorder] when given). *)

val scheduler : t -> Sim_engine.Scheduler.t

val rng : t -> Sim_engine.Rng.t
(** The run's master RNG; split it for sources. *)

val pool : t -> Netsim.Packet_pool.t
(** The packet pool every node, link and transport of this topology
    allocates from. *)

val reclaim : t -> unit
(** Free every packet still queued or in flight on any link — call after
    the scheduler stops so {!Netsim.Packet_pool.live} returns 0 for a
    leak-free run. *)

val bottleneck : t -> Netsim.Link.t
(** The gateway → server link whose queue is the discipline under test. *)

val reverse_bottleneck : t -> Netsim.Link.t

val sink : t -> int -> int -> unit
(** [sink t i n] submits [n] application packets on client [i]'s
    transport. *)

val clients : t -> int

val tcp_sender : t -> int -> Transport.Tcp_sender.t option
(** [None] for UDP scenarios. *)

val per_client_delivered : t -> int array
(** In-order segments (TCP) or datagrams (UDP) delivered per client. *)

val delivered_total : t -> int

val tcp_stats_total : t -> Transport.Tcp_stats.t
(** All-zero for UDP scenarios. *)

val segments_sent_total : t -> int
(** Data packets put on the wire by all clients (TCP: includes
    retransmissions; UDP: datagrams). *)

val gateway_queue_high_water_mark : t -> int
(** Peak gateway queue occupancy (packets) seen so far. *)

val gateway_marks : Netsim.Queue_disc.t -> int
(** ECN CE marks applied by a gateway queue (0 for FIFO / SFQ / non-ECN
    RED). *)

val ecn_reactions_total : t -> int
(** Window reductions the senders performed in response to ECE echoes. *)

(** {2 Flow-table accounting}

    TCP endpoints live as rows of two shared struct-of-arrays slabs
    (one sender table, one receiver table); UDP scenarios report 0 and
    release is a no-op. *)

val release_flows : t -> unit
(** Detach every TCP endpoint, cancelling its timers and freeing its
    rows — call after metrics are collected so {!flows_live} returns 0
    for a leak-free run. *)

val flows_live : t -> int
(** Rows still allocated across both tables. *)

val flow_table_growths : t -> int
(** Capacity doublings across both tables; 0 means the client-count
    pre-size held for the whole run. *)

val flow_table_bytes_per_flow : t -> int
(** Bytes one flow costs across both tables — the figure the flows
    bench gates (≤ 512 B at the paper's advertised window). *)

val flow_table_footprint_bytes : t -> int
(** Total slab bytes at current capacity. *)
