module Time = Sim_engine.Time
module Link = Netsim.Link
module Queue_disc = Netsim.Queue_disc
module Packet_pool = Netsim.Packet_pool

type t = Scenario.t -> Metrics.t

let gateway_marks = function
  | Queue_disc.Red red -> Netsim.Red.marks red
  | Queue_disc.Droptail _ | Queue_disc.Sfq _ -> 0

let attach ?probe ~sample_queue ~measure_sync cfg net =
  let sched = Dumbbell.scheduler net
  and pool = Dumbbell.pool net
  and bottleneck = Dumbbell.bottleneck net in
  let horizon = Time.of_sec cfg.Config.duration_s in
  (* Hybrid engine: couple the fluid background population to the
     bottleneck before any sampler reads its signals. *)
  let hybrid =
    if cfg.Config.background >= 1 then Some (Hybrid.attach ~sched ~bottleneck cfg)
    else None
  in
  let binner =
    Netsim.Monitor.arrival_binner pool bottleneck ~origin:cfg.Config.warmup_s
      ~width:(Config.rtt_prop_s cfg)
  in
  (* Streaming burstiness telemetry, only wired when the probe carries a
     burst config. The aggregator's base bin is the paper's RTT
     timescale, so its level-0 c.o.v. reproduces [Metrics.cov] from the
     same event stream without storing it. *)
  let burst =
    match Option.bind probe Telemetry.Probe.burst_config with
    | None -> None
    | Some bc ->
        let burst =
          Telemetry.Burst.create ~levels:bc.Telemetry.Burst.levels
            ~origin:cfg.Config.warmup_s ~width:(Config.rtt_prop_s cfg) ()
        in
        Netsim.Monitor.arrival_burst pool bottleneck burst;
        let osc =
          if bc.Telemetry.Burst.osc_enabled then begin
            let osc = Telemetry.Burst.Osc.create () in
            (* Probe the RED control loop through its own state variable:
               the averaged queue is what the drop decision feeds back on,
               so its limit cycle is the Hopf signature. Droptail/SFQ get
               the same smoothed signal from their optional EWMA (enabled
               here with RED's w_q, which [Config.validate] keeps in
               (0, 1], so the average is always present). *)
            let qdisc = Link.queue_disc bottleneck in
            if Queue_disc.avg_queue qdisc = None then
              Queue_disc.enable_avg qdisc ~w_q:cfg.Config.red_w_q;
            let base () = Option.value ~default:0. (Queue_disc.avg_queue qdisc) in
            (* Under the hybrid engine the detector watches the combined
               backlog. RED's average already folds the virtual queue into
               its samples; other disciplines add it explicitly. *)
            let signal =
              match (hybrid, qdisc) with
              | Some h, (Queue_disc.Droptail _ | Queue_disc.Sfq _) ->
                  fun () -> base () +. Hybrid.bg_queue h
              | _ -> base
            in
            Netsim.Monitor.osc_sampler ~signal sched bottleneck osc
              ~every:(Time.of_ms 20.) ~from:cfg.Config.warmup_s ~until:horizon;
            Some osc
          end
          else None
        in
        Some (burst, osc)
  in
  let per_flow_binners =
    if measure_sync && cfg.Config.clients >= 2 then begin
      let binners =
        Array.init cfg.Config.clients (fun _ ->
            Netstats.Binned.create ~origin:cfg.Config.warmup_s
              ~width:(Config.rtt_prop_s cfg) ())
      in
      Link.on_arrival bottleneck (fun now h ->
          let flow = Packet_pool.flow pool h in
          if
            Packet_pool.is_data pool h && flow >= 0 && flow < Array.length binners
          then Netstats.Binned.record binners.(flow) (Time.to_sec now));
      Some binners
    end
    else None
  in
  let drop_runs = Netsim.Monitor.drop_run_recorder bottleneck in
  let delay_stats = Netstats.Welford.create () in
  let delay_p99 = Netstats.P2_quantile.create ~q:0.99 in
  let delay_hist =
    Option.map
      (fun p ->
        Telemetry.Registry.histogram p.Telemetry.Probe.registry
          ~help:"Bottleneck one-way delay of data packets" ~lo:0. ~hi:5.
          ~bins:50 "packet_delay_seconds")
      probe
  in
  Link.on_depart bottleneck (fun now h ->
      if Packet_pool.is_data pool h && Time.to_sec now >= cfg.Config.warmup_s
      then begin
        let delay = Time.to_sec now -. Time.to_sec (Packet_pool.sent_at pool h) in
        Netstats.Welford.add delay_stats delay;
        Netstats.P2_quantile.add delay_p99 delay;
        match delay_hist with
        | Some hist -> Telemetry.Registry.observe hist delay
        | None -> ()
      end);
  let queue_series =
    if sample_queue then
      Some
        (Netsim.Monitor.queue_sampler sched bottleneck ~every:(Time.of_ms 10.)
           ~until:horizon)
    else None
  in
  (* The plane is its collectors' closing function. *)
  let collect scenario =
    let upto = cfg.Config.duration_s in
    let counts = Netstats.Binned.counts binner ~upto in
    (* A run shorter than the warm-up has no complete measurement bins. *)
    let cov, mean_per_bin =
      if Array.length counts < 2 then (0., 0.)
      else begin
        let summary = Netstats.Summary.of_array counts in
        (summary.Netstats.Summary.cov, summary.Netstats.Summary.mean)
      end
    in
    let cov_ci95 =
      if Array.length counts >= 20 then
        (Netstats.Batch_means.cov_interval counts)
          .Netstats.Batch_means.half_width_95
      else 0.
    in
    let arrivals = Link.arrivals bottleneck in
    let drops = Link.drops bottleneck in
    let loss_pct =
      if arrivals = 0 then 0.
      else 100. *. float_of_int drops /. float_of_int arrivals
    in
    let sync_index =
      match per_flow_binners with
      | None -> None
      | Some binners ->
          let rows = Array.map (fun b -> Netstats.Binned.counts b ~upto) binners in
          if Array.length rows.(0) < 2 then None
          else Some (Netstats.Correlation.mean_pairwise rows)
    in
    let burst =
      Option.map
        (fun (burst, osc) ->
          Telemetry.Burst.advance burst ~upto;
          Telemetry.Burst.summary ?osc burst)
        burst
    in
    (* One pass for max, sum and count — the list can hold one entry per
       loss episode of a long run. *)
    let drop_max, drop_sum, drop_count =
      List.fold_left
        (fun (mx, sum, n) len -> (Stdlib.max mx len, sum + len, n + 1))
        (0, 0, 0) (drop_runs ())
    in
    let stats = Dumbbell.tcp_stats_total net
    and per_client = Dumbbell.per_client_delivered net in
    {
      Metrics.scenario;
      clients = cfg.Config.clients;
      cov;
      cov_ci95;
      analytic_cov = Analytic.poisson_cov cfg;
      mean_per_bin;
      offered = Dumbbell.offered net;
      delivered = Array.fold_left ( + ) 0 per_client;
      segments_sent = Dumbbell.segments_sent_total net;
      gateway_arrivals = arrivals;
      gateway_drops = drops;
      loss_pct;
      timeouts = stats.Transport.Tcp_stats.timeouts;
      fast_retransmits = stats.Transport.Tcp_stats.fast_retransmits;
      retransmits = stats.Transport.Tcp_stats.retransmits;
      dup_acks = stats.Transport.Tcp_stats.dup_acks;
      timeout_dupack_ratio = Transport.Tcp_stats.timeout_dupack_ratio stats;
      per_client_delivered = per_client;
      jain_fairness = Fairness.jain (Array.map float_of_int per_client);
      sync_index;
      ecn_marks = gateway_marks (Link.queue_disc bottleneck);
      ecn_reactions = Dumbbell.ecn_reactions_total net;
      delay_mean_s = Netstats.Welford.mean delay_stats;
      delay_p99_s =
        (if Netstats.P2_quantile.count delay_p99 = 0 then 0.
         else Netstats.P2_quantile.quantile delay_p99);
      drop_run_max = drop_max;
      drop_run_mean =
        (if drop_count = 0 then 0.
         else float_of_int drop_sum /. float_of_int drop_count);
      cwnd_traces = Dumbbell.cwnd_traces net;
      queue_series;
      burst;
      hybrid = Option.map Hybrid.summary hybrid;
    }
  in
  collect

let metrics t = t

let finish ?probe ~run_label ~lifecycle ~tick (m : Metrics.t) =
  Option.iter
    (fun p ->
      let registry = p.Telemetry.Probe.registry in
      Option.iter (Telemetry.Burst.export registry ~run:run_label) m.Metrics.burst;
      Option.iter (Hybrid.export registry ~run:run_label) m.Metrics.hybrid)
    probe;
  Option.iter
    (fun (lane, sid) ->
      Option.iter (Telemetry.Burst.record_summary lane ~tick ~sid) m.Metrics.burst;
      Option.iter (Hybrid.record_summary lane ~tick ~sid) m.Metrics.hybrid)
    lifecycle
