(** The simulation's event vocabulary: the decoded view of a flight
    recording.

    Producers (links, queue disciplines, TCP senders) write fixed-width
    {!Recorder} records; {!Record.event_of_record} turns the parity
    kinds back into the typed events below. Every text trace the
    simulator writes — the [--trace-out] NDJSON stream and the
    ns-style [trace] output — is produced by decoding a recording
    through this type, so there is one trace path.

    Every event serialises to one JSON object (NDJSON when
    newline-separated) and parses back exactly: for any event [e],
    [of_ndjson_line (to_ndjson e) = Ok e]. *)

type packet_kind = Arrival | Drop | Depart

type tcp_kind = Timeout | Fast_retransmit | Cwnd_cut | Ecn_reaction

type queue_kind = Ecn_mark | Early_drop | Forced_drop

type event =
  | Packet of {
      time : float;
      kind : packet_kind;
      link : string;
      flow : int;
      seq : int option;  (** [None] for ACKs and UDP datagrams *)
      size_bytes : int;
      uid : int;
    }  (** A link-level packet event (queue arrival, drop, delivery). *)
  | Tcp of { time : float; kind : tcp_kind; flow : int; cwnd : float }
      (** A congestion-control decision; [cwnd] is the window {e after}
          the reaction, in segments. *)
  | Queue of {
      time : float;
      kind : queue_kind;
      queue : string;
      flow : int;
      avg : float;  (** RED's average-queue estimate at the decision *)
    }  (** A queue-discipline decision RED makes internally (an early or
          forced drop, or a CE mark) that plain link drop counts cannot
          distinguish. *)

val time : event -> float

(** {2 NDJSON serialisation} *)

val to_json : event -> Json.t

val of_json : Json.t -> (event, string) result

val to_ndjson : event -> string
(** One-line JSON, no trailing newline. *)

val of_ndjson_line : string -> (event, string) result

val ndjson_writer : out_channel -> event -> unit
(** Append one NDJSON line per event. The caller owns (and
    flushes/closes) the channel. *)

(** {2 ns-style text} *)

val ns_line : event -> string option
(** The classic ns trace line of a packet event, without a newline:

    {v
    + 12.345678 bottleneck flow=3 seq=127 1500B
    d 12.345678 bottleneck flow=5 seq=96 1500B
    r 12.847312 bottleneck flow=3 seq=127 1500B
    v}

    ([+] queue arrival, [d] drop, [r] delivery at the far end; [ack] in
    place of [seq=N] for packets without a data sequence number).
    [None] for TCP and queue events. *)
