module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Packet_pool = Netsim.Packet_pool
module Team = Parallel.Pool.Team
module Recorder = Telemetry.Recorder

(* Sharded conservative PDES: how the sharded engine advances time.

   {!Dumbbell.create_sharded} cuts the topology into K client slices on
   their own domains and a hub that rank 0 simulates alongside slice 0.
   All four crossings — client data into the gateway, gateway data out
   to the receivers, ACKs into the reverse bottleneck, delivered ACKs
   back down the access links — traverse a propagation leg of at least

     W = min(min_i client_delay_i, bottleneck_delay)

   so domains simulate [W]-wide windows independently and exchange
   packets at window boundaries with zero rollback: a packet emitted
   inside window [w] cannot arrive before window [w] ends. Each crossing
   applies its propagation on the sending side, which keeps per-packet
   timing identical to a single-domain build of the same machinery.

   Determinism: every batch crossing a boundary is sorted by
   (arrival tick, flow, emission order) before its events are inserted —
   a total order independent of K. Uids come from per-flow counters
   ({!Packet_pool.set_uid_source}) so they do not leak cross-flow
   allocation interleaving, and every RNG stream is split by name from
   the run seed. The recorder's lanes (hub 0, slice [s] lane [s + 1])
   merge at the end into one canonical (tick, decoded line) order. *)

(* ------------------------------------------------------------------ *)
(* Cross-domain packet batches *)

(* One message = [stride] ints: arrival tick, uid, flow, src, dst, size,
   seq-or-ack word, sent-at tick, raw flags word, SACK block count and
   up to four (first, last_exclusive) SACK pairs — everything
   {!Packet_pool.import} needs to rehydrate the packet bit-for-bit. *)
let stride = 18

let max_sack = 4

let idx_mask = (1 lsl 40) - 1

module Msgs = struct
  type t = { mutable buf : int array; mutable len : int; mutable total : int }

  let create () = { buf = Array.make (64 * stride) 0; len = 0; total = 0 }

  let count t = t.len / stride

  let clear t = t.len <- 0

  let ensure t extra =
    if t.len + extra > Array.length t.buf then begin
      let ncap = ref (2 * Array.length t.buf) in
      while t.len + extra > !ncap do
        ncap := 2 * !ncap
      done;
      let nbuf = Array.make !ncap 0 in
      Array.blit t.buf 0 nbuf 0 t.len;
      t.buf <- nbuf
    end

  (* Producer side: copy a live packet's fields in and free it — the
     packet's onward life happens in the destination domain's pool. *)
  let ship t pool arrival h =
    ensure t stride;
    let b = t.len in
    let buf = t.buf in
    buf.(b) <- Time.to_ns arrival;
    buf.(b + 1) <- Packet_pool.uid pool h;
    buf.(b + 2) <- Packet_pool.flow pool h;
    buf.(b + 3) <- Packet_pool.src pool h;
    buf.(b + 4) <- Packet_pool.dst pool h;
    buf.(b + 5) <- Packet_pool.size_bytes pool h;
    buf.(b + 6) <- Packet_pool.word pool h;
    buf.(b + 7) <- Time.to_ns (Packet_pool.sent_at pool h);
    buf.(b + 8) <- Packet_pool.flags_word pool h;
    (match Packet_pool.sack pool h with
    | [] -> buf.(b + 9) <- 0
    | blocks ->
        let k = ref 0 in
        List.iter
          (fun (first, last) ->
            if !k < max_sack then begin
              buf.(b + 10 + (2 * !k)) <- first;
              buf.(b + 11 + (2 * !k)) <- last;
              incr k
            end)
          blocks;
        buf.(b + 9) <- !k);
    t.len <- b + stride;
    t.total <- t.total + 1;
    Packet_pool.free pool h

  let blit_from t src idx =
    ensure t stride;
    Array.blit src.buf (idx * stride) t.buf t.len stride;
    t.len <- t.len + stride
end

(* In-place heapsort of [a.(0 .. n-1)]: allocation-free, and since the
   comparison below is a total order (no two messages compare equal) the
   result does not depend on the algorithm's stability. *)
let sort_prefix a n cmp =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && cmp a.(l) a.(l + 1) < 0 then l + 1 else l in
      if cmp a.(i) a.(c) < 0 then begin
        swap i c;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for len = n - 1 downto 1 do
    swap 0 len;
    sift 0 len
  done

(* ------------------------------------------------------------------ *)
(* Import sides *)

(* A destination's import side: R rotating frozen batches (a message
   scheduled at the end of window [w] can fire up to [lmax/W] windows
   later, so batch [w]'s storage must survive until then), a sort
   scratch array and the preallocated keyed-event callback. *)
type inbox = {
  bufs : Msgs.t array;
  mutable order : int array;
  srcs : Msgs.t array;
  cmp : int -> int -> int;
  isched : Scheduler.t;
  import : int -> unit;
}

let make_cmp srcs a b =
  let oa = (a land idx_mask) * stride and ob = (b land idx_mask) * stride in
  let ba = srcs.(a lsr 40).Msgs.buf and bb = srcs.(b lsr 40).Msgs.buf in
  if ba.(oa) <> bb.(ob) then compare ba.(oa) bb.(ob)
  else if ba.(oa + 2) <> bb.(ob + 2) then compare ba.(oa + 2) bb.(ob + 2)
  else compare (a land idx_mask) (b land idx_mask)

let read_sack buf o =
  let n = buf.(o + 9) in
  let rec build k acc =
    if k < 0 then acc
    else build (k - 1) ((buf.(o + 10 + (2 * k)), buf.(o + 11 + (2 * k))) :: acc)
  in
  if n = 0 then [] else build (n - 1) []

let make_inbox srcs isched bufs import =
  { bufs; order = [||]; srcs; cmp = make_cmp srcs; isched; import }

(* Rehydrate the message behind keyed import event [key] (rotation slot
   in the high bits, message index in the low 40) into [pool]. *)
let import_packet pool bufs key =
  let buf = bufs.(key lsr 40).Msgs.buf and o = (key land idx_mask) * stride in
  Packet_pool.import pool ~uid:buf.(o + 1) ~flow:buf.(o + 2) ~src:buf.(o + 3)
    ~dst:buf.(o + 4) ~size_bytes:buf.(o + 5) ~word:buf.(o + 6)
    ~sent_at:(Time.of_ns buf.(o + 7))
    ~flags:buf.(o + 8) ~sack:(read_sack buf o)

(* Rank 0, between barriers: sort this window's batch, copy it into the
   rotation slot and schedule one keyed import event per message. The
   sorted insertion order fixes the destination queue's tie-break
   sequence numbers identically for every K. *)
let merge_window inbox ~window =
  let total = Array.fold_left (fun acc s -> acc + Msgs.count s) 0 inbox.srcs in
  if total > 0 then begin
    if Array.length inbox.order < total then
      inbox.order <- Array.make (2 * total) 0;
    let order = inbox.order in
    let k = ref 0 in
    Array.iteri
      (fun ring src ->
        for idx = 0 to Msgs.count src - 1 do
          order.(!k) <- (ring lsl 40) lor idx;
          incr k
        done)
      inbox.srcs;
    sort_prefix order total inbox.cmp;
    let slot = window mod Array.length inbox.bufs in
    let buf = inbox.bufs.(slot) in
    Msgs.clear buf;
    for i = 0 to total - 1 do
      let e = order.(i) in
      let src = inbox.srcs.(e lsr 40) in
      Msgs.blit_from buf src (e land idx_mask);
      let arrival = Time.of_ns buf.Msgs.buf.(i * stride) in
      ignore
        (Scheduler.at_keyed inbox.isched arrival inbox.import
           ((slot lsl 40) lor i))
    done
  end;
  Array.iter Msgs.clear inbox.srcs

(* ------------------------------------------------------------------ *)
(* Window size: the conservative lookahead *)

let window_s cfg =
  Stdlib.min cfg.Config.bottleneck_delay_s
    (fst (Dumbbell.client_delay_bounds_s cfg))

let max_lag_s cfg =
  Stdlib.max cfg.Config.bottleneck_delay_s
    (snd (Dumbbell.client_delay_bounds_s cfg))

(* ------------------------------------------------------------------ *)
(* The engine: one dumbbell cut into slices, plus the rings between them *)

type t = {
  net : Dumbbell.t;
  probe : Telemetry.Probe.t option;
  recorder : Recorder.t option;
  to_hub : Msgs.t array; (* per slice; drained by rank 0 between windows *)
  to_slice : Msgs.t array; (* one ring per destination slice *)
  hub_inbox : inbox;
  slice_inboxes : inbox array;
  wspan : int;
  (* Per-rank probes, merged back the way parallel sweeps merge. *)
  workers : Telemetry.Probe.t array;
}

let dumbbell t = t.net

(* A boundary handoff: copy the packet into [rings.(s)] and free it from
   the sending side's [pool]. *)
let ship rings s pool =
  let ring = rings.(s) in
  fun arrival h -> Msgs.ship ring pool arrival h

let shards cfg = Stdlib.min cfg.Config.shards cfg.Config.clients

let create ?probe ?recorder ?trace_clients cfg scenario =
  let k = shards cfg in
  let to_hub = Array.init k (fun _ -> Msgs.create ()) in
  let to_slice = Array.init k (fun _ -> Msgs.create ()) in
  let net =
    Dumbbell.create_sharded ?recorder ?trace_clients cfg scenario ~shards:k
      ~to_hub:(ship to_hub) ~to_slice:(ship to_slice)
  in
  (* Per-flow uid counters: uids become a pure function of per-flow
     history, so they cannot leak cross-flow allocation interleaving
     (which is the one thing that differs between shardings). *)
  let uid_count = Array.make cfg.Config.clients 0 in
  let uid_source flow =
    let u = ((flow + 1) lsl 32) lor uid_count.(flow) in
    uid_count.(flow) <- uid_count.(flow) + 1;
    u
  in
  for s = 0 to k - 1 do
    Packet_pool.set_uid_source (snd (Dumbbell.slice net s)) (Some uid_source)
  done;
  let rotation =
    2 + int_of_float (Float.ceil (max_lag_s cfg /. window_s cfg))
  in
  let batches () = Array.init rotation (fun _ -> Msgs.create ()) in
  let hub_inbox =
    let bufs = batches () and pool = Dumbbell.pool net in
    make_inbox to_hub (Dumbbell.scheduler net) bufs (fun key ->
        Dumbbell.enter_hub net (import_packet pool bufs key))
  in
  let slice_inboxes =
    Array.init k (fun s ->
        let bufs = batches () and sched, pool = Dumbbell.slice net s in
        make_inbox [| to_slice.(s) |] sched bufs (fun key ->
            Dumbbell.enter_slice net s (import_packet pool bufs key)))
  in
  {
    net;
    probe;
    recorder;
    to_hub;
    to_slice;
    hub_inbox;
    slice_inboxes;
    wspan = Stdlib.max 1 (Time.to_ns (Time.of_sec (window_s cfg)));
    workers =
      (match probe with
      | Some p -> Array.init k (fun _ -> Telemetry.Probe.create_like p)
      | None -> [||]);
  }

(* Rank [r] simulates slice [r]; rank 0 also simulates the hub and, between
   the two barriers of each window, merges every batch shipped in it. *)
let advance t ~until =
  let k = Dumbbell.slices t.net in
  let hub = Dumbbell.scheduler t.net in
  let scheds = Array.init k (fun s -> fst (Dumbbell.slice t.net s)) in
  let windows = ((Time.to_ns until + t.wspan) - 1) / t.wspan in
  let gc_by_rank = Array.make k Telemetry.Perf.gc_zero in
  Team.with_team ~domains:k (fun team ->
      Team.run team (fun rank ->
          let g0 = Telemetry.Perf.gc_read () in
          let w0 = Telemetry.Perf.wall_clock_s () in
          for w = 1 to windows do
            let upto =
              if w = windows then until else Time.of_ns (w * t.wspan)
            in
            Scheduler.run ~until:upto scheds.(rank);
            if rank = 0 then Scheduler.run ~until:upto hub;
            Team.barrier team;
            if rank = 0 && w < windows then begin
              merge_window t.hub_inbox ~window:w;
              Array.iter (fun ib -> merge_window ib ~window:w) t.slice_inboxes
            end;
            Team.barrier team
          done;
          gc_by_rank.(rank) <- Telemetry.Perf.gc_since g0;
          if Array.length t.workers > 0 then
            Telemetry.Perf.add_s t.workers.(rank).Telemetry.Probe.phases
              "shard-run"
              (Telemetry.Perf.wall_clock_s () -. w0)));
  Array.fold_left Telemetry.Perf.gc_add Telemetry.Perf.gc_zero gc_by_rank

let merge_recording t =
  Option.iter
    (fun r ->
      Telemetry.Probe.time t.probe "record-merge" (fun () ->
          Recorder.merge_canonical r))
    t.recorder

let merge_probes t =
  Option.iter
    (fun p ->
      Array.iteri
        (fun s wp ->
          let c =
            Telemetry.Registry.counter wp.Telemetry.Probe.registry
              ~help:"Packets shipped across PDES shard boundaries"
              ~labels:[ ("shard", string_of_int s) ]
              "pdes_boundary_packets_total"
          in
          Telemetry.Registry.inc
            ~by:(t.to_hub.(s).Msgs.total + t.to_slice.(s).Msgs.total)
            c;
          Telemetry.Probe.merge ~into:p wp)
        t.workers)
    t.probe
