module Time = Sim_engine.Time

(* Slot layout mirrors Event_queue: parallel arrays indexed by slot, a
   free stack, and a per-slot generation whose low bits are packed into
   the handle. The flags word holds the payload kind and every boolean:

     bits 0-1  kind: 0 = free slot, 1 = Tcp_data, 2 = Tcp_ack, 3 = Udp_data
     bit  2    ecn_capable
     bit  3    ecn_ce
     bit  4    is_retransmit (data)
     bit  5    ece           (ack)

   SACK block lists are the only non-int field; they live in a side
   table that is [[]] for all but the rare SACK-carrying ACK, and are
   cleared on free so the blocks do not outlive the packet. *)

let gen_bits = 30

let gen_mask = (1 lsl gen_bits) - 1

let kind_data = 1

let kind_ack = 2

let kind_udp = 3

let f_ecn_capable = 1 lsl 2

let f_ecn_ce = 1 lsl 3

let f_retransmit = 1 lsl 4

let f_ece = 1 lsl 5

type handle = int

type kind = Tcp_data | Tcp_ack | Udp_data

type t = {
  mutable cap : int; (* slab capacity; all per-slot arrays share it *)
  mutable uid : int array;
  mutable flow : int array;
  mutable src : int array;
  mutable dst : int array;
  mutable size : int array;
  mutable word : int array; (* data/UDP seq, or cumulative ack *)
  mutable sent : Time.t array; (* transport emission time, ticks *)
  mutable flags : int array;
  mutable gen : int array; (* per-slot recycle count *)
  mutable sack : (int * int) list array; (* side table; almost always [] *)
  mutable free : int array; (* stack of recycled slots *)
  mutable free_top : int;
  mutable fresh : int; (* next never-used slot *)
  mutable next_uid : int;
  mutable uid_source : (int -> int) option;
      (* [Some f]: uids come from [f flow] instead of [next_uid]. A
         sharded run makes uids a pure function of per-flow history so
         they do not depend on cross-flow allocation interleaving. *)
  mutable live : int;
  mutable hwm : int;
}

let nil : handle = -1

let is_nil h = h < 0

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Packet_pool.create: capacity < 1";
  {
    cap = capacity;
    uid = Array.make capacity 0;
    flow = Array.make capacity 0;
    src = Array.make capacity 0;
    dst = Array.make capacity 0;
    size = Array.make capacity 0;
    word = Array.make capacity 0;
    sent = Array.make capacity Time.zero;
    flags = Array.make capacity 0;
    gen = Array.make capacity 0;
    sack = Array.make capacity [];
    free = Array.make capacity 0;
    free_top = 0;
    fresh = 0;
    next_uid = 0;
    uid_source = None;
    live = 0;
    hwm = 0;
  }

let set_uid_source t f = t.uid_source <- f

(* ------------------------------------------------------------------ *)
(* Slab bookkeeping *)

let grow t =
  let ncap = 2 * t.cap in
  let extend a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 t.cap;
    na
  in
  t.uid <- extend t.uid 0;
  t.flow <- extend t.flow 0;
  t.src <- extend t.src 0;
  t.dst <- extend t.dst 0;
  t.size <- extend t.size 0;
  t.word <- extend t.word 0;
  t.sent <- extend t.sent Time.zero;
  t.flags <- extend t.flags 0;
  t.gen <- extend t.gen 0;
  t.sack <- extend t.sack [];
  t.free <- extend t.free 0;
  t.cap <- ncap

let alloc_slot t =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.fresh = t.cap then grow t;
      let slot = t.fresh in
      t.fresh <- t.fresh + 1;
      slot
    end
  in
  t.live <- t.live + 1;
  if t.live > t.hwm then t.hwm <- t.live;
  slot

let pack slot g = (slot lsl gen_bits) lor (g land gen_mask)

let stale () = invalid_arg "Packet_pool: stale or invalid packet handle"

(* Generation check on every access: the whole point of the pool's
   handles is that use-after-free is loud, not silently corrupting. *)
let slot_of t h =
  let slot = h lsr gen_bits in
  if
    h < 0
    || slot >= t.fresh
    || t.gen.(slot) land gen_mask <> h land gen_mask
    || t.flags.(slot) land 3 = 0
  then stale ();
  slot

(* ------------------------------------------------------------------ *)
(* Allocation and release *)

(* Validated before a slot is claimed, so a rejected allocation leaves
   no trace in [live], the high-water mark or the free stack. *)
let check_size size_bytes =
  if size_bytes <= 0 then invalid_arg "Packet_pool: non-positive size"

let fill t slot ~flow ~src ~dst ~size_bytes ~sent_at ~word ~flags =
  (match t.uid_source with
  | None ->
      t.uid.(slot) <- t.next_uid;
      t.next_uid <- t.next_uid + 1
  | Some f -> t.uid.(slot) <- f flow);
  t.flow.(slot) <- flow;
  t.src.(slot) <- src;
  t.dst.(slot) <- dst;
  t.size.(slot) <- size_bytes;
  t.word.(slot) <- word;
  t.sent.(slot) <- sent_at;
  t.flags.(slot) <- flags;
  pack slot t.gen.(slot)

let alloc_data t ?(ecn_capable = false) ~flow ~src ~dst ~size_bytes ~sent_at ~seq
    ~is_retransmit () =
  check_size size_bytes;
  let slot = alloc_slot t in
  let flags =
    kind_data
    lor (if ecn_capable then f_ecn_capable else 0)
    lor if is_retransmit then f_retransmit else 0
  in
  fill t slot ~flow ~src ~dst ~size_bytes ~sent_at ~word:seq ~flags

let alloc_ack t ?(ecn_capable = false) ~flow ~src ~dst ~size_bytes ~sent_at ~ack
    ~ece ~sack () =
  check_size size_bytes;
  let slot = alloc_slot t in
  let flags =
    kind_ack
    lor (if ecn_capable then f_ecn_capable else 0)
    lor if ece then f_ece else 0
  in
  let h = fill t slot ~flow ~src ~dst ~size_bytes ~sent_at ~word:ack ~flags in
  if sack <> [] then t.sack.(slot) <- sack;
  h

let alloc_udp t ~flow ~src ~dst ~size_bytes ~sent_at ~seq () =
  check_size size_bytes;
  let slot = alloc_slot t in
  fill t slot ~flow ~src ~dst ~size_bytes ~sent_at ~word:seq ~flags:kind_udp

(* Rehydrate a packet shipped from another pool (a PDES shard boundary):
   every field, including the uid and the raw flags word, is the
   sender's, so the packet is indistinguishable from one that stayed in
   a single pool for its whole life. *)
let import t ~uid ~flow ~src ~dst ~size_bytes ~sent_at ~word ~flags ~sack =
  if flags land 3 = 0 then invalid_arg "Packet_pool.import: free-slot flags";
  check_size size_bytes;
  let slot = alloc_slot t in
  t.uid.(slot) <- uid;
  t.flow.(slot) <- flow;
  t.src.(slot) <- src;
  t.dst.(slot) <- dst;
  t.size.(slot) <- size_bytes;
  t.word.(slot) <- word;
  t.sent.(slot) <- sent_at;
  t.flags.(slot) <- flags;
  if sack <> [] then t.sack.(slot) <- sack;
  pack slot t.gen.(slot)

let free t h =
  let slot = slot_of t h in
  (* Bumping the generation is what invalidates every outstanding handle
     to this slot; zeroing the kind bits catches even a handle that
     survives a full 2^30 generation wrap. Dropping the SACK list lets
     its blocks be collected. *)
  t.gen.(slot) <- t.gen.(slot) + 1;
  t.flags.(slot) <- 0;
  if t.sack.(slot) <> [] then t.sack.(slot) <- [];
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.live <- t.live - 1

(* ------------------------------------------------------------------ *)
(* Field access *)

let uid t h = t.uid.(slot_of t h)

let flow t h = t.flow.(slot_of t h)

let src t h = t.src.(slot_of t h)

let dst t h = t.dst.(slot_of t h)

let size_bytes t h = t.size.(slot_of t h)

let sent_at t h = t.sent.(slot_of t h)

let ecn_capable t h = t.flags.(slot_of t h) land f_ecn_capable <> 0

let ecn_ce t h = t.flags.(slot_of t h) land f_ecn_ce <> 0

let set_ecn_ce t h =
  let slot = slot_of t h in
  t.flags.(slot) <- t.flags.(slot) lor f_ecn_ce

let kind t h =
  match t.flags.(slot_of t h) land 3 with
  | 1 -> Tcp_data
  | 2 -> Tcp_ack
  | _ -> Udp_data

let is_data t h = t.flags.(slot_of t h) land 3 <> kind_ack

let is_retransmit t h = t.flags.(slot_of t h) land f_retransmit <> 0

(* One validated load for the router's per-forward recorder check. *)
let is_retransmitted_data t h =
  let f = t.flags.(slot_of t h) in
  f land 3 <> kind_ack && f land f_retransmit <> 0

let seq t h = t.word.(slot_of t h)

let ack = seq

let slot_exn = slot_of

let uid_at t slot = Array.unsafe_get t.uid slot

let flow_at t slot = Array.unsafe_get t.flow slot

let size_bytes_at t slot = Array.unsafe_get t.size slot

let data_seq_at t slot ~default =
  if Array.unsafe_get t.flags slot land 3 <> kind_ack then
    Array.unsafe_get t.word slot
  else default

let ece t h = t.flags.(slot_of t h) land f_ece <> 0

let sack t h = t.sack.(slot_of t h)

let flags_word t h = t.flags.(slot_of t h)

let word t h = t.word.(slot_of t h)

(* ------------------------------------------------------------------ *)
(* Accounting *)

let live t = t.live

let high_water_mark t = t.hwm

let allocated t = t.next_uid

let pp t ppf h =
  let slot = slot_of t h in
  let describe =
    match t.flags.(slot) land 3 with
    | 1 ->
        Printf.sprintf "data(seq=%d%s)" t.word.(slot)
          (if t.flags.(slot) land f_retransmit <> 0 then ",rtx" else "")
    | 2 ->
        let blocks =
          match t.sack.(slot) with
          | [] -> ""
          | bs ->
              ","
              ^ String.concat "+"
                  (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) bs)
        in
        Printf.sprintf "ack(%d%s%s)" t.word.(slot)
          (if t.flags.(slot) land f_ece <> 0 then ",ece" else "")
          blocks
    | _ -> Printf.sprintf "udp(seq=%d)" t.word.(slot)
  in
  Format.fprintf ppf "#%d flow=%d %d->%d %s %dB" t.uid.(slot) t.flow.(slot)
    t.src.(slot) t.dst.(slot) describe t.size.(slot)
