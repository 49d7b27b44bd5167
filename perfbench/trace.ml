(* The traced run's two timelines: spans the benchmark records around
   its own calls into the libraries, and the runtime's GC phases read
   back through [Runtime_events]. Both stay in memory until the end. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root *)
  start_s : float;
  end_s : float;
}

let spans = ref []
let next_id = ref 1
let stack = ref [ 0 ]
let wall = Telemetry.Perf.wall_clock_s

let add ~name ~parent ~start_s ~end_s =
  let id = !next_id in
  incr next_id;
  spans := { id; name; parent; start_s; end_s } :: !spans;
  id

(* A span around [f]; spans opened inside it become its children. *)
let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let start_s = wall () in
  Fun.protect f ~finally:(fun () ->
      stack := List.tl !stack;
      spans := { id; name; parent; start_s; end_s = wall () } :: !spans)

let current () = List.hd !stack

let write_spans file =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start_s) infinity !spans in
  let open Telemetry.Json in
  let json =
    List
      (List.rev_map
         (fun s ->
           Obj
             [
               ("id", Int s.id);
               ("name", String s.name);
               ("parent", Int s.parent);
               ("start_s", Float (s.start_s -. t0));
               ("end_s", Float (s.end_s -. t0));
             ])
         !spans)
  in
  let oc = open_out file in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc

(* --- GC timeline ------------------------------------------------- *)

module Gc_timeline = struct
  type interval = {
    minor : bool;  (** a minor collection, else a major-GC slice *)
    inside_major : bool;  (** a minor collection nested in a major one *)
    domain : int;
    t0 : float;  (** wall-clock seconds *)
    t1 : float;
  }

  type Runtime_events.User.tag += Anchor

  let anchor =
    Runtime_events.User.register "perfbench.anchor" Anchor Runtime_events.Type.unit

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    intervals : interval list ref;
    lost : int ref;  (** events the ring overwrote before a poll *)
  }

  let to_s ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) /. 1e9

  (* Runtime timestamps are on the monotonic clock; a user event
     written next to a [wall ()] reading maps them onto the spans'
     clock. *)
  let start () =
    Runtime_events.start ();
    let intervals = ref [] and lost = ref 0 in
    let offset = ref 0. and anchor_wall = ref 0. in
    let minor_open = Hashtbl.create 4 and major_open = Hashtbl.create 4 in
    let runtime_begin d ts = function
      | Runtime_events.EV_MINOR -> Hashtbl.replace minor_open d (to_s ts)
      | Runtime_events.EV_MAJOR -> Hashtbl.replace major_open d (to_s ts)
      | _ -> ()
    in
    let runtime_end d ts phase =
      let close tbl minor =
        match Hashtbl.find_opt tbl d with
        | Some t0 ->
            Hashtbl.remove tbl d;
            intervals :=
              {
                minor;
                inside_major = minor && Hashtbl.mem major_open d;
                domain = d;
                t0 = t0 -. !offset;
                t1 = to_s ts -. !offset;
              }
              :: !intervals
        | None -> ()
      in
      match phase with
      | Runtime_events.EV_MINOR -> close minor_open true
      | Runtime_events.EV_MAJOR -> close major_open false
      | _ -> ()
    in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
        ~lost_events:(fun _ n -> lost := !lost + n)
        ()
      |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit
           (fun _ ts ev () ->
             if Runtime_events.User.name ev = Runtime_events.User.name anchor then
               offset := to_s ts -. !anchor_wall)
    in
    let t =
      { cursor = Runtime_events.create_cursor None; callbacks; intervals; lost }
    in
    anchor_wall := wall ();
    Runtime_events.User.write anchor ();
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    t

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let overlap (a0, a1) b0 b1 = Float.max 0. (Float.min a1 b1 -. Float.max a0 b0)

  (* Minor and major GC seconds inside [windows], summed over domains
     (a minor collection nested in a major one counts as minor only),
     and the minor collections of the busiest domain — every domain
     takes part in each stop-the-world minor collection. *)
  let within t windows =
    let minor_s = ref 0. and major_s = ref 0. in
    let minors = Hashtbl.create 4 in
    List.iter
      (fun i ->
        let o = List.fold_left (fun acc w -> acc +. overlap w i.t0 i.t1) 0. windows in
        if i.minor then begin
          minor_s := !minor_s +. o;
          if i.inside_major then major_s := !major_s -. o;
          if o > 0. then
            Hashtbl.replace minors i.domain
              (1 + Option.value ~default:0 (Hashtbl.find_opt minors i.domain))
        end
        else major_s := !major_s +. o)
      !(t.intervals);
    (!minor_s, !major_s, Hashtbl.fold (fun _ n acc -> max n acc) minors 0)
end
