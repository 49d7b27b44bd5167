type handle = Event_queue.handle

let nil = Event_queue.nil

let is_nil = Event_queue.is_nil

type t = {
  queue : Event_queue.t;
  mutable clock : Time.t;
  mutable stopped : bool;
  mutable fired : int;
}

let create ?queue_capacity () =
  {
    queue = Event_queue.create ?capacity:queue_capacity ();
    clock = Time.zero;
    stopped = false;
    fired = 0;
  }

let now t = t.clock

let at t when_ action =
  if Time.(when_ < t.clock) then invalid_arg "Scheduler.at: time in the past";
  Event_queue.schedule t.queue when_ action

let after t delay action = at t (Time.add t.clock delay) action

let at_keyed t when_ f key =
  if Time.(when_ < t.clock) then
    invalid_arg "Scheduler.at_keyed: time in the past";
  Event_queue.schedule_keyed t.queue when_ f key

let after_keyed t delay f key = at_keyed t (Time.add t.clock delay) f key

let cancel t handle = Event_queue.cancel t.queue handle

let stop t = t.stopped <- true

let run ?until t =
  t.stopped <- false;
  (* The allocation-free drain: one [pop_if_before] per event, no
     option/pair boxes (see Event_queue). *)
  let horizon = match until with Some u -> u | None -> Time.never in
  let rec loop () =
    if not t.stopped then begin
      let e = Event_queue.pop_if_before t.queue horizon in
      if not (Event_queue.is_nil e) then begin
        t.clock <- Event_queue.time_of t.queue e;
        t.fired <- t.fired + 1;
        Event_queue.fire t.queue e;
        loop ()
      end
    end
  in
  loop ();
  match until with
  | Some u when (not t.stopped) && Time.(t.clock < u) -> t.clock <- u
  | _ -> ()

let events_processed t = t.fired

let pending t = Event_queue.length t.queue

let queue_high_water_mark t = Event_queue.high_water_mark t.queue

let queue_capacity t = Event_queue.capacity t.queue

let queue_growths t = Event_queue.growth_count t.queue

let queue_wheel_parked t = Event_queue.wheel_parked t.queue
