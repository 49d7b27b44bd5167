(** The discrete-event simulation loop.

    A scheduler owns a virtual clock and an {!Event_queue}. Simulation
    components capture the scheduler and call {!after}/{!at} to register
    future work; {!run} advances the clock from event to event. *)

type t

type handle = Event_queue.handle

val nil : handle
(** Sentinel meaning "no event". Components that re-arm a timer per
    packet keep a [handle] field initialised to [nil] instead of a
    [handle option] — an immediate int where the option would allocate
    on every re-arm. *)

val is_nil : handle -> bool

val create : ?queue_capacity:int -> unit -> t
(** [queue_capacity] pre-sizes the event queue (see
    {!Event_queue.create}); pass the expected peak pending-event count
    to avoid growth copies in long runs. *)

val now : t -> Time.t
(** Current virtual time. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at t when_ action] schedules [action] at absolute time [when_].
    @raise Invalid_argument if [when_] is in the past. *)

val after : t -> Time.span -> (unit -> unit) -> handle
(** [after t delay action] schedules [action] [delay] from now. *)

val at_keyed : t -> Time.t -> (int -> unit) -> int -> handle
(** [at_keyed t when_ f key] schedules the application [f key] — a
    shared callback plus an immediate identity — so components with
    many instances re-arm timers without allocating a closure per arm
    (see {!Event_queue.schedule_keyed}).
    @raise Invalid_argument if [when_] is past or [key] is [min_int]. *)

val after_keyed : t -> Time.span -> (int -> unit) -> int -> handle

val cancel : t -> handle -> unit

val stop : t -> unit
(** Makes {!run} return after the event being processed completes. *)

val run : ?until:Time.t -> t -> unit
(** Processes events in time order until the queue is empty, {!stop} is
    called, or the next event is later than [until]. When stopped by
    [until], the clock is advanced to exactly [until]. *)

val events_processed : t -> int
(** Total events fired so far; useful for instrumentation and tests. *)

val pending : t -> int
(** Live events still queued. *)

val queue_high_water_mark : t -> int
(** Peak number of live events ever queued at once. *)

val queue_capacity : t -> int
(** Current event-slab capacity (see {!Event_queue.capacity}). *)

val queue_growths : t -> int
(** Event-slab capacity doublings since creation; [0] means the
    [queue_capacity] hint covered the whole run. *)

val queue_wheel_parked : t -> int
(** Schedules absorbed by the timer wheel rather than the heap. *)
