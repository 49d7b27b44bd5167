(* The host-speed reference: a fixed discrete-event kernel written here,
   not in the libraries, so no change to the simulator moves it. A
   binary heap of 2048 pending events with exponential delays, an
   xorshift generator and a small table, like the simulator's inner
   loop. Timed next to each pass, it measures how fast the shared host
   runs at that moment. *)

let events = 400_000

let kernel () =
  let cap = 4096 in
  let time = Array.make cap 0. and id = Array.make cap 0 in
  let n = ref 0 in
  let s = ref 0x2545F4914F6CDD1D in
  let rnd () =
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    float_of_int (x land 0xFFFFFF) /. 16777216.
  in
  let push t i =
    let k = ref !n in
    incr n;
    while !k > 0 && time.((!k - 1) / 2) > t do
      let p = (!k - 1) / 2 in
      time.(!k) <- time.(p);
      id.(!k) <- id.(p);
      k := p
    done;
    time.(!k) <- t;
    id.(!k) <- i
  in
  let pop () =
    let t0 = time.(0) and i0 = id.(0) in
    decr n;
    let t = time.(!n) and i = id.(!n) in
    let k = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !k) + 1 in
      if l >= !n then sifting := false
      else begin
        let c = if l + 1 < !n && time.(l + 1) < time.(l) then l + 1 else l in
        if time.(c) < t then begin
          time.(!k) <- time.(c);
          id.(!k) <- id.(c);
          k := c
        end
        else sifting := false
      end
    done;
    time.(!k) <- t;
    id.(!k) <- i;
    (t0, i0)
  in
  let table = Hashtbl.create 1024 in
  for i = 0 to 2047 do
    push (rnd ()) i
  done;
  let acc = ref 0. in
  for _ = 1 to events do
    let t, i = pop () in
    let d = -.log (1. -. rnd ()) in
    Hashtbl.replace table (i land 1023) (t, d);
    acc := !acc +. d;
    push (t +. d) i
  done;
  !acc

(* Wall seconds of one kernel run. *)
let run () =
  let t0 = Telemetry.Perf.wall_clock_s () in
  ignore (Sys.opaque_identity (kernel ()));
  Telemetry.Perf.wall_clock_s () -. t0
