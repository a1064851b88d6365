(* Open-loop injection on an event loop. A closure is scheduled for its
   due time and handed that due time back, so every latency sample counts
   from when the work was due — a loop that fires it late (because it was
   busy) adds the lateness to the sample instead of hiding it. *)

module Event_loop = Vegvisir_cli.Event_loop
module Unix_compat = Vegvisir_cli.Unix_compat

(* [at loop ~due_ms f] runs [f ~due_ms ~fired_ms] on [loop] at wall-clock
   time [due_ms] (milliseconds since the epoch), or at the first iteration
   after it. *)
let at loop ~due_ms f =
  let delay = Float.max 0. (due_ms -. Unix_compat.now_ms ()) in
  Event_loop.after loop ~ms:delay (fun () ->
      f ~due_ms ~fired_ms:(Unix_compat.now_ms ()))

let late_ms ~due_ms ~fired_ms = Float.max 0. (fired_ms -. due_ms)
