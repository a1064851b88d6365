(* Self-tests of the fleet benchmark's generator and statistics. *)

open Perfbench_kit
module Event_loop = Vegvisir_cli.Event_loop
module Unix_compat = Vegvisir_cli.Unix_compat

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let sched seed = Sched.make ~seed ~rate:10. ~count:300 ~creators:3

let () =
  let a = Sched.to_string (sched 7) and b = Sched.to_string (sched 7) in
  check "same seed gives a byte-identical schedule" (String.equal a b);
  check "different seeds give different schedules"
    (not (String.equal a (Sched.to_string (sched 8))));
  check "first arrival is due at 0" ((sched 7).(0).Sched.at_ms = 0.)

let () =
  List.iter
    (fun seed ->
      let count = 20_000 in
      let s = Sched.make ~seed ~rate:10. ~count ~creators:3 in
      let realised = float_of_int (count - 1) /. (Sched.duration_ms s /. 1000.) in
      check
        (Printf.sprintf "seed %d: realised rate %.3f/s within 3%% of 10/s" seed
           realised)
        (Float.abs (realised -. 10.) < 0.3);
      let per = Sched.per_creator s ~creators:3 in
      check
        (Printf.sprintf "seed %d: every member creates a third (%d/%d/%d)" seed
           per.(0) per.(1) per.(2))
        (Array.for_all (fun n -> abs (n - (count / 3)) <= 1) per);
      (* uniform per position: over many triples, each member leads a
         triple about a third of the time *)
      let leads = Array.make 3 0 in
      Array.iteri
        (fun i a -> if i mod 3 = 0 then leads.(a.Sched.creator) <- leads.(a.Sched.creator) + 1)
        s;
      check
        (Printf.sprintf "seed %d: each member leads a triple a third of the time (%d/%d/%d)"
           seed leads.(0) leads.(1) leads.(2))
        (Array.for_all (fun n -> abs (n - (count / 9)) < count / 60) leads))
    [ 1; 2; 3 ]

let () =
  let ok = function Ok _ -> true | Error _ -> false in
  let xs n = Array.init n float_of_int in
  check "p99 of 1000 samples (10 beyond) is reported"
    (Pstats.percentile (xs 1000) 99. = Ok 989.);
  check "p99 of 999 samples (9 beyond) is refused"
    (not (ok (Pstats.percentile (xs 999) 99.)));
  check "p98 of 600 samples (12 beyond) is reported"
    (ok (Pstats.percentile (xs 600) 98.));
  check "p98 of 499 samples (9 beyond) is refused"
    (not (ok (Pstats.percentile (xs 499) 98.)));
  check "p50 of 19 samples (9 beyond) is refused"
    (not (ok (Pstats.percentile (xs 19) 50.)));
  check "p50 of 21 samples is the middle one"
    (Pstats.percentile (xs 21) 50. = Ok 10.);
  check "median of an even sample averages the middle pair"
    (Pstats.median [| 4.; 1.; 3.; 2. |] = 2.5)

(* Run two closures on a real loop: [blocker] due at [d] keeps the loop
   busy for [x_ms]; the probe, due 1 ms later, must report the wait. *)
let probe_latency ~x_ms =
  let loop = Event_loop.create () in
  let d = Unix_compat.now_ms () +. 20. in
  let sample = ref nan in
  Inject.at loop ~due_ms:d (fun ~due_ms:_ ~fired_ms:_ ->
      let until = Unix_compat.now_ms () +. x_ms in
      while Unix_compat.now_ms () < until do
        ()
      done);
  Inject.at loop ~due_ms:(d +. 1.) (fun ~due_ms ~fired_ms ->
      sample := Inject.late_ms ~due_ms ~fired_ms);
  (match Event_loop.run loop with Ok () -> () | Error e -> failwith e);
  !sample

let () =
  let x = 60. in
  let base = probe_latency ~x_ms:0. in
  let late = probe_latency ~x_ms:x in
  check
    (Printf.sprintf "a closure fired %.0f ms late adds it to its sample (%.1f -> %.1f ms)"
       x base late)
    (late -. base >= x -. 2. && late -. base <= x +. 40.)

let () = if !failures > 0 then exit 1
