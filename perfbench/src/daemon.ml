(* One fleet daemon: a single-threaded process running the node's event
   loop exactly as [vegvisir-cli daemon] does, plus the benchmark's own
   instrumentation around it — the due-time injection of its share of
   the schedule, a delivery record fed from the loop's observability bus,
   and (in a traced run) one span per loop iteration and per append.

   Protocol with the benchmark process: the daemon writes "port N" on
   stdout once listening, reads one "go T0 P0 P1 P2" line on stdin, then
   writes a status line every 100 ms ("st FIRED CREATED CARDINAL"). It
   stops on SIGTERM, checks its replica, writes [Proto.result_file] in
   its directory and a final "done" line. *)

open Vegvisir
open Perfbench_kit
module Node_store = Vegvisir_cli.Node_store
module Event_loop = Vegvisir_cli.Event_loop
module Unix_compat = Vegvisir_cli.Unix_compat
module Obs = Vegvisir_obs

let status_period_ms = 100.

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("daemon: " ^ s); exit 3) fmt

let cpu_ms () =
  let t = Unix.times () in
  1000. *. (t.Unix.tms_utime +. t.Unix.tms_stime)

(* Peak resident set (VmHWM) in kB; 0 where /proc is absent. *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun n -> n)
           | _ -> None)
    |> Option.value ~default:0

let hist_sum snap name =
  List.fold_left
    (fun acc ((n, _), v) ->
      match v with
      | Obs.Registry.Histogram { sum; _ } when String.equal n name -> acc +. sum
      | _ -> acc)
    0. snap

let counter snap name =
  List.fold_left
    (fun acc ((n, _), v) ->
      match v with
      | Obs.Registry.Counter c when String.equal n name -> acc + c
      | _ -> acc)
    0 snap

(* Anti-entropy targets on the line 0-1-2. Under [partition], member 2 is
   cut off: nobody dials it until it arms its own dial toward 1 at the
   heal instant. Each daemon calls [Event_loop.set_anti_entropy] at most
   once — a second call would stack a second timer chain. *)
let peers_of (wl : Proto.workload) index =
  match (wl.partition, index) with
  | _, 0 -> [ 1 ]
  | true, 1 -> [ 0 ]
  | false, 1 -> [ 0; 2 ]
  | true, _ -> []
  | false, _ -> [ 1 ]

let main ~dir ~index ~(wl : Proto.workload) ~seed ~count ~traced =
  let out = stdout in
  let send fmt = Printf.ksprintf (fun s -> output_string out (s ^ "\n"); flush out) fmt in
  let load_t0 = Unix.gettimeofday () in
  let st = match Node_store.load ~dir with Ok t -> t | Error e -> die "load: %s" e in
  let load_s = Unix.gettimeofday () -. load_t0 in
  Node_store.buffer_telemetry st true;
  let config =
    if traced then { Event_loop.default_config with Event_loop.trace_sample = 1.0 }
    else Event_loop.default_config
  in
  let loop = Event_loop.create ~store:st ~config () in
  (* First delivery time of each block at this replica, from the bus. *)
  let delivered : (Hash_id.t, float) Hashtbl.t = Hashtbl.create 1024 in
  let spans = ref [] in
  Obs.Context.attach (Event_loop.context loop)
    (Obs.Sink.make (fun ~ts ev ->
         match ev with
         | Obs.Event.Block { phase = Obs.Event.Delivered; block; _ } ->
           if not (Hashtbl.mem delivered block) then Hashtbl.replace delivered block ts
         | Obs.Event.Span { name; dur_ms; _ } when traced ->
           spans := { Proto.s_name = name; s_dur = dur_ms } :: !spans
         | _ -> ()));
  let port =
    match Event_loop.listen_peers loop ~host:"127.0.0.1" ~port:0 () with
    | Ok p -> p
    | Error e -> die "listen: %s" e
  in
  send "port %d" port;
  let t0, ports =
    match In_channel.input_line stdin with
    | None -> die "no go line"
    | Some l ->
      Scanf.sscanf l "go %h %d %d %d" (fun t0 p0 p1 p2 -> (t0, [| p0; p1; p2 |]))
  in
  let sched = Sched.make ~seed ~rate:Proto.rate ~count ~creators:3 in
  let mine = Array.to_list sched |> List.filter (fun a -> a.Sched.creator = index) in
  let stopping = ref false in
  Unix_compat.install_stop_handler (fun () ->
      stopping := true;
      Event_loop.request_stop loop);
  let cpu0 = cpu_ms () and gc0 = Gc.quick_stat () in
  let ae peers =
    Event_loop.set_anti_entropy loop ~every_ms:Proto.anti_entropy_ms
      ~peers:(List.map (fun i -> ("127.0.0.1", ports.(i))) peers)
  in
  (match peers_of wl index with [] -> () | ps -> ae ps);
  let heal_ms = t0 +. Proto.heal_at_ms wl sched in
  if wl.partition && index >= 1 then
    Inject.at loop ~due_ms:heal_ms (fun ~due_ms:_ ~fired_ms:_ ->
        (* The pre-heal replicas are the inputs of the catch-up replay. *)
        if traced then
          Out_channel.with_open_bin (Filename.concat dir Proto.preheal_file) (fun oc ->
              Out_channel.output_string oc (Dag.to_string (Node.dag st.Node_store.node)));
        if index = 2 then ae [ 1 ]);
  (* The injected share of the schedule: one [Node_store.append] (sign,
     local apply, save) per due block — exactly [vegvisir-cli append]. *)
  let created = ref [] and fired = ref 0 and failures = ref [] in
  List.iter
    (fun (a : Sched.arrival) ->
      Inject.at loop ~due_ms:(t0 +. Proto.due_ms wl sched a.idx) (fun ~due_ms ~fired_ms ->
          incr fired;
          match
            Node_store.append st ~crdt:Proto.crdt ~op:"add"
              [ Vegvisir_crdt.Value.String a.payload ]
          with
          | Ok b ->
            created :=
              {
                Proto.c_idx = a.idx;
                c_hash = b.Block.hash;
                c_due = due_ms;
                c_fired = fired_ms;
                c_done = Unix_compat.now_ms ();
              }
              :: !created
          | Error e -> failures := (a.idx, e) :: !failures))
    mine;
  (* The benchmark process holds the other end of stdin: end-of-file
     means it is gone, and a daemon must not outlive it. *)
  let parent_gone () =
    match Unix.select [ Unix.stdin ] [] [] 0. with
    | [], _, _ -> false
    | _ :: _, _, _ -> (
      match Unix.read Unix.stdin (Bytes.create 1) 0 1 with
      | n -> n = 0
      | exception Unix.Unix_error _ -> true)
  in
  let rec status () =
    if parent_gone () then Unix._exit 4;
    send "st %d %d %d" !fired (List.length !created)
      (Dag.cardinal (Node.dag st.Node_store.node));
    if not !stopping then Event_loop.after loop ~ms:status_period_ms status
  in
  Inject.at loop ~due_ms:t0 (fun ~due_ms:_ ~fired_ms:_ -> status ());
  (* Untraced: the loop runs untouched. Traced: the benchmark steps it
     one iteration at a time and records a span per iteration. *)
  let iters = ref [] in
  (if not traced then
     match Event_loop.run loop with Ok () -> () | Error e -> die "run: %s" e
   else begin
     let drained () =
       !stopping
       && Option.is_none (Event_loop.peer_port loop)
       && (Event_loop.stats loop).Event_loop.active = 0
     in
     while not (drained ()) do
       let s0 = Event_loop.stats loop in
       let w0 = Unix_compat.now_ms () and c0 = cpu_ms () in
       let first = ref true in
       (match
          Event_loop.run loop ~until:(fun _ ->
              let stop = not !first in
              first := false;
              stop)
        with
       | Ok () -> ()
       | Error e -> die "run: %s" e);
       let s1 = Event_loop.stats loop in
       iters :=
         {
           Proto.i_start = w0;
           i_dur = Unix_compat.now_ms () -. w0;
           i_cpu = cpu_ms () -. c0;
           i_delivered = s1.Event_loop.delivered - s0.Event_loop.delivered;
           i_served = s1.Event_loop.served - s0.Event_loop.served;
           i_sessions = s1.Event_loop.completed + s1.Event_loop.failed
                        - s0.Event_loop.completed - s0.Event_loop.failed;
         }
         :: !iters
     done;
     match Event_loop.run loop with Ok () -> () | Error e -> die "run: %s" e
   end);
  let cpu = cpu_ms () -. cpu0 and gc1 = Gc.quick_stat () in
  let end_ms = Unix_compat.now_ms () in
  let rss_kb = vm_hwm_kb () in
  Node_store.buffer_telemetry st false;
  let remaining = Option.value ~default:max_int (Node_store.remaining_signatures st) in
  let snap = Obs.Registry.snapshot (Obs.Context.registry (Event_loop.context loop)) in
  let saves =
    Node_store.load_trace ~dir
    |> List.filter_map (fun (ts, ev) ->
           match ev with
           | Obs.Event.Store_saved { blocks; _ } when ts >= t0 -> Some blocks
           | _ -> None)
  in
  (* The correctness gate, on this replica: reload it from disk and
     revalidate every block from the genesis. *)
  let gate, final =
    match Node_store.load ~dir with
    | Error e -> (Error ("reload failed: " ^ e), Node.dag st.Node_store.node)
    | Ok st2 -> (
      let dag = Node.dag st2.Node_store.node in
      match Node_store.verify st2 with
      | Error e -> (Error ("verify failed: " ^ e), dag)
      | Ok n when n <> Dag.cardinal dag ->
        (Error (Printf.sprintf "verify checked %d of %d blocks" n (Dag.cardinal dag)), dag)
      | Ok _ -> (Ok (), dag))
  in
  let me = Node.user_id st.Node_store.node in
  let others =
    Dag.blocks_seq final
    |> Seq.map (fun (b : Block.t) -> b.Block.creator)
    |> Seq.filter (fun c -> not (Hash_id.equal c me))
    |> List.of_seq |> List.sort_uniq Hash_id.compare
  in
  (* Proof of witness (k = 2): when this replica first held a descendant
     of the block from each of the other two members. *)
  let witness (c : Proto.created) =
    let desc = Dag.descendants final c.c_hash in
    let first_from m =
      Hash_id.Set.fold
        (fun d acc ->
          match (Dag.find final d, Hashtbl.find_opt delivered d) with
          | Some b, Some ts when Hash_id.equal b.Block.creator m -> Float.min acc ts
          | _ -> acc)
        desc infinity
    in
    let w = List.fold_left (fun acc m -> Float.max acc (first_from m)) neg_infinity others in
    if List.length others = 2 && Float.is_finite w then Some (c.c_idx, w -. c.c_due) else None
  in
  let r =
    {
      Proto.index;
      load_s;
      cpu_ms = cpu;
      wall_ms = end_ms -. t0;
      rss_kb;
      gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
      top_heap_words = gc1.Gc.top_heap_words;
      stats = Event_loop.stats loop;
      pulled = List.filter_map (fun (_, o) -> o.Event_loop.pulled) (Event_loop.outcomes loop);
      hists =
        List.map (fun n -> (n, hist_sum snap ("loop." ^ n ^ "_ms"))) Proto.phases;
      slow = counter snap "loop.slow_iterations";
      saves;
      remaining;
      created = List.rev !created;
      failures = List.rev !failures;
      delivered = Hashtbl.fold (fun h ts acc -> (h, ts) :: acc) delivered [];
      witnessed = List.filter_map witness !created;
      final = Dag.blocks_seq final |> Seq.map (fun (b : Block.t) -> b.Block.hash) |> List.of_seq;
      gate;
      iters = List.rev !iters;
      spans = List.rev !spans;
    }
  in
  Proto.write_result ~dir r;
  send "done";
  Unix._exit 0
