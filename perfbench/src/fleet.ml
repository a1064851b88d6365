(* The fleet benchmark: three real-MSS daemons (the CA and two enrolled
   members) on a line 0-1-2 over loopback, fed an open-loop, seeded
   Poisson schedule of G-Set appends. One run sets the fleet up, injects
   the schedule, drains, checks every replica, and prints every metric
   with its unit and sample count; the last stdout line is one JSON
   object. See perfbench/README.md for the workloads and metrics.

     fleet.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 1 it makes an untraced and a traced run of the same
   seed, replays each layer on the traced run's inputs, and prints the
   per-layer metrics and the CPU budget instead. *)

open Vegvisir
open Perfbench_kit
module Node_store = Vegvisir_cli.Node_store
module Event_loop = Vegvisir_cli.Event_loop
module Unix_compat = Vegvisir_cli.Unix_compat

let ( // ) = Filename.concat

exception Run_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Run_failed s)) fmt
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
let ok what = function Ok x -> x | Error e -> fail "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* Sizing *)

let height_for need =
  let rec go h = if 1 lsl h >= need then h else go (h + 1) in
  go 4

(* One height for all three keys, from the schedule: a member's third of
   the history and of the run (shares are exact, see [Sched.make]), plus
   the CA's set-up signatures (self-certificate, genesis, two
   certificates, two enrolments) with room to spare. *)
let key_height (wl : Proto.workload) ~count =
  height_for (((wl.history + 2) / 3) + ((count + 2) / 3) + 16)

(* ------------------------------------------------------------------ *)
(* Set-up: keys, enrolment, the shared history *)

let now_s = Unix.gettimeofday
let now_ts () = Timestamp.of_seconds (Unix_compat.now ())

let build_history (nodes : Node_store.t array) ~n ~seed =
  let skew () = Timestamp.add_ms (now_ts ()) Validation.default_max_skew_ms in
  for i = 0 to n - 1 do
    let c = i mod Array.length nodes in
    let node = nodes.(c).Node_store.node in
    let tx =
      match
        Node.prepare_transaction node ~crdt:Proto.crdt ~op:"add"
          [ Vegvisir_crdt.Value.String (Printf.sprintf "h%d-%d" seed i) ]
      with
      | Ok tx -> tx
      | Error e -> fail "history: %s" (Vegvisir_crdt.Schema.error_to_string e)
    in
    match Node.append node ~now:(now_ts ()) [ tx ] with
    | Error e -> fail "history: %s" (Fmt.str "%a" Node.pp_append_error e)
    | Ok b ->
      Array.iteri
        (fun j (t : Node_store.t) ->
          if j <> c then Node.receive_seq t.Node_store.node ~now:(skew ()) (Seq.return b))
        nodes
  done

let setup ~work ~(wl : Proto.workload) ~seed ~height =
  let dir i = work // Printf.sprintf "n%d" i in
  let key i = Printf.sprintf "perfbench-%s-%d-%d" wl.name seed i in
  let spec = Vegvisir_crdt.Schema.(spec Gset Vegvisir_crdt.Value.T_string) in
  let t_last = ref (now_s ()) in
  let phase name =
    let t = now_s () in
    log "setup: %-28s %6.2f s" name (t -. !t_last);
    t_last := t
  in
  let (_ : Node_store.t) =
    ok "init"
      (Node_store.init ~dir:(dir 0) ~seed:(key 0) ~height ~init_crdts:[ (Proto.crdt, spec) ] ())
  in
  phase "CA key and genesis";
  let m1 = ok "enroll" (Node_store.enroll ~ca_dir:(dir 0) ~dir:(dir 1) ~seed:(key 1) ~height ()) in
  let m2 = ok "enroll" (Node_store.enroll ~ca_dir:(dir 0) ~dir:(dir 2) ~seed:(key 2) ~height ()) in
  phase "two enrolments";
  (* Member 1 was enrolled before member 2: give it the second enrolment
     so that all three replicas start from one block set. *)
  let (_ : Reconcile.stats) = Node_store.sync m1 ~from:m2 ~mode:Reconcile.Naive in
  if wl.history > 0 then begin
    let ca = ok "load" (Node_store.load ~dir:(dir 0)) in
    phase "CA reload";
    let nodes = [| ca; m1; m2 |] in
    build_history nodes ~n:wl.history ~seed;
    phase "history build";
    Array.iter (fun t -> ok "save" (Node_store.save t)) nodes;
    phase "history save"
  end;
  let base = Node.dag m2.Node_store.node in
  (Array.init 3 dir, Dag.blocks_seq base |> Seq.map (fun (b : Block.t) -> b.Block.hash) |> List.of_seq)

(* ------------------------------------------------------------------ *)
(* The fleet processes *)

type proc = {
  pid : int;
  ctl : Unix.file_descr;  (** its stdin *)
  st : Unix.file_descr;  (** its stdout *)
  buf : Buffer.t;
  mutable port : int option;
  mutable fired : int;
  mutable made : int;
  mutable cardinal : int;
  mutable finished : bool;  (** wrote "done" *)
  mutable eof : bool;
  mutable reaped : bool;
}

let spawn ~dir ~index ~(wl : Proto.workload) ~seed ~count ~traced =
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let st_r, st_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--daemon"; dir; "--index"; string_of_int index; "--workload"; wl.name;
      "--seed"; string_of_int seed; "--count"; string_of_int count; "--trace";
      (if traced then "1" else "0");
    |]
  in
  let pid = Unix.create_process exe args ctl_r st_w Unix.stderr in
  Unix.close ctl_r;
  Unix.close st_w;
  {
    pid; ctl = ctl_w; st = st_r; buf = Buffer.create 256; port = None; fired = 0;
    made = 0; cardinal = 0; finished = false; eof = false; reaped = false;
  }

let on_line p l =
  match String.split_on_char ' ' l with
  | [ "port"; n ] -> p.port <- int_of_string_opt n
  | [ "st"; f; c; k ] ->
    p.fired <- int_of_string f;
    p.made <- int_of_string c;
    p.cardinal <- int_of_string k
  | [ "done" ] -> p.finished <- true
  | _ -> ()

let chunk = Bytes.create 4096

(* Read whatever the daemons have written, for at most [timeout] s. *)
let pump procs ~timeout =
  let live = List.filter (fun p -> not p.eof) procs in
  match Unix.select (List.map (fun p -> p.st) live) [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    List.iter
      (fun p ->
        if List.mem p.st ready then begin
          let n = try Unix.read p.st chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0 in
          if n = 0 then p.eof <- true
          else begin
            Buffer.add_subbytes p.buf chunk 0 n;
            let s = Buffer.contents p.buf in
            let lines = String.split_on_char '\n' s in
            let rec go = function
              | [] -> ()
              | [ partial ] ->
                Buffer.clear p.buf;
                Buffer.add_string p.buf partial
              | l :: rest ->
                on_line p l;
                go rest
            in
            go lines
          end
        end)
      live

let wait_until procs ~deadline cond =
  while (not (cond ())) && now_s () < deadline do
    pump procs ~timeout:(Float.max 0. (Float.min 0.05 (deadline -. now_s ())))
  done;
  cond ()

let rec reap p =
  if not p.reaped then
    match Unix.waitpid [] p.pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap p
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> p.reaped <- true
    | _, status ->
      p.reaped <- true;
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> log "daemon %d exited with %d" p.pid n
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> log "daemon %d stopped by signal %d" p.pid n)

(* Stop every daemon still running and wait for each to end. *)
let stop_all procs =
  List.iter
    (fun p ->
      if not p.reaped then (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap p;
      (try Unix.close p.ctl with Unix.Unix_error _ -> ());
      try Unix.close p.st with Unix.Unix_error _ -> ())
    procs

(* ------------------------------------------------------------------ *)
(* One run *)

type run = {
  setup_s : float;
  probe_ms : float array;  (** host-speed probes over the run *)
  heal_ms : float;  (** wall ms of the heal instant *)
  sched : Sched.arrival array;
  base : Hash_id.t list;
  height : int;
  results : Proto.result array;
  dirs : string array;
}

let lead_ms = 300.
let drain_timeout_s = 40.

let run_fleet ~work ~(wl : Proto.workload) ~seed ~count ~traced =
  let t_start = Unix_compat.now_ms () in
  let sched = Sched.make ~seed ~rate:Proto.rate ~count ~creators:3 in
  let height = key_height wl ~count in
  let dirs, base = setup ~work ~wl ~seed ~height in
  flush_all ();
  let t_forked = now_s () in
  let procs =
    List.init 3 (fun index -> spawn ~dir:dirs.(index) ~index ~wl ~seed ~count ~traced)
  in
  Fun.protect ~finally:(fun () -> stop_all procs) @@ fun () ->
  if
    not
      (wait_until procs ~deadline:(now_s () +. 120.) (fun () ->
           List.for_all (fun p -> Option.is_some p.port || p.eof) procs
           && List.for_all (fun p -> Option.is_some p.port) procs))
  then fail "the daemons did not all start listening";
  log "setup: %-28s %6.2f s" "daemons load and listen" (Unix_compat.now_ms () /. 1000. -. t_forked);
  let t0 = Unix_compat.now_ms () +. lead_ms in
  let ports = List.map (fun p -> Option.get p.port) procs in
  let go =
    Printf.sprintf "go %h %d %d %d\n" t0 (List.nth ports 0) (List.nth ports 1) (List.nth ports 2)
  in
  List.iter
    (fun p ->
      let (_ : int) = Unix.write_substring p.ctl go 0 (String.length go) in
      ())
    procs;
  let shares = Sched.per_creator sched ~creators:3 in
  let n_base = List.length base in
  let last_due_s = (t0 +. Proto.due_ms wl sched (count - 1)) /. 1000. in
  let died () = List.exists (fun p -> p.eof) procs in
  (* Probe the host's speed every 200 ms while the fleet runs. *)
  let probes = ref [] and next_probe = ref 0. in
  let probe () =
    if now_s () >= !next_probe then begin
      probes := Speed.probe_ms () :: !probes;
      next_probe := now_s () +. 0.2
    end
  in
  let converged () =
    now_s () > last_due_s
    && List.for_all2 (fun p share -> p.fired = share) procs (Array.to_list shares)
    &&
    let total = n_base + List.fold_left (fun acc p -> acc + p.made) 0 procs in
    List.for_all (fun p -> p.cardinal = total) procs
  in
  if
    not
      (wait_until procs ~deadline:(last_due_s +. drain_timeout_s) (fun () ->
           probe ();
           died () || converged ()))
  then log "drain timed out; stopping the fleet unconverged";
  if died () then fail "a daemon ended before the run did";
  List.iter (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()) procs;
  if not (wait_until procs ~deadline:(now_s () +. 150.) (fun () -> List.for_all (fun p -> p.finished || p.eof) procs))
  then fail "the daemons did not finish";
  List.iter reap procs;
  let results =
    Array.map (fun dir -> ok ("result of " ^ dir) (Proto.read_result ~dir)) dirs
  in
  {
    setup_s = (t0 -. t_start) /. 1000.;
    probe_ms = Array.of_list !probes;
    heal_ms = t0 +. Proto.heal_at_ms wl sched;
    sched;
    base;
    height;
    results;
    dirs;
  }

(* ------------------------------------------------------------------ *)
(* The correctness gate and the end-to-end metrics *)

type summary = {
  offered : int;
  created : int;
  undelivered : int;
  deliver : float array;  (** ms, one per (block, other replica) *)
  witness : float array;
  late : float array;  (** ms the injection fired after its due time *)
  heal_s : float;
  heal_n : int;  (** samples behind [heal_s] *)
  cpu_ms : float;  (** fleet daemon CPU *)
  speed : float;  (** median probe / reference: > 1 when the host runs slow *)
  wire_bytes : int;
  rss_kb : int;
}

let gate ~wl r =
  Array.iter
    (fun (x : Proto.result) ->
      (match x.gate with Ok () -> () | Error e -> fail "replica %d: %s" x.index e);
      if x.remaining <= 0 then fail "replica %d: its MSS key ran out" x.index;
      List.iter
        (fun (i, e) -> log "replica %d: append of block %d failed: %s" x.index i e)
        x.failures)
    r.results;
  let sets =
    Array.map (fun (x : Proto.result) -> List.sort_uniq Hash_id.compare x.final) r.results
  in
  Array.iteri
    (fun i s ->
      if not (List.equal Hash_id.equal s sets.(0)) then
        fail "replicas 0 and %d hold different block sets (%d vs %d blocks)" i
          (List.length sets.(0)) (List.length s))
    sets;
  let final = Hash_id.Set.of_list sets.(0) in
  let offered = Array.length r.sched in
  let created = Array.to_list r.results |> List.concat_map (fun (x : Proto.result) -> x.created) in
  let on_all = List.filter (fun (c : Proto.created) -> Hash_id.Set.mem c.c_hash final) created in
  let held = Array.map (fun (x : Proto.result) -> Hashtbl.of_seq (List.to_seq x.delivered)) r.results in
  let deliver = ref [] and held_by_all = ref [] and heal = ref r.heal_ms in
  Array.iter
    (fun (x : Proto.result) ->
      List.iter
        (fun (c : Proto.created) ->
          let all = ref c.c_done in
          Array.iteri
            (fun j tbl ->
              if j <> x.index then
                match Hashtbl.find_opt tbl c.c_hash with
                | Some ts ->
                  deliver := (ts -. c.c_due) :: !deliver;
                  all := Float.max !all ts
                | None -> ())
            held;
          held_by_all := (!all -. c.c_due) :: !held_by_all;
          if c.c_due < r.heal_ms then heal := Float.max !heal !all)
        x.created)
    r.results;
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 r.results in
  {
    offered;
    created = List.length created;
    undelivered = offered - List.length on_all;
    deliver = Array.of_list !deliver;
    witness =
      Array.of_list
        (Array.to_list r.results |> List.concat_map (fun (x : Proto.result) -> List.map snd x.witnessed));
    late =
      Array.of_list
        (List.map (fun (c : Proto.created) -> Inject.late_ms ~due_ms:c.c_due ~fired_ms:c.c_fired) created);
    heal_s =
      (if wl.Proto.partition then (!heal -. r.heal_ms) /. 1000.
       else Pstats.median (Array.of_list !held_by_all) /. 1000.);
    heal_n = (if wl.Proto.partition then 1 else List.length !held_by_all);
    cpu_ms = Array.fold_left (fun acc (x : Proto.result) -> acc +. x.cpu_ms) 0. r.results;
    speed = Pstats.median r.probe_ms /. Speed.reference_ms;
    wire_bytes =
      sum (fun (x : Proto.result) ->
          List.fold_left
            (fun acc (p : Reconcile.stats) -> acc + p.bytes_sent + p.bytes_received)
            0 x.pulled);
    rss_kb = Array.fold_left (fun acc (x : Proto.result) -> max acc x.rss_kb) 0 r.results;
  }

(* ------------------------------------------------------------------ *)
(* Printing *)

type metric = { name : string; value : float; unit_ : string; n : int }

let pct xs p =
  match Pstats.percentile xs p with
  | Ok v -> v
  | Error e -> fail "p%g: %s" p e

let per_block s x = x /. float_of_int (max 1 s.created)

let end_to_end r s =
  [
    { name = "setup_s"; value = r.setup_s /. s.speed; unit_ = "s"; n = 1 };
    { name = "deliver_p50_ms"; value = pct s.deliver 50.; unit_ = "ms"; n = Array.length s.deliver };
    { name = "deliver_p98_ms"; value = pct s.deliver 98.; unit_ = "ms"; n = Array.length s.deliver };
    { name = "witness_p50_ms"; value = pct s.witness 50.; unit_ = "ms"; n = Array.length s.witness };
    { name = "heal_s"; value = s.heal_s; unit_ = "s"; n = s.heal_n };
    { name = "cpu_ms_per_block"; value = per_block s s.cpu_ms /. s.speed; unit_ = "ms"; n = s.created };
    {
      name = "wire_kb_per_block";
      value = per_block s (float_of_int s.wire_bytes /. 1000.);
      unit_ = "KB";
      n = s.created;
    };
    { name = "peak_rss_mb"; value = float_of_int s.rss_kb /. 1024.; unit_ = "MB"; n = 3 };
  ]

let print_table title ms =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-30s %14.4f %-6s n=%d\n" m.name m.value m.unit_ m.n)
    ms

let print_bases wl r s =
  let stats = Array.map (fun (x : Proto.result) -> x.stats) r.results in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 stats in
  let saves = Array.fold_left (fun acc (x : Proto.result) -> acc + List.length x.saves) 0 r.results in
  Printf.printf "workload %s: %d daemons, MSS height %d, %d base blocks, anti-entropy %.0f ms\n"
    wl.Proto.name (Array.length r.results) r.height (List.length r.base) Proto.anti_entropy_ms;
  Printf.printf "  blocks: offered %d, created %d, fully delivered %d, undelivered_frac %.4f\n"
    s.offered s.created (s.offered - s.undelivered)
    (float_of_int s.undelivered /. float_of_int s.offered);
  Printf.printf
    "  sessions: attempted %d, completed %d, failed %d (both ends), dial failures %d; saves %d\n"
    (sum (fun st -> st.Event_loop.dialed))
    (sum (fun st -> st.Event_loop.completed))
    (sum (fun st -> st.Event_loop.failed))
    (sum (fun st -> st.Event_loop.dial_failures))
    saves;
  Printf.printf "  samples: delivery %d, witness %d, injection lateness %d\n"
    (Array.length s.deliver) (Array.length s.witness) (Array.length s.late);
  Printf.printf
    "  host speed: probe median %.4f ms over %d probes (reference %.1f ms); as measured / at reference speed: fleet CPU %.3f / %.3f ms per block, set-up %.3f / %.3f s\n"
    (Pstats.median r.probe_ms) (Array.length r.probe_ms) Speed.reference_ms
    (per_block s s.cpu_ms) (per_block s s.cpu_ms /. s.speed) r.setup_s (r.setup_s /. s.speed)

let json_line ~attempted ~failed ms =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       attempted failed);
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      let v = if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "null" in
      Buffer.add_string b (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name v m.unit_))
    ms;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced run *)

let per_layer ~wl ~untraced:su ~traced:(t, st) =
  let res = t.results in
  let sumi f = Array.fold_left (fun acc x -> acc + f x) 0 res in
  let sumf f = Array.fold_left (fun acc x -> acc +. f x) 0. res in
  let created = float_of_int (max 1 st.created) in
  let hist name =
    sumf (fun (x : Proto.result) -> Option.value ~default:0. (List.assoc_opt name x.hists))
  in
  let run_blocks =
    Hashtbl.of_seq
      (Array.to_seq res
      |> Seq.concat_map (fun (x : Proto.result) -> List.to_seq x.created)
      |> Seq.map (fun (c : Proto.created) -> (c.c_hash, ())))
  in
  let preheal =
    if wl.Proto.partition then
      let read i =
        Option.get
          (Dag.of_string
             (In_channel.with_open_bin (t.dirs.(i) // Proto.preheal_file) In_channel.input_all))
      in
      Some (read 1, read 2)
    else None
  in
  let rp =
    Replay.run ~dir:t.dirs.(0) ~height:t.height ~is_run_block:(Hashtbl.mem run_blocks) ~preheal
  in
  let pulled = Array.to_list res |> List.concat_map (fun (x : Proto.result) -> x.pulled) in
  let n_pulled = List.length pulled in
  let psum f = List.fold_left (fun acc p -> acc + f p) 0 pulled in
  let received = psum (fun p -> p.Reconcile.blocks_received) in
  let dialed = sumi (fun x -> x.Proto.stats.Event_loop.dialed) in
  let completed = sumi (fun x -> x.Proto.stats.Event_loop.completed) in
  let failed = sumi (fun x -> x.Proto.stats.Event_loop.failed) in
  let admitted = sumi (fun x -> x.Proto.stats.Event_loop.delivered) in
  let saves = Array.to_list res |> List.concat_map (fun (x : Proto.result) -> x.saves) in
  let n_saves = List.length saves in
  let bytes_per_block = float_of_int rp.replica_bytes /. float_of_int rp.replica_blocks in
  let saved_blocks = List.fold_left ( + ) 0 saves in
  (* A save re-encodes the whole replica, so its cost scales with the
     replica's size at that moment. *)
  let save_cost_ms =
    if n_saves = 0 then 0.
    else
      rp.save_ms *. float_of_int saved_blocks /. float_of_int n_saves
      /. float_of_int rp.replica_blocks
  in
  let appends = Array.to_list res |> List.concat_map (fun (x : Proto.result) -> x.created) in
  let append_ms = List.map (fun (c : Proto.created) -> c.c_done -. c.c_fired) appends in
  let append_total = List.fold_left ( +. ) 0. append_ms in
  let session_ms =
    Array.to_list res
    |> List.concat_map (fun (x : Proto.result) -> x.spans)
    |> List.filter_map (fun (sp : Proto.span) ->
           if String.equal sp.s_name "session.exchange" then Some sp.s_dur else None)
    |> Array.of_list
  in
  let busy_frac_max =
    Array.fold_left (fun acc (x : Proto.result) -> Float.max acc (x.cpu_ms /. x.wall_ms)) 0. res
  in
  let iters = Array.to_list res |> List.concat_map (fun (x : Proto.result) -> x.iters) in
  let iter_wall = List.fold_left (fun acc i -> acc +. i.Proto.i_dur) 0. iters in
  let iter_cpu = List.fold_left (fun acc i -> acc +. i.Proto.i_cpu) 0. iters in
  let nf = float_of_int in
  let cpu_per_block = st.cpu_ms /. created in
  (* The budget: disjoint rows of fleet CPU per created block. *)
  let row_sign = rp.sign_ms in
  let row_verify = rp.verify_ms *. nf admitted /. created in
  let row_intake =
    (Float.max 0. (rp.check_ms -. rp.verify_ms) +. ((rp.dag_add_us +. rp.csm_apply_us) /. 1000.))
    *. nf admitted /. created
  in
  let row_save = save_cost_ms *. nf n_saves /. created in
  let row_append_other =
    Float.max 0. ((append_total /. created) -. row_sign -. (save_cost_ms *. nf (List.length appends) /. created))
  in
  let row_engine = hist "engine_step" /. created in
  let phases = List.fold_left (fun acc n -> acc +. hist n) 0. [ "timer"; "accept"; "read"; "write"; "sweep" ] in
  let row_host =
    Float.max 0.
      ((phases /. created) -. (append_total /. created) -. row_engine -. row_verify -. row_intake)
  in
  let rows =
    [
      ("crypto.sign (1 per block)", row_sign);
      ("crypto.verify (per admitted block)", row_verify);
      ("intake: validate/dag/csm (non-crypto)", row_intake);
      ("store.save (every save)", row_save);
      ("append: rest of Node_store.append", row_append_other);
      ("sync: engine steps", row_engine);
      ("host: loop phases, self", row_host);
    ]
  in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. rows in
  let unattributed = 1. -. (attributed /. cpu_per_block) in
  Printf.printf "\nper-layer self time (traced run, spans from the benchmark's own code)\n";
  Printf.printf "  %-34s %8s %12s %12s\n" "span" "count" "total ms" "self ms";
  Printf.printf "  %-34s %8d %12.1f %12.1f\n" "loop.iteration (wall)" (List.length iters) iter_wall
    (iter_wall -. append_total);
  Printf.printf "  %-34s %8d %12.1f %12.1f\n" "loop.iteration (cpu)" (List.length iters) iter_cpu
    (iter_cpu -. append_total);
  Printf.printf "  %-34s %8d %12.1f %12.1f\n" "store.append" (List.length appends) append_total
    append_total;
  Printf.printf "  %-34s %8d %12.1f %12s\n" "session.exchange (open time)" (Array.length session_ms)
    (Array.fold_left ( +. ) 0. session_ms) "-";
  (* Iterations grouped by what their stats delta says they did (one
     iteration can do several). *)
  List.iter
    (fun (label, did) ->
      let its = List.filter did iters in
      Printf.printf "  %-34s %8d %12.1f %12s\n" label (List.length its)
        (List.fold_left (fun acc i -> acc +. i.Proto.i_cpu) 0. its) "(cpu)")
    [
      ("loop.iteration, admitted blocks", fun i -> i.Proto.i_delivered > 0);
      ("loop.iteration, served requests", fun i -> i.Proto.i_served > 0);
      ("loop.iteration, finished sessions", fun i -> i.Proto.i_sessions > 0);
    ];
  Printf.printf "\nCPU budget (fleet daemon CPU %.3f ms per block, %d blocks)\n" cpu_per_block st.created;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-40s %9.3f ms  %5.1f%%\n" name v (100. *. v /. cpu_per_block))
    rows;
  Printf.printf "  %-40s %9.3f ms  %5.1f%%\n" "unattributed" (cpu_per_block -. attributed)
    (100. *. unattributed);
  (* Each run at reference speed, so host drift between the two runs
     cancels. *)
  let su_cpu = su.cpu_ms /. float_of_int (max 1 su.created) /. su.speed in
  let st_cpu = cpu_per_block /. st.speed in
  let overhead = (st_cpu -. su_cpu) /. su_cpu in
  let p50 xs = Pstats.median xs in
  Printf.printf
    "\ntracing overhead: cpu_ms_per_block %.3f -> %.3f (%+.1f%%), deliver_p50_ms %.1f -> %.1f (%+.1f%%)\n"
    su_cpu st_cpu (100. *. overhead) (p50 su.deliver) (p50 st.deliver)
    (100. *. ((p50 st.deliver -. p50 su.deliver) /. p50 su.deliver));
  let m name value unit_ n = { name; value; unit_; n } in
  let loop_row n = m ("loop." ^ n ^ "_ms_per_block") (hist n /. created) "ms" st.created in
  [
    m "crypto.sha256_64B_us" rp.sha256_64b_us "us" 50_000;
    m "crypto.mss_sign_ms" rp.sign_ms "ms" (min rp.run_blocks ((1 lsl t.height) - 1));
    m "crypto.mss_verify_ms" rp.verify_ms "ms" rp.run_blocks;
    m "crypto.mss_keygen_s" rp.keygen_s "s" 1;
    m "block.bytes" rp.block_bytes "B" rp.run_blocks;
    m "block.decode_us" rp.decode_us "us" rp.run_blocks;
    m "validation.check_ms" rp.check_ms "ms" rp.run_blocks;
    m "dag.add_us" rp.dag_add_us "us" rp.run_blocks;
    m "csm.apply_us" rp.csm_apply_us "us" rp.run_blocks;
    m "node.receive_ms" rp.receive_ms "ms" rp.run_blocks;
    m "sync.sessions_per_block" (nf dialed /. created) "count" st.created;
    m "sync.rounds_per_session" (nf (psum (fun p -> p.Reconcile.rounds)) /. nf (max 1 n_pulled)) "count" n_pulled;
    m "sync.redundant_frac"
      (nf (psum (fun p -> p.Reconcile.redundant_blocks)) /. nf (max 1 received))
      "frac" received;
    m "sync.session_ms_p50" (pct session_ms 50.) "ms" (Array.length session_ms);
    m "sync.respond_converged_ms" rp.respond_converged_ms "ms" 5;
    m "sync.catchup_s" rp.catchup_s "s" rp.catchup_blocks;
    m "engine.step_ms_per_block" row_engine "ms" st.created;
    m "store.append_ms" (Pstats.median (Array.of_list append_ms)) "ms" (List.length append_ms);
    m "store.save_ms" rp.save_ms "ms" 5;
    m "store.saves_per_block" (nf n_saves /. created) "count" n_saves;
    m "store.save_mb_per_block" (nf saved_blocks *. bytes_per_block /. 1e6 /. created) "MB" n_saves;
    m "store.load_s"
      (Pstats.median (Array.map (fun (x : Proto.result) -> x.load_s) res))
      "s" 3;
    loop_row "timer";
    loop_row "accept";
    loop_row "read";
    loop_row "write";
    loop_row "sweep";
    m "loop.busy_frac_max" busy_frac_max "frac" 3;
    m "loop.inject_late_p95_ms" (pct st.late 95.) "ms" (Array.length st.late);
    m "loop.sessions_failed_frac" (nf failed /. nf (max 1 (completed + failed))) "frac"
      (completed + failed);
    m "loop.slow_iterations" (nf (sumi (fun x -> x.Proto.slow))) "count" (List.length iters);
    m "gc.major_per_block" (nf (sumi (fun x -> x.Proto.gc_major)) /. created) "count" st.created;
    m "gc.heap_mb"
      (nf (Array.fold_left (fun acc (x : Proto.result) -> max acc x.top_heap_words) 0 res)
      *. nf (Sys.word_size / 8) /. 1048576.)
      "MB" 3;
    m "obs.trace_overhead_frac" overhead "frac" st.created;
    m "host.probe_ms" (Pstats.median t.probe_ms) "ms" (Array.length t.probe_ms);
    m "host.cpu_ms_per_block_raw" cpu_per_block "ms" st.created;
    m "host.setup_s_raw" t.setup_s "s" 1;
    m "budget.unattributed_frac" unattributed "frac" st.created;
    m "undelivered_frac" (nf st.undelivered /. nf st.offered) "frac" st.offered;
  ]

(* ------------------------------------------------------------------ *)
(* Entry points *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let workdir_root = ".perfbench"

let with_workdir ~wl ~seed ~tag f =
  if not (Sys.file_exists workdir_root) then Sys.mkdir workdir_root 0o755;
  let work = workdir_root // Printf.sprintf "%s-%d-%s-%d" wl.Proto.name seed tag (Unix.getpid ()) in
  rm_rf work;
  Sys.mkdir work 0o755;
  Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> f work)

let measured ~wl ~seed ~count ~traced k =
  with_workdir ~wl ~seed ~tag:(if traced then "traced" else "plain") @@ fun work ->
  let r = run_fleet ~work ~wl ~seed ~count ~traced in
  let s = gate ~wl r in
  k r s

let bench ~wl ~seed ~seconds ~trace =
  let count = int_of_float (Proto.rate *. float_of_int seconds) in
  (* deliver_p98_ms needs 500 (block, replica) pairs: 250 blocks *)
  if count < 250 then fail "--seconds %d offers %d blocks; the metrics need 250" seconds count;
  let r, s = measured ~wl ~seed ~count ~traced:false (fun r s -> (r, s)) in
  if not trace then begin
    print_bases wl r s;
    let ms = end_to_end r s in
    print_table "end-to-end (untraced run)" ms;
    json_line ~attempted:s.offered ~failed:s.undelivered ms
  end
  else begin
    let ms, ts =
      measured ~wl ~seed ~count ~traced:true (fun tr ts ->
          print_bases wl tr ts;
          (per_layer ~wl ~untraced:s ~traced:(tr, ts), ts))
    in
    print_table "per-layer (traced run + replay)" ms;
    json_line ~attempted:ts.offered ~failed:ts.undelivered ms
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25 and trace = ref 0 in
  let daemon = ref "" and index = ref 0 and count = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME steady | history | partition-heal");
      ("--seed", Arg.Set_int seed, "N schedule seed");
      ("--seconds", Arg.Set_int seconds, "S offered load lasts about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
      ("--daemon", Arg.Set_string daemon, "DIR (internal) run one fleet daemon");
      ("--index", Arg.Set_int index, "I (internal) daemon index");
      ("--count", Arg.Set_int count, "N (internal) offered blocks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fleet.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> String.equal w.Proto.name !workload) Proto.workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ String.escaped !workload);
    exit 2
  | Some wl ->
    if !daemon <> "" then
      Daemon.main ~dir:!daemon ~index:!index ~wl ~seed:!seed ~count:!count ~traced:(!trace = 1)
    else begin
      (* An interrupted run still stops its fleet and removes its files. *)
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise (Run_failed "interrupted"))))
        [ Sys.sigint; Sys.sigterm ];
      match bench ~wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
      | () -> ()
      | exception Run_failed e ->
        prerr_endline ("perfbench: run failed: " ^ e);
        exit 1
    end
