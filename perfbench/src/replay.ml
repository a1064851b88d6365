(* The per-layer replay pass of a traced run. It runs in the benchmark
   process after the fleet has stopped and times public functions of each
   layer on that run's own inputs: the run's blocks in parents-first
   order, a final replica, and (partition-heal) the two replicas as they
   stood at the heal instant. Each timing is later multiplied by the op
   count the run observed. *)

open Vegvisir
module Node_store = Vegvisir_cli.Node_store
module Unix_compat = Vegvisir_cli.Unix_compat

type t = {
  sha256_64b_us : float;
  keygen_s : float;
  sign_ms : float;
  verify_ms : float;
  block_bytes : float;
  decode_us : float;
  check_ms : float;
  dag_add_us : float;
  csm_apply_us : float;
  receive_ms : float;
  respond_converged_ms : float;
  catchup_s : float;
  catchup_blocks : int;
  save_ms : float;
  replica_bytes : int;
  replica_blocks : int;
  run_blocks : int;
}

let now_ms = Unix_compat.now_ms

let timed f =
  let t0 = now_ms () in
  let r = f () in
  (now_ms () -. t0, r)

(* Median over [reps] timings of [f], in ms. *)
let median_ms ~reps f =
  Perfbench_kit.Pstats.median (Array.init reps (fun _ -> fst (timed f)))

(* Mean ms per element of [f] over [xs]. *)
let per_item xs f =
  match xs with
  | [] -> 0.
  | _ ->
    let total = List.fold_left (fun acc x -> acc +. fst (timed (fun () -> f x))) 0. xs in
    total /. float_of_int (List.length xs)

let expect what = function Ok x -> x | Error _ -> failwith ("replay: " ^ what ^ " failed")

let skewed_now () =
  Timestamp.add_ms (Timestamp.of_seconds (Unix_compat.now ())) Validation.default_max_skew_ms

let run ~dir ~height ~(is_run_block : Hash_id.t -> bool) ~preheal =
  let st = expect "load" (Node_store.load ~dir) in
  let dag = Node.dag st.Node_store.node in
  (* Saves first, while this process's heap is closest to a daemon's: a
     save allocates the whole encoded replica, so its GC share grows with
     whatever else is live. *)
  let replica_bytes = String.length (Dag.to_string dag) in
  let save_ms = median_ms ~reps:5 (fun () -> expect "save" (Node_store.save st)) in
  let topo = Dag.topo_order dag in
  let run_blocks, base_blocks = List.partition (fun (b : Block.t) -> is_run_block b.Block.hash) topo in
  (* crypto *)
  let msg64 = String.make 64 'v' in
  let sha256_64b_us =
    median_ms ~reps:5 (fun () ->
        for _ = 1 to 10_000 do
          ignore (Vegvisir_crypto.Sha256.digest msg64 : string)
        done)
    /. 10.
  in
  let keygen_ms, signer = timed (fun () -> Signer.mss ~height ~seed:"perfbench-replay" ()) in
  let signing_bytes (b : Block.t) =
    Block.signing_bytes ~creator:b.Block.creator ~timestamp:b.Block.timestamp
      ~location:b.Block.location ~parents:b.Block.parents ~transactions:b.Block.transactions
  in
  let capacity = (1 lsl height) - 1 in
  let to_sign = List.filteri (fun i _ -> i < capacity) run_blocks |> List.map signing_bytes in
  let sign_ms = per_item to_sign (fun m -> ignore (signer.Signer.sign m : string)) in
  let membership = Option.get (Node.membership st.Node_store.node) in
  let verify_ms =
    per_item run_blocks (fun (b : Block.t) ->
        let cert = Option.get (Membership.certificate membership b.Block.creator) in
        if not (Block.verify_signature ~public:cert.Certificate.public ~scheme:cert.Certificate.scheme b)
        then failwith "replay: a run block failed signature verification")
  in
  (* block intake, layer by layer, against the state the base implies *)
  let n_run = List.length run_blocks in
  let block_bytes =
    float_of_int (List.fold_left (fun acc b -> acc + Block.byte_size b) 0 run_blocks)
    /. float_of_int (max 1 n_run)
  in
  let encoded = List.map Block.to_string run_blocks in
  let decode_ms = per_item encoded (fun s -> ignore (Option.get (Block.of_string s) : Block.t)) in
  let base_dag =
    List.fold_left (fun d b -> expect "Dag.add" (Dag.add d b)) Dag.empty base_blocks
  in
  let base_csm = List.fold_left (fun c b -> fst (Csm.apply_block c b)) Csm.empty base_blocks in
  let check = ref 0. and add = ref 0. and apply = ref 0. in
  let now = skewed_now () in
  let (_ : Dag.t * Csm.t) =
    List.fold_left
      (fun (d, c) b ->
        let membership = Option.get (Csm.membership c) in
        let t1, r = timed (fun () -> Validation.check_block ~membership ~dag:d ~now b) in
        expect "Validation.check_block" r;
        let t2, d = timed (fun () -> expect "Dag.add" (Dag.add d b)) in
        let t3, (c, _) = timed (fun () -> Csm.apply_block c b) in
        check := !check +. t1;
        add := !add +. t2;
        apply := !apply +. t3;
        (d, c))
      (base_dag, base_csm) run_blocks
  in
  let per n x = x /. float_of_int (max 1 n) in
  let receive_ms =
    let oracle = Signer.oracle ~id:"perfbench-replay" () in
    let node =
      Node.create ~signer:oracle ~cert:(Certificate.self_signed ~signer:oracle ~role:"replay") ()
    in
    Node.receive_seq node ~now (List.to_seq base_blocks);
    per_item run_blocks (fun b ->
        match Node.receive node ~now b with
        | Node.Accepted -> ()
        | Node.Duplicate | Node.Buffered _ | Node.Rejected _ ->
          failwith "replay: Node.receive did not accept a run block")
  in
  (* sync *)
  (* A converged naive round: the level-1 request answered from a replica
     decoded afresh, so no index memoized by an earlier query is warm —
     what a responder pays for the first session after its DAG changed. *)
  let respond_converged_ms =
    let encoded = Dag.to_string dag in
    let _, first = Reconcile.start Reconcile.Naive dag in
    Perfbench_kit.Pstats.median
      (Array.init 5 (fun _ ->
           let cold = Option.get (Dag.of_string encoded) in
           fst (timed (fun () -> ignore (Reconcile.respond cold first : Reconcile.message option)))))
  in
  let catchup_ms, catchup_blocks =
    let dst, src =
      match preheal with
      | Some (d1, d2) -> (d2, d1)
      | None -> (base_dag, dag)
    in
    let ms1, (merged, _) = timed (fun () -> Reconcile.sync_dags Reconcile.Naive dst src) in
    let gap = Dag.cardinal merged - Dag.cardinal dst in
    match preheal with
    | Some _ ->
      (* healing pulls both ways *)
      let ms2, (merged2, _) = timed (fun () -> Reconcile.sync_dags Reconcile.Naive src dst) in
      (ms1 +. ms2, gap + Dag.cardinal merged2 - Dag.cardinal src)
    | None -> (ms1, gap)
  in
  {
    sha256_64b_us;
    keygen_s = keygen_ms /. 1000.;
    sign_ms;
    verify_ms;
    block_bytes;
    decode_us = decode_ms *. 1000.;
    check_ms = per n_run !check;
    dag_add_us = per n_run !add *. 1000.;
    csm_apply_us = per n_run !apply *. 1000.;
    receive_ms;
    respond_converged_ms;
    catchup_s = catchup_ms /. 1000.;
    catchup_blocks;
    save_ms;
    replica_bytes;
    replica_blocks = Dag.cardinal dag;
    run_blocks = n_run;
  }
