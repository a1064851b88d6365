open Vegvisir
module Schema = Vegvisir_crdt.Schema
module Obs = Vegvisir_obs

(* The MSS key behind a node: [signer] is the reserving wrapper built by
   [reserving_signer], and [reserved] is the leaf count last made
   durable in the key file (shared with that wrapper). *)
type key = { height : int; seed : string; signer : Signer.t; reserved : int ref }

type state = {
  mutable key : key;  (* replaced by [rotate] *)
  mutable saved : int;  (* Dag.insertion_count already in chain.log *)
  mutable journal : Buffer.t option;  (* Some: buffered telemetry *)
}

type t = { dir : string; node : Node.t; ca_cert : Certificate.t; state : state }

let ( let* ) = Result.bind
let ( // ) = Filename.concat

let log_file = "chain.log"
let key_file = "key"

(* ------------------------------------------------------------------ *)
(* Telemetry: every node directory keeps an append-only trace.jsonl of
   observability events, timestamped with the sanctioned host clock
   (Unix_compat). `vegvisir-cli stats` and `vegvisir-cli trace` replay
   these files; merging the files of two synced directories yields a
   block's full cross-node causal timeline. Recording is best-effort —
   a read-only filesystem must not break the actual operation. *)

let trace_file = "trace.jsonl"
let trace_path t = t.dir // trace_file
let node_name t = Hash_id.short (Node.user_id t.node)

let append_lines t lines =
  match
    Out_channel.with_open_gen
      [ Open_wronly; Open_append; Open_creat ]
      0o644 (trace_path t)
      (fun oc -> Out_channel.output_string oc lines)
  with
  | () -> ()
  | exception Sys_error _ -> ()

(* Buffered journaling: a long-lived daemon multiplexing dozens of
   sessions would otherwise open/append/close trace.jsonl once per
   event. When a handle opts in, encoded lines accumulate in its buffer
   and reach disk on [flush_trace], on every save that writes, and
   whenever the buffer passes [journal_flush_bytes] — saves are rare
   while nothing new arrives, and the buffer must not grow with the
   sessions in between. *)
let journal_flush_bytes = 64 * 1024

let flush_trace t =
  match t.state.journal with
  | None -> ()
  | Some buf ->
    if Buffer.length buf > 0 then begin
      let lines = Buffer.contents buf in
      Buffer.clear buf;
      append_lines t lines
    end

let buffer_telemetry t on =
  if on then begin
    if Option.is_none t.state.journal then t.state.journal <- Some (Buffer.create 4096)
  end
  else begin
    flush_trace t;
    t.state.journal <- None
  end

let record_all t events =
  match events with
  | [] -> ()
  | _ :: _ ->
    let ts = Unix_compat.now_ms () in
    let add buf =
      List.iter
        (fun ev ->
          Buffer.add_string buf (Obs.Event.to_json ~ts ev);
          Buffer.add_char buf '\n')
        events
    in
    match t.state.journal with
    | Some buf ->
      add buf;
      if Buffer.length buf >= journal_flush_bytes then flush_trace t
    | None ->
      let buf = Buffer.create 256 in
      add buf;
      append_lines t (Buffer.contents buf)

let record t ev = record_all t [ ev ]

let load_trace ~dir =
  match In_channel.with_open_bin (dir // trace_file) In_channel.input_all with
  | exception Sys_error _ -> []
  | contents ->
    String.split_on_char '\n' contents
    |> List.filter_map Obs.Event.of_json

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* The key file and the write-ahead leaf reservation.

   Key file: "mss <height> <reserved> <seed-hex>\n". The seed is secret
   key material; a real deployment would keep it in a TEE (paper §V).
   [reserved] bounds every leaf index the key has ever signed with: the
   signer persists [reserved >= i + 1] (temp file, fsync, rename) before
   leaf [i] signs anything, and a load resumes at [reserved]. A crash can
   therefore waste reserved leaves but never hand one out twice. *)

let encode_key ~height ~reserved ~seed =
  Printf.sprintf "mss %d %d %s\n" height reserved (Vegvisir_crypto.Hex.encode seed)

let decode_key contents =
  match String.split_on_char ' ' (String.trim contents) with
  | [ "mss"; height; reserved; seed_hex ] -> begin
    match
      ( int_of_string_opt height,
        int_of_string_opt reserved,
        Vegvisir_crypto.Hex.is_hex seed_hex )
    with
    | Some height, Some reserved, true ->
      Ok (height, reserved, Vegvisir_crypto.Hex.decode seed_hex)
    | _ -> Error "malformed key file"
  end
  | _ -> Error "malformed key file"

let write_key ~dir k =
  Unix_compat.replace_file_durable (dir // key_file)
    (encode_key ~height:k.height ~reserved:!(k.reserved) ~seed:k.seed)

(* Reservations run ahead of the signer by 1, 2, 4, then at most
   [max_ahead] leaves: a handle that signs once wastes no leaf, and a
   long-lived signer pays one durable write (two fsyncs) per [max_ahead]
   signatures, at the price of at most [max_ahead - 1] leaves lost when
   the handle dies. *)
let max_ahead = 8

(* Wrap the MSS signer so each signature first reserves its leaf on
   disk. A failed reservation raises [Sys_error] instead of signing;
   [signing] turns it back into an [Error] at the store's entry points. *)
let reserving_signer ~dir ~height ~seed ~reserved =
  let inner = Signer.mss ~height ~used:reserved ~seed () in
  let k = { height; seed; signer = inner; reserved = ref reserved } in
  let capacity = 1 lsl height in
  let ahead = ref 1 in
  let sign msg =
    let leaf = capacity - Option.value (inner.Signer.remaining ()) ~default:0 in
    if leaf < capacity && leaf >= !(k.reserved) then begin
      let prev = !(k.reserved) in
      k.reserved := Int.min capacity (leaf + !ahead);
      match write_key ~dir k with
      | Ok () -> ahead := Int.min max_ahead (2 * !ahead)
      | Error msg ->
        k.reserved := prev;
        raise (Sys_error ("key reservation failed: " ^ msg))
    end;
    inner.Signer.sign msg
  in
  { k with signer = { inner with Signer.sign } }

let signing f =
  match f () with v -> Ok v | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* The block log. chain.log is a sequence of frames

     u32 length (big-endian) | 32-byte block hash | Block.encode (length bytes)

   appended in insertion order, so parents precede children. Decoding a
   block recomputes its hash, which makes the framed hash a checksum. *)

let frame_header = 4 + Hash_id.size

let add_frame buf (b : Block.t) =
  let enc = Block.to_string b in
  Wire.put_u32 buf (String.length enc);
  Buffer.add_string buf (Hash_id.to_raw b.Block.hash);
  Buffer.add_string buf enc

(* The valid frames of a log image and the length of the prefix they
   span. A final frame that is incomplete or fails its checksum is a torn
   append: the prefix before it is the log. Any other bad frame is
   corruption. A frame that runs past the end of the file although the
   bytes present already hold the whole block it names has a damaged
   length, not a torn tail. *)
let parse_log data =
  let len = String.length data in
  let hash_at off = String.sub data (off + 4) Hash_id.size in
  let rec go off acc =
    if len - off < frame_header then Ok (List.rev acc, off)
    else begin
      let n = Wire.get_u32 { Wire.data; pos = off } in
      let body = off + frame_header in
      let named (b : Block.t) = String.equal (Hash_id.to_raw b.Block.hash) (hash_at off) in
      if n <= len - body then
        match Wire.decode_string Block.decode (String.sub data body n) with
        | Some b when named b -> go (body + n) (b :: acc)
        | Some _ | None ->
          if body + n = len then Ok (List.rev acc, off)
          else Error (Printf.sprintf "%s: corrupt frame at byte %d" log_file off)
      else begin
        match Block.decode { Wire.data; pos = body } with
        | b when named b ->
          Error (Printf.sprintf "%s: bad frame length at byte %d" log_file off)
        | _ -> Ok (List.rev acc, off)
        | exception (Wire.Malformed _ | Invalid_argument _) -> Ok (List.rev acc, off)
      end
    end
  in
  go 0 []

(* Read the log, cutting a torn tail off the file so later appends
   continue a well-formed sequence. *)
let read_log dir =
  let path = dir // log_file in
  let* data = read_file path in
  let* blocks, valid = parse_log data in
  let* () =
    if valid < String.length data then Unix_compat.truncate_file path valid else Ok ()
  in
  Ok blocks

(* Append everything inserted since the last save, in one write. *)
let save t =
  let dag = Node.dag t.node in
  let count = Dag.insertion_count dag in
  if count = t.state.saved then Ok ()
  else begin
    let fresh = Dag.inserted_since dag t.state.saved in
    let buf = Buffer.create 4096 in
    List.iter (add_frame buf) fresh;
    let* () = Unix_compat.append_file (t.dir // log_file) (Buffer.contents buf) in
    t.state.saved <- count;
    record t
      (Obs.Event.Store_saved { node = node_name t; blocks = List.length fresh });
    (* A save is a durability point: buffered telemetry reaches disk
       with the data it describes. *)
    flush_trace t;
    Ok ()
  end

(* cert and ca.cert change only at init, enrol and rotate. *)
let write_certs t =
  let* () =
    Unix_compat.replace_file_durable (t.dir // "cert")
      (Certificate.to_string (Node.cert t.node))
  in
  Unix_compat.replace_file_durable (t.dir // "ca.cert") (Certificate.to_string t.ca_cert)

let now_ts () = Timestamp.of_seconds (Unix_compat.now ())

let make ?(saved = 0) ~dir ~node ~ca_cert ~key () =
  { dir; node; ca_cert; state = { key; saved; journal = None } }

(* A directory holds a node once its key exists: the key is written
   before anything is signed with it, so even an init that crashed before
   its first save must not be repeated with a fresh reservation. *)
let exists dir = Sys.file_exists (dir // key_file) || Sys.file_exists (dir // log_file)

let ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok () else Error (dir ^ " is not a directory")
  else begin
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg
  end

let init ~dir ~seed ?(height = 10) ?(role = "ca") ?(init_crdts = []) () =
  let* () = ensure_dir dir in
  if exists dir then Error (dir ^ " already contains a node")
  else begin
    let key = reserving_signer ~dir ~height ~seed ~reserved:0 in
    let signer = key.signer in
    let extra =
      List.map (fun (name, spec) -> Transaction.create_crdt ~name spec) init_crdts
    in
    let* cert, genesis =
      signing (fun () ->
          let cert = Certificate.self_signed ~signer ~role in
          (cert, Node.genesis_block ~signer ~cert ~timestamp:(now_ts ()) ~extra ()))
    in
    let node = Node.create ~signer ~cert () in
    match Node.receive node ~now:(Timestamp.add_ms (now_ts ()) 1L) genesis with
    | Node.Accepted ->
      let t = make ~dir ~node ~ca_cert:cert ~key () in
      record t
        (Obs.Event.Block
           {
             node = node_name t;
             phase = Obs.Event.Created;
             block = genesis.Block.hash;
             peer = None;
           });
      let* () = write_certs t in
      let* () = save t in
      Ok t
    | (Node.Duplicate | Node.Buffered _ | Node.Rejected _) as r ->
      Error (Fmt.str "genesis rejected: %a" Node.pp_receive_result r)
  end

let load ~dir =
  if not (Sys.file_exists (dir // log_file)) then Error (dir ^ " does not contain a node")
  else begin
    let* key_raw = read_file (dir // key_file) in
    let* height, reserved, seed = decode_key key_raw in
    let* cert_raw = read_file (dir // "cert") in
    let* ca_raw = read_file (dir // "ca.cert") in
    let* cert =
      Option.to_result ~none:"malformed certificate" (Certificate.of_string cert_raw)
    in
    let* ca_cert =
      Option.to_result ~none:"malformed CA certificate" (Certificate.of_string ca_raw)
    in
    let* blocks = read_log dir in
    let key = reserving_signer ~dir ~height ~seed ~reserved in
    if not (String.equal key.signer.Signer.public cert.Certificate.public) then
      Error "key file does not match certificate"
    else begin
      let node = Node.create ~signer:key.signer ~cert () in
      Node.receive_seq node
        ~now:(Timestamp.add_ms (now_ts ()) Validation.default_max_skew_ms)
        (List.to_seq blocks);
      (* Everything replayed is already in the log. *)
      let t = make ~saved:(Dag.insertion_count (Node.dag node)) ~dir ~node ~ca_cert ~key () in
      record t
        (Obs.Event.Store_loaded
           { node = node_name t; blocks = Dag.cardinal (Node.dag node) });
      Ok t
    end
  end

let enroll ~ca_dir ~dir ~seed ?(height = 10) ?(role = "member") () =
  let* ca = load ~dir:ca_dir in
  let* () = ensure_dir dir in
  if exists dir then Error (dir ^ " already contains a node")
  else begin
    let key = reserving_signer ~dir ~height ~seed ~reserved:0 in
    let* cert =
      signing (fun () ->
          Certificate.issue ~ca:ca.ca_cert ~ca_signer:ca.state.key.signer
            ~subject:key.signer ~role)
    in
    (* Enrolment goes on the CA's chain. *)
    let* appended =
      signing (fun () -> Node.append ca.node ~now:(now_ts ()) [ Transaction.add_user cert ])
    in
    let* _block =
      Result.map_error (Fmt.str "enrolment append failed: %a" Node.pp_append_error) appended
    in
    let* () = save ca in
    let node = Node.create ~signer:key.signer ~cert () in
    Node.receive_seq node
      ~now:(Timestamp.add_ms (now_ts ()) Validation.default_max_skew_ms)
      (Dag.topo_seq (Node.dag ca.node));
    let t = make ~dir ~node ~ca_cert:ca.ca_cert ~key () in
    let* () = write_key ~dir key in
    let* () = write_certs t in
    let* () = save t in
    Ok t
  end

let append t ~crdt ~op args =
  match Node.prepare_transaction t.node ~crdt ~op args with
  | Error e -> Error (Schema.error_to_string e)
  | Ok tx -> begin
    let* appended = signing (fun () -> Node.append t.node ~now:(now_ts ()) [ tx ]) in
    match appended with
    | Error e -> Error (Fmt.str "%a" Node.pp_append_error e)
    | Ok block ->
      record t
        (Obs.Event.Block
           {
             node = node_name t;
             phase = Obs.Event.Created;
             block = block.Block.hash;
             peer = None;
           });
      let* () = save t in
      Ok block
  end

let remaining_signatures t = t.state.key.signer.Signer.remaining ()

let rotate ~ca_dir ~dir ~seed ?(height = 10) () =
  let* ca = load ~dir:ca_dir in
  let* t = load ~dir in
  let fresh = reserving_signer ~dir ~height ~seed ~reserved:0 in
  let role = (Node.cert t.node).Certificate.role in
  let* cert =
    signing (fun () ->
        Certificate.issue ~ca:ca.ca_cert ~ca_signer:ca.state.key.signer
          ~subject:fresh.signer ~role)
  in
  let* rotated =
    signing (fun () -> Node.rotate_key t.node ~now:(now_ts ()) ~signer:fresh.signer ~cert)
  in
  match rotated with
  | Error e -> Error (Fmt.str "rotation failed: %a" Node.pp_append_error e)
  | Ok _block ->
    (* The rotation block (signed by the old key) goes to the log first;
       then the new key replaces the old one, and its certificate follows. *)
    let* () = save t in
    t.state.key <- fresh;
    let* () = write_key ~dir fresh in
    let* () = write_certs t in
    (* The CA should learn the rotation block too. *)
    Node.receive_seq ca.node
      ~now:(Timestamp.add_ms (now_ts ()) Validation.default_max_skew_ms)
      (Dag.topo_seq (Node.dag t.node));
    let* () = save ca in
    Ok t

let sync t ~from ~mode =
  let peer = node_name from in
  record t (Obs.Event.Sync_started { node = node_name t; peer });
  let mine = Node.dag t.node in
  let merged, stats =
    Reconcile.sync_dags mode (Node.dag t.node) (Node.dag from.node)
  in
  let fresh =
    Dag.topo_seq merged
    |> Seq.filter (fun (b : Block.t) -> not (Dag.mem mine b.Block.hash))
    |> List.of_seq
  in
  Node.receive_seq t.node
    ~now:(Timestamp.add_ms (now_ts ()) Validation.default_max_skew_ms)
    (Dag.topo_seq merged);
  let me = node_name t in
  record_all t
    (List.concat_map
       (fun (b : Block.t) ->
         let h = b.Block.hash in
         [
           Obs.Event.Block
             { node = me; phase = Obs.Event.Received; block = h; peer = Some peer };
           Obs.Event.Block
             { node = me; phase = Obs.Event.Delivered; block = h; peer = None };
         ])
       fresh);
  record t
    (Obs.Event.Sync_completed
       { node = me; peer; pulled = List.length fresh; served = 0 });
  (match save t with Ok () -> () | Error _ -> ());
  stats

(* §IV-I batch ancestry recovery: treat [from]'s replica as a superpeer
   archive and pull the ancestry closure of [below] (default: the
   source's whole frontier) through Offload.serve_below. The reply is
   topologically ordered, so the fresh blocks replay with no reorder
   buffering; blocks we already hold (resident or archived — Dag.add
   reports archived hashes as duplicates) are skipped. *)
let recover t ~from ?below () =
  let src_dag = Node.dag from.node in
  let offload = Offload.create () in
  Seq.iter (fun b -> Offload.absorb offload b) (Dag.topo_seq src_dag);
  let seeds =
    match below with
    | Some (_ :: _ as hs) -> hs
    | Some [] | None -> Hash_id.Set.elements (Dag.frontier src_dag)
  in
  let served = Offload.serve_below offload seeds in
  let mine = Node.dag t.node in
  let fresh =
    List.filter
      (fun (b : Block.t) ->
        not (Dag.mem mine b.Block.hash || Dag.is_archived mine b.Block.hash))
      served
  in
  Node.receive_seq t.node
    ~now:(Timestamp.add_ms (now_ts ()) Validation.default_max_skew_ms)
    (List.to_seq fresh);
  let dag = Node.dag t.node in
  let restored =
    List.filter (fun (b : Block.t) -> Dag.mem dag b.Block.hash) fresh
  in
  let me = node_name t and peer = node_name from in
  record_all t
    (List.concat_map
       (fun (b : Block.t) ->
         let h = b.Block.hash in
         [
           Obs.Event.Block
             { node = me; phase = Obs.Event.Received; block = h; peer = Some peer };
           Obs.Event.Block
             { node = me; phase = Obs.Event.Delivered; block = h; peer = None };
         ])
       restored);
  record t
    (Obs.Event.Recovery_completed
       { node = me; peer; blocks = List.length restored });
  let* () = save t in
  Ok (List.length served, List.length restored)

let verify t =
  let dag = Node.dag t.node in
  match Dag.genesis dag with
  | None -> Error "no genesis block"
  | Some g -> begin
    match Validation.check_genesis g with
    | Error e -> Error (Fmt.str "genesis invalid: %a" Validation.pp_error e)
    | Ok membership ->
      (* Replay in canonical order, validating each block against the
         state accumulated so far (a faithful re-admission). *)
      let replay = ref (Result.get_ok (Dag.add Dag.empty g)) in
      let csm = ref (fst (Csm.apply_block Csm.empty g)) in
      ignore membership;
      let checked = ref 1 in
      let rec go seq =
        match Seq.uncons seq with
        | None -> Ok !checked
        | Some ((b : Block.t), rest) ->
          if Block.is_genesis b then go rest
          else begin
            (* lint: allow no-partial-stdlib — the genesis block replayed first always installs a membership *)
            let m = Option.get (Csm.membership !csm) in
            match
              Validation.check_block ~membership:m ~dag:!replay
                ~now:(Timestamp.add_ms b.Block.timestamp 1L) b
            with
            | Error e ->
              Error
                (Fmt.str "block %a fails validation: %a" Hash_id.pp b.Block.hash
                   Validation.pp_error e)
            | Ok () ->
              replay := Result.get_ok (Dag.add !replay b);
              csm := fst (Csm.apply_block !csm b);
              incr checked;
              go rest
          end
      in
      go (Dag.topo_seq dag)
  end

let summary t =
  let dag = Node.dag t.node in
  let csm = Node.csm t.node in
  let buf = Buffer.create 512 in
  let store = Csm.store csm in
  Buffer.add_string buf
    (Fmt.str "node %a (role %s)\n" Hash_id.pp (Node.user_id t.node)
       (Node.cert t.node).Certificate.role);
  Buffer.add_string buf
    (Fmt.str "blocks: %d resident, %d archived, %d bytes\n" (Dag.cardinal dag)
       (Dag.archived_count dag) (Dag.byte_size dag));
  Buffer.add_string buf
    (Fmt.str "frontier: %a\n"
       (Fmt.list ~sep:(Fmt.any ", ") Hash_id.pp)
       (Hash_id.Set.elements (Dag.frontier dag)));
  (match Csm.membership csm with
  | Some m -> Buffer.add_string buf (Fmt.str "members: %d\n" (Membership.cardinal m))
  | None -> ());
  List.iter
    (fun name ->
      match Vegvisir_crdt.Store.find store name with
      | Some inst ->
        Buffer.add_string buf
          (Fmt.str "crdt %s (%s): %a\n" name
             (Schema.kind_to_string (Vegvisir_crdt.Instance.spec inst).Schema.kind)
             Vegvisir_crdt.Instance.pp inst)
      | None -> ())
    (Vegvisir_crdt.Store.names store);
  Buffer.contents buf

let export_dot t = Fmt.str "%a" Dag.pp_dot (Node.dag t.node)
