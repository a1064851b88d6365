(* Unit and property tests for the vegvisir_crypto substrate. *)

open Vegvisir_crypto

let hex = Hex.encode
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Hex                                                                  *)

let hex_basics () =
  check_s "encode" "00ff10ab" (Hex.encode "\x00\xff\x10\xab");
  check_s "decode" "\x00\xff\x10\xab" (Hex.decode "00ff10ab");
  check_s "decode upper" "\xde\xad" (Hex.decode "DEAD");
  check_b "is_hex yes" true (Hex.is_hex "00aaBB");
  check_b "is_hex odd" false (Hex.is_hex "abc");
  check_b "is_hex bad char" false (Hex.is_hex "zz");
  Alcotest.check_raises "decode odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  check_s "empty" "" (Hex.encode "");
  check_s "empty decode" "" (Hex.decode "")

(* ------------------------------------------------------------------ *)
(* SHA-256                                                              *)

let sha_vectors () =
  check_s "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest ""));
  check_s "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest "abc"));
  check_s "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_s "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (hex
       (Sha256.digest
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
           ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))

let sha_long () =
  (* 10^6 'a' characters (FIPS vector), fed in uneven chunks. *)
  let ctx = Sha256.init () in
  let chunk = String.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    Sha256.feed ctx chunk;
    fed := !fed + 997
  done;
  Sha256.feed ctx (String.make (1_000_000 - !fed) 'a');
  check_s "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.finalize ctx))

let sha_incremental () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let one_shot = Sha256.digest data in
  List.iter
    (fun cut ->
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub data 0 cut);
      Sha256.feed ctx (String.sub data cut (String.length data - cut));
      check_s (Printf.sprintf "split at %d" cut) (hex one_shot)
        (hex (Sha256.finalize ctx)))
    [ 0; 1; 63; 64; 65; 127; 128; 555; 1000 ]

let sha_digest_list () =
  check_s "concat equivalence"
    (hex (Sha256.digest "foobarbaz"))
    (hex (Sha256.digest_list [ "foo"; "bar"; "baz" ]))

(* Every padding boundary at once: 131 digests of lengths 0..130 (two
   full blocks plus change), hashed together. Captured from the
   pre-unrolled kernel, so it pins the rewrite byte for byte. *)
let sha_all_lengths () =
  let all =
    String.concat ""
      (List.init 131 (fun i ->
           Sha256.digest (String.init i (fun j -> Char.chr ((j * 7) land 0xff)))))
  in
  check_s "lengths 0..130"
    "181f875e1cd08d0506e432f8bd3a3523f5d0d033b838f6578d7913a15552d895"
    (hex (Sha256.digest all))

let iterate_naive ~tag v n =
  let rec go v n = if n = 0 then v else go (Sha256.digest_list [ tag; v ]) (n - 1) in
  go v n

(* Tags of 24 bytes and up spill the message into a second block. *)
let iterate_multi_block () =
  let v = Sha256.digest "seed" in
  List.iter
    (fun tl ->
      let tag = String.make tl 't' in
      List.iter
        (fun n ->
          check_s (Printf.sprintf "tag %d, %d steps" tl n)
            (hex (iterate_naive ~tag v n))
            (hex (Sha256.iterate ~tag v n)))
        [ 0; 1; 5 ])
    [ 23; 24; 55; 56; 64; 100 ];
  Alcotest.check_raises "short v" (Invalid_argument "Sha256.iterate") (fun () ->
      ignore (Sha256.iterate ~tag:"t" "short" 1));
  Alcotest.check_raises "negative n" (Invalid_argument "Sha256.iterate")
    (fun () -> ignore (Sha256.iterate ~tag:"t" v (-1)))

(* The chain kernel's allocation is per call, never per step. *)
let iterate_allocation_flat () =
  let v = Sha256.digest "alloc" in
  let words n =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Sha256.iterate ~tag:"wots-chain" v n));
    Gc.minor_words () -. before
  in
  let one = words 1 in
  List.iter
    (fun n ->
      check_b
        (Printf.sprintf "%d steps allocate as much as 1 (%.0f words)" n one)
        true
        (Float.equal (words n) one))
    [ 15; 1_000; 10_000 ]

let hmac_vectors () =
  (* RFC 4231 test case 1 *)
  check_s "rfc4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Sha256.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  (* RFC 4231 test case 2 *)
  check_s "rfc4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"));
  (* Long key (> block size) must be hashed first. *)
  let long_key = String.make 131 '\xaa' in
  check_s "rfc4231 #6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Sha256.hmac ~key:long_key
          "Test Using Larger Than Block-Size Key - Hash Key First"))

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.create 43L in
  check_b "different seed differs" true (Rng.int64 a <> Rng.int64 c)

let rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_b "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    check_b "float in [0,1)" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let rng_bytes_and_pick () =
  let rng = Rng.create 1L in
  check_i "bytes length" 33 (String.length (Rng.bytes rng 33));
  check_i "bytes empty" 0 (String.length (Rng.bytes rng 0));
  let l = [ 1; 2; 3; 4 ] in
  for _ = 1 to 50 do
    check_b "pick member" true (List.mem (Rng.pick rng l) l)
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []));
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is permutation" (Array.init 50 Fun.id) sorted

let rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.int64 parent) in
  let ys = List.init 10 (fun _ -> Rng.int64 child) in
  check_b "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Merkle                                                               *)

let merkle_basics () =
  let leaves = [ "a"; "b"; "c"; "d"; "e" ] in
  let t = Merkle.build leaves in
  check_i "size" 5 (Merkle.size t);
  List.iteri
    (fun i leaf ->
      let p = Merkle.path t i in
      check_b (Printf.sprintf "path %d verifies" i) true
        (Merkle.verify_path ~root:(Merkle.root t) ~leaf p);
      check_b (Printf.sprintf "path %d wrong leaf" i) false
        (Merkle.verify_path ~root:(Merkle.root t) ~leaf:"z" p))
    leaves;
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: no leaves")
    (fun () -> ignore (Merkle.build []));
  Alcotest.check_raises "path out of range"
    (Invalid_argument "Merkle.path: leaf out of range") (fun () ->
      ignore (Merkle.path t 5))

let merkle_single_leaf () =
  let t = Merkle.build [ "only" ] in
  check_b "single leaf path" true
    (Merkle.verify_path ~root:(Merkle.root t) ~leaf:"only" (Merkle.path t 0));
  check_b "leaf/root distinct from raw hash" true
    (Merkle.root t <> Sha256.digest "only")

let merkle_root_changes () =
  let r1 = Merkle.root (Merkle.build [ "a"; "b" ]) in
  let r2 = Merkle.root (Merkle.build [ "a"; "c" ]) in
  let r3 = Merkle.root (Merkle.build [ "b"; "a" ]) in
  check_b "leaf change changes root" true (r1 <> r2);
  check_b "order matters" true (r1 <> r3)

(* ------------------------------------------------------------------ *)
(* Lamport                                                              *)

let lamport_roundtrip () =
  let rng = Rng.create 11L in
  let sk, pk = Lamport.generate rng in
  check_s "pk derivable" (hex pk) (hex (Lamport.public_of_secret sk));
  let s = Lamport.sign sk "message" in
  check_b "verifies" true (Lamport.verify pk "message" s);
  check_b "other message fails" false (Lamport.verify pk "messagf" s);
  let _, pk2 = Lamport.generate rng in
  check_b "other key fails" false (Lamport.verify pk2 "message" s)

let lamport_serialization () =
  let rng = Rng.create 12L in
  let sk, pk = Lamport.generate rng in
  let s = Lamport.sign sk "hello" in
  let raw = Lamport.signature_to_string s in
  check_i "size" Lamport.signature_size (String.length raw);
  (match Lamport.signature_of_string raw with
  | Some s2 -> check_b "roundtrip verifies" true (Lamport.verify pk "hello" s2)
  | None -> Alcotest.fail "decode failed");
  check_b "truncated rejected" true
    (Lamport.signature_of_string (String.sub raw 0 100) = None)

(* ------------------------------------------------------------------ *)
(* W-OTS                                                                *)

let wots_params () =
  let p = Wots.params () in
  check_i "default len1" 64 p.Wots.len1;
  check_i "default chain_max" 15 p.Wots.chain_max;
  check_b "len2 covers checksum" true (p.Wots.len2 >= 3);
  Alcotest.check_raises "bad chunk bits"
    (Invalid_argument "Wots.params: chunk_bits must be in 1..8") (fun () ->
      ignore (Wots.params ~chunk_bits:0 ()))

let wots_roundtrip_all_widths () =
  List.iter
    (fun chunk_bits ->
      let p = Wots.params ~chunk_bits () in
      let rng = Rng.create (Int64.of_int (100 + chunk_bits)) in
      let sk, pk = Wots.generate p rng in
      let s = Wots.sign sk "payload" in
      check_b (Printf.sprintf "w=%d verifies" chunk_bits) true
        (Wots.verify p pk "payload" s);
      check_b (Printf.sprintf "w=%d rejects other msg" chunk_bits) false
        (Wots.verify p pk "payloae" s))
    [ 1; 2; 4; 8 ]

let wots_deterministic_derive () =
  let p = Wots.params () in
  let _, pk1 = Wots.derive p ~seed:"fixed-seed" in
  let _, pk2 = Wots.derive p ~seed:"fixed-seed" in
  let _, pk3 = Wots.derive p ~seed:"other-seed" in
  check_s "same seed same key" (hex pk1) (hex pk2);
  check_b "different seed different key" true (pk1 <> pk3)

let wots_serialization () =
  let p = Wots.params () in
  let sk, pk = Wots.derive p ~seed:"ser" in
  let s = Wots.sign sk "x" in
  let raw = Wots.signature_to_string s in
  check_i "size" (Wots.signature_size p) (String.length raw);
  (match Wots.signature_of_string p raw with
  | Some s2 -> check_b "roundtrip verifies" true (Wots.verify p pk "x" s2)
  | None -> Alcotest.fail "decode failed");
  check_b "wrong length rejected" true
    (Wots.signature_of_string p (raw ^ "x") = None)

let wots_tamper () =
  let p = Wots.params () in
  let sk, pk = Wots.derive p ~seed:"tamper" in
  let s = Wots.sign sk "msg" in
  let raw = Bytes.of_string (Wots.signature_to_string s) in
  Bytes.set raw 40 (Char.chr (Char.code (Bytes.get raw 40) lxor 1));
  match Wots.signature_of_string p (Bytes.to_string raw) with
  | Some s2 -> check_b "tampered fails" false (Wots.verify p pk "msg" s2)
  | None -> Alcotest.fail "decode failed"

(* ------------------------------------------------------------------ *)
(* MSS                                                                  *)

let mss_roundtrip () =
  let sk, pk = Mss.generate ~height:3 ~seed:"mss-seed" () in
  check_i "capacity" 8 (Mss.capacity sk);
  check_s "public derivable" (hex pk) (hex (Mss.public_of_secret sk));
  for i = 1 to 8 do
    let msg = "message-" ^ string_of_int i in
    let s = Mss.sign sk msg in
    check_b (Printf.sprintf "sig %d verifies" i) true (Mss.verify pk msg s);
    check_b (Printf.sprintf "sig %d rejects" i) false (Mss.verify pk "other" s);
    check_i "remaining" (8 - i) (Mss.remaining sk)
  done;
  Alcotest.check_raises "exhausted" Mss.Exhausted (fun () ->
      ignore (Mss.sign sk "one too many"))

let mss_serialization () =
  let sk, pk = Mss.generate ~height:4 ~seed:"mss-ser" () in
  let s = Mss.sign sk "block" in
  let raw = Mss.signature_to_string s in
  check_i "predicted size" (Mss.signature_size ~height:4 ()) (String.length raw);
  (match Mss.signature_of_string raw with
  | Some s2 -> check_b "roundtrip verifies" true (Mss.verify pk "block" s2)
  | None -> Alcotest.fail "decode failed");
  check_b "garbage rejected" true (Mss.signature_of_string "short" = None)

(* Captured from the implementation before the unrolled SHA-256 kernel
   and the leaf-key cache landed: keys and signatures must not change by
   a byte. A signature (2,279 bytes) is pinned by its SHA-256, which the
   FIPS vectors above pin in turn. *)
let golden_keys_and_signatures () =
  let sk, pk = Mss.generate ~height:3 ~seed:"golden-mss" () in
  check_s "mss public key"
    "99c9b9feb80558447a8f7d9a831c2349c5ae258a2abc900e9159a7a35aea7a3c" (hex pk);
  List.iteri
    (fun i golden ->
      let raw =
        Mss.signature_to_string
          (Mss.sign sk (Printf.sprintf "golden message %d" i))
      in
      check_i (Printf.sprintf "signature %d size" i) 2279 (String.length raw);
      check_s (Printf.sprintf "signature %d digest" i) golden
        (hex (Sha256.digest raw)))
    [
      "16c2e6f8c0c8f95fce6fa352e9fe5875e756a15ca77bfa8e3b5a6d7b9e63bc9c";
      "59f0469701da3a62a4840bb8ac68fc2001a3cfc192a5ba9bcdb002a080afe161";
    ];
  let p = Wots.params () in
  let wsk, wpk = Wots.derive p ~seed:"golden-wots" in
  check_s "wots public key"
    "662ef4625e58e7fa18ca90016a572d206d8e2d1d92ccf6d6a2be3ee345508b25" (hex wpk);
  check_s "wots signature digest"
    "633633adb8726a73ae4a8f37ff1ffcb6b47abf1a2d82bfe3dfb0b429dc808238"
    (hex (Sha256.digest (Wots.signature_to_string (Wots.sign wsk "golden"))))

(* The leaf index travels as 4 plain bytes: rewriting them must not
   yield a second valid signature (a second block hash for one block). *)
let mss_index_bound_to_path () =
  let sk, pk = Mss.generate ~height:3 ~seed:"mss-index" () in
  ignore (Mss.sign sk "burn leaf 0");
  ignore (Mss.sign sk "burn leaf 1");
  let raw = Mss.signature_to_string (Mss.sign sk "block") in
  let with_index i =
    let b = Bytes.of_string raw in
    Bytes.set_int32_be b 0 (Int32.of_int i);
    Mss.signature_of_string (Bytes.to_string b)
  in
  let verifies i =
    match with_index i with
    | Some s -> Mss.verify pk "block" s
    | None -> Alcotest.fail "re-indexed signature no longer decodes"
  in
  check_b "honest index 2" true (verifies 2);
  List.iter
    (fun i -> check_b (Printf.sprintf "index %d rejected" i) false (verifies i))
    [ 3; 0; 6; 2 + 8; 2 + 256; 0x7fffffff ]

let mss_cross_key () =
  let sk1, _pk1 = Mss.generate ~height:2 ~seed:"k1" () in
  let _sk2, pk2 = Mss.generate ~height:2 ~seed:"k2" () in
  let s = Mss.sign sk1 "msg" in
  check_b "cross-key rejected" false (Mss.verify pk2 "msg" s)

let mss_height_zero () =
  let sk, pk = Mss.generate ~height:0 ~seed:"tiny" () in
  check_i "capacity 1" 1 (Mss.capacity sk);
  let s = Mss.sign sk "only" in
  check_b "verifies" true (Mss.verify pk "only" s);
  Alcotest.check_raises "exhausted after 1" Mss.Exhausted (fun () ->
      ignore (Mss.sign sk "again"))

(* ------------------------------------------------------------------ *)
(* Sealed box                                                           *)

let sealed_box_roundtrip () =
  let key = Sha256.digest "key" in
  let box = Sealed_box.encrypt ~key ~nonce:"nonce-1" "attack at dawn" in
  check_i "overhead"
    (String.length "attack at dawn" + Sealed_box.overhead)
    (String.length box);
  (match Sealed_box.decrypt ~key box with
  | Some pt -> check_s "roundtrip" "attack at dawn" pt
  | None -> Alcotest.fail "decrypt failed");
  check_b "wrong key fails" true
    (Sealed_box.decrypt ~key:(Sha256.digest "other") box = None)

let sealed_box_tamper () =
  let key = Sha256.digest "key" in
  let box = Sealed_box.encrypt ~key ~nonce:"n" "plaintext" in
  let tampered = Bytes.of_string box in
  Bytes.set tampered 18 (Char.chr (Char.code (Bytes.get tampered 18) lxor 1));
  check_b "tampered rejected" true
    (Sealed_box.decrypt ~key (Bytes.to_string tampered) = None);
  check_b "truncated rejected" true (Sealed_box.decrypt ~key "tiny" = None)

let sealed_box_empty_and_long () =
  let key = Sha256.digest "key" in
  (match Sealed_box.decrypt ~key (Sealed_box.encrypt ~key ~nonce:"n" "") with
  | Some "" -> ()
  | _ -> Alcotest.fail "empty roundtrip");
  let long = String.make 10_000 'q' in
  match Sealed_box.decrypt ~key (Sealed_box.encrypt ~key ~nonce:"n2" long) with
  | Some pt -> check_b "long roundtrip" true (String.equal pt long)
  | None -> Alcotest.fail "long roundtrip failed"

(* ------------------------------------------------------------------ *)
(* Bloom                                                                *)

let bloom_basics () =
  let b = Bloom.create ~expected:100 ~fp_rate:0.01 in
  let members = List.init 100 (fun i -> Printf.sprintf "member-%d" i) in
  List.iter (Bloom.add b) members;
  (* No false negatives, ever. *)
  List.iter (fun m -> check_b m true (Bloom.mem b m)) members;
  (* False positives stay near the configured rate. *)
  let fps = ref 0 in
  for i = 0 to 9_999 do
    if Bloom.mem b (Printf.sprintf "absent-%d" i) then incr fps
  done;
  check_b (Printf.sprintf "fp rate %.4f < 0.03" (float_of_int !fps /. 10_000.))
    true
    (float_of_int !fps /. 10_000. < 0.03);
  check_b "k >= 1" true (Bloom.hash_count b >= 1);
  Alcotest.check_raises "bad expected"
    (Invalid_argument "Bloom.create: expected must be positive") (fun () ->
      ignore (Bloom.create ~expected:0 ~fp_rate:0.01))

let bloom_serialization () =
  let b = Bloom.create ~expected:50 ~fp_rate:0.02 in
  List.iter (Bloom.add b) [ "x"; "y"; "z" ];
  (match Bloom.of_string (Bloom.to_string b) with
  | Some b' ->
    check_b "membership preserved" true
      (Bloom.mem b' "x" && Bloom.mem b' "y" && Bloom.mem b' "z");
    check_i "byte size matches" (Bloom.byte_size b) (String.length (Bloom.to_string b))
  | None -> Alcotest.fail "bloom roundtrip");
  check_b "garbage rejected" true (Bloom.of_string "ab" = None)

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~long_factor:100 ~name:"hex roundtrip" ~count:200
      (string_of_size Gen.(0 -- 64))
      (fun s -> String.equal (Hex.decode (Hex.encode s)) s);
    Test.make ~long_factor:100 ~name:"sha256 incremental = one-shot" ~count:100
      (pair (string_of_size Gen.(0 -- 300)) (string_of_size Gen.(0 -- 300)))
      (fun (a, b) ->
        let ctx = Sha256.init () in
        Sha256.feed ctx a;
        Sha256.feed ctx b;
        String.equal (Sha256.finalize ctx) (Sha256.digest (a ^ b)));
    Test.make ~long_factor:100 ~name:"sha256 iterate = n-fold digest_list"
      ~count:100
      (triple (string_of_size Gen.(0 -- 23)) (string_of_size (Gen.return 32))
         (int_range 0 40))
      (fun (tag, v, n) ->
        String.equal (Sha256.iterate ~tag v n) (iterate_naive ~tag v n));
    Test.make ~long_factor:100 ~name:"merkle path verifies for every leaf" ~count:60
      (list_of_size Gen.(1 -- 33) (string_of_size Gen.(0 -- 8)))
      (fun leaves ->
        let t = Merkle.build leaves in
        List.for_all
          (fun i ->
            Merkle.verify_path ~root:(Merkle.root t) ~leaf:(List.nth leaves i)
              (Merkle.path t i))
          (List.init (List.length leaves) Fun.id));
    Test.make ~long_factor:100 ~name:"wots verifies arbitrary messages" ~count:25
      (string_of_size Gen.(0 -- 100))
      (fun msg ->
        let p = Wots.params () in
        let sk, pk = Wots.derive p ~seed:"prop" in
        Wots.verify p pk msg (Wots.sign sk msg));
    Test.make ~long_factor:100 ~name:"sealed box roundtrips" ~count:60
      (pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 20)))
      (fun (pt, nonce) ->
        let key = Sha256.digest "prop-key" in
        match Sealed_box.decrypt ~key (Sealed_box.encrypt ~key ~nonce pt) with
        | Some pt' -> String.equal pt pt'
        | None -> false);
    Test.make ~long_factor:100 ~name:"bloom has no false negatives" ~count:50
      (list_of_size Gen.(0 -- 60) (string_of_size Gen.(1 -- 16)))
      (fun elems ->
        let b = Bloom.create ~expected:(max 1 (List.length elems)) ~fp_rate:0.01 in
        List.iter (Bloom.add b) elems;
        List.for_all (Bloom.mem b) elems);
    Test.make ~long_factor:100 ~name:"rng int respects bound" ~count:200
      (pair int64 (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
  ]

let () =
  Alcotest.run "crypto"
    [
      ("hex", [ Alcotest.test_case "basics" `Quick hex_basics ]);
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick sha_vectors;
          Alcotest.test_case "million a" `Slow sha_long;
          Alcotest.test_case "incremental splits" `Quick sha_incremental;
          Alcotest.test_case "digest_list" `Quick sha_digest_list;
          Alcotest.test_case "all padding lengths" `Quick sha_all_lengths;
          Alcotest.test_case "iterate multi-block tags" `Quick iterate_multi_block;
          Alcotest.test_case "iterate allocation flat" `Quick
            iterate_allocation_flat;
          Alcotest.test_case "HMAC RFC 4231" `Quick hmac_vectors;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick rng_determinism;
          Alcotest.test_case "bounds" `Quick rng_bounds;
          Alcotest.test_case "bytes/pick/shuffle" `Quick rng_bytes_and_pick;
          Alcotest.test_case "split" `Quick rng_split_independent;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "paths" `Quick merkle_basics;
          Alcotest.test_case "single leaf" `Quick merkle_single_leaf;
          Alcotest.test_case "root sensitivity" `Quick merkle_root_changes;
        ] );
      ( "lamport",
        [
          Alcotest.test_case "roundtrip" `Quick lamport_roundtrip;
          Alcotest.test_case "serialization" `Quick lamport_serialization;
        ] );
      ( "wots",
        [
          Alcotest.test_case "params" `Quick wots_params;
          Alcotest.test_case "all widths" `Quick wots_roundtrip_all_widths;
          Alcotest.test_case "deterministic derive" `Quick wots_deterministic_derive;
          Alcotest.test_case "serialization" `Quick wots_serialization;
          Alcotest.test_case "tamper" `Quick wots_tamper;
        ] );
      ( "mss",
        [
          Alcotest.test_case "roundtrip + exhaustion" `Quick mss_roundtrip;
          Alcotest.test_case "serialization" `Quick mss_serialization;
          Alcotest.test_case "cross-key" `Quick mss_cross_key;
          Alcotest.test_case "golden keys and signatures" `Quick
            golden_keys_and_signatures;
          Alcotest.test_case "index bound to path" `Quick mss_index_bound_to_path;
          Alcotest.test_case "height zero" `Quick mss_height_zero;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "basics" `Quick bloom_basics;
          Alcotest.test_case "serialization" `Quick bloom_serialization;
        ] );
      ( "sealed-box",
        [
          Alcotest.test_case "roundtrip" `Quick sealed_box_roundtrip;
          Alcotest.test_case "tamper" `Quick sealed_box_tamper;
          Alcotest.test_case "empty and long" `Quick sealed_box_empty_and_long;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
