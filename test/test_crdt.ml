(* Unit and property tests for the vegvisir_crdt library.

   The load-bearing properties are (a) every CRDT converges regardless of
   the order concurrent operations are applied in, and (b) state-based
   merge is a join (commutative, associative, idempotent). *)

open Vegvisir_crdt

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let ctx ?(origin = "user-1") ?(ts = 1L) uid = Op_ctx.make ~origin ~timestamp:ts ~uid

(* ------------------------------------------------------------------ *)
(* Value                                                                *)

let value_typecheck () =
  let open Value in
  check_b "int" true (typecheck T_int (Int 4));
  check_b "int vs string" false (typecheck T_int (String "4"));
  check_b "any" true (typecheck T_any (Pair (Int 1, Bool true)));
  check_b "list ok" true (typecheck (T_list T_string) (List [ String "a"; String "b" ]));
  check_b "list bad elem" false (typecheck (T_list T_string) (List [ String "a"; Int 1 ]));
  check_b "empty list" true (typecheck (T_list T_int) (List []));
  check_b "pair" true (typecheck (T_pair (T_int, T_bool)) (Pair (Int 1, Bool false)));
  check_b "pair mismatch" false (typecheck (T_pair (T_int, T_bool)) (Pair (Bool false, Int 1)));
  check_b "unit" true (typecheck T_unit Unit);
  check_b "bytes" true (typecheck T_bytes (Bytes "\x00\x01"));
  check_b "float" true (typecheck T_float (Float 3.14))

let value_roundtrip () =
  let open Value in
  let vs =
    [
      Unit;
      Bool true;
      Bool false;
      Int 0;
      Int (-1);
      Int max_int;
      Int min_int;
      Float 0.0;
      Float (-1.5e300);
      String "";
      String "hello";
      Bytes "\x00\xff";
      List [];
      List [ Int 1; String "two"; List [ Bool true ] ];
      Pair (Pair (Int 1, Int 2), String "nested");
    ]
  in
  List.iter
    (fun v ->
      match of_string (to_string v) with
      | Some v' -> check_b (Fmt.str "%a" pp v) true (equal v v')
      | None -> Alcotest.failf "roundtrip failed for %a" pp v)
    vs

let value_decode_errors () =
  check_b "garbage" true (Value.of_string "\xff" = None);
  check_b "truncated" true (Value.of_string "\x03\x00" = None);
  check_b "trailing" true (Value.of_string (Value.to_string Value.Unit ^ "x") = None);
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Value.encode: NaN is not encodable") (fun () ->
      ignore (Value.to_string (Value.Float Float.nan)))

let ty_roundtrip () =
  let open Value in
  List.iter
    (fun ty ->
      let b = Buffer.create 8 in
      encode_ty b ty;
      let pos = ref 0 in
      let ty' = decode_ty (Buffer.contents b) pos in
      check_b (ty_to_string ty) true (ty = ty'))
    [
      T_unit; T_bool; T_int; T_float; T_string; T_bytes; T_any;
      T_list (T_pair (T_int, T_list T_string));
      T_pair (T_any, T_bytes);
    ]

(* ------------------------------------------------------------------ *)
(* Individual CRDT semantics                                            *)

let v s = Value.String s

let gset_semantics () =
  let s = Gset.empty |> Gset.add (v "a") |> Gset.add (v "b") |> Gset.add (v "a") in
  check_i "cardinal dedupes" 2 (Gset.cardinal s);
  check_b "mem" true (Gset.mem (v "a") s);
  check_b "not mem" false (Gset.mem (v "c") s)

let two_pset_semantics () =
  let s = Two_pset.empty |> Two_pset.add (v "a") |> Two_pset.add (v "b") in
  let s = Two_pset.remove (v "a") s in
  check_b "removed" false (Two_pset.mem (v "a") s);
  check_b "still there" true (Two_pset.mem (v "b") s);
  (* Remove wins forever: re-adding does not resurrect. *)
  let s = Two_pset.add (v "a") s in
  check_b "no resurrection" false (Two_pset.mem (v "a") s);
  check_b "ever added" true (Two_pset.ever_added (v "a") s);
  (* Remove-before-add commutes. *)
  let s2 = Two_pset.empty |> Two_pset.remove (v "x") |> Two_pset.add (v "x") in
  check_b "remove-first also dead" false (Two_pset.mem (v "x") s2)

let orset_semantics () =
  let s = Orset.empty |> Orset.add ~tag:"t1" (v "a") in
  check_b "added" true (Orset.mem (v "a") s);
  let observed = Orset.observed_tags (v "a") s in
  let s = Orset.remove ~tags:observed (v "a") s in
  check_b "removed" false (Orset.mem (v "a") s);
  (* Re-add with a fresh tag resurrects (unlike 2P). *)
  let s = Orset.add ~tag:"t2" (v "a") s in
  check_b "resurrected" true (Orset.mem (v "a") s);
  (* Concurrent add not covered by the remove survives (add-wins). *)
  let s2 = Orset.empty |> Orset.add ~tag:"t1" (v "a") in
  let s2 = Orset.remove ~tags:[ "t1" ] (v "a") s2 in
  let s2 = Orset.add ~tag:"t3" (v "a") s2 in
  check_b "concurrent add wins" true (Orset.mem (v "a") s2);
  (* Remove arriving before its add: add stays dead (tombstone). *)
  let s3 = Orset.empty |> Orset.remove ~tags:[ "t9" ] (v "z") in
  let s3 = Orset.add ~tag:"t9" (v "z") s3 in
  check_b "tombstoned add dead" false (Orset.mem (v "z") s3)

let counters_semantics () =
  let c = Gcounter.empty in
  let c = Gcounter.incr ~origin:"a" 3 c in
  let c = Gcounter.incr ~origin:"b" 4 c in
  let c = Gcounter.incr ~origin:"a" 1 c in
  check_i "value" 8 (Gcounter.value c);
  check_i "per origin" 4 (Gcounter.value_of ~origin:"a" c);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Gcounter.incr: amount must be positive") (fun () ->
      ignore (Gcounter.incr ~origin:"a" 0 c));
  let p = Pncounter.empty in
  let p = Pncounter.incr ~origin:"a" 10 p in
  let p = Pncounter.decr ~origin:"b" 4 p in
  check_i "pn value" 6 (Pncounter.value p)

let lww_semantics () =
  let r = Lww_register.empty in
  check_b "unset" true (Lww_register.value r = None);
  let r = Lww_register.set ~ts:5L ~uid:"u1" (v "first") r in
  let r = Lww_register.set ~ts:3L ~uid:"u2" (v "older") r in
  check_b "older write loses" true (Lww_register.value r = Some (v "first"));
  let r = Lww_register.set ~ts:9L ~uid:"u3" (v "newer") r in
  check_b "newer wins" true (Lww_register.value r = Some (v "newer"));
  (* Equal timestamps: uid tie-break, order-independent. *)
  let a = Lww_register.set ~ts:9L ~uid:"zz" (v "zz-val") r in
  let b =
    Lww_register.set ~ts:9L ~uid:"u3" (v "newer")
      (Lww_register.set ~ts:9L ~uid:"zz" (v "zz-val") Lww_register.empty)
  in
  check_b "tie-break deterministic" true (Lww_register.equal a b)

let mv_semantics () =
  let r = Mv_register.empty in
  let r = Mv_register.set ~uid:"w1" ~overwrites:[] (v "a") r in
  let r = Mv_register.set ~uid:"w2" ~overwrites:[] (v "b") r in
  check_i "two concurrent values" 2 (List.length (Mv_register.values r));
  let r2 = Mv_register.set ~uid:"w3" ~overwrites:[ "w1"; "w2" ] (v "c") r in
  check_b "overwrite collapses" true (Mv_register.values r2 = [ v "c" ]);
  (* Overwrite arriving before the writes it overwrites. *)
  let r3 = Mv_register.set ~uid:"w3" ~overwrites:[ "w1"; "w2" ] (v "c") Mv_register.empty in
  let r3 = Mv_register.set ~uid:"w1" ~overwrites:[] (v "a") r3 in
  check_b "late write stays dead" true (Mv_register.values r3 = [ v "c" ])

let rgraph_semantics () =
  let g = Rgraph.empty |> Rgraph.add_vertex (v "a") |> Rgraph.add_vertex (v "b") in
  let g = Rgraph.add_edge (v "a") (v "b") g in
  check_b "edge" true (Rgraph.has_edge (v "a") (v "b") g);
  check_b "edge direction" false (Rgraph.has_edge (v "b") (v "a") g);
  (* Edge whose endpoint is unknown stays invisible until the vertex add
     arrives (possibly via another branch). *)
  let g = Rgraph.add_edge (v "a") (v "c") g in
  check_b "dangling edge hidden" false (Rgraph.has_edge (v "a") (v "c") g);
  check_i "visible edges" 1 (List.length (Rgraph.edges g));
  let g = Rgraph.add_vertex (v "c") g in
  check_b "edge appears with vertex" true (Rgraph.has_edge (v "a") (v "c") g);
  check_b "successors" true (Rgraph.successors (v "a") g = [ v "b"; v "c" ])

let rga_semantics () =
  let s = Rga.empty in
  let s = Rga.insert ~anchor:Rga.head ~id:"a" (v "A") s in
  let s = Rga.insert ~anchor:"a" ~id:"b" (v "B") s in
  let s = Rga.insert ~anchor:"a" ~id:"c" (v "C") s in
  (* Concurrent siblings at the same anchor: descending id => "c" first. *)
  check_b "sequence order" true (Rga.to_list s = [ v "A"; v "C"; v "B" ]);
  check_i "length" 3 (Rga.length s);
  check_b "id_at" true (Rga.id_at s 1 = Some "c");
  let s = Rga.delete ~id:"c" s in
  check_b "delete hides" true (Rga.to_list s = [ v "A"; v "B" ]);
  (* Deleted elements still anchor: inserting after "c" works. *)
  let s = Rga.insert ~anchor:"c" ~id:"d" (v "D") s in
  check_b "anchor on tombstone" true (Rga.to_list s = [ v "A"; v "D"; v "B" ]);
  (* Out-of-order: insert before its anchor exists. *)
  let s2 = Rga.empty |> Rga.insert ~anchor:"x" ~id:"y" (v "Y") in
  check_i "orphan parked" 1 (Rga.orphan_count s2);
  check_b "orphan invisible" true (Rga.to_list s2 = []);
  let s2 = Rga.insert ~anchor:Rga.head ~id:"x" (v "X") s2 in
  check_i "orphan integrated" 0 (Rga.orphan_count s2);
  check_b "both visible" true (Rga.to_list s2 = [ v "X"; v "Y" ]);
  (* Delete before insert. *)
  let s3 = Rga.empty |> Rga.delete ~id:"z" in
  let s3 = Rga.insert ~anchor:Rga.head ~id:"z" (v "Z") s3 in
  check_b "pre-deleted stays dead" true (Rga.to_list s3 = [])

(* ------------------------------------------------------------------ *)
(* Schema                                                               *)

let schema_signatures () =
  let s = Schema.spec Schema.Orset Value.T_string in
  check_b "add sig" true (Schema.op_signature s "add" = Some [ Value.T_string ]);
  check_b "remove sig has tag list" true
    (Schema.op_signature s "remove" = Some [ Value.T_string; Value.T_list Value.T_string ]);
  check_b "unknown" true (Schema.op_signature s "frobnicate" = None);
  check_b "check_args ok" true
    (Schema.check_args s ~op:"add" [ Value.String "x" ] = Ok ());
  (match Schema.check_args s ~op:"add" [ Value.Int 1 ] with
  | Error (Schema.Type_error _) -> ()
  | _ -> Alcotest.fail "expected type error");
  (match Schema.check_args s ~op:"add" [] with
  | Error (Schema.Bad_arity { expected = 1; got = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected arity error")

let schema_permissions () =
  let s =
    Schema.spec ~perms:[ ("add", [ "medic" ]); ("remove", [ "*" ]) ]
      Schema.Two_pset Value.T_string
  in
  check_b "listed role" true (Schema.permitted s ~role:"medic" ~op:"add");
  check_b "other role" false (Schema.permitted s ~role:"logistics" ~op:"add");
  check_b "wildcard" true (Schema.permitted s ~role:"anyone" ~op:"remove");
  check_b "unlisted op open" true (Schema.permitted s ~role:"anyone" ~op:"mem")

let schema_roundtrip () =
  let specs =
    [
      Schema.spec Schema.Gset Value.T_string;
      Schema.spec ~perms:[ ("add", [ "a"; "b" ]) ] Schema.Orset
        Value.(T_pair (T_int, T_bytes));
      Schema.spec Schema.Rgraph Value.T_any;
      Schema.spec Schema.Pncounter Value.T_int;
    ]
  in
  List.iter
    (fun s ->
      match Schema.of_string (Schema.to_string s) with
      | Some s' -> check_b "spec roundtrip" true (Schema.equal s s')
      | None -> Alcotest.fail "spec roundtrip failed")
    specs;
  check_b "garbage spec" true (Schema.of_string "\xff\xff" = None)

(* ------------------------------------------------------------------ *)
(* Instance dispatch                                                    *)

let instance_apply_and_query () =
  let inst = Instance.create (Schema.spec Schema.Gset Value.T_string) in
  let inst =
    match Instance.apply inst ~ctx:(ctx "u1") ~op:"add" [ v "x" ] with
    | Ok i -> i
    | Error e -> Alcotest.failf "apply: %s" (Schema.error_to_string e)
  in
  (match Instance.query inst "mem" [ v "x" ] with
  | Ok (Value.Bool true) -> ()
  | _ -> Alcotest.fail "mem query");
  (match Instance.query inst "size" [] with
  | Ok (Value.Int 1) -> ()
  | _ -> Alcotest.fail "size query");
  (match Instance.apply inst ~ctx:(ctx "u2") ~op:"nope" [] with
  | Error (Schema.Unknown_op "nope") -> ()
  | _ -> Alcotest.fail "unknown op");
  (match Instance.apply inst ~ctx:(ctx "u3") ~op:"add" [ Value.Int 1 ] with
  | Error (Schema.Type_error _) -> ()
  | _ -> Alcotest.fail "type error");
  match Instance.query inst "value" [] with
  | Error (Schema.Unknown_op _) -> ()
  | _ -> Alcotest.fail "bad query op"

let instance_prepare_enriches () =
  let inst = Instance.create (Schema.spec Schema.Orset Value.T_string) in
  let inst =
    Result.get_ok (Instance.apply inst ~ctx:(ctx "u1") ~op:"add" [ v "x" ])
  in
  (match Instance.prepare inst ~op:"remove" [ v "x" ] with
  | Ok [ _; Value.List [ Value.String tag ] ] -> check_s "observed tag" "u1" tag
  | Ok args ->
    Alcotest.failf "unexpected prepared args: %a" Fmt.(list Value.pp) args
  | Error e -> Alcotest.failf "prepare: %s" (Schema.error_to_string e));
  (* Counter prepare is pass-through with checks. *)
  let cnt = Instance.create (Schema.spec Schema.Gcounter Value.T_int) in
  (match Instance.prepare cnt ~op:"incr" [ Value.Int 5 ] with
  | Ok [ Value.Int 5 ] -> ()
  | _ -> Alcotest.fail "counter prepare");
  match Instance.apply cnt ~ctx:(ctx "u1") ~op:"incr" [ Value.Int (-5) ] with
  | Error (Schema.Invalid_argument_value _) -> ()
  | _ -> Alcotest.fail "negative incr must fail"

let instance_merge_incompatible () =
  let a = Instance.create (Schema.spec Schema.Gset Value.T_string) in
  let b = Instance.create (Schema.spec Schema.Orset Value.T_string) in
  Alcotest.check_raises "incompatible merge"
    (Invalid_argument "Instance.merge: incompatible specs") (fun () ->
      ignore (Instance.merge a b))

(* ------------------------------------------------------------------ *)
(* Store (Omega)                                                        *)

let store_create_and_apply () =
  let spec = Schema.spec Schema.Gset Value.T_string in
  let store =
    Result.get_ok
      (Store.apply Store.empty ~role:"member" ~ctx:(ctx "c1")
         ~crdt:Store.omega_name ~op:Store.create_op
         (Store.create_args ~name:"log" spec))
  in
  check_b "created" true (Store.find store "log" <> None);
  check_b "names" true (Store.names store = [ "log" ]);
  let store =
    Result.get_ok
      (Store.apply store ~role:"member" ~ctx:(ctx "op1") ~crdt:"log" ~op:"add"
         [ v "entry" ])
  in
  (match Store.query store ~crdt:"log" ~op:"mem" [ v "entry" ] with
  | Ok (Value.Bool true) -> ()
  | _ -> Alcotest.fail "query after apply");
  (match
     Store.apply store ~role:"member" ~ctx:(ctx "op2") ~crdt:"nope" ~op:"add"
       [ v "x" ]
   with
  | Error (Schema.No_such_crdt "nope") -> ()
  | _ -> Alcotest.fail "missing CRDT");
  (* Reserved names refused. *)
  match
    Store.apply store ~role:"member" ~ctx:(ctx "c2") ~crdt:Store.omega_name
      ~op:Store.create_op
      (Store.create_args ~name:"_sneaky" spec)
  with
  | Error (Schema.Invalid_argument_value _) -> ()
  | _ -> Alcotest.fail "reserved name accepted"

let store_create_idempotent_and_conflict () =
  let spec1 = Schema.spec Schema.Gset Value.T_string in
  let spec2 = Schema.spec Schema.Orset Value.T_int in
  let create name spec uid st =
    Result.get_ok
      (Store.apply st ~role:"m" ~ctx:(ctx uid) ~crdt:Store.omega_name
         ~op:Store.create_op
         (Store.create_args ~name spec))
  in
  let st = create "x" spec1 "uid-b" Store.empty in
  let st = create "x" spec1 "uid-z" st in
  check_i "idempotent: no conflict" 0 (Store.conflicts st);
  (* Conflicting spec: smaller uid wins regardless of order. *)
  let st1 = create "x" spec2 "uid-a" st in
  check_i "conflict counted" 1 (Store.conflicts st1);
  check_b "uid-a won" true
    (Schema.equal (Instance.spec (Option.get (Store.find st1 "x"))) spec2);
  let st2 = create "x" spec2 "uid-q" st in
  check_b "uid-b retained" true
    (Schema.equal (Instance.spec (Option.get (Store.find st2 "x"))) spec1)

let store_permissions () =
  let spec = Schema.spec ~perms:[ ("add", [ "medic" ]) ] Schema.Gset Value.T_string in
  let st =
    Result.get_ok
      (Store.apply Store.empty ~role:"anyone" ~ctx:(ctx "c")
         ~crdt:Store.omega_name ~op:Store.create_op
         (Store.create_args ~name:"h" spec))
  in
  (match Store.apply st ~role:"medic" ~ctx:(ctx "o1") ~crdt:"h" ~op:"add" [ v "r" ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "medic should add: %s" (Schema.error_to_string e));
  match Store.apply st ~role:"logistics" ~ctx:(ctx "o2") ~crdt:"h" ~op:"add" [ v "r" ] with
  | Error (Schema.Permission_denied { role = "logistics"; op = "add" }) -> ()
  | _ -> Alcotest.fail "permission should be denied"

(* ------------------------------------------------------------------ *)
(* Property tests: commutativity / convergence / join laws              *)

type op = O : string * (Op_ctx.t -> Instance.t -> Instance.t) -> op

let apply_ops ?(salt = "") inst ops =
  List.fold_left
    (fun inst (i, O (_, f)) -> f (ctx (Printf.sprintf "uid%s-%d" salt i)) inst)
    inst ops

let shuffle_with seed l =
  let rng = Vegvisir_crypto.Rng.create seed in
  let a = Array.of_list l in
  Vegvisir_crypto.Rng.shuffle rng a;
  Array.to_list a

let mk_apply op args ctx inst =
  match Instance.apply inst ~ctx ~op args with Ok i -> i | Error _ -> inst

(* Generate indexed op lists for a given kind from random integers. *)
let ops_of_ints kind ints =
  List.mapi
    (fun i n ->
      let elem = Value.String (Printf.sprintf "e%d" (abs n mod 8)) in
      let op =
        match kind with
        | Schema.Gset -> O ("add", mk_apply "add" [ elem ])
        | Schema.Two_pset ->
          if n mod 3 = 0 then O ("remove", mk_apply "remove" [ elem ])
          else O ("add", mk_apply "add" [ elem ])
        | Schema.Orset ->
          if n mod 3 = 0 then
            O
              ( "remove",
                mk_apply "remove"
                  [ elem;
                    Value.List [ Value.String (Printf.sprintf "uid-%d" (abs n mod 20)) ] ] )
          else O ("add", mk_apply "add" [ elem ])
        | Schema.Gcounter -> O ("incr", mk_apply "incr" [ Value.Int ((abs n mod 5) + 1) ])
        | Schema.Pncounter ->
          if n mod 2 = 0 then O ("incr", mk_apply "incr" [ Value.Int ((abs n mod 5) + 1) ])
          else O ("decr", mk_apply "decr" [ Value.Int ((abs n mod 5) + 1) ])
        | Schema.Lww_register ->
          O
            ( "set",
              fun c inst ->
                let c =
                  Op_ctx.make ~origin:c.Op_ctx.origin
                    ~timestamp:(Int64.of_int (abs n mod 7))
                    ~uid:c.Op_ctx.uid
                in
                mk_apply "set" [ elem ] c inst )
        | Schema.Mv_register ->
          O
            ( "set",
              mk_apply "set"
                [ elem;
                  Value.List [ Value.String (Printf.sprintf "uid-%d" (abs n mod 20)) ] ] )
        | Schema.Rgraph ->
          if n mod 2 = 0 then O ("add_vertex", mk_apply "add_vertex" [ elem ])
          else
            O
              ( "add_edge",
                mk_apply "add_edge"
                  [ elem; Value.String (Printf.sprintf "e%d" (abs (n / 2) mod 8)) ] )
        | Schema.Rga ->
          if n mod 4 = 0 then
            O
              ( "delete",
                mk_apply "delete" [ Value.String (Printf.sprintf "uid-%d" (abs n mod 20)) ] )
          else begin
            (* Anchor on an earlier op's uid (or the head) so that most
               inserts eventually integrate, whatever the order. *)
            let anchor =
              if n mod 3 = 0 then "" else Printf.sprintf "uid-%d" (abs n mod max 1 i)
            in
            O ("insert", mk_apply "insert" [ Value.String anchor; elem ])
          end
      in
      (i, op))
    ints

let kinds =
  [
    ("gset", Schema.Gset); ("2pset", Schema.Two_pset); ("orset", Schema.Orset);
    ("gcounter", Schema.Gcounter); ("pncounter", Schema.Pncounter);
    ("lww", Schema.Lww_register); ("mv", Schema.Mv_register);
    ("rgraph", Schema.Rgraph); ("rga", Schema.Rga);
  ]

let spec_of kind =
  Schema.spec kind
    (match kind with
    | Schema.Gcounter | Schema.Pncounter -> Value.T_int
    | _ -> Value.T_string)

let convergence_tests =
  let open QCheck in
  List.map
    (fun (name, kind) ->
      Test.make ~long_factor:100
        ~name:(Printf.sprintf "%s: shuffled op orders converge" name)
        ~count:60
        (pair (list_of_size Gen.(1 -- 25) int) int64)
        (fun (ints, seed) ->
          let spec = spec_of kind in
          let ops = ops_of_ints kind ints in
          let a = apply_ops (Instance.create spec) ops in
          let b = apply_ops (Instance.create spec) (shuffle_with seed ops) in
          Instance.equal a b))
    kinds

let merge_law_tests =
  let open QCheck in
  List.concat_map
    (fun (name, kind) ->
      let spec = spec_of kind in
      (* Distinct salts: operation uids must be globally unique across the
         states being merged, as they are in the real system. *)
      let salt_counter = ref 0 in
      let state_of ints =
        incr salt_counter;
        apply_ops
          ~salt:(string_of_int !salt_counter)
          (Instance.create spec) (ops_of_ints kind ints)
      in
      [
        Test.make ~long_factor:100 ~name:(name ^ ": merge commutative") ~count:40
          (pair (list_of_size Gen.(0 -- 15) int) (list_of_size Gen.(0 -- 15) int))
          (fun (xs, ys) ->
            let a = state_of xs and b = state_of ys in
            Instance.equal (Instance.merge a b) (Instance.merge b a));
        Test.make ~long_factor:100 ~name:(name ^ ": merge idempotent") ~count:40
          (list_of_size Gen.(0 -- 15) int)
          (fun xs ->
            let a = state_of xs in
            Instance.equal (Instance.merge a a) a);
        Test.make ~long_factor:100 ~name:(name ^ ": merge associative") ~count:40
          (triple (list_of_size Gen.(0 -- 10) int)
             (list_of_size Gen.(0 -- 10) int)
             (list_of_size Gen.(0 -- 10) int))
          (fun (xs, ys, zs) ->
            let a = state_of xs and b = state_of ys and c = state_of zs in
            Instance.equal
              (Instance.merge a (Instance.merge b c))
              (Instance.merge (Instance.merge a b) c));
        Test.make ~long_factor:100 ~name:(name ^ ": merge with empty is identity") ~count:40
          (list_of_size Gen.(0 -- 15) int)
          (fun xs ->
            let a = state_of xs in
            Instance.equal (Instance.merge a (Instance.create spec)) a);
      ])
    kinds

let value_prop_tests =
  let open QCheck in
  let value_gen =
    let open Gen in
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  return Value.Unit;
                  map (fun b -> Value.Bool b) bool;
                  map (fun i -> Value.Int i) int;
                  map (fun s -> Value.String s) (string_size (0 -- 12));
                  map (fun s -> Value.Bytes s) (string_size (0 -- 12));
                ]
            else
              oneof
                [
                  map (fun l -> Value.List l) (list_size (0 -- 4) (self (n / 2)));
                  map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2));
                  map (fun i -> Value.Int i) int;
                ])
          (min n 6))
  in
  [
    Test.make ~long_factor:100 ~name:"value encode/decode roundtrip" ~count:200
      (make ~print:(Fmt.str "%a" Value.pp) value_gen)
      (fun v ->
        match Value.of_string (Value.to_string v) with
        | Some v' -> Value.equal v v'
        | None -> false);
    Test.make ~long_factor:100 ~name:"value compare is consistent" ~count:100
      (triple (make value_gen) (make value_gen) (make value_gen))
      (fun (a, b, c) ->
        let sgn x = compare x 0 in
        sgn (Value.compare a b) = -sgn (Value.compare b a)
        && ((not (Value.compare a b <= 0 && Value.compare b c <= 0))
           || Value.compare a c <= 0));
  ]

let () =
  Alcotest.run "crdt"
    [
      ( "value",
        [
          Alcotest.test_case "typecheck" `Quick value_typecheck;
          Alcotest.test_case "roundtrip" `Quick value_roundtrip;
          Alcotest.test_case "decode errors" `Quick value_decode_errors;
          Alcotest.test_case "ty roundtrip" `Quick ty_roundtrip;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "gset" `Quick gset_semantics;
          Alcotest.test_case "2pset" `Quick two_pset_semantics;
          Alcotest.test_case "orset" `Quick orset_semantics;
          Alcotest.test_case "counters" `Quick counters_semantics;
          Alcotest.test_case "lww" `Quick lww_semantics;
          Alcotest.test_case "mv" `Quick mv_semantics;
          Alcotest.test_case "rgraph" `Quick rgraph_semantics;
          Alcotest.test_case "rga" `Quick rga_semantics;
        ] );
      ( "schema",
        [
          Alcotest.test_case "signatures" `Quick schema_signatures;
          Alcotest.test_case "permissions" `Quick schema_permissions;
          Alcotest.test_case "roundtrip" `Quick schema_roundtrip;
        ] );
      ( "instance",
        [
          Alcotest.test_case "apply and query" `Quick instance_apply_and_query;
          Alcotest.test_case "prepare enriches" `Quick instance_prepare_enriches;
          Alcotest.test_case "merge incompatible" `Quick instance_merge_incompatible;
        ] );
      ( "store",
        [
          Alcotest.test_case "create and apply" `Quick store_create_and_apply;
          Alcotest.test_case "idempotent/conflict" `Quick
            store_create_idempotent_and_conflict;
          Alcotest.test_case "permissions" `Quick store_permissions;
        ] );
      ( "convergence",
        List.map QCheck_alcotest.to_alcotest convergence_tests );
      ("merge-laws", List.map QCheck_alcotest.to_alcotest merge_law_tests);
      ("value-props", List.map QCheck_alcotest.to_alcotest value_prop_tests);
    ]
