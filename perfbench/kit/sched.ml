(* The seeded open-loop schedule: Poisson arrivals at a fixed total rate,
   each arrival's creator drawn uniformly over the fleet. The generator
   is a self-contained SplitMix64, so a schedule depends on the seed
   alone — not on the OCaml runtime's Random implementation. *)

type arrival = {
  idx : int;  (** position in the schedule, from 0 *)
  at_ms : float;  (** due time, relative to the first arrival *)
  creator : int;  (** daemon index that appends the block *)
  payload : string;  (** the G-Set element the block adds *)
}

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1): the top 53 bits. *)
let uniform r =
  Int64.to_float (Int64.shift_right_logical (next64 r) 11) /. 9007199254740992.

let below r n = int_of_float (uniform r *. float_of_int n)

(* [count] arrivals: the first is due at 0, the gaps are exponential with
   mean [1000 / rate] ms. The count is fixed rather than the duration, so
   every run of a workload offers the same number of blocks (and latency
   samples) while its duration varies by about 1/sqrt(count).

   Creators are stratified: each run of [creators] consecutive arrivals
   is a fresh random permutation of the members. Every block's creator is
   still uniform over the members, but each member's share is exact and
   no member sits idle for long — the per-member load, the key sizes and
   the witness delays vary much less from seed to seed than with
   independent draws. *)
let make ~seed ~rate ~count ~creators =
  let r = rng seed in
  let at = ref 0. in
  let perm = Array.init creators Fun.id in
  Array.init count (fun idx ->
      if idx > 0 then at := !at -. (1000. /. rate *. log (1. -. uniform r));
      if idx mod creators = 0 then
        for i = creators - 1 downto 1 do
          let j = below r (i + 1) in
          let x = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- x
        done;
      let creator = perm.(idx mod creators) in
      let payload = Printf.sprintf "s%d-b%d-%016Lx" seed idx (next64 r) in
      { idx; at_ms = !at; creator; payload })

let per_creator sched ~creators =
  let n = Array.make creators 0 in
  Array.iter (fun a -> n.(a.creator) <- n.(a.creator) + 1) sched;
  n

let duration_ms sched =
  if Array.length sched = 0 then 0. else sched.(Array.length sched - 1).at_ms

(* Canonical bytes of a schedule: what "byte-identical" compares. *)
let to_string sched =
  let b = Buffer.create (Array.length sched * 48) in
  Array.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "%d %h %d %s\n" a.idx a.at_ms a.creator a.payload))
    sched;
  Buffer.contents b
