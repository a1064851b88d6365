(* What the benchmark process and its daemons agree on: the workloads,
   the fleet constants, and the per-daemon result file. *)

open Vegvisir
module Event_loop = Vegvisir_cli.Event_loop

type workload = {
  name : string;
  history : int;  (** blocks of shared history built during setup *)
  partition : bool;  (** member 2 cut off, then healed *)
}

let workloads =
  [
    { name = "steady"; history = 0; partition = false };
    { name = "history"; history = 1000; partition = false };
    { name = "partition-heal"; history = 0; partition = true };
  ]

let rate = 10. (* offered blocks per second, fleet-wide *)
let anti_entropy_ms = 100.
let crdt = "log"

(* Under a partition, member 2 is cut off while the first 90% of the
   offered blocks are due, and the partition heals one anti-entropy
   period after the last of them. The load then pauses for
   [heal_pause_ms] and the remaining blocks follow on their own Poisson
   gaps: healing is bulk reconciliation of the whole gap, in both
   directions, without new blocks racing it, and the blocks after the
   pause witness the healed history. At 90%, most (block, replica) pairs
   wait for the heal, so the delivery median sits inside that mode rather
   than on the edge between it and the undisturbed pairs. *)
let heal_pause_ms = 5000.

let partitioned count = count * 9 / 10

let heal_at_ms wl (sched : Perfbench_kit.Sched.arrival array) =
  let n = Array.length sched in
  if wl.partition then sched.(partitioned n - 1).Perfbench_kit.Sched.at_ms +. anti_entropy_ms
  else sched.(n - 1).Perfbench_kit.Sched.at_ms

(* Due time of arrival [i], relative to the first due block. *)
let due_ms wl (sched : Perfbench_kit.Sched.arrival array) i =
  let at j = sched.(j).Perfbench_kit.Sched.at_ms in
  let k = partitioned (Array.length sched) in
  if wl.partition && i >= k then heal_at_ms wl sched +. heal_pause_ms +. (at i -. at k)
  else at i

let phases = [ "timer"; "accept"; "read"; "engine_step"; "write"; "sweep" ]
let result_file = "bench-result.bin"
let preheal_file = "preheal.dag"

type created = {
  c_idx : int;
  c_hash : Hash_id.t;
  c_due : float;  (** wall-clock ms *)
  c_fired : float;
  c_done : float;
}

(* One loop iteration of a traced daemon, with its stats delta. *)
type iter = {
  i_start : float;
  i_dur : float;
  i_cpu : float;
  i_delivered : int;
  i_served : int;
  i_sessions : int;
}

type span = { s_name : string; s_dur : float }

type result = {
  index : int;
  load_s : float;
  cpu_ms : float;  (** user + sys, first due block to end of drain *)
  wall_ms : float;
  rss_kb : int;
  gc_major : int;
  top_heap_words : int;
  stats : Event_loop.stats;
  pulled : Reconcile.stats list;
  hists : (string * float) list;  (** loop phase -> summed ms *)
  slow : int;
  saves : int list;  (** replica size at each save during the run *)
  remaining : int;  (** one-time leaves left on the key *)
  created : created list;
  failures : (int * string) list;
  delivered : (Hash_id.t * float) list;
  witnessed : (int * float) list;  (** schedule index -> witness ms *)
  final : Hash_id.t list;
  gate : (unit, string) Stdlib.result;
  iters : iter list;
  spans : span list;
}

(* The daemon and the benchmark process are the same executable, so the
   result travels as a marshalled value. *)
let write_result ~dir (r : result) =
  Out_channel.with_open_bin (Filename.concat dir result_file) (fun oc ->
      Marshal.to_channel oc r [])

let read_result ~dir : (result, string) Stdlib.result =
  match
    In_channel.with_open_bin (Filename.concat dir result_file) (fun ic ->
        (Marshal.from_channel ic : result))
  with
  | r -> Ok r
  | exception (Sys_error e | Failure e) -> Error e
  | exception End_of_file -> Error "truncated result file"
