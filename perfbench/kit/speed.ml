(* A host-speed probe: a fixed CPU kernel owned by the benchmark, so no
   change to the program under test can change its cost. Its wall time
   rises and falls with the speed the host currently gives this VM, which
   on a shared machine drifts by tens of percent over minutes. Dividing a
   CPU-bound figure by the probe's median over the same run cancels most
   of that drift. *)

let scratch = Array.make 8192 0

(* ~1 ms of mixed integer, memory and allocation work on the reference
   host. *)
let kernel () =
  let x = ref 0x12345 in
  for i = 0 to 200_000 do
    x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    let j = (!x lsr 17) land 8191 in
    scratch.(j) <- scratch.(j) + i;
    if i land 15 = 0 then ignore (Sys.opaque_identity (String.make 64 'x'))
  done

let probe_ms () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  (Unix.gettimeofday () -. t0) *. 1000.

(* The probe's median on the host this benchmark was sized on (a 2-vCPU
   VM): a normalized figure reads as if measured at that speed. *)
let reference_ms = 1.0
