(** Pure-OCaml SHA-256 (FIPS 180-4) with an incremental API, plus HMAC.

    Digests are 32-byte raw strings; use {!Hex.encode} for display.
    The implementation uses native [int] arithmetic masked to 32 bits,
    which is correct on 64-bit platforms (OCaml's [int] is 63-bit).

    {b Kernel contract.} One compression function serves every entry
    point. It checks its bounds once on entry, runs eight unrolled rounds
    per pass, and allocates nothing: its state, block and 64-word
    schedule belong to the caller (a {!ctx}, or one {!iterate} call).
    No entry point touches top-level mutable state, so [digest],
    [digest_list], [iterate] and [hmac] may run on any domain at once;
    vegvisir-lint's [parallel-safety] rule checks this on every build. *)

type ctx
(** An in-progress hash computation. *)

val digest_size : int
(** Always 32. *)

val init : unit -> ctx
(** A fresh context. *)

val feed : ctx -> string -> unit
(** [feed ctx s] absorbs all of [s]. *)

val feed_bytes : ctx -> bytes -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs [len] bytes of [b] at [off]. *)

val finalize : ctx -> string
(** [finalize ctx] is the 32-byte digest. The context must not be used
    afterwards. *)

val digest : string -> string
(** One-shot hash of a string. *)

val digest_list : string list -> string
(** [digest_list parts] hashes the concatenation of [parts] without building
    the concatenation. *)

val iterate : tag:string -> string -> int -> string
(** [iterate ~tag v n] applies [v ↦ digest (tag ^ v)] [n] times to the
    32-byte [v] ([n = 0] returns [v]); the result equals the [n]-fold
    [digest_list [tag; v]]. This is a W-OTS hash chain.

    The padded message is laid out once and each step overwrites [v] in
    place, so a call allocates one message buffer, one state and one
    schedule, whatever [n] is. A [tag] of up to 23 bytes makes a
    one-block message: one compression per step.
    @raise Invalid_argument if [v] is not 32 bytes or [n < 0]. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (RFC 2104). *)
