(** Merkle signature scheme: many-time signatures from W-OTS one-time keys.

    A key pair holds [2^height] W-OTS leaf key pairs derived from a
    master seed (the secret halves are re-derived on demand); the public
    key is the Merkle root over the leaf public keys. Each signature
    consumes one leaf and carries the leaf index, the W-OTS signature,
    the leaf public key, and its Merkle authentication path.
    Verification needs only the 32-byte root.

    Signing is stateful: a key signs at most [2^height] messages and each
    leaf is used once. {!sign} raises {!Exhausted} when no leaves remain.

    {b Leaf-key cache.} A secret key keeps every leaf's W-OTS public key
    from key generation: 32 bytes of key data per leaf (about 48 bytes
    with the string header and array slot), so 4 KB of keys at
    [height = 7], 16 KB at [9], 32 MB at the maximum [20]. Signing then
    re-derives only the leaf's secret chain starts ({!Wots.derive_secret})
    instead of recomputing its public key: that is [67 * 15] chain
    steps, about 1,000 of the 1,570 compressions a signature would
    otherwise cost.

    {b Index binding.} A signature's leaf index is bound to its
    authentication path: {!verify} requires [index < 2^|path|] and, at
    level [l], a left-hand sibling exactly when bit [l] of [index] is
    set. So the index bytes cannot be rewritten: a relayed block cannot
    be re-encoded into a second valid block with another hash. *)

exception Exhausted

type secret_key
type public_key = string (** 32-byte Merkle root. *)

type signature

val generate :
  ?chunk_bits:int -> height:int -> seed:string -> unit -> secret_key * public_key
(** [generate ~height ~seed ()] derives a key pair with [2^height] leaf
    keys from a (secret) seed. [height] must be in [0..20].
    Key generation performs [2^height] W-OTS key derivations, so keep
    [height] modest in tests. The key holds all [2^height] leaf public
    keys (see the leaf-key cache above). *)

val sign : secret_key -> string -> signature
(** Consumes the next unused leaf. @raise Exhausted when none remain. *)

val verify : ?chunk_bits:int -> public_key -> string -> signature -> bool
(** [verify pk msg s] checks the index binding, the W-OTS signature under
    the leaf key, and the leaf's path to [pk]. *)

val remaining : secret_key -> int
(** Leaves not yet consumed. *)

val used : secret_key -> int
(** Leaves consumed so far. *)

val advance : secret_key -> int -> unit
(** [advance sk n] marks the first [n] leaves as consumed — restoring a
    persisted key's position after re-deriving it from its seed. [n] may
    not be smaller than the already-consumed count (one-time keys must
    never be reused). @raise Invalid_argument on rewind or overflow. *)

val capacity : secret_key -> int
(** Total leaves, [2^height]. *)

val public_of_secret : secret_key -> public_key

val signature_to_string : signature -> string
val signature_of_string : ?chunk_bits:int -> string -> signature option
val signature_index : signature -> int
(** The leaf index a signature consumed — what a leaf-reuse audit
    compares across signatures. *)

val signature_size : ?chunk_bits:int -> height:int -> unit -> int
(** Serialized size of a signature for a key of the given height (paths to
    a full tree have exactly [height] siblings). *)
