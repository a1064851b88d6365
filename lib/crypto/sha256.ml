(* SHA-256 over native ints masked to 32 bits. Requires a 64-bit platform. *)

let digest_size = 32
let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* The initial state, as literal stores: the kernel writes it into a
   caller-owned array, so no top-level array is ever copied or shared. *)
let reset h =
  h.(0) <- 0x6a09e667;
  h.(1) <- 0xbb67ae85;
  h.(2) <- 0x3c6ef372;
  h.(3) <- 0xa54ff53a;
  h.(4) <- 0x510e527f;
  h.(5) <- 0x9b05688c;
  h.(6) <- 0x1f83d9ab;
  h.(7) <- 0x5be0cd19

(* Rotations work on [x lor (x lsl 32)]: the word doubled up, so one
   right shift of it is a 32-bit rotation in the low 32 bits (bit 63,
   which an OCaml int lacks, is never needed for rotations up to 31).
   The Σ/σ results keep garbage above bit 31. Int arithmetic is exact
   modulo 2^63, so the low 32 bits of any sum are still right: each new
   state and schedule word is masked once, where the sum is taken. *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)

(* [compress h w b off] absorbs the 64-byte block of [b] at [off] into
   the state [h] (8 words), using [w] (64 words) as schedule scratch.
   Bounds are checked once here; every access below is in range. *)
let compress h w b off =
  if off < 0 || off > Bytes.length b - 64 || Array.length h < 8
     || Array.length w < 64
  then invalid_arg "Sha256.compress";
  for i = 0 to 15 do
    let j = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get b j) lsl 24)
      lor (Char.code (Bytes.unsafe_get b (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get b (j + 3)))
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
       + small_sigma0 (Array.unsafe_get w (i - 15))
       + Array.unsafe_get w (i - 7)
       + small_sigma1 (Array.unsafe_get w (i - 2)))
      land mask32)
  done;
  let a = ref (Array.unsafe_get h 0)
  and b = ref (Array.unsafe_get h 1)
  and c = ref (Array.unsafe_get h 2)
  and d = ref (Array.unsafe_get h 3)
  and e = ref (Array.unsafe_get h 4)
  and f = ref (Array.unsafe_get h 5)
  and g = ref (Array.unsafe_get h 6)
  and hh = ref (Array.unsafe_get h 7) in
  (* Eight rounds per pass with the variable roles rotated by one each
     round, so a round writes two variables (the new e into the old d,
     the new a into the old h) instead of shifting all eight. *)
  let i = ref 0 in
  while !i < 64 do
    let r = !i in
    let t = !hh + big_sigma1 !e + (!g lxor (!e land (!f lxor !g)))
            + Array.unsafe_get k r + Array.unsafe_get w r in
    d := (!d + t) land mask32;
    hh := (t + big_sigma0 !a + (!a land !b lor (!c land (!a lor !b)))) land mask32;
    let t = !g + big_sigma1 !d + (!f lxor (!d land (!e lxor !f)))
            + Array.unsafe_get k (r + 1) + Array.unsafe_get w (r + 1) in
    c := (!c + t) land mask32;
    g := (t + big_sigma0 !hh + (!hh land !a lor (!b land (!hh lor !a)))) land mask32;
    let t = !f + big_sigma1 !c + (!e lxor (!c land (!d lxor !e)))
            + Array.unsafe_get k (r + 2) + Array.unsafe_get w (r + 2) in
    b := (!b + t) land mask32;
    f := (t + big_sigma0 !g + (!g land !hh lor (!a land (!g lor !hh)))) land mask32;
    let t = !e + big_sigma1 !b + (!d lxor (!b land (!c lxor !d)))
            + Array.unsafe_get k (r + 3) + Array.unsafe_get w (r + 3) in
    a := (!a + t) land mask32;
    e := (t + big_sigma0 !f + (!f land !g lor (!hh land (!f lor !g)))) land mask32;
    let t = !d + big_sigma1 !a + (!c lxor (!a land (!b lxor !c)))
            + Array.unsafe_get k (r + 4) + Array.unsafe_get w (r + 4) in
    hh := (!hh + t) land mask32;
    d := (t + big_sigma0 !e + (!e land !f lor (!g land (!e lor !f)))) land mask32;
    let t = !c + big_sigma1 !hh + (!b lxor (!hh land (!a lxor !b)))
            + Array.unsafe_get k (r + 5) + Array.unsafe_get w (r + 5) in
    g := (!g + t) land mask32;
    c := (t + big_sigma0 !d + (!d land !e lor (!f land (!d lor !e)))) land mask32;
    let t = !b + big_sigma1 !g + (!a lxor (!g land (!hh lxor !a)))
            + Array.unsafe_get k (r + 6) + Array.unsafe_get w (r + 6) in
    f := (!f + t) land mask32;
    b := (t + big_sigma0 !c + (!c land !d lor (!e land (!c lor !d)))) land mask32;
    let t = !a + big_sigma1 !f + (!hh lxor (!f land (!g lxor !hh)))
            + Array.unsafe_get k (r + 7) + Array.unsafe_get w (r + 7) in
    e := (!e + t) land mask32;
    a := (t + big_sigma0 !b + (!b land !c lor (!d land (!b lor !c)))) land mask32;
    i := r + 8
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask32);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask32);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask32);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask32)

(* Writes the 8 state words big-endian into [b] at [off]. *)
let store h b off =
  for i = 0 to 7 do
    Bytes.set_int32_be b (off + (4 * i)) (Int32.of_int h.(i))
  done

(* Writes the 64-bit big-endian bit length of an [n]-byte message. *)
let put_length b off n = Bytes.set_int64_be b off (Int64.of_int (n * 8))

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes absorbed so far *)
  w : int array; (* message schedule scratch *)
}

let init () =
  let h = Array.make 8 0 in
  reset h;
  { h; buf = Bytes.create 64; buf_len = 0; total = 0; w = Array.make 64 0 }

let feed_bytes ctx b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let off = ref off and len = ref len in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (64 - ctx.buf_len) in
    Bytes.blit b !off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    off := !off + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.w ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= 64 do
    compress ctx.h ctx.w b !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit b !off ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding (0x80, zeros, 64-bit big-endian bit length) is written into
   the context's own block buffer: one extra compression when the
   length no longer fits behind the buffered tail. *)
let finalize ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  Bytes.fill buf (n + 1) (63 - n) '\x00';
  if n >= 56 then begin
    compress ctx.h ctx.w buf 0;
    Bytes.fill buf 0 56 '\x00'
  end;
  put_length buf 56 ctx.total;
  compress ctx.h ctx.w buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  store ctx.h out 0;
  Bytes.unsafe_to_string out

(* Digesting allocates a fresh ctx per call and shares nothing, so the
   multicore block-validation fan-out (ROADMAP item 5) may call these
   from any domain. The annotations are checked: vegvisir-lint's
   parallel-safety rule walks the call graph and fails the build if a
   path to top-level mutable state ever appears. *)

(* lint: parallel-safe *)
let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

(* lint: parallel-safe *)
let digest_list parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

(* The padded message [tag ^ v] is laid out once; each step resets the
   state, compresses the message's blocks and writes the digest back
   over [v] in place. A tag of up to 23 bytes makes a one-block message,
   so a step is exactly one compression. *)

(* lint: parallel-safe *)
let iterate ~tag v n =
  if String.length v <> 32 || n < 0 then invalid_arg "Sha256.iterate";
  let tl = String.length tag in
  let len = tl + 32 in
  let blocks = (len + 9 + 63) / 64 in
  let msg = Bytes.make (64 * blocks) '\x00' in
  Bytes.blit_string tag 0 msg 0 tl;
  Bytes.blit_string v 0 msg tl 32;
  Bytes.set msg len '\x80';
  put_length msg ((64 * blocks) - 8) len;
  let h = Array.make 8 0 and w = Array.make 64 0 in
  for _ = 1 to n do
    reset h;
    for blk = 0 to blocks - 1 do
      compress h w msg (64 * blk)
    done;
    store h msg tl
  done;
  Bytes.sub_string msg tl 32

(* lint: parallel-safe *)
let hmac ~key msg =
  let key = if String.length key > 64 then digest key else key in
  let pad_key c =
    let b = Bytes.make 64 c in
    String.iteri
      (fun i k -> Bytes.set b i (Char.chr (Char.code k lxor Char.code c)))
      key;
    Bytes.unsafe_to_string b
  in
  let ipad = pad_key '\x36' and opad = pad_key '\x5c' in
  digest_list [ opad; digest_list [ ipad; msg ] ]
