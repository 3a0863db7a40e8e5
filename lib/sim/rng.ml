(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* splitmix64 step (Steele, Lea, Flood 2014). Inlined into the draws
   below, which keep the int64 unboxed. Nothing in another module can
   inline it: every module is compiled [-opaque] under dune's dev profile. *)
let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next_raw t

let split t = create (next_raw t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_raw t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int n))

(* 53 significant bits, as in the standard library. Inlined into the
   callers below; a caller in another module gets its result as a boxed
   float (see [next_raw]), and a per-recipient caller uses [unit_into]. *)
let[@inline] float t x =
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let unit_into t a i = a.(i) <- float t 1.0

let bool t = Int64.logand (next_raw t) 1L = 1L

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -. mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
