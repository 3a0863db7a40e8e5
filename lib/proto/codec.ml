(* Writer: an amortized-O(1) byte sink over a growable [Bytes.t] with direct
   big-endian stores — no per-char closures, no intermediate [Buffer]
   chunks. The emitted byte sequence is identical to the historical
   [Buffer]-based writer (the golden-bytes tests in test_proto pin it). *)
module Writer = struct
  (* Where the bytes go. A sizing writer runs the same stores as the
     growable one, but only to learn the length: fixed-width fields land
     in a shared scratch buffer that wraps when full (nobody reads it
     back, so concurrent sizing writers may share it), and string
     payloads are counted without being touched — O(fields), not
     O(bytes). *)
  type sink = Growable | Sizing

  (* [counted]: bytes a sizing writer accounted for without keeping them *)
  type t = { mutable buf : Bytes.t; mutable len : int; mutable counted : int; sink : sink }

  let create ?(initial_capacity = 256) () =
    { buf = Bytes.create (max 16 initial_capacity); len = 0; counted = 0; sink = Growable }

  let scratch = Bytes.create 1024

  let create_sizing () = { buf = scratch; len = 0; counted = 0; sink = Sizing }

  let ensure t extra =
    let needed = t.len + extra in
    let cap = Bytes.length t.buf in
    if needed > cap then
      match t.sink with
      | Sizing ->
          (* every store is at most 8 bytes: wrapping the scratch is enough *)
          t.counted <- t.counted + t.len;
          t.len <- 0
      | Growable ->
          let cap' = ref (max 16 (cap * 2)) in
          while needed > !cap' do
            cap' := !cap' * 2
          done;
          let buf' = Bytes.create !cap' in
          Bytes.blit t.buf 0 buf' 0 t.len;
          t.buf <- buf'

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.Writer.u8: out of range";
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
    t.len <- t.len + 1

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Codec.Writer.u16: out of range";
    ensure t 2;
    Bytes.set_uint16_be t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.Writer.u32: out of range";
    ensure t 4;
    Bytes.set_uint16_be t.buf t.len (v lsr 16);
    Bytes.set_uint16_be t.buf (t.len + 2) (v land 0xFFFF);
    t.len <- t.len + 4

  let i64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.len v;
    t.len <- t.len + 8

  (* The conversions sit next to the store, so the int64 is never boxed. *)
  let int_as_i64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.len (Int64.of_int v);
    t.len <- t.len + 8

  let f64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.len (Int64.bits_of_float v);
    t.len <- t.len + 8

  let bool t v = u8 t (if v then 1 else 0)

  (* Append pre-serialized bytes verbatim — no length prefix. A sizing
     writer only counts them. *)
  let raw t s =
    let n = String.length s in
    match t.sink with
    | Sizing -> t.counted <- t.counted + n
    | Growable ->
        ensure t n;
        Bytes.blit_string s 0 t.buf t.len n;
        t.len <- t.len + n

  let string t s =
    u32 t (String.length s);
    raw t s

  (* A top-level loop rather than [List.iter (enc t)]: no partial
     application is allocated per list. *)
  let rec iter_enc t enc = function
    | [] -> ()
    | x :: rest ->
        enc t x;
        iter_enc t enc rest

  let list t enc xs =
    u32 t (List.length xs);
    iter_enc t enc xs

  let option t enc = function
    | None -> u8 t 0
    | Some v ->
        u8 t 1;
        enc t v

  let size t = t.counted + t.len

  let contents t =
    match t.sink with
    | Growable -> Bytes.sub_string t.buf 0 t.len
    | Sizing -> invalid_arg "Codec.Writer.contents: sizing writer"
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Truncated

  exception Malformed of string

  let of_string data = { data; pos = 0 }

  let need t n = if t.pos + n > String.length t.data then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (String.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = String.get_uint16_be t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let hi = String.get_uint16_be t.data t.pos in
    let lo = String.get_uint16_be t.data (t.pos + 2) in
    t.pos <- t.pos + 4;
    (hi lsl 16) lor lo

  let i64 t =
    need t 8;
    let v = String.get_int64_be t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let int_as_i64 t = Int64.to_int (i64 t)

  let f64 t = Int64.float_of_bits (i64 t)

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Malformed (Printf.sprintf "bool tag %d" n))

  let string t =
    let len = u32 t in
    need t len;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let list t dec =
    let n = u32 t in
    let rec go acc k = if k = 0 then List.rev acc else go (dec t :: acc) (k - 1) in
    go [] n

  let option t dec =
    match u8 t with
    | 0 -> None
    | 1 -> Some (dec t)
    | n -> raise (Malformed (Printf.sprintf "option tag %d" n))

  let remaining t = String.length t.data - t.pos

  let at_end t = remaining t = 0
end

let encoded_size enc v =
  let w = Writer.create_sizing () in
  enc w v;
  Writer.size w

let roundtrip enc dec v =
  let w = Writer.create () in
  enc w v;
  dec (Reader.of_string (Writer.contents w))
