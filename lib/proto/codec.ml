(* Writer: an amortized-O(1) byte sink over a growable [Bytes.t] with direct
   big-endian stores — no per-char closures, no intermediate [Buffer]
   chunks. The emitted byte sequence is identical to the historical
   [Buffer]-based writer (the golden-bytes tests in test_proto pin it). *)
module Writer = struct
  (* A pooled writer leases chunks from a {!Pool} and emits a
     scatter-gather {!Frame} instead of one contiguous buffer: on
     overflow it closes the current chunk as a segment and opens a fresh
     one (no copy, unlike the classic doubling), and large cached
     fragments are spliced as borrowed segments instead of blitted. The
     concatenated segment bytes are identical to the classic writer's
     output (golden-pinned). *)
  type pooled = {
    pk_pool : Pool.t;
    mutable pk_lease : Pool.lease; (* lease backing the current chunk *)
    mutable pk_start : int; (* start of the open segment within [buf] *)
    mutable pk_owned_pushed : bool; (* [pk_lease] already owned by a segment *)
    mutable pk_segs : Frame.seg list; (* closed segments, reversed *)
    mutable pk_closed : int; (* bytes in closed segments *)
    mutable pk_finished : bool;
  }

  (* Where the bytes go. A sizing writer runs the same stores as the
     others, but only to learn the length: fixed-width fields land in a
     shared scratch buffer that wraps when full (nobody reads it back, so
     concurrent sizing writers may share it), and string payloads are
     counted without being touched — O(fields), not O(bytes). *)
  type sink = Growable | Sizing | Pooled of pooled

  (* [counted]: bytes a sizing writer accounted for without keeping them *)
  type t = { mutable buf : Bytes.t; mutable len : int; mutable counted : int; sink : sink }

  let create ?(initial_capacity = 256) () =
    { buf = Bytes.create (max 16 initial_capacity); len = 0; counted = 0; sink = Growable }

  let scratch = Bytes.create 1024

  let create_sizing () = { buf = scratch; len = 0; counted = 0; sink = Sizing }

  let create_pooled ~pool ?(size_hint = 256) () =
    let l = Pool.lease pool (max 16 size_hint) in
    {
      buf = Pool.bytes l;
      len = 0;
      counted = 0;
      sink =
        Pooled
          {
            pk_pool = pool;
            pk_lease = l;
            pk_start = 0;
            pk_owned_pushed = false;
            pk_segs = [];
            pk_closed = 0;
            pk_finished = false;
          };
    }

  (* Close the open segment of a pooled writer, transferring chunk
     ownership to the first segment that references it. No-op when the
     open segment is empty. *)
  let close_open_seg t pk =
    if t.len > pk.pk_start then begin
      let seg =
        {
          Frame.sg_bytes = t.buf;
          sg_off = pk.pk_start;
          sg_len = t.len - pk.pk_start;
          sg_lease = Some pk.pk_lease;
          sg_owned = not pk.pk_owned_pushed;
        }
      in
      pk.pk_segs <- seg :: pk.pk_segs;
      pk.pk_closed <- pk.pk_closed + seg.Frame.sg_len;
      pk.pk_owned_pushed <- true;
      pk.pk_start <- t.len
    end

  let grow_pooled t pk extra =
    if pk.pk_finished then
      invalid_arg "Codec.Writer: write after finish_frame";
    close_open_seg t pk;
    (* A chunk that never contributed a segment goes straight back. *)
    if not pk.pk_owned_pushed then Pool.release pk.pk_pool pk.pk_lease;
    let l = Pool.lease pk.pk_pool (max extra (2 * Bytes.length t.buf)) in
    pk.pk_lease <- l;
    pk.pk_owned_pushed <- false;
    t.buf <- Pool.bytes l;
    t.len <- 0;
    pk.pk_start <- 0

  let ensure t extra =
    let needed = t.len + extra in
    let cap = Bytes.length t.buf in
    if needed > cap then
      match t.sink with
      | Pooled pk -> grow_pooled t pk extra
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

  (* Fragments at least this long are spliced as borrowed segments by a
     pooled writer instead of copied; shorter ones aren't worth a segment
     record. *)
  let borrow_threshold = 64

  (* Append pre-serialized bytes verbatim — no length prefix. A pooled
     writer splices large fragments zero-copy (a borrowed segment over the
     string); a sizing writer only counts them. *)
  let raw t s =
    let n = String.length s in
    match t.sink with
    | Sizing -> t.counted <- t.counted + n
    | Pooled pk when n >= borrow_threshold ->
        close_open_seg t pk;
        pk.pk_segs <-
          {
            Frame.sg_bytes = Bytes.unsafe_of_string s;
            sg_off = 0;
            sg_len = n;
            sg_lease = None;
            sg_owned = false;
          }
          :: pk.pk_segs;
        pk.pk_closed <- pk.pk_closed + n
    | Pooled _ | Growable ->
        ensure t n;
        Bytes.blit_string s 0 t.buf t.len n;
        t.len <- t.len + n

  let string t s =
    u32 t (String.length s);
    raw t s

  (* Splice another frame's bytes as borrowed segments (pooled writers):
     the view shares the source's storage and keeps its leases only as
     validity witnesses — releasing the produced frame never releases the
     source's chunks. Classic writers fall back to a copy. *)
  let raw_frame t f =
    match t.sink with
    | Pooled pk ->
        close_open_seg t pk;
        let segs = Frame.segs f in
        Array.iter
          (fun (s : Frame.seg) ->
            pk.pk_segs <-
              { s with Frame.sg_owned = false } :: pk.pk_segs;
            pk.pk_closed <- pk.pk_closed + s.Frame.sg_len)
          segs
    | Sizing -> t.counted <- t.counted + Frame.total f
    | Growable -> raw t (Frame.to_string f)

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

  let size t =
    match t.sink with
    | Growable | Sizing -> t.counted + t.len
    | Pooled pk -> pk.pk_closed + (t.len - pk.pk_start)

  let contents t =
    match t.sink with
    | Growable -> Bytes.sub_string t.buf 0 t.len
    | Sizing -> invalid_arg "Codec.Writer.contents: sizing writer"
    | Pooled pk ->
        let total = pk.pk_closed + (t.len - pk.pk_start) in
        let out = Bytes.create total in
        let off = ref 0 in
        List.iter
          (fun (s : Frame.seg) ->
            Bytes.blit s.Frame.sg_bytes s.Frame.sg_off out !off s.Frame.sg_len;
            off := !off + s.Frame.sg_len)
          (List.rev pk.pk_segs);
        Bytes.blit t.buf pk.pk_start out !off (t.len - pk.pk_start);
        Bytes.unsafe_to_string out

  (* Finalize a pooled writer into its scatter-gather frame. The writer is
     spent afterwards: further writes raise. The caller owns the frame and
     must {!Frame.release} it (or hand it to an owner that will). *)
  let finish_frame t =
    match t.sink with
    | Growable | Sizing -> invalid_arg "Codec.Writer.finish_frame: not a pooled writer"
    | Pooled pk ->
        if pk.pk_finished then
          invalid_arg "Codec.Writer.finish_frame: already finished";
        close_open_seg t pk;
        if not pk.pk_owned_pushed then Pool.release pk.pk_pool pk.pk_lease;
        pk.pk_finished <- true;
        t.buf <- Bytes.empty;
        t.len <- 0;
        pk.pk_start <- 0;
        Frame.make (Array.of_list (List.rev pk.pk_segs))
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
