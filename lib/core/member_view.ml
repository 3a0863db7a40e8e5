module T = Proto.Types

type t = {
  mutable slots : T.member array; (* join order in [0, len) *)
  mutable len : int;
  mutable log : T.membership_change array; (* changes not yet in [slots] *)
  mutable log_len : int;
  mutable index : int array; (* fold scratch: slot numbers by member id *)
  mutable gone : Bytes.t; (* fold scratch: '\001' at a slot that left *)
}

let no_member = { T.member = ""; role = T.Observer }

let no_change = T.Member_left ""

let of_list members =
  let slots = Array.of_list members in
  { slots; len = Array.length slots; log = [||]; log_len = 0; index = [||]; gone = Bytes.empty }

(* The index entry for [id]: the one whose slot holds [id], or the empty
   one (-1) where it belongs. Linear probing; [fold] keeps the table at
   most half full. *)
let rec probe_from t id h =
  let s = t.index.(h) in
  if s < 0 || String.equal t.slots.(s).T.member id then h
  else probe_from t id ((h + 1) land (Array.length t.index - 1))

let probe t id = probe_from t id (String.hash id land (Array.length t.index - 1))

(* Size the scratch tables for [need] slots and clear them. They are kept
   from fold to fold, so a fold allocates only when the view has grown. *)
let prepare t need =
  if need > Array.length t.slots then begin
    let a = Array.make (max need (2 * Array.length t.slots)) no_member in
    Array.blit t.slots 0 a 0 t.len;
    t.slots <- a
  end;
  let size = ref 16 in
  while !size < 2 * need do
    size := 2 * !size
  done;
  if Array.length t.index < !size then t.index <- Array.make !size (-1)
  else Array.fill t.index 0 (Array.length t.index) (-1);
  if Bytes.length t.gone < need then t.gone <- Bytes.make (Array.length t.slots) '\000'
  else Bytes.fill t.gone 0 (Bytes.length t.gone) '\000'

(* One pass over the log: a join of a present member replaces it in its
   slot, a new or returning one is appended, a departure marks its slot;
   then the survivors slide to the front in order. *)
let fold t =
  if t.log_len > 0 then begin
    prepare t (t.len + t.log_len);
    for i = 0 to t.len - 1 do
      t.index.(probe t t.slots.(i).T.member) <- i
    done;
    for j = 0 to t.log_len - 1 do
      (match t.log.(j) with
      | T.Member_joined m ->
          let h = probe t m.member in
          let s = t.index.(h) in
          if s >= 0 && Bytes.get t.gone s = '\000' then t.slots.(s) <- m
          else begin
            t.slots.(t.len) <- m;
            t.index.(h) <- t.len;
            t.len <- t.len + 1
          end
      | T.Member_left id | T.Member_crashed id ->
          let s = t.index.(probe t id) in
          if s >= 0 then Bytes.set t.gone s '\001');
      t.log.(j) <- no_change
    done;
    t.log_len <- 0;
    let live = ref 0 in
    for i = 0 to t.len - 1 do
      if Bytes.get t.gone i = '\000' then begin
        t.slots.(!live) <- t.slots.(i);
        incr live
      end
    done;
    Array.fill t.slots !live (t.len - !live) no_member;
    t.len <- !live
  end

let note t change =
  if t.log_len = Array.length t.log then begin
    let a = Array.make (max 8 (2 * t.log_len)) no_change in
    Array.blit t.log 0 a 0 t.log_len;
    t.log <- a
  end;
  t.log.(t.log_len) <- change;
  t.log_len <- t.log_len + 1;
  if t.log_len > t.len then fold t

let to_list t =
  fold t;
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.slots.(i) :: !acc
  done;
  !acc
