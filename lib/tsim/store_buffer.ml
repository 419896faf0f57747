type entry = {
  addr : int;
  value : int;
  enqueued_at : int;
  ready_at : int;
  mutable rfo_until : int;
      (* 0 = no upgrade issued; otherwise the tick at which the
         read-for-ownership of the target line completes *)
}

(* Ring buffer of power-of-two capacity. Every entry carries an absolute
   sequence number: the oldest is [first], the newest [first + len - 1],
   and sequence [s] lives in slot [s land (capacity - 1)]. Under
   TBTSO[Δ] at paper scale a buffer holds thousands of entries, so
   store-to-load forwarding goes through an open-addressing index
   ([keys]/[seqs]) from address to the sequence number of the newest
   entry for that address. Sequence numbers survive [grow] and
   wrap-around, so neither touches the index. Addresses are
   non-negative; [no_key] marks a free index slot. *)
type t = {
  mutable slots : entry array;
  mutable first : int;  (* sequence number of the oldest entry *)
  mutable len : int;
  mutable keys : int array;  (* address, or [no_key] *)
  mutable seqs : int array;  (* newest sequence number of [keys.(i)] *)
  mutable used : int;  (* occupied index slots *)
}

(* Doubles as the empty-result sentinel of the allocation-free
   accessors: addresses are non-negative, so no real entry aliases it. *)
let sentinel =
  { addr = -1; value = 0; enqueued_at = 0; ready_at = 0; rfo_until = 0 }

let dummy = sentinel

let no_key = -1

let initial = 8

let create () =
  {
    slots = Array.make initial dummy;
    first = 0;
    len = 0;
    keys = Array.make initial no_key;
    seqs = Array.make initial 0;
    used = 0;
  }

let is_empty t = t.len = 0

let length t = t.len

(* --- Address index: linear probing, backward-shift deletion. --- *)

(* Addresses are often line-aligned, so fold the product's high bits
   into the low bits that pick the slot. *)
let home keys addr =
  let h = addr * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land (Array.length keys - 1)

(* Slot holding [addr], or the empty slot where it would go. *)
let probe keys addr =
  let mask = Array.length keys - 1 in
  let i = ref (home keys addr) in
  while
    let k = Array.unsafe_get keys !i in
    k <> addr && k <> no_key
  do
    i := (!i + 1) land mask
  done;
  !i

let rehash t cap =
  let keys = t.keys and seqs = t.seqs in
  t.keys <- Array.make cap no_key;
  t.seqs <- Array.make cap 0;
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> no_key then begin
      let j = probe t.keys k in
      t.keys.(j) <- k;
      t.seqs.(j) <- seqs.(i)
    end
  done

let index_set t addr seq =
  let i = probe t.keys addr in
  if t.keys.(i) = no_key then begin
    t.keys.(i) <- addr;
    t.used <- t.used + 1
  end;
  t.seqs.(i) <- seq;
  (* Keep the load factor at most 1/2 so probe runs stay short. *)
  if 2 * t.used > Array.length t.keys then rehash t (2 * Array.length t.keys)

let index_remove t i =
  let keys = t.keys and seqs = t.seqs in
  let mask = Array.length keys - 1 in
  keys.(i) <- no_key;
  t.used <- t.used - 1;
  (* Shift later members of the probe run back over the hole. *)
  let hole = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) <> no_key do
    let h = home keys keys.(!j) in
    (* Move [j] into the hole unless its home lies cyclically in
       (hole, j]. *)
    if (!j - h) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- keys.(!j);
      seqs.(!hole) <- seqs.(!j);
      keys.(!j) <- no_key;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

(* --- Ring --- *)

let grow t =
  let old = t.slots in
  let omask = Array.length old - 1 in
  let slots = Array.make (2 * Array.length old) dummy in
  let mask = Array.length slots - 1 in
  for s = t.first to t.first + t.len - 1 do
    slots.(s land mask) <- old.(s land omask)
  done;
  t.slots <- slots

let enqueue t e =
  if t.len = Array.length t.slots then grow t;
  let s = t.first + t.len in
  t.slots.(s land (Array.length t.slots - 1)) <- e;
  t.len <- t.len + 1;
  index_set t e.addr s

let oldest t =
  if t.len = 0 then sentinel
  else t.slots.(t.first land (Array.length t.slots - 1))

let peek_oldest t = if t.len = 0 then None else Some (oldest t)

let dequeue_oldest t =
  if t.len = 0 then invalid_arg "Store_buffer.dequeue_oldest: empty";
  let slot = t.first land (Array.length t.slots - 1) in
  let e = t.slots.(slot) in
  t.slots.(slot) <- dummy;
  (* A newer store to the same address keeps its index entry. *)
  let i = probe t.keys e.addr in
  if t.seqs.(i) = t.first then index_remove t i;
  t.first <- t.first + 1;
  t.len <- t.len - 1;
  e

let newest_for t addr =
  if t.len = 0 then sentinel
  else
    let i = probe t.keys addr in
    if t.keys.(i) = no_key then sentinel
    else t.slots.(t.seqs.(i) land (Array.length t.slots - 1))

let newest_value t addr =
  let e = newest_for t addr in
  if e == sentinel then None else Some e.value

let oldest_enqueue_time t =
  if t.len = 0 then None else Some (oldest t).enqueued_at

let iter_oldest_first t f =
  let mask = Array.length t.slots - 1 in
  for s = t.first to t.first + t.len - 1 do
    f t.slots.(s land mask)
  done

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) dummy;
  Array.fill t.keys 0 (Array.length t.keys) no_key;
  t.first <- 0;
  t.len <- 0;
  t.used <- 0
