exception Use_after_free of { addr : int; tid : int; at : int; write : bool }

exception Out_of_memory of { requested : int; available : int }

let line_shift = 3

(* The backing arrays cover only the first [Array.length data] words
   (and their lines); they grow geometrically, up to [words], when a
   global is allocated or a word beyond them is written. A word past
   the backing reads as untouched memory: value 0, line version 0, no
   owner, no reader, not poisoned. *)
type t = {
  words : int;
  mutable data : int array;
  mutable version : int array;  (* per line *)
  mutable owner : int array;  (* per line, last committed writer tid *)
  mutable reader : int array;  (* per line, last reader tid other than owner *)
  mutable poisoned : Bytes.t;  (* per word, 0 = live *)
  mutable bump : int;  (* global-arena allocation pointer *)
}

let line_of addr = addr lsr line_shift

let lines_of words = (words + (1 lsl line_shift) - 1) lsr line_shift

let backing words =
  let lines = lines_of words in
  ( Array.make words 0,
    Array.make lines 0,
    Array.make lines (-1),
    Array.make lines (-1),
    Bytes.make words '\000' )

let initial_words = 512

let create ~words =
  let data, version, owner, reader, poisoned = backing (min words initial_words) in
  {
    words;
    data;
    version;
    owner;
    reader;
    poisoned;
    (* Word 0 is reserved so that 0 can serve as a null pointer. *)
    bump = 1 lsl line_shift;
  }

let words t = t.words

let out_of_bounds () = invalid_arg "index out of bounds"

let align_line n =
  let mask = (1 lsl line_shift) - 1 in
  (n + mask) land lnot mask

let[@inline] backed t addr = addr >= 0 && addr < Array.length t.data

(* Make [addr] backed, or raise as an out-of-range array access would.
   The backing at least doubles, and past half of [words] it becomes all
   of [words]: every discarded backing is garbage the major GC must
   work through, and a second large copy slowed the read-only L=64
   hash-table cells by up to 22%. The backing ends on a line boundary
   (or at [words]), so a backed word always has its whole line backed:
   the accessors below index the line arrays unchecked once [backed]
   holds. *)
let ensure t addr =
  if addr < 0 || addr >= t.words then out_of_bounds ();
  let cap = Array.length t.data in
  let want = align_line (max (addr + 1) (2 * cap)) in
  let cap' = if want > t.words / 2 then t.words else want in
  let data, version, owner, reader, poisoned = backing cap' in
  Array.blit t.data 0 data 0 cap;
  let lines = Array.length t.version in
  Array.blit t.version 0 version 0 lines;
  Array.blit t.owner 0 owner 0 lines;
  Array.blit t.reader 0 reader 0 lines;
  Bytes.blit t.poisoned 0 poisoned 0 cap;
  t.data <- data;
  t.version <- version;
  t.owner <- owner;
  t.reader <- reader;
  t.poisoned <- poisoned

(* An unbacked address: [untouched] if it is in range, else raise. *)
let unbacked t addr untouched =
  if addr < 0 || addr >= t.words then out_of_bounds () else untouched

let[@inline] read t addr =
  if backed t addr then Array.unsafe_get t.data addr else unbacked t addr 0

let write t ~tid ~at:_ addr v =
  if not (backed t addr) then ensure t addr;
  Array.unsafe_set t.data addr v;
  let l = line_of addr in
  Array.unsafe_set t.version l (Array.unsafe_get t.version l + 1);
  Array.unsafe_set t.owner l tid;
  Array.unsafe_set t.reader l (-1)

let[@inline] line_version t addr =
  if backed t addr then Array.unsafe_get t.version (line_of addr)
  else unbacked t addr 0

let line_owner t addr =
  if backed t addr then Array.unsafe_get t.owner (line_of addr)
  else unbacked t addr (-1)

let[@inline] note_reader t addr ~tid =
  if not (backed t addr) then ensure t addr;
  let l = line_of addr in
  if Array.unsafe_get t.owner l <> tid then Array.unsafe_set t.reader l tid

let[@inline] foreign_reader t addr ~tid =
  let r =
    if backed t addr then Array.unsafe_get t.reader (line_of addr)
    else unbacked t addr (-1)
  in
  r >= 0 && r <> tid

let clear_reader t addr =
  if backed t addr then Array.unsafe_set t.reader (line_of addr) (-1)
  else unbacked t addr ()

let[@inline] is_poisoned t addr =
  backed t addr && Bytes.unsafe_get t.poisoned addr <> '\000'

let poison t addr ~len =
  for i = addr to addr + len - 1 do
    if not (backed t i) then ensure t i;
    Bytes.unsafe_set t.poisoned i '\001'
  done

let unpoison t addr ~len =
  for i = addr to addr + len - 1 do
    if backed t i then Bytes.unsafe_set t.poisoned i '\000' else unbacked t i ()
  done

let alloc_global t n =
  if n <= 0 then invalid_arg "Memory.alloc_global: size must be positive";
  let base = align_line t.bump in
  let next = base + align_line n in
  if next > t.words then
    raise (Out_of_memory { requested = n; available = t.words - base });
  t.bump <- next;
  (* Back the new globals now, while the backing is small to copy. *)
  if next > Array.length t.data then ensure t (next - 1);
  base

let globals_end t = t.bump
