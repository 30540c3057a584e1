(** A Rio-style reliable memory region.

    The Rio file cache makes ordinary DRAM survive operating-system
    crashes, so that committing to it costs memory-copy time instead of a
    synchronous disk write (paper §3).  We model a region as
    word-addressable memory that simulated process and OS crashes never
    clear (the recovery engine only ever resets machines), with every
    write accounted so commit costs can be charged.

    The region costs host memory only where it has been written: it is
    stored as fixed-size chunks, and a chunk is allocated the first time
    a nonzero word is written into it.  An absent chunk reads as zero,
    and writing zeros into one leaves it absent.  (A checkpoint region is
    sized for the worst case — every heap page dirty, the full undo log —
    while a run typically touches a tenth of it.)

    Every mutation goes through a word-granular path guarded by an
    optional write hook, so fault injectors ({!Ft_faults.Mem_injector})
    can observe the exact persisted-write sequence, crash the simulation
    between any two word writes ({!Crash_point}), and tear a {!blit_in}
    partway through — the substrate the crash-point torture harness
    drives.  When NO hook is installed (every failure-free run), the bulk
    operations take a fast path: one [Array.blit] per chunk plus one
    accounting update, with the exact same persisted words and the exact
    same {!words_written} count as the hooked word-by-word path. *)

exception Crash_point of int
(** Raised by a write hook to model a crash after the carried number of
    word writes have persisted; the write the hook intercepted is NOT
    performed. *)

let chunk_bits = 10
let chunk_words = 1 lsl chunk_bits
let chunk_mask = chunk_words - 1

(* What every absent chunk of every region points at: all zeros, never
   written (every store checks for it first), so reads and bulk copies
   treat absent and present chunks alike. *)
let zero_chunk = Array.make chunk_words 0

type t = {
  size : int;
  chunks : int array array;  (* absent chunks are [zero_chunk] *)
  mutable words_written : int;  (* lifetime accounting for cost models *)
  mutable on_write : (int -> int -> unit) option;
      (* called with (offset, value) BEFORE each word is persisted; a
         raising hook (e.g. [Crash_point]) aborts that word and all
         later ones *)
}

let create ~size =
  if size < 0 then invalid_arg "Rio.create: negative size";
  { size;
    chunks = Array.make ((size + chunk_mask) lsr chunk_bits) zero_chunk;
    words_written = 0; on_write = None }

let size t = t.size

let chunks_allocated t =
  Array.fold_left (fun n c -> if c == zero_chunk then n else n + 1) 0 t.chunks

let set_on_write t hook = t.on_write <- hook

(* Chunk [ci], allocated if absent. *)
let owned_chunk t ci =
  let c = Array.unsafe_get t.chunks ci in
  if c != zero_chunk then c
  else begin
    let c = Array.make chunk_words 0 in
    t.chunks.(ci) <- c;
    c
  end

let get t off =
  Array.unsafe_get
    (Array.unsafe_get t.chunks (off lsr chunk_bits))
    (off land chunk_mask)

(* Store without hook or accounting; a zero into an absent chunk is
   already there. *)
let store t off v =
  let c = Array.unsafe_get t.chunks (off lsr chunk_bits) in
  if c != zero_chunk then Array.unsafe_set c (off land chunk_mask) v
  else if v <> 0 then
    Array.unsafe_set
      (owned_chunk t (off lsr chunk_bits))
      (off land chunk_mask) v

let read t off =
  if off < 0 || off >= t.size then invalid_arg "Rio.read: out of range";
  get t off

(* The single persisted-write path: hook, then store, then account. *)
let write_word t off v =
  (match t.on_write with Some f -> f off v | None -> ());
  store t off v;
  t.words_written <- t.words_written + 1

let write t off v =
  if off < 0 || off >= t.size then invalid_arg "Rio.write: out of range";
  write_word t off v

let rec all_zero a pos len =
  len = 0 || (Array.unsafe_get a pos = 0 && all_zero a (pos + 1) (len - 1))

(* Unhooked bulk store of [src.(spos .. spos+len-1)] at [off], one
   [Array.blit] per chunk; a chunk that stays absent receives only
   zeros. *)
let store_array t ~off src ~spos ~len =
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let co = o land chunk_mask in
    let n = min (len - !pos) (chunk_words - co) in
    let ci = o lsr chunk_bits in
    if t.chunks.(ci) != zero_chunk || not (all_zero src (spos + !pos) n) then
      Array.blit src (spos + !pos) (owned_chunk t ci) co n;
    pos := !pos + n
  done

(* Bulk load of region words [off, off+len) into [dst] at [dpos], one
   [Array.blit] per chunk (absent chunks copy zeros). *)
let load_array t ~off dst ~dpos ~len =
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let co = o land chunk_mask in
    let n = min (len - !pos) (chunk_words - co) in
    Array.blit t.chunks.(o lsr chunk_bits) co dst (dpos + !pos) n;
    pos := !pos + n
  done

(* Are region words [off, off+len) all zero?  Absent chunks answer
   without a scan. *)
let range_zero t ~off ~len =
  let pos = ref 0 and zero = ref true in
  while !zero && !pos < len do
    let o = off + !pos in
    let co = o land chunk_mask in
    let n = min (len - !pos) (chunk_words - co) in
    let c = t.chunks.(o lsr chunk_bits) in
    zero := c == zero_chunk || all_zero c co n;
    pos := !pos + n
  done;
  !zero

(* Bulk copy of [src.(spos .. spos+len-1)] into the region.  Hooked:
   word by word, so a crash point can land between any two words and
   leave a torn blit.  Unhooked: one [Array.blit] per chunk —
   bit-identical result and identical [words_written] accounting,
   without the per-word closure check. *)
let blit_sub_in t ~off src ~spos ~len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg "Rio.blit_in: out of range";
  if spos < 0 || spos + len > Array.length src then
    invalid_arg "Rio.blit_in: bad source range";
  match t.on_write with
  | None ->
      store_array t ~off src ~spos ~len;
      t.words_written <- t.words_written + len
  | Some _ ->
      for i = 0 to len - 1 do
        write_word t (off + i) src.(spos + i)
      done

let blit_in t ~off src = blit_sub_in t ~off src ~spos:0 ~len:(Array.length src)

(* Region-to-region copy (undo-log before-images, log replay): the
   source words are region words, so no intermediate array is needed.
   Same fast-path/hooked-path split as {!blit_sub_in}.  The two ranges
   must be disjoint for the paths to agree (the hooked path copies word
   by word, ascending); every caller satisfies this, since the log and
   data areas never overlap. *)
let copy_within t ~src_off ~dst_off ~len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > t.size || dst_off + len > t.size
  then invalid_arg "Rio.copy_within: out of range";
  match t.on_write with
  | None ->
      let pos = ref 0 in
      while !pos < len do
        let o = dst_off + !pos in
        let co = o land chunk_mask in
        let n = min (len - !pos) (chunk_words - co) in
        let ci = o lsr chunk_bits in
        if t.chunks.(ci) != zero_chunk
           || not (range_zero t ~off:(src_off + !pos) ~len:n)
        then
          load_array t ~off:(src_off + !pos) (owned_chunk t ci) ~dpos:co
            ~len:n;
        pos := !pos + n
      done;
      t.words_written <- t.words_written + len
  | Some _ ->
      for i = 0 to len - 1 do
        write_word t (dst_off + i) (get t (src_off + i))
      done

(* Bulk copy out of the region (restoring a checkpoint). *)
let blit_out t ~off dst =
  let len = Array.length dst in
  if off < 0 || off + len > t.size then
    invalid_arg "Rio.blit_out: out of range";
  load_array t ~off dst ~dpos:0 ~len

let sub t ~off ~len =
  let dst = Array.make len 0 in
  blit_out t ~off dst;
  dst

(* Vista's diff-mode scan: the changed words of [src.(spos ..
   spos+len-1)] against region words [off, off+len), coalesced into
   runs, compared chunk by chunk as plain arrays. *)
let diff_runs t ~off src ~spos ~len ~gap =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg "Rio.diff_runs: out of range";
  if spos < 0 || spos + len > Array.length src then
    invalid_arg "Rio.diff_runs: bad source range";
  let runs = ref [] in
  let run_start = ref (-1) and run_end = ref (-1) in
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let co = o land chunk_mask in
    let n = min (len - !pos) (chunk_words - co) in
    let c = t.chunks.(o lsr chunk_bits) in
    for k = 0 to n - 1 do
      if Array.unsafe_get src (spos + !pos + k) <> Array.unsafe_get c (co + k)
      then begin
        let i = !pos + k in
        if !run_start < 0 then run_start := i
        else if i - !run_end > gap + 1 then begin
          runs := (!run_start, !run_end - !run_start + 1) :: !runs;
          run_start := i
        end;
        run_end := i
      end
    done;
    pos := !pos + n
  done;
  if !run_start >= 0 then
    runs := (!run_start, !run_end - !run_start + 1) :: !runs;
  List.rev !runs

(* Out-of-band mutation for fault injectors (e.g. cold-region bit
   flips): bypasses the hook and the write accounting, because it models
   corruption, not a write the program performed. *)
let poke t off v =
  if off < 0 || off >= t.size then invalid_arg "Rio.poke: out of range";
  store t off v

let words_written t = t.words_written
