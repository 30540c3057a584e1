(** Paged heap memory with dirty-page tracking.

    Discount Checking traps updates with copy-on-write and logs
    before-images of updated regions (paper §3).  We track the set of
    pages written since the last checkpoint; the checkpointer copies
    exactly those pages and charges a per-page trap-and-copy cost, just
    as Vista's COW on the process address space would. *)

type t = {
  mutable data : int array;
  page_size : int;              (* words per page; power of two *)
  page_shift : int;             (* log2 page_size: page = addr lsr shift *)
  mutable dirty : bool array;   (* per page, since last clear *)
  mutable dirty_count : int;
}

exception Out_of_bounds of int

let create ?(page_size = 64) ~size () =
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Memory.create: page_size must be a power of two";
  let npages = (size + page_size - 1) / page_size in
  let page_shift =
    let s = ref 0 in
    while 1 lsl !s < page_size do incr s done;
    !s
  in
  {
    data = Array.make (npages * page_size) 0;
    page_size;
    page_shift;
    dirty = Array.make (max 1 npages) false;
    dirty_count = 0;
  }

let size t = Array.length t.data
let page_size t = t.page_size
let npages t = Array.length t.dirty

(* The explicit range check subsumes the bounds check the safe array
   operations would repeat, so the accesses below are unsafe_. *)
let read t addr =
  if addr < 0 || addr >= Array.length t.data then raise (Out_of_bounds addr);
  Array.unsafe_get t.data addr

let write t addr v =
  if addr < 0 || addr >= Array.length t.data then raise (Out_of_bounds addr);
  let page = addr lsr t.page_shift in
  if not (Array.unsafe_get t.dirty page) then begin
    Array.unsafe_set t.dirty page true;
    t.dirty_count <- t.dirty_count + 1
  end;
  Array.unsafe_set t.data addr v

(* Raw poke that bypasses bounds/accounting policy decisions is not
   offered: fault injectors flip bits through [write] so the corruption
   is captured by checkpoints exactly as a real stray store would be. *)

(* Half the time only the low 4,096 words, where programs keep their
   metadata (headers, tables, allocators), are eligible: corrupting a
   pointer or a count is what makes a flipped bit dangerous.  The
   fallback is drawn before the 64 probes for a live word. *)
let pick_live_word t rng =
  let size = size t in
  let region = if Random.State.bool rng then min size 4096 else size in
  let fallback = Random.State.int rng region in
  let rec hunt tries =
    if tries = 0 then fallback
    else
      let a = Random.State.int rng region in
      if read t a <> 0 then a else hunt (tries - 1)
  in
  hunt 64

let dirty_pages t =
  let acc = ref [] in
  for p = Array.length t.dirty - 1 downto 0 do
    if t.dirty.(p) then acc := p :: !acc
  done;
  !acc

let dirty_count t = t.dirty_count

let clear_dirty t =
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.dirty_count <- 0

(* Copy out one page (for incremental checkpoints). *)
let snapshot_page t p =
  Array.sub t.data (p * t.page_size) t.page_size

(* Copy-free page access: the checkpointer's commit path reuses one
   scratch buffer per slot instead of allocating a page array per dirty
   page per checkpoint. *)
let blit_page_into t p dst =
  if Array.length dst < t.page_size then
    invalid_arg "Memory.blit_page_into: buffer smaller than a page";
  Array.blit t.data (p * t.page_size) dst 0 t.page_size

let iter_page t p f =
  let base = p * t.page_size in
  for i = 0 to t.page_size - 1 do
    f (base + i) (Array.unsafe_get t.data (base + i))
  done

let restore_page t p words =
  Array.blit words 0 t.data (p * t.page_size) t.page_size

let snapshot t = Array.copy t.data

let words t = t.data

let restore t words =
  if Array.length words <> Array.length t.data then begin
    t.data <- Array.copy words;
    let npages = (Array.length words + t.page_size - 1) / t.page_size in
    t.dirty <- Array.make (max 1 npages) false;
    t.dirty_count <- 0
  end
  else Array.blit words 0 t.data 0 (Array.length words);
  clear_dirty t
