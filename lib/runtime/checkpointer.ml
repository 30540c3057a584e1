(** Discount Checking: transparent full-process checkpoints (paper §3).

    Each process's address space lives (logically) in a Vista segment
    backed by Rio reliable memory.  Vista traps updates copy-on-write and
    keeps before-images in a persistent undo log; taking a checkpoint
    amounts to copying the register file, atomically discarding the undo
    log, and resetting page protections.  We charge exactly those costs:
    a per-checkpoint base, a trap-plus-copy cost per page dirtied since
    the last checkpoint, and a per-word copy cost for the register file,
    live stack and kernel state.

    Everything a restore needs — committed heap image, stack, machine
    metadata AND the serialized kernel state — lives in the Rio region,
    so {!restore} is a pure function of the persisted words: a crash at
    any word write during {!commit} leaves a region from which recovery
    reconstructs exactly the previous checkpoint.  The crash-point
    torture harness ({!Ft_harness.Torture}) checks this exhaustively.

    DC-disk is the same mechanism with the committed image written as a
    redo log synchronously to disk; its per-checkpoint cost is dominated
    by the disk access time ({!Ft_stablemem.Disk}). *)

type medium =
  | Reliable_memory            (* Rio: memory-speed commits *)
  | Disk of Ft_stablemem.Disk.t  (* DC-disk: synchronous redo log *)

(* The cost model. *)
let base_ns = 25_000      (* fixed per checkpoint: register copy, log reset *)
let page_trap_ns = 4_000  (* COW page-protection trap, per dirty page *)
let word_copy_ns = 2      (* memory copy, per word *)
let kstate_words = 64     (* accounted size of saved kernel state *)

(* Per-process persistent area.  Region layout (all offsets fixed at
   creation):

     [0, heap_words)                 committed heap image
     [stack_base, meta_base)         committed stack
     [meta_base, kstate_base)        machine metadata (regs, pc, sp, ...)
     [kstate_base, data_words)       kernel state: [len; word_0 ...]
     [data_words, size)              Vista's persisted undo log

   Everything mutable about a slot is region words — the OCaml record is
   pure layout, so a slot rebuilt over an old region (simulating a
   process that lost its heap in a crash) restores identically. *)
(* The heap pages in which a generation may differ from the one before
   it: a commit's dirty pages, or every page after a restore. *)
type changed = All_pages | Pages of int list

(* One archived committed generation, for deep rollback, in the same
   word form the region uses: the metadata words, the live stack, the
   heap image and the serialized kernel state, so the archive shares no
   mutable structure with the live machine or kernel.  The heap image
   is a Rio region of its own, which holds host memory only for the
   chunks with a nonzero word: most of a heap is never written. *)
type gen = {
  g_meta : int array;
  g_stack : int array;
  g_heap : Ft_stablemem.Rio.t;
  g_changed : changed;
  g_kwords : int array;
  g_out_seq : int;
      (* visible outputs released as of this generation: restored with it
         so the sequenced egress channel can deduplicate replays *)
}

type slot = {
  vista : Ft_stablemem.Vista.t;
  heap_words : int;
  stack_base : int;
  meta_base : int;
  kstate_base : int;
  kstate_cap : int;          (* payload words available after the length *)
  (* Per-slot scratch buffers: [commit] stages one page / the metadata /
     the serialized kernel state here instead of allocating fresh arrays
     every checkpoint. *)
  page_buf : int array;
  meta_buf : int array;
  kstate_buf : int array;
  mutable archive : gen list;  (* newest first, length <= history *)
  mutable reset : bool;
      (* the heap was reloaded since the newest generation was archived,
         so its dirty pages no longer say how it differs from it *)
}

type t = {
  medium : medium;
  slots : slot array;
  history : int;
      (* committed generations kept for {!rollback}; 0 = off (default),
         and the hot path stays allocation-free *)
  excluded : int -> bool;
      (* §2.6: pages of recomputable state the application chose not to
         checkpoint; their contents are lost at recovery *)
}

let meta_words = Ft_vm.Instr.num_regs + 6

(* The undo log must hold the worst-case transaction: every heap page
   dirty, the full stack, the metadata, the kernel state and the commit
   record, each with its [off; len] record header. *)
let log_area_words ~heap_words ~stack_words ~page_size ~kstate_cap =
  let npages = (heap_words + page_size - 1) / page_size in
  Ft_stablemem.Vista.log_overhead_words
  + Ft_stablemem.Vista.record_words ~len:(npages * page_size)
  + ((npages - 1) * 2)     (* page records vs one big record: extra headers *)
  + Ft_stablemem.Vista.record_words ~len:stack_words
  + Ft_stablemem.Vista.record_words ~len:meta_words
  + Ft_stablemem.Vista.record_words ~len:(1 + kstate_cap)
  + Ft_stablemem.Vista.record_words ~len:1  (* commits-counter record *)

let create ?(excluded = fun _ -> false)
    ?(page_size = 64) ?(history = 0) ~medium ~nprocs ~heap_words
    ~stack_words () =
  if page_size <= 0 then invalid_arg "Checkpointer.create: bad page_size";
  (* Kernel state payload: a handful of scalars, one pair per peer
     process, one triple per open file (the limit starts at 16 and grows
     a little at each resource expansion — 128 is comfortably past any
     run's reach). *)
  let kstate_cap = 9 + (2 * nprocs) + (3 * 128) in
  let make_slot _ =
    let stack_base = heap_words in
    let meta_base = stack_base + stack_words in
    let kstate_base = meta_base + meta_words in
    let data_words = kstate_base + 1 + kstate_cap in
    let size =
      data_words + log_area_words ~heap_words ~stack_words ~page_size ~kstate_cap
    in
    let region = Ft_stablemem.Rio.create ~size in
    {
      vista = Ft_stablemem.Vista.create ~data_words region;
      heap_words;
      stack_base;
      meta_base;
      kstate_base;
      kstate_cap;
      page_buf = Array.make page_size 0;
      meta_buf = Array.make meta_words 0;
      kstate_buf = Array.make (1 + kstate_cap) 0;
      archive = [];
      reset = false;
    }
  in
  { medium; slots = Array.init nprocs make_slot; history; excluded }

let vista t ~pid = t.slots.(pid).vista

let checkpoints t ~pid = Ft_stablemem.Vista.commits t.slots.(pid).vista

let has_checkpoint t ~pid = checkpoints t ~pid > 0

(* Copy into [image] each heap page named in the [Pages] sets [since],
   once. *)
let refill_pages image heap since =
  let page_size = Ft_vm.Memory.page_size heap in
  let words = Ft_vm.Memory.words heap in
  let marked = Bytes.make (Ft_vm.Memory.npages heap) '\000' in
  List.iter
    (function
      | All_pages -> ()
      | Pages ps -> List.iter (fun p -> Bytes.set marked p '\001') ps)
    since;
  Bytes.iteri
    (fun p m ->
      if m <> '\000' then
        Ft_stablemem.Rio.blit_sub_in image ~off:(p * page_size) words
          ~spos:(p * page_size) ~len:page_size)
    marked

(* Load words [0, len) of [rio] into [machine]'s heap in place (through
   a copy only if the heap's size is not [len]), and return the heap's
   words for {!committed_image}. *)
let load_heap (machine : Ft_vm.Machine.t) rio ~len =
  let heap = Ft_vm.Machine.heap machine in
  if Ft_vm.Memory.size heap = len then
    Ft_stablemem.Rio.blit_out rio ~off:0 (Ft_vm.Memory.words heap)
  else Ft_vm.Memory.restore heap (Ft_stablemem.Rio.sub rio ~off:0 ~len);
  Ft_vm.Memory.words heap

(* Take a checkpoint of [machine] (incremental in its dirty pages) and the
   kernel state; returns the simulated cost in nanoseconds.

   The persisted transaction is word-granular: every range goes through
   Vista's diff mode, so only the words that actually changed since the
   last checkpoint are logged and stored (a page dirtied by one store
   costs one small run, not a whole page of log traffic).  The CHARGED
   cost is untouched: the ns model still charges a COW trap per dirty
   page and a copy per page word, exactly as Vista's page-granular COW
   on a real address space would — this function is the OCaml process's
   hot path, not the paper's cost model. *)
let commit ?(out_seq = 0) t ~pid ~(machine : Ft_vm.Machine.t) ~kstate =
  let s = t.slots.(pid) in
  let heap = Ft_vm.Machine.heap machine in
  let page_size = Ft_vm.Memory.page_size heap in
  let dirtied = Ft_vm.Memory.dirty_pages heap in
  let dirty = List.filter (fun p -> not (t.excluded p)) dirtied in
  let v = s.vista in
  Ft_stablemem.Vista.begin_tx v;
  (* Heap: only pages dirtied since the last checkpoint, staged through
     the per-slot scratch page. *)
  List.iter
    (fun p ->
      Ft_vm.Memory.blit_page_into heap p s.page_buf;
      Ft_stablemem.Vista.write_sub ~diff:true v ~off:(p * page_size)
        ~src:s.page_buf ~spos:0 ~len:page_size)
    dirty;
  (* Live stack prefix, straight from the machine's stack array. *)
  let sp = machine.Ft_vm.Machine.sp in
  if sp > 0 then
    Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.stack_base
      ~src:machine.Ft_vm.Machine.stack ~spos:0 ~len:sp;
  (* Machine metadata, staged in the slot's scratch buffer. *)
  let nregs = Ft_vm.Instr.num_regs in
  Array.blit machine.Ft_vm.Machine.regs 0 s.meta_buf 0 nregs;
  s.meta_buf.(nregs) <- Ft_vm.Machine.pc machine;
  s.meta_buf.(nregs + 1) <- sp;
  s.meta_buf.(nregs + 2) <- machine.Ft_vm.Machine.fp;
  s.meta_buf.(nregs + 3) <- Ft_vm.Machine.icount machine;
  s.meta_buf.(nregs + 4) <- machine.Ft_vm.Machine.signal_handler;
  s.meta_buf.(nregs + 5) <- (if machine.Ft_vm.Machine.in_signal then 1 else 0);
  Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.meta_base ~src:s.meta_buf
    ~spos:0 ~len:meta_words;
  (* Kernel state, serialized to words so restore needs nothing but the
     region. *)
  let kw = Ft_os.Kernel.kstate_to_words kstate in
  let klen = Array.length kw in
  if klen > s.kstate_cap then
    invalid_arg "Checkpointer.commit: kernel state exceeds its region area";
  s.kstate_buf.(0) <- klen;
  Array.blit kw 0 s.kstate_buf 1 klen;
  Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.kstate_base
    ~src:s.kstate_buf ~spos:0 ~len:(1 + klen);
  Ft_stablemem.Vista.commit v;
  Ft_vm.Memory.clear_dirty heap;
  if t.history > 0 then begin
    (* A full archive drops its oldest generation to make room: refill
       that generation's heap image rather than create a fresh one.
       Nothing else holds it — rollback copies out of archived images,
       never aliases them.  The image differs from the heap only in the
       pages changed by the generations after it and by this commit, so
       only those are copied, unless one of them is unknown. *)
    let changed = if s.reset then All_pages else Pages dirtied in
    let kept, image, since =
      match List.rev s.archive with
      | oldest :: newer
        when List.length s.archive >= t.history
             && Ft_stablemem.Rio.size oldest.g_heap = Ft_vm.Memory.size heap ->
          let kept = List.rev newer in
          (kept, oldest.g_heap, changed :: List.map (fun g -> g.g_changed) kept)
      | _ ->
          ( s.archive,
            Ft_stablemem.Rio.create ~size:(Ft_vm.Memory.size heap),
            [ All_pages ] )
    in
    if List.mem All_pages since then
      Ft_stablemem.Rio.blit_in image ~off:0 (Ft_vm.Memory.words heap)
    else refill_pages image heap since;
    let g =
      { g_meta = Array.copy s.meta_buf;
        g_stack = Array.sub machine.Ft_vm.Machine.stack 0 sp;
        g_heap = image; g_changed = changed; g_kwords = kw;
        g_out_seq = out_seq }
    in
    s.archive <- g :: kept;
    s.reset <- false
  end;
  let words =
    (List.length dirty * page_size) + sp + meta_words + kstate_words
  in
  let traps = base_ns + (List.length dirty * page_trap_ns) in
  match t.medium with
  | Reliable_memory -> traps + (words * word_copy_ns)
  | Disk d ->
      (* COW traps still happen; the synchronous log write dominates. *)
      traps + Ft_stablemem.Disk.commit_cost d ~words

(* Pessimistic logging of an ND event's result: the record must be stable
   before the event's effects can propagate, so on DC-disk each log write
   is a synchronous disk access (the reason the -LOG protocols still pay
   double-digit overheads on DC-disk in Figure 8). *)
let log_cost t ~words =
  match t.medium with
  | Reliable_memory -> 1_000 + (words * word_copy_ns)
  | Disk d -> Ft_stablemem.Disk.write_cost d ~words

(* The machine image committed as metadata words [meta] (see [commit]),
   live stack [stack] and heap words [heap] (the machine's own, already
   loaded by [load_heap]: {!Ft_vm.Memory.restore} then only clears the
   dirty bits). *)
let committed_image ~meta ~stack ~heap =
  let nregs = Ft_vm.Instr.num_regs in
  {
    Ft_vm.Machine.s_code_len = 0;
    s_pc = meta.(nregs);
    s_regs = Array.sub meta 0 nregs;
    s_stack = stack;
    s_sp = meta.(nregs + 1);
    s_fp = meta.(nregs + 2);
    s_heap = heap;
    s_icount = meta.(nregs + 3);
    s_signal_handler = meta.(nregs + 4);
    s_in_signal = meta.(nregs + 5) = 1;
  }

(* Restore [machine] (and return the kernel state) from the last
   checkpoint, purely from region words.  Returns the simulated recovery
   cost. *)
let restore t ~pid ~(machine : Ft_vm.Machine.t) =
  let s = t.slots.(pid) in
  if not (has_checkpoint t ~pid) then
    invalid_arg "Checkpointer.restore: no checkpoint";
  s.reset <- true;
  (* A crash mid-commit leaves a published undo log; Vista recovery rolls
     it back to the previous checkpoint. *)
  Ft_stablemem.Vista.recover s.vista;
  let region = Ft_stablemem.Vista.region s.vista in
  let heap = load_heap machine region ~len:s.heap_words in
  let meta = Ft_stablemem.Rio.sub region ~off:s.meta_base ~len:meta_words in
  let sp = meta.(Ft_vm.Instr.num_regs + 1) in
  let stack = Ft_stablemem.Rio.sub region ~off:s.stack_base ~len:sp in
  Ft_vm.Machine.restore machine (committed_image ~meta ~stack ~heap);
  let klen = Ft_stablemem.Rio.read region s.kstate_base in
  if klen < 0 || klen > s.kstate_cap then
    invalid_arg "Checkpointer.restore: corrupt kernel state";
  let kstate =
    Ft_os.Kernel.kstate_of_words
      (Ft_stablemem.Rio.sub region ~off:(s.kstate_base + 1) ~len:klen)
  in
  let words = s.heap_words + sp + meta_words + kstate_words in
  let cost =
    match t.medium with
    | Reliable_memory -> base_ns + (words * word_copy_ns)
    | Disk d -> Ft_stablemem.Disk.write_cost d ~words
  in
  (kstate, cost)

let history_depth t ~pid = List.length t.slots.(pid).archive

let archived_heap t ~pid i =
  let g = List.nth t.slots.(pid).archive i in
  Ft_stablemem.Rio.sub g.g_heap ~off:0 ~len:(Ft_stablemem.Rio.size g.g_heap)

(* Deep rollback (escalation rung L1): deliberately abandon the last
   [back] committed generations and reinstate an earlier one.  The
   archived machine image is restored and then re-committed IN FULL into
   the Vista region — every heap page, the stack, the metadata and the
   kernel state — as one transaction, so subsequent incremental commits
   and restores see a region indistinguishable from one that had simply
   committed that generation last.  The full transaction is exactly the
   worst case [log_area_words] is sized for, and a crash at any word of
   it recovers to the pre-rollback generation: Consistency is never at
   risk, only whose work is lost. *)
let rollback t ~pid ~(machine : Ft_vm.Machine.t) ~back =
  let s = t.slots.(pid) in
  if back < 1 then invalid_arg "Checkpointer.rollback: back < 1";
  match List.nth_opt s.archive back with
  | None -> None
  | Some g ->
      s.reset <- true;
      (* A crash may have interrupted a commit: roll its partial
         transaction back first, as restore does. *)
      Ft_stablemem.Vista.recover s.vista;
      let words =
        load_heap machine g.g_heap ~len:(Ft_stablemem.Rio.size g.g_heap)
      in
      Ft_vm.Machine.restore machine
        (committed_image ~meta:g.g_meta ~stack:g.g_stack ~heap:words);
      let heap = Ft_vm.Machine.heap machine in
      let page_size = Ft_vm.Memory.page_size heap in
      let npages = (s.heap_words + page_size - 1) / page_size in
      let v = s.vista in
      Ft_stablemem.Vista.begin_tx v;
      for p = 0 to npages - 1 do
        if not (t.excluded p) then begin
          Ft_vm.Memory.blit_page_into heap p s.page_buf;
          Ft_stablemem.Vista.write_sub ~diff:true v ~off:(p * page_size)
            ~src:s.page_buf ~spos:0 ~len:page_size
        end
      done;
      let sp = machine.Ft_vm.Machine.sp in
      if sp > 0 then
        Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.stack_base
          ~src:machine.Ft_vm.Machine.stack ~spos:0 ~len:sp;
      let nregs = Ft_vm.Instr.num_regs in
      Array.blit machine.Ft_vm.Machine.regs 0 s.meta_buf 0 nregs;
      s.meta_buf.(nregs) <- Ft_vm.Machine.pc machine;
      s.meta_buf.(nregs + 1) <- sp;
      s.meta_buf.(nregs + 2) <- machine.Ft_vm.Machine.fp;
      s.meta_buf.(nregs + 3) <- Ft_vm.Machine.icount machine;
      s.meta_buf.(nregs + 4) <- machine.Ft_vm.Machine.signal_handler;
      s.meta_buf.(nregs + 5) <-
        (if machine.Ft_vm.Machine.in_signal then 1 else 0);
      Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.meta_base
        ~src:s.meta_buf ~spos:0 ~len:meta_words;
      let klen = Array.length g.g_kwords in
      s.kstate_buf.(0) <- klen;
      Array.blit g.g_kwords 0 s.kstate_buf 1 klen;
      Ft_stablemem.Vista.write_sub ~diff:true v ~off:s.kstate_base
        ~src:s.kstate_buf ~spos:0 ~len:(1 + klen);
      Ft_stablemem.Vista.commit v;
      Ft_vm.Memory.clear_dirty heap;
      (* Drop the sacrificed generations; the reinstated one stays
         newest (it matches the region again). *)
      let rec drop n l = if n = 0 then l else
        match l with [] -> [] | _ :: rest -> drop (n - 1) rest
      in
      s.archive <- drop back s.archive;
      (* The heap now equals [g], the newest generation, with its dirty
         bits clear: the next commit's dirty pages are exact again. *)
      s.reset <- false;
      let kstate = Ft_os.Kernel.kstate_of_words g.g_kwords in
      (* Charged cost: one full restore plus one worst-case commit —
         rung L1 is deliberately expensive. *)
      let words = s.heap_words + sp + meta_words + kstate_words in
      let cost =
        match t.medium with
        | Reliable_memory ->
            (2 * base_ns)
            + (npages * page_trap_ns)
            + (2 * words * word_copy_ns)
        | Disk d ->
            base_ns
            + (npages * page_trap_ns)
            + (2 * Ft_stablemem.Disk.write_cost d ~words)
      in
      Some (kstate, cost, g.g_out_seq)
