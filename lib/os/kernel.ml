(** The kernel model.

    Services the machine's system calls and classifies each one by the
    paper's event taxonomy: [gettimeofday], [random], signal delivery and
    message receives are {e transient} ND events; user input and the
    fullness-dependent [open]/[write] results are {e fixed} ND events
    (§2.5); [write_output] is visible; sends and receives move messages
    through a network with delivery jitter (message order is the
    transient non-determinism of distributed runs).

    Per-process kernel state — input position, open-file table, private
    file system, send sequence numbers and the duplicate filter — is
    snapshottable: Discount Checking preserves kernel state at commit and
    reconstructs it during recovery (paper §3).

    The kernel also hosts the OS-fault machinery for the Table-2
    experiment: an injected fault either panics the kernel after a delay
    (a stop failure) or corrupts the results of syscalls touching the
    broken subsystem until the panic (a propagation failure). *)

type costs = {
  instr_ns : int;            (* cost of one VM instruction *)
  syscall_ns : int;          (* base cost of a syscall *)
  network_latency_ns : int;  (* one-way message latency *)
  network_jitter_ns : int;   (* max extra random delay (message order ND) *)
}

let default_costs =
  {
    instr_ns = 2;               (* ~400 MIPS, the paper's Pentium II *)
    syscall_ns = 2_000;
    network_latency_ns = 120_000;  (* 100 Mb/s switched Ethernet *)
    network_jitter_ns = 60_000;
  }

(* What servicing a syscall produced.  [ev] drives protocol reaction and
   trace recording; [new_time] lets blocking input advance the process's
   local clock (think time). *)
type ev =
  | Ev_none
  | Ev_nd of Ft_core.Event.nd_class * bool  (* class, loggable *)
  | Ev_visible of int
  | Ev_send of { dest : int; tag : int }
  | Ev_receive of { src : int; tag : int }

type served = {
  r0 : int option;
  r1 : int option;
  cost_ns : int;
  new_time : int option;
  ev : ev;
  poke : int option;
      (* when an injected kernel fault corrupts process memory through
         this syscall, a random seed the engine uses to pick the word *)
}

type result =
  | Served of served
  | Block_recv   (* no message available; retry when one arrives *)
  | Panic        (* injected kernel fault reached its crash point *)

type message = {
  msg_src : int;
  msg_dest : int;
  msg_payload : int;
  msg_seq : int;          (* per-sender sequence, for duplicate filtering *)
  msg_tag : int;          (* stable trace tag: src * tag_stride + seq *)
  msg_deliver_at : int;
  msg_dv : Ft_core.Vclock.t;
      (* the sender's dependency vector, piggybacked at send time when
         a message-logging protocol enabled tracking; the width-0 clock
         otherwise (one shared value, so the legacy path allocates
         nothing).  Rides inside the payload record, so it survives
         transport loss/dup/reorder/retransmission unchanged. *)
  msg_inc : int;
      (* the sender's incarnation number at send time: bumped on each
         sender rollback under a logging protocol, so stale messages
         from a rolled-back past can be told apart from their redone
         replacements *)
}

let tag_stride = 1_000_000
let tag ~src ~seq = (src * tag_stride) + seq

(* Shared by every message sent while dependency tracking is off: the
   legacy protocols stay allocation- and byte-identical. *)
let no_dv = Ft_core.Vclock.create 0

type file = { mutable contents : int array; mutable len : int }

type proc_kstate = {
  mutable input_pos : int;
  mutable last_input_at : int;  (* completion time of the previous read *)
  mutable send_seq : int;
  mutable last_seen : (int * int) list;  (* per-sender highest seq consumed *)
  mutable open_files : (int * (int * int)) list;  (* fd -> (name, offset) *)
  mutable next_fd : int;
  mutable fs_used : int;          (* words written, against capacity *)
  mutable sig_period : int;       (* ns; 0 = no timer signal *)
  mutable next_signal : int;
}

type kstate_snapshot = proc_kstate

(* Injected OS fault (configured by Ft_faults.Os_injector). *)
type os_fault = {
  mutable panic_at : int;        (* absolute time of the kernel panic;
                                    the corruption window scales with the
                                    application's syscall *rate* (§4.2) *)
  touches : Ft_vm.Syscall.t -> bool;   (* syscalls reading the broken subsystem *)
  corrupt_bit : int;             (* which result bit the corruption flips *)
  poke_probability : float;      (* chance a touched syscall also corrupts
                                    process memory (a bad copyout) *)
  mutable propagated : bool;     (* corruption reached the application *)
}

type t = {
  nprocs : int;
  seed : int;  (* base seed, kept so {!perturb} can derive fresh streams *)
  mutable rng : Random.State.t;
  inputs : (int * int) array array;        (* per pid: (ready_ns, token) *)
  kstates : proc_kstate array;
  mailboxes : message Queue.t array;
  (* messages consumed since the receiver's last commit, oldest first *)
  uncommitted_recv : message list ref array;
  files : (int, file) Hashtbl.t array;     (* private FS per process *)
  mutable fs_capacity : int;
  mutable max_open_files : int;
  mutable os_fault : os_fault option;
  mutable panicked : bool;
  syscall_tally : (Ft_vm.Syscall.t, int) Hashtbl.t;
      (* how often each syscall was serviced: OS fault injection targets
         the kernel paths the workload actually exercises *)
  mutable net : message Ft_net.Transport.t option;
      (* when set, sends travel the unreliable transport instead of
         being enqueued directly; [None] is byte-identical to the
         original reliable path (including its RNG draws) *)
  mutable net_base : int;
      (* this kernel's offset into a shared transport's pid space: a
         multi-tenant scheduler gives every tenant a disjoint global pid
         range [net_base, net_base + nprocs) on one transport.  0 for a
         privately attached transport. *)
  input_abs : bool array;
      (* per pid: input script entries are absolute arrival times
         (open-loop load) rather than think-time gaps (closed loop) *)
  (* --- dependency tracking (message-logging protocols) ---------------
     None of this belongs to [proc_kstate]: vectors are restored by the
     engine from its committed snapshots, and incarnations/barriers must
     SURVIVE restores — they describe which in-flight messages are stale,
     which is precisely the knowledge a rollback must not lose. *)
  mutable dv_enabled : bool;
  dvs : Ft_core.Vclock.t array;            (* per pid, live vector *)
  incarnations : int array;                (* per pid, bumped on rollback *)
  mutable barriers : (int * int) list array;
      (* per src: (incarnation after a rollback, restored send_seq).
         A message from [src] is dead iff some barrier [(b_inc, b_seq)]
         has [msg_inc < b_inc && msg_seq >= b_seq]: it was sent before
         the rollback, covering sends the rollback undid. *)
  (* --- bounded determinant log ---------------------------------------
     Pure accounting of the logging protocols' determinant store, kept
     as three per-owner counters (determinants are retired in stamp
     order, so each process's live log is an interval):

       det_mark <= det_committed <= det_hi

     [det_hi] advances as determinants are recorded; [det_committed]
     snapshots it at the owner's commit (the checkpoint now covers the
     owner's replay of those events); [det_mark] is the GC watermark —
     determinants at or below it have been retired.  Like incarnations,
     none of this is snapshottable kstate: the watermark is derived from
     committed state only and must SURVIVE restores (monotonicity is
     the crash-safety invariant — re-running the GC after any nested
     crash re-derives the same or a later watermark, never an earlier
     one). *)
  det_hi : int array;
  det_committed : int array;
  det_mark : int array;
  mutable det_live : int;            (* cached: sum of hi - mark *)
  mutable det_high_water : int;      (* running max of det_live *)
  mutable det_cap : int;             (* hard cap on det_live; 0 = none *)
  mutable det_forced_flushes : int;  (* cap hits that forced a commit *)
}

let create ?(seed = 42) ?(fs_capacity = 1 lsl 20) ?(max_open_files = 16)
    ~nprocs () =
  {
    nprocs;
    seed;
    rng = Random.State.make [| seed |];
    inputs = Array.make nprocs [||];
    kstates =
      Array.init nprocs (fun _ ->
          {
            input_pos = 0;
            last_input_at = 0;
            send_seq = 0;
            last_seen = [];
            open_files = [];
            next_fd = 3;
            fs_used = 0;
            sig_period = 0;
            next_signal = max_int;
          });
    mailboxes = Array.init nprocs (fun _ -> Queue.create ());
    uncommitted_recv = Array.init nprocs (fun _ -> ref []);
    files = Array.init nprocs (fun _ -> Hashtbl.create 8);
    fs_capacity;
    max_open_files;
    os_fault = None;
    panicked = false;
    syscall_tally = Hashtbl.create 16;
    net = None;
    net_base = 0;
    input_abs = Array.make nprocs false;
    dv_enabled = false;
    dvs = Array.init nprocs (fun _ -> Ft_core.Vclock.create nprocs);
    incarnations = Array.make nprocs 0;
    barriers = Array.make nprocs [];
    det_hi = Array.make nprocs 0;
    det_committed = Array.make nprocs 0;
    det_mark = Array.make nprocs 0;
    det_live = 0;
    det_high_water = 0;
    det_cap = 0;
    det_forced_flushes = 0;
  }

let costs _ = default_costs
let nprocs t = t.nprocs

(* --- the unreliable transport ------------------------------------------- *)

let net t = t.net

(* Attach an {!Ft_net.Transport} between send and receive.  The
   transport owns delivery timing (latency, jitter, and whatever the
   policy adds), sequencing, retransmission and in-order reassembly; the
   kernel keeps its per-sender [msg_seq] duplicate filter on top, which
   continues to absorb sender-rollback replays exactly as on the
   reliable path.  Frames complete delivery during {!Ft_net.Transport.pump}
   (driven by the engine), landing in the destination mailbox with
   [msg_deliver_at] set to the arrival time. *)
let attach_net ?(policy = Ft_net.Policy.reliable) ?max_retries ~seed t =
  let deliver ~at ~src:_ ~dst (m : message) =
    Queue.add { m with msg_deliver_at = at } t.mailboxes.(dst)
  in
  let tr =
    Ft_net.Transport.create ~policy:(fun _ _ -> policy) ?max_retries ~seed
      ~nprocs:t.nprocs ~latency_ns:default_costs.network_latency_ns
      ~jitter_ns:default_costs.network_jitter_ns ~deliver ()
  in
  t.net <- Some tr;
  tr

(* A multi-tenant scheduler shares one transport across N kernels, each
   owning the global pid range [base, base + nprocs).  The scheduler
   supplies the transport's [deliver] callback and routes each arrival
   back to the owning kernel through {!deliver_net}. *)
let set_net t ?(base = 0) tr =
  t.net <- Some tr;
  t.net_base <- base

let net_base t = t.net_base

(* Complete a shared-transport delivery: [dst] is this kernel's local
   pid; [at] is the arrival time stamped by the transport. *)
let deliver_net t ~at ~dst (m : message) =
  Queue.add { m with msg_deliver_at = at } t.mailboxes.(dst)

(* Scripted user input.  Each entry is (gap, token): the token becomes
   available [gap] after the previous read completed — the paper's
   interactive cadence (100 ms between keystrokes in nvi, 1 s between
   commands in magic), where the user types the next key after seeing
   the response, so commit latency shows up in elapsed time. *)
let set_input t pid pairs =
  t.inputs.(pid) <- pairs;
  t.input_abs.(pid) <- false

let scripted_input ~start ~interval_ns tokens =
  Array.of_list
    (List.mapi
       (fun i tok -> ((if i = 0 then start else interval_ns), tok))
       tokens)

(* Open-loop load: each entry is (absolute_ready_ns, token).  Arrival
   times are fixed in advance and do not wait for the previous response,
   so queueing delay — and thus recovery time — shows up as request
   latency instead of shifting the whole schedule. *)
let set_input_absolute t pid pairs =
  t.inputs.(pid) <- pairs;
  t.input_abs.(pid) <- true

let open_loop_input ~start ~interval_ns tokens =
  Array.of_list
    (List.mapi (fun i tok -> (start + (i * interval_ns), tok)) tokens)

let set_timer_signal t pid ~period_ns ~first_at =
  let k = t.kstates.(pid) in
  k.sig_period <- period_ns;
  k.next_signal <- first_at

(* A timer signal due?  Consumes the occurrence. *)
let poll_signal t pid ~now =
  let k = t.kstates.(pid) in
  if k.sig_period > 0 && now >= k.next_signal then begin
    k.next_signal <- k.next_signal + k.sig_period;
    true
  end
  else false

let set_os_fault t f = t.os_fault <- Some f
let os_fault t = t.os_fault
let panicked t = t.panicked

(* Reboot: the injected fault is gone; panic state cleared. *)
let clear_os_fault t =
  t.os_fault <- None;
  t.panicked <- false

(* §2.6: the operating system can turn some fixed non-deterministic
   events into transient ones by increasing resource limits after a
   failure — a disk-full or table-full result need not repeat during
   recovery if the reboot grows the resource. *)
let expand_resources t =
  t.fs_capacity <- 2 * t.fs_capacity;
  t.max_open_files <- t.max_open_files + 8

(* --- per-process kernel state snapshot/restore ------------------------- *)

let snapshot_kstate t pid =
  let k = t.kstates.(pid) in
  { k with input_pos = k.input_pos }  (* all-immutable-field copy *)

let restore_kstate t pid (s : kstate_snapshot) =
  let k = t.kstates.(pid) in
  k.input_pos <- s.input_pos;
  k.last_input_at <- s.last_input_at;
  k.send_seq <- s.send_seq;
  k.last_seen <- s.last_seen;
  k.open_files <- s.open_files;
  k.next_fd <- s.next_fd;
  k.fs_used <- s.fs_used;
  k.sig_period <- s.sig_period;
  k.next_signal <- s.next_signal

(* Word layout of a kstate snapshot, so Discount Checking can persist
   the saved kernel state inside the checkpoint region itself and
   recovery can rebuild it from region words alone:
   [ 7 scalars;
     |last_seen|;  (sender, seq) pairs;
     |open_files|; (fd, name, offset) triples ] *)
let kstate_to_words (s : kstate_snapshot) =
  let out = ref [] in
  let push v = out := v :: !out in
  push s.input_pos;
  push s.last_input_at;
  push s.send_seq;
  push s.next_fd;
  push s.fs_used;
  push s.sig_period;
  push s.next_signal;
  push (List.length s.last_seen);
  List.iter (fun (sender, seq) -> push sender; push seq) s.last_seen;
  push (List.length s.open_files);
  List.iter
    (fun (fd, (name, offset)) -> push fd; push name; push offset)
    s.open_files;
  Array.of_list (List.rev !out)

let kstate_of_words w =
  let pos = ref 0 in
  let next () =
    if !pos >= Array.length w then
      invalid_arg "Kernel.kstate_of_words: truncated snapshot";
    let v = w.(!pos) in
    incr pos;
    v
  in
  let input_pos = next () in
  let last_input_at = next () in
  let send_seq = next () in
  let next_fd = next () in
  let fs_used = next () in
  let sig_period = next () in
  let next_signal = next () in
  let rec read_items n f acc =
    if n = 0 then List.rev acc else read_items (n - 1) f (f () :: acc)
  in
  let last_seen =
    read_items (next ()) (fun () ->
        let sender = next () in
        (sender, next ())) []
  in
  let open_files =
    read_items (next ()) (fun () ->
        let fd = next () in
        let name = next () in
        (fd, (name, next ()))) []
  in
  { input_pos; last_input_at; send_seq; last_seen; open_files; next_fd;
    fs_used; sig_period; next_signal }

(* File contents are kept simple: they are not rolled back (the paper's
   workloads treat file writes as redo-logged output; our applications
   only append).  Offsets and the open-file table are rolled back. *)

(* The receiver committed: its consumed messages need never be redelivered. *)
let note_commit t pid = t.uncommitted_recv.(pid) := []

(* --- dependency tracking (message-logging protocols) -------------------- *)

let enable_dependency_tracking t = t.dv_enabled <- true
let dependency_tracking t = t.dv_enabled

(* The live vector: callers may read it and [Vclock.copy] it into
   snapshots, but must mutate it only through {!dv_tick}/{!restore_dv}. *)
let dv t pid = t.dvs.(pid)
let dv_tick t pid = Ft_core.Vclock.tick t.dvs.(pid) pid
let restore_dv t pid c = t.dvs.(pid) <- Ft_core.Vclock.copy c
let incarnation t pid = t.incarnations.(pid)

(* A message is stale iff some rollback of its sender undid the send. *)
let message_dead t (m : message) =
  match t.barriers.(m.msg_src) with
  | [] -> false
  | bs ->
      List.exists
        (fun (b_inc, b_seq) -> m.msg_inc < b_inc && m.msg_seq >= b_seq)
        bs

(* The engine rolled [pid] back past some of its sends (logging styles
   only).  Called after [restore_kstate], so [send_seq] is the restored
   value: in-flight messages from the previous incarnation at or above
   it will be redone — possibly with different redrawn payloads — and
   the originals must never be consumed. *)
let note_sender_rollback t pid =
  t.incarnations.(pid) <- t.incarnations.(pid) + 1;
  t.barriers.(pid) <-
    (t.incarnations.(pid), t.kstates.(pid).send_seq) :: t.barriers.(pid)

(* The receiver rolled back: requeue the messages it consumed since its
   last commit, in original order, ahead of anything else pending —
   minus any that a sender rollback killed in the meantime. *)
let requeue_uncommitted t pid =
  let pending = Queue.create () in
  Queue.transfer t.mailboxes.(pid) pending;
  List.iter
    (fun m -> if not (message_dead t m) then Queue.add m t.mailboxes.(pid))
    !(t.uncommitted_recv.(pid));
  Queue.transfer pending t.mailboxes.(pid);
  t.uncommitted_recv.(pid) := []

let mailbox_nonempty t pid = not (Queue.is_empty t.mailboxes.(pid))

(* --- bounded determinant log -------------------------------------------- *)

let set_det_cap t cap = t.det_cap <- cap
let det_cap t = t.det_cap
let det_live t = t.det_live
let det_live_of t pid = t.det_hi.(pid) - t.det_mark.(pid)
let det_high_water t = t.det_high_water
let det_forced_flushes t = t.det_forced_flushes
let note_forced_flush t = t.det_forced_flushes <- t.det_forced_flushes + 1

(* A determinant was recorded for [pid]'s latest nondeterministic event.
   Returns [true] when the store is over its hard cap — the caller must
   degrade gracefully (force a flush-to-checkpoint of some process)
   rather than let the log grow without bound. *)
let det_append t pid =
  t.det_hi.(pid) <- t.det_hi.(pid) + 1;
  t.det_live <- t.det_live + 1;
  if t.det_live > t.det_high_water then t.det_high_water <- t.det_live;
  t.det_cap > 0 && t.det_live > t.det_cap

(* [pid] committed: its checkpoint now covers the replay of every
   determinant recorded so far, making them retirable (once no live
   process still depends on them — the scheduler's GC decides that). *)
let det_note_commit t pid = t.det_committed.(pid) <- t.det_hi.(pid)

(* [pid] rolled back: determinants recorded since its last commit
   belonged to the dead lineage (the optimistic volatile log dies with
   the process) and replay will record fresh ones. *)
let det_drop_uncommitted t pid =
  let dropped = t.det_hi.(pid) - t.det_committed.(pid) in
  if dropped > 0 then begin
    t.det_live <- t.det_live - dropped;
    t.det_hi.(pid) <- t.det_committed.(pid)
  end

(* Retire [pid]'s committed determinants.  The watermark only ever
   advances ([det_mark] is monotone and survives restores): that is the
   crash-safety invariant — a GC pass re-entered after a nested crash
   re-derives the same or a later watermark, never an earlier one. *)
let det_retire t pid =
  let w = t.det_committed.(pid) in
  if w > t.det_mark.(pid) then begin
    t.det_live <- t.det_live - (w - t.det_mark.(pid));
    t.det_mark.(pid) <- w
  end

(* --- environment perturbation (escalation rung L2) ---------------------- *)

(* Re-randomize the environment's non-deterministic decisions for a
   perturbed replay: reseed the kernel RNG stream (Random syscall
   results, network jitter draws) from the base seed and [salt], and
   re-interleave each pending mailbox ACROSS senders.  Per-sender order
   is strictly preserved — the [msg_seq <= seen] duplicate filter would
   silently drop an older sequence number delivered after a newer one —
   so only the cross-sender interleaving (which a real network never
   guaranteed anyway) is shuffled.  Deterministic given (seed, salt):
   identical perturbed replays stay replayable. *)
let perturb t ~salt =
  t.rng <- Random.State.make [| t.seed; salt; 0x9e57 |];
  for pid = 0 to t.nprocs - 1 do
    let q = t.mailboxes.(pid) in
    if Queue.length q > 1 then begin
      let by_src = Hashtbl.create 4 in
      let srcs = ref [] in
      Queue.iter
        (fun m ->
          match Hashtbl.find_opt by_src m.msg_src with
          | Some sq -> Queue.add m sq
          | None ->
              let sq = Queue.create () in
              Queue.add m sq;
              Hashtbl.add by_src m.msg_src sq;
              srcs := m.msg_src :: !srcs)
        q;
      Queue.clear q;
      let srcs = Array.of_list (List.rev !srcs) in
      let rng = Random.State.make [| t.seed; salt; pid; 0x51ab |] in
      let remaining = ref (Array.length srcs) in
      while !remaining > 0 do
        (* Draw a sender with a pending message, append its oldest. *)
        let live = Array.of_list
            (Array.to_list srcs
            |> List.filter (fun s ->
                   not (Queue.is_empty (Hashtbl.find by_src s))))
        in
        let s = live.(Random.State.int rng (Array.length live)) in
        let sq = Hashtbl.find by_src s in
        Queue.add (Queue.pop sq) q;
        if Queue.is_empty sq then decr remaining
      done
    end
  done

(* --- syscall servicing -------------------------------------------------- *)

let apply_os_fault t ~now s (served : served) =
  match t.os_fault with
  | None -> served
  | Some f ->
      if now >= f.panic_at then served (* caller checks panic *)
      else if f.touches s then begin
        f.propagated <- true;
        let flip v = v lxor (1 lsl f.corrupt_bit) in
        let poke =
          if Random.State.float t.rng 1.0 < f.poke_probability then
            Some (Random.State.bits t.rng)
          else None
        in
        { served with r0 = Option.map flip served.r0; poke }
      end
      else served

let check_panic t ~now =
  match t.os_fault with
  | Some f when now >= f.panic_at ->
      t.panicked <- true;
      true
  | _ -> false

let fresh_fd k = let fd = k.next_fd in k.next_fd <- fd + 1; fd

let find_file t pid name =
  match Hashtbl.find_opt t.files.(pid) name with
  | Some f -> f
  | None ->
      let f = { contents = Array.make 64 0; len = 0 } in
      Hashtbl.add t.files.(pid) name f;
      f

let file_append f v =
  if f.len >= Array.length f.contents then begin
    let bigger = Array.make (2 * Array.length f.contents) 0 in
    Array.blit f.contents 0 bigger 0 f.len;
    f.contents <- bigger
  end;
  f.contents.(f.len) <- v;
  f.len <- f.len + 1

(* Service one syscall for [pid] at local time [now] with argument
   registers [a0], [a1]. *)
let service t ~pid ~now ~a0 ~a1 s =
  let k = t.kstates.(pid) in
  Hashtbl.replace t.syscall_tally s
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.syscall_tally s));
  let base = default_costs.syscall_ns in
  let done_ ?r0 ?r1 ?(cost = base) ?new_time ev =
    let served = { r0; r1; cost_ns = cost; new_time; ev; poke = None } in
    let served = apply_os_fault t ~now s served in
    if check_panic t ~now then Panic else Served served
  in
  match s with
  | Ft_vm.Syscall.Gettimeofday ->
      (* Microseconds; depends on scheduling, hence transient ND. *)
      done_ ~r0:(now / 1_000) (Ev_nd (Ft_core.Event.Transient, false))
  | Ft_vm.Syscall.Random ->
      done_ ~r0:(Random.State.int t.rng 1_000_000)
        (Ev_nd (Ft_core.Event.Transient, false))
  | Ft_vm.Syscall.Read_input ->
      let script = t.inputs.(pid) in
      if k.input_pos >= Array.length script then
        (* End of input: a fixed ND result (the user went home). *)
        done_ ~r0:(-1) (Ev_nd (Ft_core.Event.Fixed, true))
      else begin
        (* Closed loop: the user reads the response, then types the next
           key [gap] later — processing and commit latency serialize with
           think time, as in the paper's interactive runs.  Open loop:
           the token was due at an absolute time; a process that arrives
           late pays the backlog as latency, not as schedule slip. *)
        let gap, tok = script.(k.input_pos) in
        let ready =
          if t.input_abs.(pid) then max now gap else now + gap
        in
        k.input_pos <- k.input_pos + 1;
        k.last_input_at <- ready;
        done_ ~r0:tok ~new_time:ready (Ev_nd (Ft_core.Event.Fixed, true))
      end
  | Ft_vm.Syscall.Poll_input ->
      let script = t.inputs.(pid) in
      let ready =
        k.input_pos < Array.length script
        && (if t.input_abs.(pid) then fst script.(k.input_pos) <= now
            else k.last_input_at + fst script.(k.input_pos) <= now)
      in
      done_ ~r0:(if ready then 1 else 0)
        (Ev_nd (Ft_core.Event.Transient, false))
  | Ft_vm.Syscall.Write_output -> done_ ~cost:(base * 2) (Ev_visible a0)
  | Ft_vm.Syscall.Send -> (
      let dest = a0 land max_int mod max 1 t.nprocs in
      let seq = k.send_seq in
      k.send_seq <- seq + 1;
      (* Piggyback the sender's current dependency vector (a snapshot:
         later ticks must not retroactively taint this message). *)
      let msg_dv =
        if t.dv_enabled then Ft_core.Vclock.copy t.dvs.(pid) else no_dv
      in
      let msg_inc = t.incarnations.(pid) in
      match t.net with
      | None ->
          let jitter = Random.State.int t.rng default_costs.network_jitter_ns in
          let m =
            {
              msg_src = pid;
              msg_dest = dest;
              msg_payload = a1;
              msg_seq = seq;
              msg_tag = tag ~src:pid ~seq;
              msg_deliver_at = now + default_costs.network_latency_ns + jitter;
              msg_dv;
              msg_inc;
            }
          in
          Queue.add m t.mailboxes.(dest);
          done_ ~cost:(base * 3) (Ev_send { dest; tag = m.msg_tag })
      | Some net ->
          (* The transport owns timing: [msg_deliver_at] is stamped with
             the arrival time when the frame completes delivery.  A
             sender-rollback replay of this send gets a fresh transport
             sequence number but the same [msg_seq], so the receiver's
             duplicate filter still absorbs it at consume time. *)
          let m =
            {
              msg_src = pid;
              msg_dest = dest;
              msg_payload = a1;
              msg_seq = seq;
              msg_tag = tag ~src:pid ~seq;
              msg_deliver_at = now;
              msg_dv;
              msg_inc;
            }
          in
          Ft_net.Transport.send net ~now ~src:(t.net_base + pid)
            ~dst:(t.net_base + dest) m;
          done_ ~cost:(base * 3) (Ev_send { dest; tag = m.msg_tag }))
  | Ft_vm.Syscall.Recv | Ft_vm.Syscall.Try_recv -> (
      (* Pop the next message, skipping duplicates already consumed
         before the sender was rolled back (§2.1: receivers must filter
         duplicate messages for sends to be redoable). *)
      let rec next () =
        if Queue.is_empty t.mailboxes.(pid) then None
        else
          let m = Queue.pop t.mailboxes.(pid) in
          (* A message a sender rollback killed must neither be consumed
             nor advance the duplicate filter: its redone replacement —
             same [msg_seq], new incarnation — is the live one. *)
          if message_dead t m then next ()
          else
            let seen =
              match List.assoc_opt m.msg_src k.last_seen with
              | Some s -> s
              | None -> -1
            in
            if m.msg_seq <= seen then next () else Some m
      in
      match next () with
      | None ->
          if s = Ft_vm.Syscall.Try_recv then
            done_ ~r0:(-1) ~r1:(-1) (Ev_nd (Ft_core.Event.Transient, false))
          else Block_recv
      | Some m ->
          k.last_seen <-
            (m.msg_src, m.msg_seq)
            :: List.remove_assoc m.msg_src k.last_seen;
          t.uncommitted_recv.(pid) :=
            !(t.uncommitted_recv.(pid)) @ [ m ];
          (* Merge the piggybacked dependency vector: the receiver's
             state now causally depends on everything the sender's state
             depended on at send time. *)
          if t.dv_enabled && Ft_core.Vclock.size m.msg_dv > 0 then
            Ft_core.Vclock.merge_into ~into:t.dvs.(pid) m.msg_dv;
          let new_time =
            if m.msg_deliver_at > now then Some m.msg_deliver_at else None
          in
          done_ ~r0:m.msg_payload ~r1:m.msg_src ~cost:(base * 3) ?new_time
            (Ev_receive { src = m.msg_src; tag = m.msg_tag }))
  | Ft_vm.Syscall.Open_file ->
      (* Success depends on the fullness of the open-file table (§2.5).
         Given the kernel state a checkpoint preserves, a successful open
         replays deterministically; only the table-full failure is a
         fixed ND event the recovery system cannot rely on changing. *)
      if List.length k.open_files >= t.max_open_files then
        done_ ~r0:(-1) (Ev_nd (Ft_core.Event.Fixed, false))
      else begin
        let file = find_file t pid a0 in
        let fd = fresh_fd k in
        k.open_files <- (fd, (a0, file.len)) :: k.open_files;
        done_ ~r0:fd Ev_none
      end
  | Ft_vm.Syscall.Write_file -> (
      match List.assoc_opt a0 k.open_files with
      | None -> done_ ~r0:(-1) Ev_none
      | Some (name, _) ->
          (* Disk-full failures are fixed ND (§2.5); successful appends
             replay deterministically from checkpointed kernel state. *)
          if k.fs_used >= t.fs_capacity then
            done_ ~r0:(-1) (Ev_nd (Ft_core.Event.Fixed, false))
          else begin
            file_append (find_file t pid name) a1;
            k.fs_used <- k.fs_used + 1;
            done_ ~r0:1 ~cost:(base * 4) Ev_none
          end)
  | Ft_vm.Syscall.Read_file -> (
      match List.assoc_opt a0 k.open_files with
      | None -> done_ ~r0:(-1) Ev_none
      | Some (name, _) ->
          let f = find_file t pid name in
          let v = if a1 >= 0 && a1 < f.len then f.contents.(a1) else -1 in
          done_ ~r0:v Ev_none)
  | Ft_vm.Syscall.Close_file ->
      k.open_files <- List.remove_assoc a0 k.open_files;
      done_ Ev_none
  | Ft_vm.Syscall.Sigaction -> done_ Ev_none (* handler address kept by machine *)
  | Ft_vm.Syscall.Sleep ->
      done_ ~new_time:(now + max 0 (a0 * 1_000)) ~cost:0 Ev_none
  | Ft_vm.Syscall.Yield -> done_ ~cost:0 Ev_none

let syscall_count t s =
  Option.value ~default:0 (Hashtbl.find_opt t.syscall_tally s)

(* File observation, for tests and app assertions. *)
let file_length t pid name =
  match Hashtbl.find_opt t.files.(pid) name with
  | Some f -> f.len
  | None -> 0

let file_word t pid name i =
  match Hashtbl.find_opt t.files.(pid) name with
  | Some f when i >= 0 && i < f.len -> Some f.contents.(i)
  | _ -> None
