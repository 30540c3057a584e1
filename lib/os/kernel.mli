(** The kernel model: services syscalls, classifies each as an event of
    the paper's taxonomy, and owns the clock, scripted input sources,
    timer signals, per-process file systems, the network (with delivery
    jitter, duplicate filtering and the receive recovery buffer), and
    the OS-fault machinery of the Table-2 experiment. *)

type costs = {
  instr_ns : int;  (** cost of one VM instruction *)
  syscall_ns : int;  (** base cost of a syscall *)
  network_latency_ns : int;  (** one-way message latency *)
  network_jitter_ns : int;  (** max extra random delay (message-order ND) *)
}

val default_costs : costs
(** Approximately the paper's testbed: 400 MHz Pentium II on 100 Mb/s
    switched Ethernet. *)

(** Event classification of a serviced syscall. *)
type ev =
  | Ev_none  (** deterministic *)
  | Ev_nd of Ft_core.Event.nd_class * bool  (** class, loggable *)
  | Ev_visible of int
  | Ev_send of { dest : int; tag : int }
  | Ev_receive of { src : int; tag : int }

type served = {
  r0 : int option;  (** result register 0 *)
  r1 : int option;
  cost_ns : int;
  new_time : int option;  (** blocking advanced the local clock here *)
  ev : ev;
  poke : int option;
      (** an injected kernel fault corrupted process memory through this
          syscall: a seed the engine uses to pick the word *)
}

type result =
  | Served of served
  | Block_recv  (** no message available; retry when one arrives *)
  | Panic  (** the injected kernel fault reached its crash point *)

(** A message in flight.  [msg_seq] is the per-sender sequence number
    the receive-side duplicate filter keys on; [msg_tag] is the stable
    trace tag; [msg_deliver_at] the arrival time (stamped by the
    transport when one is attached).  [msg_dv] is the sender's
    dependency vector piggybacked at send time under a message-logging
    protocol (the width-0 clock otherwise) and [msg_inc] its incarnation
    number, which tells stale pre-rollback messages apart from their
    redone replacements. *)
type message = {
  msg_src : int;
  msg_dest : int;
  msg_payload : int;
  msg_seq : int;
  msg_tag : int;
  msg_deliver_at : int;
  msg_dv : Ft_core.Vclock.t;
  msg_inc : int;
}

(** An injected OS fault (configured by {!Ft_faults.Os_injector}). *)
type os_fault = {
  mutable panic_at : int;
      (** absolute panic time: the corruption window is a time interval,
          so exposure scales with the application's syscall rate (§4.2) *)
  touches : Ft_vm.Syscall.t -> bool;
      (** syscalls served from the broken subsystem *)
  corrupt_bit : int;  (** result bit flipped by the corruption *)
  poke_probability : float;
      (** chance a touched syscall also corrupts process memory *)
  mutable propagated : bool;  (** corruption reached the application *)
}

type t
type kstate_snapshot

val create :
  ?seed:int ->
  ?fs_capacity:int ->
  ?max_open_files:int ->
  nprocs:int ->
  unit ->
  t

val costs : t -> costs
(** Always {!default_costs}. *)

val nprocs : t -> int

val set_input : t -> int -> (int * int) array -> unit
(** Scripted user input: [(gap_ns, token)] pairs; each token becomes
    available [gap] after the previous read's response (think time
    serializes with processing, as in the paper's interactive runs). *)

val scripted_input :
  start:int -> interval_ns:int -> int list -> (int * int) array

val set_input_absolute : t -> int -> (int * int) array -> unit
(** Open-loop scripted input: [(absolute_ready_ns, token)] pairs.  Each
    token is available at its fixed arrival time regardless of when the
    previous response completed, so backlog after a crash shows up as
    request latency rather than shifting the whole schedule. *)

val open_loop_input :
  start:int -> interval_ns:int -> int list -> (int * int) array
(** Fixed-rate arrival schedule for {!set_input_absolute}: token [i]
    becomes ready at [start + i * interval_ns]. *)

val set_timer_signal : t -> int -> period_ns:int -> first_at:int -> unit

val poll_signal : t -> int -> now:int -> bool
(** Is a timer signal due?  Consumes the occurrence. *)

val set_os_fault : t -> os_fault -> unit
val os_fault : t -> os_fault option
val panicked : t -> bool

val clear_os_fault : t -> unit
(** Reboot: the injected fault is gone. *)

val expand_resources : t -> unit
(** §2.6: grow the disk and the open-file table, turning the fixed ND
    resource-exhaustion results into transient ones for recovery. *)

val snapshot_kstate : t -> int -> kstate_snapshot
(** Per-process kernel state (input position, open files, send sequence,
    duplicate filter, signal timers): Discount Checking preserves it at
    commit time and reconstructs it during recovery (§3). *)

val restore_kstate : t -> int -> kstate_snapshot -> unit

val kstate_to_words : kstate_snapshot -> int array
(** Serialize a snapshot to words so the checkpointer can persist it in
    reliable memory alongside the process image. *)

val kstate_of_words : int array -> kstate_snapshot
(** Inverse of {!kstate_to_words}.  Raises [Invalid_argument] on a
    truncated snapshot. *)

val note_commit : t -> int -> unit
(** The process committed: consumed messages need never be redelivered. *)

val requeue_uncommitted : t -> int -> unit
(** The process rolled back: redeliver the messages it consumed since
    its last commit, in order (the §2.1 recovery buffer). *)

val mailbox_nonempty : t -> int -> bool

(** {2 Dependency tracking (message-logging protocols)}

    Enabled by the engine when the protocol's style is [Causal_log] or
    [Optimistic_log]: sends piggyback the sender's dependency vector,
    receives merge it into the receiver's.  Vectors, incarnations and
    rollback barriers live {e outside} the snapshottable kernel state —
    the engine restores vectors from its own committed snapshots, and
    barriers must survive restores to keep filtering stale messages. *)

val enable_dependency_tracking : t -> unit
val dependency_tracking : t -> bool

val dv : t -> int -> Ft_core.Vclock.t
(** [dv t pid] — the live dependency vector.  Read and [Vclock.copy]
    freely; mutate only through {!dv_tick} and {!restore_dv}. *)

val dv_tick : t -> int -> unit
(** The process executed a tainting ND event: advance its own
    component. *)

val restore_dv : t -> int -> Ft_core.Vclock.t -> unit
(** Roll the vector back to a committed snapshot (copied in). *)

val incarnation : t -> int -> int

val note_sender_rollback : t -> int -> unit
(** The engine rolled [pid] back past some of its sends.  Call {e after}
    [restore_kstate]: bumps the incarnation and installs a barrier at the
    restored send sequence, so in-flight messages from the previous
    incarnation at or above it are dead — their redone replacements
    (possibly carrying different redrawn payloads) are the live ones. *)

val message_dead : t -> message -> bool
(** Did a sender rollback kill this message?  The receive path drops
    dead messages without advancing the duplicate filter. *)

(** {2 Bounded determinant log}

    Accounting for the logging protocols' determinant store, kept as
    per-owner counters [det_mark <= det_committed <= det_hi]
    (determinants retire in stamp order, so each live log is an
    interval).  Like incarnations, the counters live outside
    snapshottable kstate; the retirement watermark is derived from
    committed state only and survives restores — its monotonicity is
    the GC's crash-safety (re-entrancy) invariant. *)

val det_append : t -> int -> bool
(** A determinant was recorded for [pid]'s latest ND event.  Returns
    [true] when the store exceeds its hard cap — the caller must force
    a flush-to-checkpoint rather than let the log grow unbounded. *)

val det_note_commit : t -> int -> unit
(** [pid] committed: its determinants so far become retirable (pending
    the scheduler's dependents-committed check). *)

val det_drop_uncommitted : t -> int -> unit
(** [pid] rolled back: determinants since its last commit belonged to
    the dead lineage and are discarded (replay records fresh ones). *)

val det_retire : t -> int -> unit
(** Retire [pid]'s committed determinants, advancing the (monotone)
    watermark.  Call only once every live process's dependence on [pid]
    is itself committed. *)

val set_det_cap : t -> int -> unit
(** Hard cap on the total live determinant count; [0] disables. *)

val det_cap : t -> int
val det_live : t -> int
val det_live_of : t -> int -> int
val det_high_water : t -> int
val det_forced_flushes : t -> int

val note_forced_flush : t -> unit
(** Record that a cap hit forced a flush (reported by the engine). *)

val perturb : t -> salt:int -> unit
(** Environment perturbation for an escalated (rung L2) replay:
    reseed the kernel RNG stream (Random syscall results, jitter
    draws) from the base seed and [salt], and re-interleave each
    pending mailbox across senders — per-sender order is preserved, so
    the duplicate filter keeps absorbing rollback replays.
    Deterministic given (seed, salt). *)

val attach_net :
  ?policy:Ft_net.Policy.t ->
  ?max_retries:int ->
  seed:int ->
  t ->
  message Ft_net.Transport.t
(** Interpose an {!Ft_net.Transport} between send and receive: sends
    travel a seeded, policy-driven unreliable channel (loss, duplication,
    reordering, delay, partitions) with retransmission, acks and
    in-order reassembly underneath the kernel's own [msg_seq] duplicate
    filter.  [policy] applies to every link.  Frames land in mailboxes
    when the engine pumps the transport.  Without this call the kernel's
    reliable path is untouched, byte for byte. *)

val net : t -> message Ft_net.Transport.t option
(** The attached transport, if any — the engine pumps it and consults
    reachability for 2PC timeouts. *)

val set_net : t -> ?base:int -> message Ft_net.Transport.t -> unit
(** Install a transport owned by someone else — the multi-tenant
    scheduler's shared transport.  This kernel's processes occupy the
    global pid range [base, base + nprocs) on it; the transport's
    [deliver] callback must route arrivals back through
    {!deliver_net}. *)

val net_base : t -> int
(** This kernel's offset into the (shared) transport pid space; 0 for a
    privately attached transport. *)

val deliver_net : t -> at:int -> dst:int -> message -> unit
(** Complete a transport delivery into local pid [dst]'s mailbox,
    stamping the arrival time.  Used by the shared-transport routing
    callback; {!attach_net} installs an equivalent private one. *)

val service :
  t -> pid:int -> now:int -> a0:int -> a1:int -> Ft_vm.Syscall.t -> result
(** Service one syscall at local time [now] with argument registers. *)

val syscall_count : t -> Ft_vm.Syscall.t -> int
(** How often a syscall was serviced; OS fault injection targets the
    kernel paths the workload exercises. *)

val file_length : t -> int -> int -> int
(** [file_length t pid name] — words written to the named file. *)

val file_word : t -> int -> int -> int -> int option
