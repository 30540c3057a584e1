(** The multi-tenant scheduler core: the engine's event loop factored so
    one scheduler steps many independent application instances
    ("tenants") against a shared virtual clock.

    A tenant is everything one experiment used to own — VM processes,
    kernel, checkpointer, protocol instance, trace, fault bookkeeping,
    recovery budgets.  The scheduler repeatedly picks the live tenant
    furthest behind on the virtual clock (ties to the lowest tenant id)
    and runs one iteration of the legacy engine loop for it, so a
    1-tenant scheduler is step-identical to the old {!Engine} — which is
    now a facade over this module.

    Tenants may share one {!Ft_net.Transport}: give each kernel a
    disjoint global pid range with {!Ft_os.Kernel.set_net}[ ~base] and
    route the transport's [deliver] callback back through
    {!Ft_os.Kernel.deliver_net}.  Links never cross tenants, so the
    per-tenant network verdicts (pending frames, earliest event, dead
    links) come from the transport's range queries and match what a
    private transport would say. *)

type recovery_stage =
  | Mid_restore  (** the victim's own restore/replay of its checkpoint *)
  | Mid_cascade  (** the orphan-rollback cascade the crash triggered *)
  | Mid_round
      (** coordinating a commit round, 2PC or dependent: the coordinator
          dies between participants *)
      (** The stateful stages of the recovery path itself, as injection
          sites for nested failures: a process may crash again while any
          of them is mid-flight.  Recovery is idempotent and re-enterable
          at every stage — restores retry from the same checkpoint,
          incarnation numbers and rollback progress persist so a
          re-crashed victim resumes (not restarts) the cascade, and a
          coordinator that dies mid-round is superseded without
          stranding participants. *)

type config = {
  protocol : Ft_core.Protocol.spec;
  medium : Checkpointer.medium;
  deadline_ns : int option;  (** stop the run at this simulated time *)
  max_instructions : int;  (** safety net against runaway executions *)
  suppress_faults_on_recovery : bool;
      (** the paper's end-to-end check (§4.1): restore pristine code and
          silence the injector when recovering *)
  max_recovery_attempts : int;
  kills : (int * int) list;  (** (time_ns, pid) stop failures to inject *)
  kill_at_decision : (int * int) list;
      (** (decision_index, pid) stop failures, applied just before the
          scheduler's Nth pick — lets the model-checker cross-check
          enumerate crash points deterministically *)
  pick_override : (int list -> int option) option;
      (** schedule replay hook: given the runnable pids (ascending),
          choose who runs next; [None] (the value or the result) falls
          back to the smallest-local-clock default *)
  heap_words : int;
  stack_words : int;
  page_size : int;
  expand_resources_on_recovery : bool;
      (** §2.6: grow resource limits at reboot, turning fixed ND
          exhaustion results transient *)
  excluded_pages : int -> bool;
      (** §2.6: recomputable heap pages left out of checkpoints; lost at
          recovery *)
  policy : Ft_recovery.Policy.t option;
      (** escalation ladder driving recovery (L0 generic replay, L1 deep
          rollback, L2 perturbed replay); [None] is
          {!Ft_recovery.Policy.generic} with [l0_attempts =
          max_recovery_attempts].  Every run keeps the crash bar and the
          sequenced egress channel, whichever ladder it uses *)
  quarantine : Ft_recovery.Quarantine.params option;
      (** per-tenant crash-loop circuit breaker: [threshold] crashes
          within [window_ns] park the whole tenant until a half-open
          probe (exponential backoff); latching open gives it up as
          [Recovery_failed].  [None] = off *)
  recovery_kills : (recovery_stage * int) list;
      (** injected nested failures: [(stage, n)] crashes the recovering
          (or coordinating) process again at the tenant's [n]th entry
          into that recovery stage.  Crashes during recovery count
          toward the quarantine breaker's sliding window like any
          other crash *)
  det_cap : int;
      (** hard cap on the live determinant count (logging styles): past
          it the store degrades gracefully to a forced
          flush-to-checkpoint of the appending process instead of
          growing unbounded.  [0] = uncapped *)
}

val default_config : config

(** {2 Constants}

    Fixed for every run: nothing varies them. *)

val batch : int
(** Max instructions per scheduling slice: 256. *)

val reboot_delay_ns : int
(** Simulated reboot time after a kernel panic: 30 s. *)

val recovery_retry_delay_ns : int
(** Pacing between restore attempts when recovery itself crashes, times
    the attempt number: a process restart (10 ms), not a machine
    reboot. *)

val twopc_timeout_ns : int
(** Commit-round prepare/commit timeout, for 2PC and dependent commit
    alike: 2 ms.  With an unreliable transport attached, an unreachable
    participant makes the coordinator presume abort and retry the round
    after the timeout, doubling per retry. *)

val twopc_max_retries : int
(** Aborted-round retries (2PC or dependent commit) before the
    coordinator gives up and the run degrades to [Net_unreachable]: 8. *)

type outcome =
  | Completed  (** every process halted *)
  | Deadline
  | Recovery_failed  (** a process kept crashing past its last commit *)
  | Deadlocked
  | Instruction_budget
  | Net_unreachable
      (** the attached transport's retry budget ran out (a link gave up,
          or a 2PC round exhausted its presumed-abort retries): the run
          degrades instead of wedging in [Block_recv] *)

type result = {
  outcome : outcome;
  trace : Ft_core.Trace.t;
  visible : int list;  (** values output to the user, in order *)
  sim_time_ns : int;
  wall_instructions : int;
  commit_counts : int array;  (** protocol-triggered commits, per process *)
  nd_counts : int array;
  logged_counts : int array;
  visible_counts : int array;
  recoveries : int;
  crashes : int;
  recovery_crashes : int;
      (** crashes injected during restore itself; each costs a reboot
          delay and a retry from the same checkpoint *)
  activation : (int * int) option;  (** pid, trace index at activation *)
  first_crash : (int * int) option;
  commit_after_activation : bool;
      (** a commit landed between fault activation and the first crash:
          the Table-1 Lose-work violation criterion *)
  aborted_rounds : int;
      (** 2PC (and dependent-commit) rounds presumed aborted on a
          prepare/commit timeout *)
  orphan_rollbacks : int;
      (** message-logging protocols: survivors rolled back at recovery
          because their dependency vector dominated a crashed process's
          restored one — their state depended on lost non-determinism *)
  visible_times : (int * int * int) list;
      (** (pid, value, local time ns) of each visible output, in order —
          the serve harness turns these into per-request latencies *)
  crash_times : (int * int) list;
      (** (pid, local time ns) of each crash, in order — MTTR
          measurement *)
  deep_rollbacks : int;
      (** L1 recoveries that discarded committed generations (a
          controlled Save-work sacrifice, never a Consistency one) *)
  perturbed_replays : int;  (** L2 recoveries *)
  ladder_peaks : int array;
      (** per process: highest escalation rung used (0 = generic replay
          only, 1 = deep rollback, 2 = perturbed replay) *)
  fault_classes : Ft_recovery.Classifier.verdict array;
      (** per process, from observed replay behavior — [Benign] when it
          never crashed *)
  quarantine_trips : int;
      (** cumulative circuit-breaker trips across the run (crash-loop
          events; 0 without a [quarantine] config) *)
  replay_mismatches : int;
      (** sequenced-egress oracle: replayed visible outputs that
          disagreed with the value already released at that position —
          any nonzero count means recovery broke exactly-once output *)
  nested_crashes : int;
      (** injected crashes that landed during a recovery stage
          ([recovery_kills] entries that fired) *)
  cascade_resumes : int;
      (** orphan cascades resumed from persisted rollback progress after
          the victim re-crashed mid-cascade (resumed, never restarted) *)
  det_high_water : int;
      (** peak live determinant count across the run — the bounded-log
          claim's witness *)
  det_forced_flushes : int;
      (** determinant-cap hits that forced a flush-to-checkpoint *)
}

type t

val create :
  tenants:(config * Ft_os.Kernel.t * Ft_vm.Instr.t array array) array ->
  unit ->
  t
(** Builds every tenant and takes checkpoint zero of each of its
    processes ("the initial state of any application is always
    committed", §4).  Kernels must be sized for their program arrays;
    sharing a transport between kernels is the caller's wiring
    ({!Ft_os.Kernel.set_net}). *)

val tenant_count : t -> int

val steps : t -> int
(** Scheduling steps taken so far, across all tenants — one step is one
    iteration of the legacy engine loop (the bench hot-loop metric). *)

val machine : t -> tid:int -> pid:int -> Ft_vm.Machine.t
val kernel : t -> tid:int -> Ft_os.Kernel.t

val checkpointer : t -> tid:int -> Checkpointer.t
(** A tenant's checkpointer — fault injectors reach the per-process Rio
    regions through it ({!Checkpointer.vista}). *)

val set_on_recover : t -> tid:int -> (int -> unit) -> unit
(** Called on each of the tenant's recoveries when fault suppression is
    on; injectors use it to stand down. *)

val set_on_replay : t -> tid:int -> (int -> salt:int -> unit) -> unit
(** Called with [(pid, ~salt)] after every successful restore, whatever
    the rung; [salt] is the environment perturbation in effect (0 =
    unperturbed).  Recurring-fault injectors re-arm here, keyed by the
    salt, so a Heisenbug's manifestation moves when the environment
    does. *)

val record_activation : t -> tid:int -> int -> unit
(** Fault injectors mark the moment the injected bug first changes the
    execution. *)

val activation_recorded : t -> tid:int -> bool

val run : t -> result array
(** Drive every tenant to its verdict; [(run t).(tid)] is tenant
    [tid]'s result. *)
