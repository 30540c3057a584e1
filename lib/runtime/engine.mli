(** The execution engine: runs VM processes on the kernel model under a
    recovery protocol, with Discount Checking commits, rollback and
    replay.  Schedules the runnable process with the smallest local
    clock (a conservative parallel simulation), consults the protocol at
    every event, records the {!Ft_core.Trace}, charges simulated time,
    and recovers crashed processes from their last checkpoint.

    Since the multi-tenant refactor this is a thin facade over a
    1-tenant {!Scheduler}; the types are equalities so the two APIs
    interoperate. *)

type config = Scheduler.config = {
  protocol : Ft_core.Protocol.spec;
  medium : Checkpointer.medium;
  cost : Checkpointer.cost_model;
  batch : int;  (** max instructions per scheduling slice *)
  deadline_ns : int option;  (** stop the run at this simulated time *)
  max_instructions : int;  (** safety net against runaway executions *)
  auto_recover : bool;
  suppress_faults_on_recovery : bool;
      (** the paper's end-to-end check (§4.1): restore pristine code and
          silence the injector when recovering *)
  max_recovery_attempts : int;
  reboot_delay_ns : int;  (** after a kernel panic *)
  recovery_retry_delay_ns : int;
      (** pacing between attempts when recovery itself crashes: a
          process restart, not a machine reboot *)
  kills : (int * int) list;  (** (time_ns, pid) stop failures to inject *)
  kill_at_decision : (int * int) list;
      (** (decision_index, pid) stop failures, applied just before the
          scheduler's Nth pick — lets the model-checker cross-check
          enumerate crash points deterministically *)
  pick_override : (int list -> int option) option;
      (** schedule replay hook: given the runnable pids (ascending),
          choose who runs next; [None] (the value or the result) falls
          back to the smallest-local-clock default *)
  twopc_timeout_ns : int;
      (** commit-round prepare/commit timeout, for 2PC and dependent
          commit alike: with an unreliable transport attached, an
          unreachable participant makes the coordinator presume abort
          and retry the round after the timeout (doubling per retry) *)
  twopc_max_retries : int;
      (** aborted-round retries (2PC or dependent commit) before the
          coordinator gives up and the run degrades to
          [Net_unreachable] *)
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
      (** escalation ladder driving recovery; [None] is the generic
          ladder with [max_recovery_attempts] replays *)
  quarantine : Ft_recovery.Quarantine.params option;
      (** crash-loop circuit breaker; [None] = off *)
  recovery_kills : (Scheduler.recovery_stage * int) list;
      (** injected nested failures: [(stage, n)] crashes the recovering
          process again at the [n]th entry into that recovery stage *)
  det_cap : int;
      (** hard cap on the live determinant count; past it the store
          degrades to a forced flush-to-checkpoint.  [0] = uncapped *)
}

val default_config : config

type outcome = Scheduler.outcome =
  | Completed  (** every process halted *)
  | Deadline
  | Recovery_failed  (** a process kept crashing past its last commit *)
  | Deadlocked
  | Instruction_budget
  | Net_unreachable
      (** the attached transport's retry budget ran out (a link gave up,
          or a 2PC round exhausted its presumed-abort retries): the run
          degrades instead of wedging in [Block_recv] *)

type result = Scheduler.result = {
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
  memory_pokes : int;  (** kernel-fault memory corruptions applied *)
  aborted_rounds : int;
      (** 2PC (and dependent-commit) rounds presumed aborted on a
          prepare/commit timeout *)
  orphan_rollbacks : int;
      (** message-logging protocols: survivors rolled back at recovery
          because their state depended on lost non-determinism *)
  visible_times : (int * int * int) list;
      (** (pid, value, local time ns) of each visible output, in order *)
  crash_times : (int * int) list;
      (** (pid, local time ns) of each crash, in order *)
  deep_rollbacks : int;  (** L1 recoveries *)
  perturbed_replays : int;  (** L2 recoveries *)
  ladder_peaks : int array;  (** per process: highest rung used *)
  fault_classes : Ft_recovery.Classifier.verdict array;
      (** per process, from observed replay behavior *)
  quarantine_trips : int;  (** cumulative breaker trips *)
  replay_mismatches : int;
      (** replayed visible outputs that disagreed with the value already
          released at that sequence position; must be 0 at every rung *)
  nested_crashes : int;
      (** injected crashes that landed during a recovery stage *)
  cascade_resumes : int;
      (** orphan cascades resumed from persisted progress after the
          victim re-crashed mid-cascade *)
  det_high_water : int;  (** peak live determinant count *)
  det_forced_flushes : int;
      (** determinant-cap hits that forced a flush-to-checkpoint *)
}

type t

val create :
  ?cfg:config -> kernel:Ft_os.Kernel.t -> programs:Ft_vm.Instr.t array array ->
  unit -> t
(** Builds the engine and takes checkpoint zero of every process ("the
    initial state of any application is always committed", §4). *)

val machine : t -> int -> Ft_vm.Machine.t
val kernel : t -> Ft_os.Kernel.t

val checkpointer : t -> Checkpointer.t
(** The engine's checkpointer — fault injectors reach the per-process
    Rio regions through it ({!Checkpointer.vista}). *)

val set_on_recover : t -> (int -> unit) -> unit
(** Called on each recovery when fault suppression is on; injectors use
    it to stand down. *)

val set_on_replay : t -> (int -> salt:int -> unit) -> unit
(** Called with [(pid, ~salt)] after every successful restore;
    recurring-fault injectors re-arm here, keyed by the environment
    salt. *)

val record_activation : t -> int -> unit
(** Fault injectors mark the moment the injected bug first changes the
    execution. *)

val activation_recorded : t -> bool

val run : t -> result

val execute :
  ?cfg:config -> kernel:Ft_os.Kernel.t -> programs:Ft_vm.Instr.t array array ->
  unit -> t * result
(** [create] then [run]. *)
