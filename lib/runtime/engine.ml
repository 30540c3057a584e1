(** The execution engine — now a thin facade over a 1-tenant
    {!Scheduler}.  The scheduler's [step] is one iteration of the loop
    that used to live here, so this facade performs the byte-identical
    sequence of machine, kernel, checkpointer and RNG operations the
    monolithic engine did; the golden tests pin that.

    Fault injectors ({!Ft_faults}) plug in through the [on_execute]
    machine hook, the activation/crash bookkeeping, and the
    [on_recover] callback (used to suppress a fault during recovery,
    mirroring the paper's end-to-end check in §4.1). *)

type config = Scheduler.config = {
  protocol : Ft_core.Protocol.spec;
  medium : Checkpointer.medium;
  deadline_ns : int option;
  max_instructions : int;
  suppress_faults_on_recovery : bool;
  max_recovery_attempts : int;
  kills : (int * int) list;
  kill_at_decision : (int * int) list;
  pick_override : (int list -> int option) option;
  heap_words : int;
  stack_words : int;
  page_size : int;
  expand_resources_on_recovery : bool;
  excluded_pages : int -> bool;
  policy : Ft_recovery.Policy.t option;
  quarantine : Ft_recovery.Quarantine.params option;
  recovery_kills : (Scheduler.recovery_stage * int) list;
  det_cap : int;
}

let default_config = Scheduler.default_config

type outcome = Scheduler.outcome =
  | Completed
  | Deadline
  | Recovery_failed
  | Deadlocked
  | Instruction_budget
  | Net_unreachable

type result = Scheduler.result = {
  outcome : outcome;
  trace : Ft_core.Trace.t;
  visible : int list;
  sim_time_ns : int;
  wall_instructions : int;
  commit_counts : int array;
  nd_counts : int array;
  logged_counts : int array;
  visible_counts : int array;
  recoveries : int;
  crashes : int;
  recovery_crashes : int;
  activation : (int * int) option;
  first_crash : (int * int) option;
  commit_after_activation : bool;
  aborted_rounds : int;
  orphan_rollbacks : int;
  visible_times : (int * int * int) list;
  crash_times : (int * int) list;
  deep_rollbacks : int;
  perturbed_replays : int;
  ladder_peaks : int array;
  fault_classes : Ft_recovery.Classifier.verdict array;
  quarantine_trips : int;
  replay_mismatches : int;
  nested_crashes : int;
  cascade_resumes : int;
  det_high_water : int;
  det_forced_flushes : int;
}

type t = Scheduler.t

let create ?(cfg = default_config) ~kernel ~programs () =
  Scheduler.create ~tenants:[| (cfg, kernel, programs) |] ()

let machine t pid = Scheduler.machine t ~tid:0 ~pid
let kernel t = Scheduler.kernel t ~tid:0
let checkpointer t = Scheduler.checkpointer t ~tid:0
let set_on_recover t f = Scheduler.set_on_recover t ~tid:0 f
let set_on_replay t f = Scheduler.set_on_replay t ~tid:0 f
let record_activation t pid = Scheduler.record_activation t ~tid:0 pid
let activation_recorded t = Scheduler.activation_recorded t ~tid:0
let run t = (Scheduler.run t).(0)

(* Convenience: build, run, return. *)
let execute ?(cfg = default_config) ~kernel ~programs () =
  let t = create ~cfg ~kernel ~programs () in
  (t, run t)
