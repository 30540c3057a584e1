(** Nested-failure plans: deterministic per-tenant schedules of crashes
    injected {e during} recovery, feeding
    {!Ft_runtime.Scheduler.config.recovery_kills}.

    Occurrence-indexed, not time-indexed: a plan entry [(stage, n)]
    crashes the recovering (or coordinating) process at the tenant's
    [n]th entry into that recovery stage, because the stages are rare
    and short — a wall-clock schedule would almost always miss them. *)

type stage = Ft_runtime.Scheduler.recovery_stage =
  | Mid_restore
  | Mid_cascade
  | Mid_round

val tenant : rate:float -> seed:int -> int -> (stage * int) list
(** [tenant ~rate ~seed tid] — an expected [rate] nested crashes for
    this tenant (Poisson-distributed count), each at a uniform stage and
    a uniform occurrence in [1..4].
    Deterministic given [(seed, tid)]; empty when [rate <= 0]. *)
