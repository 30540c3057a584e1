(** The two-dimensional protocol space (paper §2.4, Figures 3 and 4). *)

type point = {
  name : string;
  nd_effort : float;  (** effort to identify/convert non-determinism *)
  visible_effort : float;  (** effort to commit only visible events *)
  from_literature : bool;  (** placed but not executed in this repo *)
  executable : string option;
      (** for literature points realized by an executable spec in
          {!Protocols} (Manetho, Optimistic logging): its name *)
}

val of_spec : Protocol.spec -> point

val literature : point list
(** Placements of SBL, FBL, Targon/32, Hypervisor, Optimistic logging,
    Manetho and Coordinated checkpointing. *)

val executed : point list
(** The protocols implemented by this repository: the Figure-8 seven
    plus the executable message-logging pair. *)

val all : point list

val prevents_propagation_recovery : point -> bool
(** §2.6: protocols on the horizontal axis commit or convert every ND
    event, guaranteeing a commit lands on any dangerous path. *)

val expected_commit_frequency_rank : point -> float
(** Figure 4: farther from the origin, fewer commits (more negative is
    fewer). *)

val simplicity_rank : point -> float
(** Figure 4: closer to the origin, simpler implementation. *)

val constrained_reexecution : point -> bool
(** Figure 4: protocols off the vertical axis must constrain recovery
    re-execution to the pre-failure path. *)

val nd_left_in_application : point -> float
(** Figure 4: distance from the horizontal axis, the non-determinism
    left uncommitted — the chance of surviving propagation failures. *)

val render : point list -> string
(** ASCII rendering of Figure 3, on a 64 x 18 grid. *)
