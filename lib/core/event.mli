(** Events of the computation model (paper §2.2).

    Processes are state machines; each transition is an event.  Event
    kinds follow the paper's taxonomy: deterministic internal
    transitions, non-deterministic events (transient or fixed, §2.5),
    user-visible output, message sends/receives, commits, and crash
    events. *)

type pid = int
(** Process identifier, [0 .. nprocs-1]. *)

(** Classes of non-determinism (§2.5). *)
type nd_class =
  | Transient
      (** May take a different result when re-executed after a failure:
          scheduling, signals, message order, timing. *)
  | Fixed
      (** Has the same result before and after a failure: user input
          values, disk-full and file-table-full conditions. *)

(** What a recorded event was. *)
type kind =
  | Internal  (** deterministic state change *)
  | Nd of nd_class  (** internal non-determinism *)
  | Visible of int  (** output seen by the user, with its value *)
  | Send of { dest : pid; tag : int }  (** message send *)
  | Receive of { src : pid; tag : int }  (** message receive (ND) *)
  | Commit  (** the process preserved its state *)
  | Commit_round of int
      (** a commit belonging to an atomic coordinated round (2PC): all
          commits with the same round id are atomic with each other *)
  | Crash  (** terminal transition of a failure *)

type t = {
  pid : pid;
  kind : kind;
  logged : bool;
      (** [true] when the recovery system rendered this ND event
          deterministic by logging its result *)
  vc : Vclock.t;  (** vector clock just after the event *)
}

val index : t -> int
(** Per-process sequence number, 0-based: the event's own component of
    its vector clock, less one ({!Trace.record} ticks it once per
    event). *)

val is_nd : t -> bool
(** Is this event non-deterministic?  Receives are ND (message order);
    logged events are deterministic by definition. *)

val nd_class : t -> nd_class option
(** The event's ND class, regardless of logging; [None] for events that
    are never ND. *)

val is_visible : t -> bool

val is_commit : t -> bool
(** Both local commits and coordinated-round commits. *)

val commit_round : t -> int option

val atomic_with : t -> t -> bool
(** Two commits of the same coordinated round are atomic with each
    other — the Save-work Theorem's "(or atomic with)" case. *)

val is_send : t -> bool
val is_receive : t -> bool
val is_crash : t -> bool

val is_transient_nd : t -> bool
(** [is_nd e] and of class {!Transient}. *)

val kind_to_string : kind -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Identity: same process and same index. *)
