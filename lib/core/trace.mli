(** Recorded event traces with automatic vector-clock maintenance.

    Message sends and receives are matched by [tag], so happens-before
    (and the causally-precedes approximation of §2.2) can be queried over
    the whole multi-process history. *)

type t

val create : nprocs:int -> t

val nprocs : t -> int

val length : t -> int
(** Total number of recorded events. *)

val next_index : t -> int -> int
(** The index the next event of the given process will receive. *)

val record : t -> pid:int -> ?logged:bool -> Event.kind -> Event.t
(** Append an event.  A [Receive] merges the clock captured by the [Send]
    with the same tag, if one was recorded. *)

val events : t -> Event.t list
(** All events, in global recording order. *)

val events_of : t -> int -> Event.t list
(** One process's events, in execution order (touches only that
    process's events, via the per-process index vector). *)

val get : t -> int -> Event.t
(** The [i]-th event in global recording order, O(1). *)

val iter : t -> (Event.t -> unit) -> unit
(** Apply to every event in global recording order, no allocation. *)

val iter_of : t -> int -> (Event.t -> unit) -> unit
(** Apply to one process's events in execution order, no allocation. *)

val fold : t -> init:'a -> ('a -> Event.t -> 'a) -> 'a

val filter : t -> (Event.t -> bool) -> Event.t list
(** Matching events in global recording order, in one pass (no
    intermediate full-history list). *)

val happens_before : Event.t -> Event.t -> bool
(** Lamport's happens-before over recorded events.

    {!record} ticks the recording process's own clock entry and merges
    whole snapshots of earlier events, so for any two events of one
    trace, [happens_before e1 e2] iff [not (Event.equal e1 e2)] and
    [Event.index e1 < Vclock.get e2.vc e1.pid]: the events of process [p]
    that precede [e2] are the first [Vclock.get e2.vc p] of [p]'s
    history (less [e2] itself).  {!Save_work} rests its per-process
    binary searches on this. *)

val causally_precedes : Event.t -> Event.t -> bool
(** The paper uses happens-before as an approximation of causality; this
    is the same relation under the name used at theory call sites. *)

val find : t -> pid:int -> index:int -> Event.t option
val commits_of : t -> int -> Event.t list

val visible_values : t -> int list
(** The values of all visible events, in order. *)

val crashes : t -> Event.t list

val matching_send : t -> Event.t -> Event.t option
(** The send whose tag matches the given receive, if recorded. *)

val pp : Format.formatter -> t -> unit
