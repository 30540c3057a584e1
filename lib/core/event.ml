(** Events of the computation model (paper §2.2).

    A computation is one or more processes, each modeled as a state machine
    whose transitions are {e events}.  Event kinds follow the paper's
    taxonomy: deterministic internal transitions, non-deterministic events
    (split into {e transient} and {e fixed} classes, §2.5), user-visible
    output events, message sends and receives, commit events, and crash
    events (the terminal transition of a propagation failure). *)

type pid = int

type nd_class =
  | Transient  (** may have a different result when re-executed after a
                   failure: scheduling, signals, message order, timing *)
  | Fixed      (** has the same result before and after a failure: user
                   input values, disk-full or file-table-full conditions *)

type kind =
  | Internal                                (* deterministic state change *)
  | Nd of nd_class                          (* internal non-determinism *)
  | Visible of int                          (* output seen by the user *)
  | Send of { dest : pid; tag : int }       (* message send *)
  | Receive of { src : pid; tag : int }     (* message receive (ND) *)
  | Commit
  | Commit_round of int   (* one commit of an atomic coordinated round *)
  | Crash

type t = {
  pid : pid;
  kind : kind;
  logged : bool;     (* true when the recovery system rendered this ND
                        event deterministic by logging its result *)
  vc : Vclock.t;     (* vector clock at (just after) this event *)
}

(* Recording ticks the process's own clock component once per event, so
   that component, less one, is the event's per-process sequence number. *)
let index e = Vclock.get e.vc e.pid - 1

(* Receives are non-deterministic because message arrival order is not
   fixed; a logged event of any kind is deterministic by definition. *)
let is_nd e =
  (not e.logged)
  &&
  match e.kind with
  | Nd _ | Receive _ -> true
  | Internal | Visible _ | Send _ | Commit | Commit_round _ | Crash -> false

let nd_class e =
  match e.kind with
  | Nd c -> Some c
  | Receive _ -> Some Transient
  | Internal | Visible _ | Send _ | Commit | Commit_round _ | Crash -> None

let is_visible e = match e.kind with Visible _ -> true | _ -> false
let is_commit e =
  match e.kind with Commit | Commit_round _ -> true | _ -> false

(* The atomic round a commit belongs to, if it was coordinated. *)
let commit_round e =
  match e.kind with Commit_round r -> Some r | _ -> None

(* Two commits of the same coordinated round are atomic with each other
   (the 2PC atomicity the Save-work Theorem's "or atomic with" covers). *)
let atomic_with a b =
  match (commit_round a, commit_round b) with
  | Some ra, Some rb -> ra = rb
  | _ -> false
let is_send e = match e.kind with Send _ -> true | _ -> false
let is_receive e = match e.kind with Receive _ -> true | _ -> false
let is_crash e = match e.kind with Crash -> true | _ -> false

let is_transient_nd e =
  is_nd e && nd_class e = Some Transient

let kind_to_string = function
  | Internal -> "internal"
  | Nd Transient -> "nd-transient"
  | Nd Fixed -> "nd-fixed"
  | Visible v -> Printf.sprintf "visible(%d)" v
  | Send { dest; tag } -> Printf.sprintf "send(->%d #%d)" dest tag
  | Receive { src; tag } -> Printf.sprintf "recv(<-%d #%d)" src tag
  | Commit -> "commit"
  | Commit_round r -> Printf.sprintf "commit[round %d]" r
  | Crash -> "crash"

let to_string e =
  Printf.sprintf "p%d/%d:%s%s" e.pid (index e) (kind_to_string e.kind)
    (if e.logged then "[logged]" else "")

let pp fmt e = Format.pp_print_string fmt (to_string e)

let equal a b = a.pid = b.pid && index a = index b
