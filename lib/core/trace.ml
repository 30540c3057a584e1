(** Recorded event traces.

    A trace accumulates the events executed by every process of a
    computation, maintaining vector clocks so that happens-before (and
    thus the causally-precedes approximation of §2.2) can be queried
    afterwards.  Message sends and receives are matched by [tag].

    Events live in an amortized-O(1) append array with a per-process
    index vector, so checker queries iterate in place instead of
    re-reversing a cons list: {!events_of} and {!commits_of} touch only
    that process's events, {!find} and {!matching_send} are O(1), and
    the Save-work / Consistency / Lose-work oracles stream over
    {!iter}/{!filter} without materializing the whole history. *)

type t = {
  nprocs : int;
  mutable arr : Event.t array;              (* events.(0 .. count-1) *)
  mutable count : int;
  mutable by_pid : int array array;         (* positions in [arr], per pid *)
  by_pid_count : int array;
  clocks : Vclock.t array;                  (* live clock per process *)
  send_clocks : (int, Vclock.t) Hashtbl.t;  (* tag -> clock at send *)
  first_sends : (int, Event.t) Hashtbl.t;   (* tag -> earliest send event *)
}

let create ~nprocs =
  {
    nprocs;
    arr = [||];
    count = 0;
    by_pid = Array.make nprocs [||];
    by_pid_count = Array.make nprocs 0;
    clocks = Array.init nprocs (fun _ -> Vclock.create nprocs);
    send_clocks = Hashtbl.create 64;
    first_sends = Hashtbl.create 64;
  }

let nprocs t = t.nprocs
let length t = t.count

let next_index t pid =
  (* Own component counts this process's events; index is 0-based. *)
  Vclock.get t.clocks.(pid) pid

(* Doubling append; the freshly recorded event doubles as the fill
   element, so no dummy [Event.t] is ever needed. *)
let push t (e : Event.t) =
  if t.count = Array.length t.arr then begin
    let grown = Array.make (max 16 (2 * t.count)) e in
    Array.blit t.arr 0 grown 0 t.count;
    t.arr <- grown
  end;
  t.arr.(t.count) <- e;
  t.count <- t.count + 1;
  let pid = e.Event.pid in
  let n = t.by_pid_count.(pid) in
  if n = Array.length t.by_pid.(pid) then begin
    let grown = Array.make (max 16 (2 * n)) 0 in
    Array.blit t.by_pid.(pid) 0 grown 0 n;
    t.by_pid.(pid) <- grown
  end;
  t.by_pid.(pid).(n) <- t.count - 1;
  t.by_pid_count.(pid) <- n + 1

let record t ~pid ?(logged = false) kind =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "Trace.record: bad pid %d" pid);
  (match kind with
  | Event.Receive { tag; _ } -> (
      match Hashtbl.find_opt t.send_clocks tag with
      | Some sc -> Vclock.merge_into ~into:t.clocks.(pid) sc
      | None -> ())
  | _ -> ());
  Vclock.tick t.clocks.(pid) pid;
  let vc = Vclock.copy t.clocks.(pid) in
  (match kind with
  | Event.Send { tag; _ } -> Hashtbl.replace t.send_clocks tag vc
  | _ -> ());
  let e = { Event.pid; kind; logged; vc } in
  (match kind with
  | Event.Send { tag; _ } ->
      if not (Hashtbl.mem t.first_sends tag) then
        Hashtbl.replace t.first_sends tag e
  | _ -> ());
  push t e;
  e

(* --- iteration ----------------------------------------------------------- *)

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Trace.get: out of range";
  t.arr.(i)

let iter t f =
  for i = 0 to t.count - 1 do
    f t.arr.(i)
  done

let iter_of t pid f =
  if pid < 0 || pid >= t.nprocs then invalid_arg "Trace.iter_of: bad pid";
  let row = t.by_pid.(pid) in
  for i = 0 to t.by_pid_count.(pid) - 1 do
    f t.arr.(row.(i))
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

(* All events satisfying [p], in global recording order, in one pass. *)
let filter t p =
  List.rev (fold t ~init:[] (fun acc e -> if p e then e :: acc else acc))

let events t = filter t (fun _ -> true)

let events_of t pid =
  List.rev
    (let acc = ref [] in
     iter_of t pid (fun e -> acc := e :: !acc);
     !acc)

(* e1 happens-before e2.  With per-event clock snapshots taken just after
   the tick, strict pointwise comparison is exactly Lamport's relation. *)
let happens_before (e1 : Event.t) (e2 : Event.t) = Vclock.lt e1.vc e2.vc

(* The paper uses happens-before as an approximation of causality; we keep
   a distinct name for readability at call sites. *)
let causally_precedes = happens_before

(* A process's events are indexed consecutively from 0, so lookup is one
   array read. *)
let find t ~pid ~index =
  if pid < 0 || pid >= t.nprocs || index < 0
     || index >= t.by_pid_count.(pid)
  then None
  else Some t.arr.(t.by_pid.(pid).(index))

let commits_of t pid =
  List.rev
    (let acc = ref [] in
     iter_of t pid (fun e -> if Event.is_commit e then acc := e :: !acc);
     !acc)

let visible_values t =
  List.rev
    (fold t ~init:[] (fun acc e ->
         match e.Event.kind with Event.Visible v -> v :: acc | _ -> acc))

let crashes t = filter t Event.is_crash

(* The matching send of a receive event, if it was recorded: the
   earliest send with the receive's tag, as the list scan used to
   return. *)
let matching_send t (recv : Event.t) =
  match recv.Event.kind with
  | Event.Receive { tag; _ } -> Hashtbl.find_opt t.first_sends tag
  | _ -> None

let pp fmt t = iter t (fun e -> Format.fprintf fmt "%a@." Event.pp e)
