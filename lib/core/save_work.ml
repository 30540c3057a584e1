(** The Save-work invariant (paper §2.3).

    Save-work Theorem: a computation is guaranteed consistent recovery from
    stop failures iff for each executed non-deterministic event [e_p^i]
    that causally precedes a visible or commit event [e], process [p]
    executes a commit [e_p^j] such that [e_p^j] happens-before (or is
    atomic with) [e], and [i < j].

    The invariant splits in two: {e Save-work-visible} (targets are visible
    events; enforces the visible constraint) and {e Save-work-orphan}
    (targets are commit events; enforces the no-orphan constraint).  This
    module checks both over a recorded {!Trace.t}. *)

type violation = {
  nd : Event.t;      (* the uncommitted non-deterministic event *)
  target : Event.t;  (* the visible or commit event it causally precedes *)
}

let pp_violation fmt v =
  Format.fprintf fmt "nd %a causally precedes %a without an intervening commit"
    Event.pp v.nd Event.pp v.target

(* --- vector-clock projection ---------------------------------------------

   Every recorded clock is a snapshot, so for recorded events
   [e1 -> e2] iff [e1 <> e2] and [Event.index e1 < vc(e2).(e1.pid)]
   (Trace.happens_before).  The events of process [p] that precede a
   target are therefore a prefix of [p]'s history, cut at the target's
   horizon [vc(target).(p)], and the theorem's check per (target, p)
   reduces to an interval:

   - the commits on [p] that reach the target — happen-before it, are
     it, or are atomic with a commit that does — are those below the
     horizon plus the [p]-members of every coordinated round one of
     whose members lies below its own process's horizon;
   - with [m] the largest such commit index, the violating ND events of
     [p] are exactly those with index in [(m, horizon)].

   Both ends come from binary searches over per-process sorted index
   arrays, so a target costs O(nprocs^2 log n) (the square only for
   rounds), not a scan of the trace. *)

type projection = {
  nd_idx : int array array;       (* per pid: ND event indices, ascending *)
  nd_ev : Event.t array array;    (* the same ND events *)
  nd_ord : int array array;       (* their ordinals among all ND events *)
  nd_count : int;
  commit_idx : int array array;   (* per pid: commit indices, ascending *)
  rounds : (int array * int array) array array;
      (* [rounds.(p).(q)]: for each round with members on [p] and [q],
         its smallest [q]-member index (ascending), paired with the
         running maximum of the rounds' largest [p]-member index *)
}

(* Number of elements of the ascending array [a] below [h]. *)
let count_below a h =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < h then lo := mid + 1 else hi := mid
  done;
  !lo

(* [rounds] of {!projection}, from each round's member commits. *)
let round_table n members =
  let pairs = Array.make_matrix n n [] in
  Hashtbl.iter
    (fun _ (ms : Event.t list) ->
      let lo = Array.make n max_int and hi = Array.make n (-1) in
      List.iter
        (fun (c : Event.t) ->
          lo.(c.pid) <- min lo.(c.pid) (Event.index c);
          hi.(c.pid) <- max hi.(c.pid) (Event.index c))
        ms;
      for p = 0 to n - 1 do
        if hi.(p) >= 0 then
          for q = 0 to n - 1 do
            if hi.(q) >= 0 then
              pairs.(p).(q) <- (lo.(q), hi.(p)) :: pairs.(p).(q)
          done
      done)
    members;
  Array.map
    (Array.map (fun l ->
         let a = Array.of_list (List.sort compare l) in
         let best = ref (-1) in
         ( Array.map fst a,
           Array.map
             (fun (_, h) ->
               best := max !best h;
               !best)
             a )))
    pairs

let project trace =
  let n = Trace.nprocs trace in
  let nds = Array.make n [] and commits = Array.make n [] in
  let members = Hashtbl.create 16 in
  let ord = ref 0 in
  Trace.iter trace (fun (e : Event.t) ->
      if Event.is_nd e then begin
        nds.(e.pid) <- (e, !ord) :: nds.(e.pid);
        incr ord
      end
      else if Event.is_commit e then begin
        commits.(e.pid) <- Event.index e :: commits.(e.pid);
        Option.iter
          (fun r ->
            Hashtbl.replace members r
              (e :: Option.value ~default:[] (Hashtbl.find_opt members r)))
          (Event.commit_round e)
      end);
  let nds = Array.map (fun l -> Array.of_list (List.rev l)) nds in
  {
    nd_idx = Array.map (Array.map (fun (e, _) -> Event.index e)) nds;
    nd_ev = Array.map (Array.map fst) nds;
    nd_ord = Array.map (Array.map snd) nds;
    nd_count = !ord;
    commit_idx = Array.map (fun l -> Array.of_list (List.rev l)) commits;
    rounds = round_table n members;
  }

(* The largest index of a commit on [p] that happens-before, is, or is
   atomic with a commit that happens-before or is [target]; -1 if none. *)
let reaching_commit pr p (target : Event.t) =
  let vc = target.vc in
  let below = pr.commit_idx.(p) in
  let k = count_below below (Vclock.get vc p) in
  let m = ref (if k > 0 then below.(k - 1) else -1) in
  Array.iteri
    (fun q (los, best) ->
      let k = count_below los (Vclock.get vc q) in
      if k > 0 then m := max !m best.(k - 1))
    pr.rounds.(p);
  !m

(* Violations against [targets], in the order of the pairwise definition:
   by ND event in recording order, then by target in [targets] order. *)
let violations_in pr targets =
  let n = Array.length pr.nd_idx in
  let buckets = ref [||] in
  (* walk the targets backwards so each bucket ends up in target order *)
  List.iter
    (fun (target : Event.t) ->
      for p = 0 to n - 1 do
        (* p's ND events below the target's horizon happen-before it (the
           target itself is never an ND event) *)
        let idx = pr.nd_idx.(p) in
        let hi = count_below idx (Vclock.get target.vc p) in
        if hi > 0 then begin
          let lo = count_below idx (reaching_commit pr p target + 1) in
          if lo < hi && Array.length !buckets = 0 then
            buckets := Array.make pr.nd_count [];
          let b = !buckets in
          for k = lo to hi - 1 do
            let o = pr.nd_ord.(p).(k) in
            b.(o) <- { nd = pr.nd_ev.(p).(k); target } :: b.(o)
          done
        end
      done)
    (List.rev targets);
  List.concat (Array.to_list !buckets)

(* Violations of Save-work-visible: uncommitted ND events that causally
   precede a visible event. *)
let visible_in pr trace =
  violations_in pr (Trace.filter trace Event.is_visible)

(* Violations of Save-work-orphan: uncommitted ND events that causally
   precede a commit on another process (an orphan-creating dependence).
   Same-process commits can never be orphan-creating: a later commit on
   the same process commits the ND event itself, so every commit can be
   a target. *)
let orphan_in pr trace =
  violations_in pr (Trace.filter trace Event.is_commit)

let visible_violations trace = visible_in (project trace) trace
let orphan_violations trace = orphan_in (project trace) trace

let violations trace =
  let pr = project trace in
  visible_in pr trace @ orphan_in pr trace

let holds trace = violations trace = []

(* A process is an orphan (§2.3, Figure 2) if it has committed a dependence
   on another process's non-deterministic event that has been lost: here,
   the ND event is "lost" when its process crashed without committing it.
   By the horizon rule, commit [c] depends on a lost ND event of [p] iff
   [p]'s earliest lost ND index is below [vc(c).(p)]. *)
let orphans trace =
  let nprocs = Trace.nprocs trace in
  let crashed = Array.make nprocs false in
  let last_commit = Array.make nprocs (-1) in
  Trace.iter trace (fun (e : Event.t) ->
      if Event.is_crash e then crashed.(e.pid) <- true
      else if Event.is_commit e && Event.index e > last_commit.(e.pid) then
        last_commit.(e.pid) <- Event.index e);
  (* earliest lost ND index per process; max_int if none *)
  let first_lost = Array.make nprocs max_int in
  Trace.iter trace (fun (e : Event.t) ->
      if
        Event.is_nd e && crashed.(e.pid)
        && last_commit.(e.pid) <= Event.index e
        && Event.index e < first_lost.(e.pid)
      then first_lost.(e.pid) <- Event.index e);
  let orphan = Array.make nprocs false in
  Trace.iter trace (fun (c : Event.t) ->
      if Event.is_commit c && not orphan.(c.pid) then
        for p = 0 to nprocs - 1 do
          if p <> c.pid && first_lost.(p) < Vclock.get c.vc p then
            orphan.(c.pid) <- true
        done);
  List.filter (fun p -> orphan.(p)) (List.init nprocs Fun.id)
