(** The dangerous-paths coloring algorithms (paper §2.5).

    Single-Process Dangerous Paths Algorithm:
    - color all crash events;
    - color an event [e] if all events out of [e]'s end state are colored;
    - color an event [e] if at least one event out of [e]'s end state is
      colored and is a fixed non-deterministic event.

    Committing anywhere along a colored (dangerous) path can prevent
    recovery from the eventual propagation failure (Lose-work Theorem).

    The Multi-Process algorithm reclassifies each receive edge from a
    snapshot of the other processes' commits (see {!receive_class}) and
    then runs the single-process algorithm. *)

(* Effective class of an edge once receives have been resolved. *)
type eff = Eff_det | Eff_transient | Eff_fixed

let effective ?(receive_class = fun (_ : State_graph.edge) -> Event.Transient)
    (e : State_graph.edge) =
  match e.kind with
  | State_graph.Det -> Eff_det
  | State_graph.Transient_nd -> Eff_transient
  | State_graph.Fixed_nd -> Eff_fixed
  | State_graph.Receive_nd _ -> (
      match receive_class e with
      | Event.Transient -> Eff_transient
      | Event.Fixed -> Eff_fixed)

(* Fixpoint of the three coloring rules.  Returns a bool array indexed by
   edge id; [true] means the edge lies on a dangerous path. *)
let dangerous_edges ?receive_class (g : State_graph.t) =
  let n = State_graph.nedges g in
  let colored = Array.make n false in
  for i = 0 to n - 1 do
    if State_graph.is_crash_edge g (State_graph.edge g i) then
      colored.(i) <- true
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if not colored.(i) then begin
        let e = State_graph.edge g i in
        let out = State_graph.out_edges g e.dst in
        let all_colored =
          out <> [] && List.for_all (fun o -> colored.(o.State_graph.id)) out
        in
        let fixed_colored =
          List.exists
            (fun o ->
              colored.(o.State_graph.id)
              && effective ?receive_class o = Eff_fixed)
            out
        in
        if all_colored || fixed_colored then begin
          colored.(i) <- true;
          changed := true
        end
      end
    done
  done;
  colored

(* A state is doomed when committing at it can prevent recovery: either
   every way out is colored, or some colored way out is a fixed ND event
   (we cannot rely on fixed ND events taking the safe result; Figure 6C).
   Crash states themselves are trivially doomed. *)
let doomed_states ?receive_class (g : State_graph.t) =
  let colored = dangerous_edges ?receive_class g in
  Array.init g.State_graph.nstates (fun s ->
      State_graph.is_crash_state g s
      ||
      let out = State_graph.out_edges g s in
      (out <> [] && List.for_all (fun o -> colored.(o.State_graph.id)) out)
      || List.exists
           (fun o ->
             colored.(o.State_graph.id)
             && effective ?receive_class o = Eff_fixed)
           out)

(* Multi-Process Dangerous Paths Algorithm (§2.5): a receive executed by P
   is treated as transient iff, in the snapshot, the sender's last commit
   occurred before the send and the sender executed a transient ND event
   between its last commit and the send.  Otherwise the receive is fixed:
   during recovery the sender will deterministically regenerate the same
   message. *)
let receive_class_of_trace trace (recv : Event.t) =
  match Trace.matching_send trace recv with
  | None -> Event.Fixed (* no recorded sender: nothing can change it *)
  | Some send ->
      let before_send (e : Event.t) = Event.index e < Event.index send in
      (* One streaming pass over the sender's events for both the last
         pre-send commit and a transient ND event after it. *)
      let commit_floor = ref (-1) in
      Trace.iter_of trace send.Event.pid (fun (e : Event.t) ->
          if Event.is_commit e && before_send e then
            commit_floor := Event.index e);
      let transient_between = ref false in
      Trace.iter_of trace send.Event.pid (fun (e : Event.t) ->
          if Event.is_transient_nd e && Event.index e > !commit_floor
             && before_send e
          then transient_between := true);
      if !transient_between then Event.Transient else Event.Fixed

(* Convenience wrapper: dangerous edges of process [pid]'s state graph
   where receive edges are classified from the recorded trace.  The graph
   must label each receive edge's [Receive_nd] with the event index of the
   receive in the trace, via [recv_event_of_edge]. *)
let multi_process_dangerous_edges g ~trace ~recv_event_of_edge =
  let receive_class (e : State_graph.edge) =
    match e.State_graph.kind with
    | State_graph.Receive_nd _ -> (
        match recv_event_of_edge e with
        | Some recv -> receive_class_of_trace trace recv
        | None -> Event.Transient)
    | _ -> Event.Transient
  in
  dangerous_edges ~receive_class g
