(* Unit tests for the theory library: vector clocks, happens-before,
   the Save-work checker, the dangerous-paths coloring (including the
   paper's Figure 6 cases), the Lose-work analyses, consistent-recovery
   equivalence, and the protocol space. *)

open Ft_core

(* --- vector clocks ------------------------------------------------------ *)

let test_vclock_basics () =
  let a = Vclock.create 3 and b = Vclock.create 3 in
  Vclock.tick a 0;
  Alcotest.(check bool) "a > 0" true (Vclock.lt b a);
  Vclock.tick b 1;
  Alcotest.(check bool) "concurrent not lt" false (Vclock.lt a b);
  Alcotest.(check bool) "concurrent not gt" false (Vclock.lt b a);
  Vclock.merge_into ~into:b a;
  Alcotest.(check bool) "after merge a <= b" true (Vclock.leq a b)

let test_vclock_size_mismatch () =
  let a = Vclock.create 3 and b = Vclock.create 2 in
  (match Vclock.merge_into ~into:a b with
  | () -> Alcotest.fail "narrow merge must not succeed"
  | exception Vclock.Size_mismatch { expected; got } ->
      Alcotest.(check int) "expected width" 3 expected;
      Alcotest.(check int) "got width" 2 got);
  (match Vclock.merge_into ~into:b a with
  | () -> Alcotest.fail "wide merge must not succeed"
  | exception Vclock.Size_mismatch { expected; got } ->
      Alcotest.(check int) "expected width" 2 expected;
      Alcotest.(check int) "got width" 3 got);
  (* same width still merges, and the error left [a] untouched *)
  Vclock.merge_into ~into:a (Vclock.create 3);
  Alcotest.(check bool) "a unchanged" true (Vclock.equal a (Vclock.create 3))

let test_happens_before_chain () =
  let t = Trace.create ~nprocs:2 in
  let e1 = Trace.record t ~pid:0 (Event.Nd Event.Transient) in
  let s = Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 1 }) in
  let r = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 1 }) in
  let v = Trace.record t ~pid:1 (Event.Visible 7) in
  Alcotest.(check bool) "e1 hb s" true (Trace.happens_before e1 s);
  Alcotest.(check bool) "s hb r" true (Trace.happens_before s r);
  Alcotest.(check bool) "e1 hb v (transitively, across the message)" true
    (Trace.happens_before e1 v);
  Alcotest.(check bool) "v not hb e1" false (Trace.happens_before v e1)

let test_concurrent_events () =
  let t = Trace.create ~nprocs:2 in
  let a = Trace.record t ~pid:0 (Event.Nd Event.Transient) in
  let b = Trace.record t ~pid:1 (Event.Nd Event.Transient) in
  Alcotest.(check bool) "independent procs concurrent" false
    (Trace.happens_before a b || Trace.happens_before b a)

(* --- Save-work ----------------------------------------------------------- *)

let test_save_work_violation_detected () =
  (* ND then visible with no commit: the coin-flip example of Fig. 1. *)
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  Alcotest.(check bool) "violated" false (Save_work.holds t);
  Alcotest.(check int) "one violation" 1
    (List.length (Save_work.visible_violations t))

let test_save_work_commit_cures () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  Alcotest.(check bool) "upheld" true (Save_work.holds t)

let test_save_work_logged_nd_exempt () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 ~logged:true (Event.Nd Event.Fixed));
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  Alcotest.(check bool) "logging renders the event deterministic" true
    (Save_work.holds t)

let test_save_work_commit_after_visible_insufficient () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Visible 1));
  ignore (Trace.record t ~pid:0 Event.Commit);
  Alcotest.(check bool) "commit must happen-before the visible" false
    (Save_work.holds t)

let test_save_work_orphan_figure2 () =
  (* Figure 2: B executes ND, sends to A, A commits -> A is an orphan
     candidate; Save-work-orphan is violated. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:1 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:1 (Event.Send { dest = 0; tag = 9 }));
  ignore (Trace.record t ~pid:0 (Event.Receive { src = 1; tag = 9 }));
  ignore (Trace.record t ~pid:0 Event.Commit);
  Alcotest.(check bool) "orphan violation present" true
    (Save_work.orphan_violations t <> []);
  (* now B crashes without committing: A is an orphan *)
  ignore (Trace.record t ~pid:1 Event.Crash);
  Alcotest.(check (list int)) "A is an orphan" [ 0 ] (Save_work.orphans t)

let test_save_work_orphan_cured_by_sender_commit () =
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:1 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:1 Event.Commit);
  ignore (Trace.record t ~pid:1 (Event.Send { dest = 0; tag = 9 }));
  ignore (Trace.record t ~pid:0 (Event.Receive { src = 1; tag = 9 }));
  ignore (Trace.record t ~pid:0 Event.Commit);
  Alcotest.(check bool) "sender committed first: no orphan" true
    (Save_work.holds t);
  ignore (Trace.record t ~pid:1 Event.Crash);
  Alcotest.(check (list int)) "no orphans" [] (Save_work.orphans t)

(* A 100,000-event single-process trace repeating the 10-event block
   N V N N V C V N C I (N = unlogged ND, V = visible, C = commit,
   I = internal).  Each block's NDs are committed by its own C's, so
   only in-block pairs violate: N0 before V1, and N0, N2, N3 before V4
   (V6 follows C5) -- 4 per block.  Commits on one process create no
   orphan violations.  The pairwise scan would take minutes here. *)
let test_save_work_known_answer_100k () =
  let blocks = 10_000 in
  let t = Trace.create ~nprocs:1 in
  let pattern =
    Event.
      [ Nd Transient; Visible 0; Nd Fixed; Nd Transient; Visible 1; Commit;
        Visible 2; Nd Transient; Commit; Internal ]
  in
  for _ = 1 to blocks do
    List.iter (fun k -> ignore (Trace.record t ~pid:0 k)) pattern
  done;
  Alcotest.(check int) "100k events" 100_000 (Trace.length t);
  let vs = Save_work.violations t in
  Alcotest.(check int) "4 violations per block" (4 * blocks) (List.length vs);
  (match vs with
  | v :: _ ->
      Alcotest.(check (pair int int)) "first: N0 before V1" (0, 1)
        (Event.index v.Save_work.nd, Event.index v.Save_work.target)
  | [] -> ());
  Alcotest.(check (list int)) "no orphans" [] (Save_work.orphans t)

(* --- dangerous paths (Figure 6) ------------------------------------------ *)

(* Case A: a deterministic straight line into a crash: every edge is
   dangerous; committing anywhere prevents recovery. *)
let test_figure6_case_a () =
  let g =
    State_graph.make ~nstates:4
      ~edges:[ (0, 1, State_graph.Det); (1, 2, State_graph.Det);
               (2, 3, State_graph.Det) ]
      ~crash_states:[ 3 ] ()
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check (list bool)) "all colored" [ true; true; true ]
    (Array.to_list d);
  let doomed = Dangerous_paths.doomed_states g in
  Alcotest.(check bool) "initial state doomed" true doomed.(0)

(* Case B: a transient ND event with one result avoiding the crash:
   committing before it is safe. *)
let test_figure6_case_b () =
  let g =
    State_graph.make ~nstates:5
      ~edges:
        [ (0, 1, State_graph.Det);          (* edge 0: into the choice *)
          (1, 2, State_graph.Transient_nd); (* edge 1: crash branch *)
          (1, 3, State_graph.Transient_nd); (* edge 2: safe branch *)
          (2, 4, State_graph.Det) ]         (* edge 3: crash event *)
      ~crash_states:[ 4 ] ()
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check bool) "crash edge colored" true d.(3);
  Alcotest.(check bool) "crash-bound ND colored" true d.(1);
  Alcotest.(check bool) "safe ND not colored" false d.(2);
  Alcotest.(check bool) "pre-choice edge not colored" false d.(0);
  let doomed = Dangerous_paths.doomed_states g in
  Alcotest.(check bool) "safe to commit before the transient ND" false
    doomed.(1)

(* Case C: the same choice but fixed ND: we cannot rely on the fixed event
   taking the safe result, so committing before it is unsafe. *)
let test_figure6_case_c () =
  let g =
    State_graph.make ~nstates:5
      ~edges:
        [ (0, 1, State_graph.Det);
          (1, 2, State_graph.Fixed_nd);
          (1, 3, State_graph.Fixed_nd);
          (2, 4, State_graph.Det) ]
      ~crash_states:[ 4 ] ()
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check bool) "crash-bound fixed ND colored" true d.(1);
  Alcotest.(check bool) "pre-choice edge colored (fixed rule)" true d.(0);
  let doomed = Dangerous_paths.doomed_states g in
  Alcotest.(check bool) "unsafe to commit before the fixed ND" true
    doomed.(1)

(* Cross-check the coloring against a brute-force reading on a diamond. *)
let test_dangerous_nontrivial_graph () =
  (* 0 -det-> 1; 1 -trans-> 2 (safe loop back to 1 terminal ok?) ... use:
     0 -> 1 det; 1 -> 2 transient; 1 -> 3 transient; 2 -> 4 det (crash);
     3 -> 5 det (terminal ok); plus 3 -> 6 fixed; 6 crash. *)
  let g =
    State_graph.make ~nstates:7
      ~edges:
        [ (0, 1, State_graph.Det);        (* 0 *)
          (1, 2, State_graph.Transient_nd); (* 1 *)
          (1, 3, State_graph.Transient_nd); (* 2 *)
          (2, 4, State_graph.Det);        (* 3: crash *)
          (3, 5, State_graph.Det);        (* 4: success *)
          (3, 6, State_graph.Fixed_nd) ]  (* 5: crash via fixed nd *)
      ~crash_states:[ 4; 6 ] ()
  in
  let d = Dangerous_paths.dangerous_edges g in
  Alcotest.(check bool) "edge to state 2 colored" true d.(1);
  (* state 3's fixed-ND crash colors edge 2 by the fixed rule, even
     though the success edge exists *)
  Alcotest.(check bool) "edge to state 3 colored via fixed rule" true d.(2);
  Alcotest.(check bool) "success edge itself not colored" false d.(4);
  (* both transient branches out of state 1 are colored (one reaches the
     crash, the other has a colored fixed-ND exit), so the "all colored"
     rule propagates the color to edge 0 as well *)
  Alcotest.(check bool) "edge 0 colored (all branches dangerous)" true d.(0)

(* Receive classification for the multi-process algorithm (§2.5). *)
let test_receive_classification () =
  let t = Trace.create ~nprocs:2 in
  (* sender: commit, then transient ND, then send -> receive is transient *)
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 1 }));
  let r1 = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 1 }) in
  Alcotest.(check bool) "transient receive" true
    (Dangerous_paths.receive_class_of_trace t r1 = Event.Transient);
  (* sender: ND, commit, send -> the message is deterministically
     regenerated; receive is fixed *)
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 2 }));
  let r2 = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 2 }) in
  Alcotest.(check bool) "fixed receive" true
    (Dangerous_paths.receive_class_of_trace t r2 = Event.Fixed)

(* Multi-Process Dangerous Paths Algorithm end to end (§2.5): the same
   state machine is dangerous or safe depending on the snapshot of the
   sender's commits. *)
let test_multi_process_dangerous_paths () =
  (* P's machine: state 1 has two receive outcomes — one into a crash,
     one safe (the Figure 6B/6C shape, with receives standing in for
     the non-determinism).  Whether committing at state 1 is safe
     depends on the receive's effective class, which depends on the
     snapshot of the sender's commits. *)
  let g =
    State_graph.make ~nstates:5
      ~edges:
        [ (0, 1, State_graph.Det);          (* edge 0 *)
          (1, 2, State_graph.Receive_nd 0); (* edge 1: crash branch *)
          (1, 3, State_graph.Receive_nd 0); (* edge 2: safe branch *)
          (2, 4, State_graph.Det) ]         (* edge 3: crash event *)
      ~crash_states:[ 4 ] ()
  in
  let make_trace ~sender_committed_before_send =
    let t = Trace.create ~nprocs:2 in
    if not sender_committed_before_send then begin
      ignore (Trace.record t ~pid:0 Event.Commit);
      ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient))
    end
    else begin
      ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
      ignore (Trace.record t ~pid:0 Event.Commit)
    end;
    ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 5 }));
    let recv = Trace.record t ~pid:1 (Event.Receive { src = 0; tag = 5 }) in
    (t, recv)
  in
  (* transient case: the sender has uncommitted transient ND before the
     send, so during recovery the message may differ *)
  let t1, r1 = make_trace ~sender_committed_before_send:false in
  let d1 =
    Dangerous_paths.multi_process_dangerous_edges g ~trace:t1
      ~recv_event_of_edge:(fun _ -> Some r1)
  in
  Alcotest.(check bool) "crash-bound receive colored" true d1.(1);
  Alcotest.(check bool)
    "transient receives: the pre-choice edge stays safe" false d1.(0);
  (* fixed case: the sender committed before sending, so it will
     deterministically regenerate the same message *)
  let t2, r2 = make_trace ~sender_committed_before_send:true in
  let d2 =
    Dangerous_paths.multi_process_dangerous_edges g ~trace:t2
      ~recv_event_of_edge:(fun _ -> Some r2)
  in
  Alcotest.(check bool)
    "fixed receives: the whole path becomes dangerous" true d2.(0)

let test_safe_to_commit_api () =
  let g =
    State_graph.make ~nstates:3
      ~edges:[ (0, 1, State_graph.Transient_nd); (1, 2, State_graph.Det) ]
      ~crash_states:[ 2 ] ()
  in
  (* state 0: its only exit is a transient ND... whose every outcome
     crashes, so it is doomed; build a safe variant with an escape *)
  Alcotest.(check bool) "no escape: unsafe" false
    (Lose_work.safe_to_commit g ~state:0);
  let g2 =
    State_graph.make ~nstates:4
      ~edges:
        [ (0, 1, State_graph.Transient_nd); (0, 3, State_graph.Transient_nd);
          (1, 2, State_graph.Det) ]
      ~crash_states:[ 2 ] ()
  in
  Alcotest.(check bool) "transient escape exists: safe" true
    (Lose_work.safe_to_commit g2 ~state:0)

(* --- Lose-work ------------------------------------------------------------ *)

let test_lose_work_figure9 () =
  (* transient ND, fault activation (internal), visible, crash: the
     dangerous path spans from after the ND event to the crash; CPVS's
     commit before the visible violates Lose-work. *)
  let t = Trace.create ~nprocs:1 in
  let nd = Trace.record t ~pid:0 (Event.Nd Event.Transient) in
  let act = Trace.record t ~pid:0 Event.Internal in
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Visible 5));
  let crash = Trace.record t ~pid:0 Event.Crash in
  let a = Lose_work.analyze t ~crash in
  Alcotest.(check bool) "not a Bohrbug" false a.Lose_work.bohrbug;
  Alcotest.(check int) "dangerous from just after the ND"
    (Event.index nd + 1) a.Lose_work.dangerous_from;
  Alcotest.(check bool) "violated" true a.Lose_work.violated;
  Alcotest.(check bool) "table-1 criterion" true
    (Lose_work.committed_after_activation t ~activation:act ~crash);
  Alcotest.(check bool) "save-work/lose-work conflict" true
    (Lose_work.conflict t ~crash)

let test_lose_work_commit_before_nd_safe () =
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 Event.Commit);
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 Event.Internal);
  let crash = Trace.record t ~pid:0 Event.Crash in
  let a = Lose_work.analyze t ~crash in
  Alcotest.(check bool) "commit before the ND is safe" false
    a.Lose_work.violated

let test_lose_work_bohrbug () =
  (* No transient ND before the crash: the dangerous path reaches the
     initial (always committed) state. *)
  let t = Trace.create ~nprocs:1 in
  ignore (Trace.record t ~pid:0 Event.Internal);
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Fixed));
  let crash = Trace.record t ~pid:0 Event.Crash in
  let a = Lose_work.analyze t ~crash in
  Alcotest.(check bool) "Bohrbug" true a.Lose_work.bohrbug;
  Alcotest.(check bool) "inherently violated" true a.Lose_work.violated

(* --- consistency ----------------------------------------------------------- *)

let test_consistency_exact () =
  Alcotest.(check bool) "identical sequences" true
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ] ~observed:[ 1; 2; 3 ])

let test_consistency_duplicates_ok () =
  (* a rollback may repeat already-output events *)
  Alcotest.(check bool) "duplicates tolerated" true
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ]
       ~observed:[ 1; 2; 2; 3 ]);
  Alcotest.(check bool) "repeat of older output tolerated" true
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ]
       ~observed:[ 1; 2; 1; 2; 3 ])

let test_consistency_wrong_value () =
  (match
     Consistency.check ~reference:[ 1; 2; 3 ] ~observed:[ 1; 9; 3 ]
   with
  | Consistency.Extra { position = 1; value = 9 } -> ()
  | v -> Alcotest.failf "unexpected verdict %a" Consistency.pp_verdict v);
  Alcotest.(check bool) "flagged" false
    (Consistency.is_consistent ~reference:[ 1; 2; 3 ] ~observed:[ 1; 9; 3 ])

let test_consistency_truncation () =
  match Consistency.check ~reference:[ 1; 2; 3 ] ~observed:[ 1 ] with
  | Consistency.Truncated { missing = 2 } -> ()
  | v -> Alcotest.failf "unexpected verdict %a" Consistency.pp_verdict v

(* --- protocol space -------------------------------------------------------- *)

let test_protocol_space_axis_rule () =
  (* §2.6: every horizontal-axis protocol prevents surviving propagation
     failures; none of the visible-effort protocols do. *)
  List.iter
    (fun name ->
      let p =
        List.find
          (fun q -> q.Protocol_space.name = name)
          Protocol_space.all
      in
      Alcotest.(check bool) (name ^ " on axis") true
        (Protocol_space.prevents_propagation_recovery p))
    [ "CAND"; "CAND-LOG"; "SBL"; "Targon/32"; "Hypervisor" ];
  List.iter
    (fun name ->
      let p =
        List.find (fun q -> q.Protocol_space.name = name) Protocol_space.all
      in
      Alcotest.(check bool) (name ^ " off axis") false
        (Protocol_space.prevents_propagation_recovery p))
    [ "CPVS"; "CBNDVS"; "CPV-2PC"; "Manetho"; "Coord-ckpt" ]

let test_protocol_space_executable_links () =
  (* Manetho and Optimistic logging are no longer literature-only: their
     points carry the name of the executable spec, which must exist and
     sit at the same coordinates (same declared effort on both axes). *)
  let linked =
    List.filter
      (fun p -> p.Protocol_space.executable <> None)
      Protocol_space.literature
  in
  Alcotest.(check (list string))
    "exactly the message-logging pair is linked"
    [ "OPTIMISTIC"; "CAUSAL-LOG" ]
    (List.filter_map (fun p -> p.Protocol_space.executable) linked);
  List.iter
    (fun p ->
      match p.Protocol_space.executable with
      | None -> ()
      | Some name -> (
          match Protocols.by_name name with
          | None -> Alcotest.failf "%s links to unknown spec %s"
                      p.Protocol_space.name name
          | Some spec ->
              Alcotest.(check (float 1e-9))
                (p.Protocol_space.name ^ " nd effort agrees")
                p.Protocol_space.nd_effort spec.Protocol.nd_effort;
              Alcotest.(check (float 1e-9))
                (p.Protocol_space.name ^ " visible effort agrees")
                p.Protocol_space.visible_effort spec.Protocol.visible_effort))
    Protocol_space.literature;
  (* and both linked specs are part of the executed extended panel *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " executed") true
        (List.exists
           (fun p -> p.Protocol_space.name = name)
           Protocol_space.executed))
    [ "CAUSAL-LOG"; "OPTIMISTIC" ]

(* Hand-built message-logging traces: the exact commit shapes the
   dependent-commit protocol emits, judged by the Save-work oracle. *)

let test_orphan_trace_dependent_round_upholds () =
  (* p0 draws unlogged ND and sends; p1's state is tainted by p0's draw.
     Before p1's visible, a dependent-commit round covers both: p0
     commits the round and acks (Send/Receive edge), then p1 commits the
     same round.  Save-work holds. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 0 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = 0 }));
  ignore (Trace.record t ~pid:0 (Event.Commit_round 0));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = -1 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = -1 }));
  ignore (Trace.record t ~pid:1 (Event.Commit_round 0));
  ignore (Trace.record t ~pid:1 (Event.Visible 7));
  Alcotest.(check bool) "dependent round covers the taint" true
    (Save_work.holds t)

let test_orphan_trace_blind_commit_violates () =
  (* Same taint, but p1 commits alone — exactly what an orphan looks
     like: its commit does not cover p0's unlogged draw, so a crash of
     p0 after the visible loses non-determinism the output depends on. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:0 (Event.Nd Event.Transient));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 0 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = 0 }));
  ignore (Trace.record t ~pid:1 Event.Commit);
  ignore (Trace.record t ~pid:1 (Event.Visible 7));
  Alcotest.(check bool) "blind local commit leaves an orphan" false
    (Save_work.holds t);
  Alcotest.(check bool) "at least one visible violation" true
    (Save_work.visible_violations t <> [])

let test_orphan_trace_logged_determinant_exempt () =
  (* Causal logging's other half: if the determinant is logged at the
     receive and the ND itself is logged, no commit is needed at all. *)
  let t = Trace.create ~nprocs:2 in
  ignore (Trace.record t ~pid:0 ~logged:true (Event.Nd Event.Fixed));
  ignore (Trace.record t ~pid:0 (Event.Send { dest = 1; tag = 0 }));
  ignore (Trace.record t ~pid:1 ~logged:true (Event.Receive { src = 0; tag = 0 }));
  ignore (Trace.record t ~pid:1 (Event.Visible 7));
  Alcotest.(check bool) "logged determinants need no commit" true
    (Save_work.holds t)

let test_state_graph_dot () =
  let g =
    State_graph.make ~nstates:3
      ~edges:[ (0, 1, State_graph.Transient_nd); (1, 2, State_graph.Det) ]
      ~crash_states:[ 2 ] ()
  in
  let dot = State_graph.to_dot ~dangerous:(Dangerous_paths.dangerous_edges g) g in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length dot
      && (String.sub dot i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "crash state filled" true (contains "fillcolor=black");
  Alcotest.(check bool) "dangerous edge red" true (contains "color=red");
  Alcotest.(check bool) "nd label" true (contains "ND")

let test_protocols_by_name () =
  Alcotest.(check bool) "lookup cand" true
    (Protocols.by_name "cand" <> None);
  Alcotest.(check bool) "lookup cpv-2pc" true
    (Protocols.by_name "CPV-2PC" <> None);
  Alcotest.(check bool) "unknown" true (Protocols.by_name "nope" = None)

(* --- qcheck properties ------------------------------------------------------ *)

let gen_kind =
  QCheck.Gen.(
    frequency
      [
        (3, return Event.Internal);
        (3, return (Event.Nd Event.Transient));
        (2, return (Event.Nd Event.Fixed));
        (3, map (fun v -> Event.Visible v) (int_bound 100));
        (3, return Event.Commit);
      ])

let arb_trace =
  QCheck.make
    QCheck.Gen.(
      list_size (int_bound 40) gen_kind
      >>= fun kinds ->
      return
        (let t = Trace.create ~nprocs:1 in
         List.iter (fun k -> ignore (Trace.record t ~pid:0 k)) kinds;
         t))
    ~print:(fun t -> Format.asprintf "%a" Trace.pp t)

(* Committing after every event always upholds Save-work. *)
let prop_commit_all_upholds =
  QCheck.Test.make ~name:"commit-after-everything upholds save-work"
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 30) gen_kind)
       ~print:(fun ks ->
         String.concat ";" (List.map Event.kind_to_string ks)))
    (fun kinds ->
      let t = Trace.create ~nprocs:1 in
      List.iter
        (fun k ->
          ignore (Trace.record t ~pid:0 k);
          ignore (Trace.record t ~pid:0 Event.Commit))
        kinds;
      Save_work.holds t)

(* The checker is monotone: adding a commit never introduces a violation. *)
let prop_violations_subset_of_nd =
  QCheck.Test.make ~name:"every violation names an unlogged nd event"
    ~count:200 arb_trace (fun t ->
      List.for_all
        (fun v -> Event.is_nd v.Save_work.nd)
        (Save_work.violations t))

(* Happens-before is a strict partial order on any recorded trace. *)
let prop_hb_irreflexive_transitive =
  QCheck.Test.make ~name:"happens-before is a strict order" ~count:100
    arb_trace (fun t ->
      let evs = Array.of_list (Trace.events t) in
      let n = Array.length evs in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Trace.happens_before evs.(i) evs.(i) then ok := false
      done;
      (* same-process events are totally ordered by index *)
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if not (Trace.happens_before evs.(i) evs.(j)) then ok := false
        done
      done;
      !ok)

(* A consistent observation is still consistent after duplicating any
   already-seen prefix element. *)
let prop_consistency_duplicate_closure =
  QCheck.Test.make ~name:"duplicating seen output preserves consistency"
    ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 10) (0 -- 20))
              (0 -- 10))
    (fun (reference, k) ->
      QCheck.assume (reference <> []);
      let observed =
        (* duplicate the element at position k mod len, in place *)
        let arr = Array.of_list reference in
        let i = k mod Array.length arr in
        Array.to_list (Array.sub arr 0 (i + 1))
        @ [ arr.(i) ]
        @ Array.to_list (Array.sub arr (i + 1) (Array.length arr - i - 1))
      in
      Consistency.is_consistent ~reference ~observed)

(* Dangerous-path coloring: a colored edge always has a path of colored
   edges leading to a crash state (soundness on random DAG-ish graphs). *)
let prop_dangerous_reaches_crash =
  let gen =
    QCheck.Gen.(
      int_range 3 10 >>= fun nstates ->
      list_size (int_bound 20)
        (triple (int_bound (nstates - 1)) (int_bound (nstates - 1))
           (int_bound 2))
      >>= fun raw ->
      int_bound (nstates - 1) >>= fun crash ->
      let edges =
        List.map
          (fun (s, d, k) ->
            ( s,
              d,
              match k with
              | 0 -> State_graph.Det
              | 1 -> State_graph.Transient_nd
              | _ -> State_graph.Fixed_nd ))
          raw
      in
      return (State_graph.make ~nstates ~edges ~crash_states:[ crash ] ()))
  in
  QCheck.Test.make ~name:"colored edges reach a crash through colored edges"
    ~count:200
    (QCheck.make gen ~print:(fun g ->
         Printf.sprintf "graph with %d states" g.State_graph.nstates))
    (fun g ->
      let colored = Dangerous_paths.dangerous_edges g in
      let nedges = State_graph.nedges g in
      (* BFS over colored edges from each colored edge's destination *)
      let reaches_crash from_state =
        let seen = Array.make g.State_graph.nstates false in
        let rec go s =
          if State_graph.is_crash_state g s then true
          else if seen.(s) then false
          else begin
            seen.(s) <- true;
            List.exists
              (fun e ->
                colored.(e.State_graph.id) && go e.State_graph.dst)
              (State_graph.out_edges g s)
          end
        in
        go from_state
      in
      let ok = ref true in
      for i = 0 to nedges - 1 do
        if colored.(i) then begin
          let e = State_graph.edge g i in
          if
            (not (State_graph.is_crash_state g e.State_graph.dst))
            && not (reaches_crash e.State_graph.dst)
          then ok := false
        end
      done;
      !ok)

(* ---- hand-computed coloring: fixed vs transient ND (paper §2.5) ----

   The user-input machine: a deterministic prologue, a fixed-ND input
   branch, then a timing-dependent branch on the input=A side where one
   arm crashes.

        0 --det--> 1 --fixed(A)--> 2 --nd--> 4 --det--> [6]   (crash)
                   |               `--nd--> 5 --det--> 7      (ok)
                   `--fixed(B)--> 3 --det--> 7                (ok)

   When the inner branch is transient, danger stays local: a retry can
   take the safe arm, so only the edge into the all-exits-crash state 4
   is colored.  When the inner branch is fixed, the redraw repeats the
   crash arm, so danger propagates backwards through every fixed edge
   all the way to the initial state. *)

let input_machine inner =
  State_graph.make ~nstates:8
    ~edges:
      [
        (0, 1, State_graph.Det);
        (* e0 *)
        (1, 2, State_graph.Fixed_nd);
        (* e1: input = A *)
        (1, 3, State_graph.Fixed_nd);
        (* e2: input = B *)
        (2, 4, inner);
        (* e3: crash-bound arm *)
        (2, 5, inner);
        (* e4: safe arm *)
        (4, 6, State_graph.Det);
        (* e5: the crash event *)
        (3, 7, State_graph.Det);
        (* e6 *)
        (5, 7, State_graph.Det);
        (* e7 *)
      ]
    ~crash_states:[ 6 ] ()

let check_coloring g ~edges ~states =
  let colored = Dangerous_paths.dangerous_edges g in
  Array.iteri
    (fun i want ->
      Alcotest.(check bool) (Printf.sprintf "edge %d" i) want colored.(i))
    edges;
  let doomed = Dangerous_paths.doomed_states g in
  Array.iteri
    (fun s want ->
      Alcotest.(check bool) (Printf.sprintf "state %d" s) want doomed.(s))
    states

let test_coloring_transient_inner () =
  check_coloring
    (input_machine State_graph.Transient_nd)
    ~edges:[| false; false; false; true; false; true; false; false |]
    ~states:[| false; false; false; false; true; false; true; false |]

let test_coloring_fixed_inner () =
  check_coloring
    (input_machine State_graph.Fixed_nd)
    ~edges:[| true; true; false; true; false; true; false; false |]
    ~states:[| true; true; true; false; true; false; true; false |]

let test_coloring_receive_classification () =
  (* same machine with the inner branch a receive: its danger footprint
     is exactly the transient machine's or the fixed machine's,
     depending on how the multi-process rule classifies the receive *)
  let g = input_machine (State_graph.Receive_nd 1) in
  check_coloring g (* default: receives treated as transient *)
    ~edges:[| false; false; false; true; false; true; false; false |]
    ~states:[| false; false; false; false; true; false; true; false |];
  let fixed _ = Event.Fixed in
  let colored = Dangerous_paths.dangerous_edges ~receive_class:fixed g in
  Alcotest.(check (list bool))
    "fixed-classified receive == fixed machine"
    (Array.to_list
       (Dangerous_paths.dangerous_edges
          (input_machine State_graph.Fixed_nd)))
    (Array.to_list colored);
  let doomed = Dangerous_paths.doomed_states ~receive_class:fixed g in
  Alcotest.(check (list bool))
    "doomed states likewise"
    (Array.to_list
       (Dangerous_paths.doomed_states (input_machine State_graph.Fixed_nd)))
    (Array.to_list doomed)

(* ---- Vclock laws (qcheck) ---- *)

let clock_of_list l =
  let t = Vclock.create (List.length l) in
  List.iteri
    (fun i n ->
      for _ = 1 to n do
        Vclock.tick t i
      done)
    l;
  t

let arb_vclock =
  QCheck.make
    ~print:(fun c -> Vclock.to_string c)
    QCheck.Gen.(map clock_of_list (list_repeat 3 (int_bound 5)))

let prop_vclock_antisymmetric =
  QCheck.Test.make ~name:"vclock leq antisymmetric, lt asymmetric" ~count:500
    QCheck.(pair arb_vclock arb_vclock)
    (fun (a, b) ->
      (if Vclock.leq a b && Vclock.leq b a then Vclock.equal a b else true)
      && if Vclock.lt a b then not (Vclock.lt b a) else true)

let prop_vclock_merge_lub =
  QCheck.Test.make ~name:"vclock merge is the least upper bound" ~count:500
    QCheck.(triple arb_vclock arb_vclock arb_vclock)
    (fun (a, b, c) ->
      let m = Vclock.copy a in
      Vclock.merge_into ~into:m b;
      Vclock.leq a m && Vclock.leq b m
      (* least: m is below exactly the common upper bounds *)
      && Vclock.leq m c = (Vclock.leq a c && Vclock.leq b c))

let prop_vclock_concurrency_symmetric =
  QCheck.Test.make ~name:"vclock concurrency is symmetric" ~count:500
    QCheck.(pair arb_vclock arb_vclock)
    (fun (a, b) ->
      let conc x y =
        (not (Vclock.lt x y)) && (not (Vclock.lt y x)) && not (Vclock.equal x y)
      in
      conc a b = conc b a)

(* ---- Consistency.check soundness (qcheck) ---- *)

(* an observation built only by replaying already-emitted values stays
   Consistent; exercised above by prop_consistency_duplicate_closure.
   Here: the two failure verdicts trigger exactly when they should. *)

let prop_consistency_extra_sound =
  QCheck.Test.make ~name:"foreign value convicts as Extra at its position"
    ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 12) (0 -- 20)) (0 -- 20))
    (fun (reference, k) ->
      let fresh = List.fold_left max 0 reference + 1 in
      let i = k mod (List.length reference + 1) in
      let observed =
        List.filteri (fun j _ -> j < i) reference
        @ [ fresh ]
        @ List.filteri (fun j _ -> j >= i) reference
      in
      match Consistency.check ~reference ~observed with
      | Consistency.Extra { position; value } -> position = i && value = fresh
      | _ -> false)

let prop_consistency_truncated_sound =
  QCheck.Test.make ~name:"dropped tail convicts as Truncated with its size"
    ~count:200
    QCheck.(pair (1 -- 12) (1 -- 12))
    (fun (n, k) ->
      let k = ((k - 1) mod n) + 1 in
      (* distinct values: the greedy scan cannot confuse a prefix
         element for a duplicate *)
      let reference = List.init n (fun i -> (i * 7) + 3) in
      let observed = List.filteri (fun j _ -> j < n - k) reference in
      match Consistency.check ~reference ~observed with
      | Consistency.Truncated { missing } -> missing = k
      | _ -> false)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_commit_all_upholds;
      prop_violations_subset_of_nd;
      prop_hb_irreflexive_transitive;
      prop_consistency_duplicate_closure;
      prop_dangerous_reaches_crash;
      prop_vclock_antisymmetric;
      prop_vclock_merge_lub;
      prop_vclock_concurrency_symmetric;
      prop_consistency_extra_sound;
      prop_consistency_truncated_sound;
    ]

let tests =
  [
    Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
    Alcotest.test_case "vclock size mismatch" `Quick
      test_vclock_size_mismatch;
    Alcotest.test_case "happens-before chain" `Quick
      test_happens_before_chain;
    Alcotest.test_case "concurrent events" `Quick test_concurrent_events;
    Alcotest.test_case "save-work violation" `Quick
      test_save_work_violation_detected;
    Alcotest.test_case "commit cures" `Quick test_save_work_commit_cures;
    Alcotest.test_case "logged nd exempt" `Quick
      test_save_work_logged_nd_exempt;
    Alcotest.test_case "late commit insufficient" `Quick
      test_save_work_commit_after_visible_insufficient;
    Alcotest.test_case "orphan (figure 2)" `Quick
      test_save_work_orphan_figure2;
    Alcotest.test_case "orphan cured" `Quick
      test_save_work_orphan_cured_by_sender_commit;
    Alcotest.test_case "figure 6 case A" `Quick test_figure6_case_a;
    Alcotest.test_case "figure 6 case B" `Quick test_figure6_case_b;
    Alcotest.test_case "figure 6 case C" `Quick test_figure6_case_c;
    Alcotest.test_case "nontrivial graph" `Quick
      test_dangerous_nontrivial_graph;
    Alcotest.test_case "receive classification" `Quick
      test_receive_classification;
    Alcotest.test_case "multi-process dangerous paths" `Quick
      test_multi_process_dangerous_paths;
    Alcotest.test_case "safe_to_commit" `Quick test_safe_to_commit_api;
    Alcotest.test_case "lose-work (figure 9)" `Quick test_lose_work_figure9;
    Alcotest.test_case "commit before nd safe" `Quick
      test_lose_work_commit_before_nd_safe;
    Alcotest.test_case "bohrbug" `Quick test_lose_work_bohrbug;
    Alcotest.test_case "consistency exact" `Quick test_consistency_exact;
    Alcotest.test_case "consistency duplicates" `Quick
      test_consistency_duplicates_ok;
    Alcotest.test_case "consistency wrong value" `Quick
      test_consistency_wrong_value;
    Alcotest.test_case "consistency truncation" `Quick
      test_consistency_truncation;
    Alcotest.test_case "protocol space axis rule" `Quick
      test_protocol_space_axis_rule;
    Alcotest.test_case "protocols by name" `Quick test_protocols_by_name;
    Alcotest.test_case "protocol space executable links" `Quick
      test_protocol_space_executable_links;
    Alcotest.test_case "orphan trace: dependent round upholds" `Quick
      test_orphan_trace_dependent_round_upholds;
    Alcotest.test_case "orphan trace: blind commit violates" `Quick
      test_orphan_trace_blind_commit_violates;
    Alcotest.test_case "orphan trace: logged determinant exempt" `Quick
      test_orphan_trace_logged_determinant_exempt;
    Alcotest.test_case "state graph dot export" `Quick test_state_graph_dot;
    Alcotest.test_case "coloring: transient inner branch" `Quick
      test_coloring_transient_inner;
    Alcotest.test_case "coloring: fixed inner branch" `Quick
      test_coloring_fixed_inner;
    Alcotest.test_case "coloring: receive classification" `Quick
      test_coloring_receive_classification;
    Alcotest.test_case "save-work known answer (100k events)" `Quick
      test_save_work_known_answer_100k;
  ]

let () =
  Alcotest.run "ft_core"
    [ ("theory", tests); ("properties", qcheck_tests) ]
