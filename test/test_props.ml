(* Property and feature tests that cut across libraries:

   - protocol conformance: every executable protocol upholds Save-work
     on random abstract multi-process event streams (Ft_core.Conformance);
   - end-to-end: random stop-failure schedules x protocols keep recovery
     consistent on a real workload;
   - the §2.6 mitigations: resource expansion turning fixed ND transient,
     and checkpoint exclusion of recomputable state. *)

open Ft_core

(* --- conformance over random scripts ------------------------------------- *)

let gen_step nprocs =
  QCheck.Gen.(
    int_bound (nprocs - 1) >>= fun pid ->
    frequency
      [
        (3, return (Event.Internal, false));
        (2, return (Event.Nd Event.Transient, false));
        (2, return (Event.Nd Event.Fixed, true));   (* user input *)
        (1, return (Event.Nd Event.Fixed, false));  (* disk full *)
        (3, map (fun v -> (Event.Visible v, false)) (int_bound 50));
        (2, map (fun d -> (Event.Send { dest = d; tag = -1 }, false))
              (int_bound (nprocs - 1)));
        (2, return (Event.Receive { src = -1; tag = -1 }, true));
      ]
    >>= fun (kind, loggable) ->
    return (Conformance.step ~pid { Protocol.kind; loggable }))

let arb_script nprocs =
  QCheck.make
    QCheck.Gen.(list_size (int_bound 60) (gen_step nprocs))
    ~print:(fun steps ->
      String.concat ";"
        (List.map
           (fun s ->
             Printf.sprintf "p%d:%s" s.Conformance.pid
               (Event.kind_to_string s.Conformance.info.Protocol.kind))
           steps))

let conformance_prop spec =
  QCheck.Test.make
    ~name:(spec.Protocol.spec_name ^ " upholds save-work on random streams")
    ~count:150 (arb_script 3)
    (fun script -> Conformance.upholds_save_work spec ~nprocs:3 script)

let conformance_tests =
  List.map conformance_prop
    (Protocols.commit_all :: Protocols.sender_based_logging
     :: Protocols.manetho :: Protocols.coordinated_checkpointing
     :: Protocols.figure8_extended)

(* NO-COMMIT must violate Save-work whenever unlogged ND precedes a
   visible event. *)
let no_commit_violates =
  QCheck.Test.make ~name:"no-commit violates on nd-then-visible" ~count:50
    QCheck.unit
    (fun () ->
      let script =
        [
          Conformance.step ~pid:0
            { Protocol.kind = Event.Nd Event.Transient; loggable = false };
          Conformance.step ~pid:0
            { Protocol.kind = Event.Visible 1; loggable = false };
        ]
      in
      not (Conformance.upholds_save_work Protocols.no_commit ~nprocs:1 script))

(* --- end-to-end: random kill schedules ----------------------------------- *)

open Ft_vm.Asm

let counter_program =
  program
    [
      func "main" []
        [
          Let ("c", Int 0);
          Let ("sum", Int 0);
          Let ("quit", Int 0);
          While
            ( Not (Var "quit"),
              [
                Set ("c", Input);
                If
                  ( Var "c" <: Int 0,
                    [ Set ("quit", Int 1) ],
                    [
                      Set ("sum", (Var "sum" +: Var "c") %: Int 9973);
                      Set_heap (Var "c" %: Int 512, Var "sum");
                      Output (Var "sum");
                    ] );
              ] );
        ];
    ]

let counter_tokens = List.init 25 (fun i -> (i * 7) mod 90)

let run_counter ~protocol ~kills =
  let code = Ft_vm.Asm.compile counter_program in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:500_000
       counter_tokens);
  let cfg = { Ft_runtime.Engine.default_config with protocol; kills } in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  r

let counter_reference =
  lazy (run_counter ~protocol:Protocols.no_commit ~kills:[])
        (* no commits, no kills: the pristine output *)

let stop_failure_prop =
  QCheck.Test.make
    ~name:"random kill schedules recover consistently (all protocols)"
    ~count:60
    QCheck.(pair (0 -- 4) (list_of_size (QCheck.Gen.int_bound 2) (1 -- 12)))
    (fun (pi, kill_ms) ->
      let protocol =
        List.nth
          Protocols.[ cand; cand_log; cpvs; cbndvs; cbndvs_log ]
          pi
      in
      let kills = List.map (fun ms -> (ms * 1_000_000, 0)) kill_ms in
      let r = run_counter ~protocol ~kills in
      r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed
      && Consistency.is_consistent
           ~reference:(Lazy.force counter_reference).Ft_runtime.Engine.visible
           ~observed:r.Ft_runtime.Engine.visible)

(* --- multi-tenant scheduler == private engines ---------------------------- *)

(* Random fleets: any mix of protocols and kill schedules packed into one
   scheduler must give each tenant byte-identical results to a private
   engine — the tentpole refactor's correctness contract. *)
let scheduler_tenant ~protocol ~kills ~seed () =
  let code = Ft_vm.Asm.compile counter_program in
  let kernel = Ft_os.Kernel.create ~seed ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:500_000 counter_tokens);
  ({ Ft_runtime.Engine.default_config with protocol; kills }, kernel, [| code |])

let scheduler_matches_engines_prop =
  QCheck.Test.make
    ~name:"multi-tenant scheduler == one private engine per tenant"
    ~count:40
    QCheck.(
      list_of_size
        (Gen.int_range 1 3)
        (pair (0 -- 8) (list_of_size (Gen.int_bound 2) (1 -- 12))))
    (fun tenants ->
      let mk i (pi, kill_ms) =
        scheduler_tenant
          ~protocol:(List.nth Protocols.figure8_extended pi)
          ~kills:(List.map (fun ms -> (ms * 1_000_000, 0)) kill_ms)
          ~seed:(1 + i) ()
      in
      let sched =
        Ft_runtime.Scheduler.create
          ~tenants:(Array.of_list (List.mapi mk tenants))
          ()
      in
      let rs = Ft_runtime.Scheduler.run sched in
      List.for_all
        (fun i ->
          let cfg, kernel, programs = mk i (List.nth tenants i) in
          let _, r' =
            Ft_runtime.Engine.execute ~cfg ~kernel ~programs ()
          in
          let open Ft_runtime.Engine in
          let r = rs.(i) in
          r.outcome = r'.outcome && r.visible = r'.visible
          && r.sim_time_ns = r'.sim_time_ns
          && r.wall_instructions = r'.wall_instructions
          && r.commit_counts = r'.commit_counts
          && r.crashes = r'.crashes
          && r.recoveries = r'.recoveries
          && r.visible_times = r'.visible_times
          && r.crash_times = r'.crash_times)
        (List.init (List.length tenants) Fun.id))

(* --- consistency modulo duplicates (§2.3) -------------------------------- *)

(* Duplicate bursts are exactly what rollback re-emission produces, and
   the checker's one tolerated difference: interleaving repeats of
   already-seen values anywhere in the observed stream must never
   convict. *)
let consistency_dup_bursts_prop =
  QCheck.Test.make ~name:"duplicate bursts stay consistent" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 20) (0 -- 9)) (0 -- 1_000_000))
    (fun (reference, seed) ->
      QCheck.assume (reference <> []);
      let rng = Random.State.make [| seed; 0xc0 |] in
      let observed =
        List.concat
          (List.mapi
             (fun i v ->
               let seen = Array.of_list (List.filteri (fun j _ -> j <= i) reference) in
               let burst =
                 List.init (Random.State.int rng 4) (fun _ ->
                     seen.(Random.State.int rng (Array.length seen)))
               in
               v :: burst)
             reference)
      in
      Consistency.is_consistent ~reference ~observed)

(* A reordering of two distinct, first-occurrence values is NOT a
   duplicate: the early value is neither expected nor seen, and the
   checker must convict it as Extra at exactly that position. *)
let consistency_reorder_extra_prop =
  QCheck.Test.make ~name:"reordered distinct pair convicted extra" ~count:200
    QCheck.(pair (2 -- 30) (0 -- 28))
    (fun (n, i) ->
      QCheck.assume (i < n - 1);
      let reference = List.init n (fun k -> 10 + k) in
      let observed =
        List.mapi
          (fun k v ->
            if k = i then 10 + i + 1
            else if k = i + 1 then 10 + i
            else v)
          reference
      in
      match Consistency.check ~reference ~observed with
      | Consistency.Extra { position; value } ->
          position = i && value = 10 + i + 1
      | _ -> false)

(* --- §2.6: resource expansion -------------------------------------------- *)

(* Writes past the disk's capacity, crashing on the failure; with
   expand-resources-on-recovery the rerun finds a bigger disk and the
   fixed ND result changes. *)
let disk_filler =
  program
    [
      func "main" []
        [
          Let ("fd", Open_file (Int 3));
          Check (Var "fd" >=: Int 0);
          Let ("i", Int 0);
          While
            ( Var "i" <: Int 40,
              [
                Let ("ok", Write_file (Var "fd", Var "i"));
                Check (Var "ok" >: Int 0);  (* crash on disk-full *)
                Output (Var "i");
                Set ("i", Var "i" +: Int 1);
              ] );
          Close_file (Var "fd");
        ];
    ]

let run_disk_filler ~expand =
  let code = Ft_vm.Asm.compile disk_filler in
  let kernel = Ft_os.Kernel.create ~fs_capacity:25 ~nprocs:1 () in
  let cfg =
    { Ft_runtime.Engine.default_config with
      expand_resources_on_recovery = expand;
      max_recovery_attempts = 2;
      max_instructions = 10_000_000 }
  in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  r

let test_resource_expansion () =
  let stuck = run_disk_filler ~expand:false in
  Alcotest.(check bool) "without expansion the crash repeats" true
    (stuck.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Recovery_failed);
  let saved = run_disk_filler ~expand:true in
  Alcotest.(check bool) "with expansion recovery completes" true
    (saved.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check int) "all forty records written" 40
    (List.length
       (List.sort_uniq compare saved.Ft_runtime.Engine.visible))

(* --- §2.6: checkpoint exclusion ------------------------------------------ *)

(* Pages >= 8 hold a scratch rendering fully rebuilt before use on every
   iteration; excluding them from checkpoints loses nothing. *)
let scratch_base = 8 * 64

let renderer =
  program
    [
      func "main" []
        [
          Let ("c", Int 0);
          Let ("acc", Int 0);
          Let ("quit", Int 0);
          While
            ( Not (Var "quit"),
              [
                Set ("c", Input);
                If
                  ( Var "c" <: Int 0,
                    [ Set ("quit", Int 1) ],
                    [
                      (* rebuild the scratch area from the input *)
                      Let ("j", Int 0);
                      While
                        ( Var "j" <: Int 1024,
                          [
                            Set_heap (Int scratch_base +: Var "j",
                                      (Var "c" *: Int 31) +: Var "j");
                            Set ("j", Var "j" +: Int 1);
                          ] );
                      (* then read it back *)
                      Set ("acc",
                           (Var "acc" +: Deref (Int scratch_base +: (Var "c" %: Int 1024)))
                           %: Int 99_991);
                      Set_heap (Int 0, Var "acc");
                      Output (Var "acc");
                    ] );
              ] );
        ];
    ]

let run_renderer ~excluded ~kills ~medium =
  let code = Ft_vm.Asm.compile renderer in
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  Ft_os.Kernel.set_input kernel 0
    (Ft_os.Kernel.scripted_input ~start:0 ~interval_ns:1_000_000
       (List.init 30 (fun i -> (i * 11) mod 800)));
  let cfg =
    { Ft_runtime.Engine.default_config with
      kills;
      medium;
      excluded_pages = (if excluded then fun p -> p >= 8 else fun _ -> false) }
  in
  let _, r = Ft_runtime.Engine.execute ~cfg ~kernel ~programs:[| code |] () in
  r

let test_checkpoint_exclusion_consistent () =
  let mem = Ft_runtime.Checkpointer.Reliable_memory in
  let reference = run_renderer ~excluded:false ~kills:[] ~medium:mem in
  let r = run_renderer ~excluded:true ~kills:[ (12_000_000, 0) ] ~medium:mem in
  Alcotest.(check bool) "completes" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check bool) "recovery consistent despite excluded pages" true
    (Consistency.is_consistent
       ~reference:reference.Ft_runtime.Engine.visible
       ~observed:r.Ft_runtime.Engine.visible)

let test_checkpoint_exclusion_cheaper () =
  let disk = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default in
  let full = run_renderer ~excluded:false ~kills:[] ~medium:disk in
  let slim = run_renderer ~excluded:true ~kills:[] ~medium:disk in
  Alcotest.(check bool)
    (Printf.sprintf "excluding scratch shrinks commits (%d vs %d ns)"
       slim.Ft_runtime.Engine.sim_time_ns full.Ft_runtime.Engine.sim_time_ns)
    true
    (slim.Ft_runtime.Engine.sim_time_ns < full.Ft_runtime.Engine.sim_time_ns)

(* --- the new protocols, end to end ---------------------------------------- *)

let test_sbl_logs_receives () =
  (* two-process ping-pong where the server's only ND is receives: SBL
     never commits it *)
  let client =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            Let ("v", Int 0);
            Let ("s", Int 0);
            While
              ( Var "i" <: Int 5,
                [
                  Send_msg (Int 1, Var "i");
                  Recv_msg ("v", "s");
                  Output (Var "v");
                  Set ("i", Var "i" +: Int 1);
                ] );
          ];
      ]
  in
  let server =
    program
      [
        func "main" []
          [
            Let ("i", Int 0);
            Let ("v", Int 0);
            Let ("s", Int 0);
            While
              ( Var "i" <: Int 5,
                [
                  Recv_msg ("v", "s");
                  Send_msg (Var "s", Var "v" *: Int 3);
                  Set ("i", Var "i" +: Int 1);
                ] );
          ];
      ]
  in
  let kernel = Ft_os.Kernel.create ~nprocs:2 () in
  let cfg =
    { Ft_runtime.Engine.default_config with
      protocol = Protocols.sender_based_logging }
  in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:[| Ft_vm.Asm.compile client; Ft_vm.Asm.compile server |] ()
  in
  Alcotest.(check bool) "completed" true
    (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
  Alcotest.(check int) "server commits nothing" 0
    r.Ft_runtime.Engine.commit_counts.(1);
  Alcotest.(check bool) "save-work still holds" true
    (Save_work.holds r.Ft_runtime.Engine.trace)

(* --- no orphan survives recovery (message logging, end to end) ------------ *)

(* Two processes whose visible output depends on the client's transient
   random draws through a full message round-trip: the exact shape that
   creates orphans.  After any stop-failure schedule, the logging
   protocols must leave a Save-work-clean trace and an output consistent
   with the failure-free run — i.e. every orphan was detected and rolled
   back with the crashed process. *)
let rand_pingpong_iters = 5

let rand_client =
  program
    [
      func "main" []
        [
          Let ("i", Int 0);
          Let ("r", Int 0);
          Let ("v", Int 0);
          Let ("s", Int 0);
          While
            ( Var "i" <: Int rand_pingpong_iters,
              [
                Set ("r", Rand %: Int 100);
                Send_msg (Int 1, Var "r");
                Recv_msg ("v", "s");
                (* encode the iteration so outputs are injective across
                   iterations even when two draws collide *)
                Output ((Var "v" *: Int 8) +: Var "i");
                Set ("i", Var "i" +: Int 1);
              ] );
        ];
    ]

let rand_server =
  program
    [
      func "main" []
        [
          Let ("i", Int 0);
          Let ("v", Int 0);
          Let ("s", Int 0);
          While
            ( Var "i" <: Int rand_pingpong_iters,
              [
                Recv_msg ("v", "s");
                Send_msg (Var "s", (Var "v" *: Int 3) +: Int 1);
                Set ("i", Var "i" +: Int 1);
              ] );
        ];
    ]

let run_rand_pingpong ~protocol ~kills =
  let kernel = Ft_os.Kernel.create ~seed:9 ~nprocs:2 () in
  let cfg = { Ft_runtime.Engine.default_config with protocol; kills } in
  let _, r =
    Ft_runtime.Engine.execute ~cfg ~kernel
      ~programs:
        [| Ft_vm.Asm.compile rand_client; Ft_vm.Asm.compile rand_server |]
      ()
  in
  r

(* The failure-free runs are clean: Save-work holds on the recorded
   trace (the oracle's domain is crash-free traces — a killed run's
   trace keeps its dead rolled-back segments) and all outputs arrive. *)
let test_logging_pingpong_clean () =
  List.iter
    (fun protocol ->
      let r = run_rand_pingpong ~protocol ~kills:[] in
      Alcotest.(check bool)
        (protocol.Protocol.spec_name ^ " completes")
        true
        (r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed);
      Alcotest.(check bool)
        (protocol.Protocol.spec_name ^ " save-work holds")
        true
        (Save_work.holds r.Ft_runtime.Engine.trace);
      Alcotest.(check int)
        (protocol.Protocol.spec_name ^ " all outputs")
        rand_pingpong_iters
        (List.length r.Ft_runtime.Engine.visible))
    Protocols.message_logging

(* §2.3 consistency against the space of legal failure-free runs, which
   for this application is: one fresh value per iteration in order, each
   decoding to a server reply [3r + 1] for some draw [r], with
   duplicates only ever repeating an already-emitted value (rollback
   re-emission).  Transient draws the crash legitimately un-commits may
   be redrawn — that is optimistic logging working as designed — so the
   observed stream need not match one particular reference run.  An
   orphaned server surviving with rolled-back client state would either
   wedge the run (no Completed) or emit a reply escaping the lineage. *)
let no_orphan_survives_prop =
  QCheck.Test.make
    ~name:"no orphan survives recovery (CAUSAL-LOG / OPTIMISTIC)" ~count:40
    QCheck.(
      triple bool (list_of_size (Gen.int_bound 2) (1 -- 12)) (0 -- 1))
    (fun (opt, kill_ms, victim) ->
      let protocol =
        if opt then Protocols.optimistic else Protocols.causal_log
      in
      let kills = List.map (fun ms -> (ms * 1_000_000, victim)) kill_ms in
      let r = run_rand_pingpong ~protocol ~kills in
      let seen = Hashtbl.create 8 in
      let fresh =
        List.filter
          (fun v ->
            if Hashtbl.mem seen v then false
            else begin
              Hashtbl.add seen v ();
              true
            end)
          r.Ft_runtime.Engine.visible
      in
      r.Ft_runtime.Engine.outcome = Ft_runtime.Engine.Completed
      && List.length fresh = rand_pingpong_iters
      && List.for_all (fun (idx, f) -> f mod 8 = idx) (List.mapi (fun i f -> (i, f)) fresh)
      && List.for_all (fun f -> f / 8 mod 3 = 1 && f / 8 >= 1 && f / 8 < 300) fresh)

(* --- scripted conformance replays (mc interchange format) ----------------- *)

(* The same taint chain the model checker's counterexamples print,
   replayed through Conformance: an unlogged draw crossing a message
   must pull the sender into a shared dependent round before the
   receiver's visible; a logged draw must not. *)
let logging_script_text =
  "p0 nd transient\n\
   p0 send 1\n\
   p1 recv\n\
   p1 internal\n\
   p1 visible 7\n\
   p0 nd fixed loggable\n\
   p0 send 1\n\
   p1 recv\n\
   p1 visible 9\n"

let test_logging_conformance_scripts () =
  match Conformance.steps_of_string logging_script_text with
  | Error e -> Alcotest.fail e
  | Ok script ->
      List.iter
        (fun spec ->
          Alcotest.(check bool)
            (spec.Protocol.spec_name ^ " upholds on the scripted taint chain")
            true
            (Conformance.upholds_save_work spec ~nprocs:2 script))
        Protocols.message_logging;
      let t = Conformance.run Protocols.causal_log ~nprocs:2 script in
      Alcotest.(check bool) "a dependent round was committed" true
        (List.exists
           (fun e ->
             match e.Event.kind with
             | Event.Commit_round _ -> true
             | _ -> false)
           (Trace.events t))

(* --- Save-work oracle vs the theorem, pairwise ---------------------------- *)

(* A random multi-process trace drawn from [seed]: sends (some reusing a
   tag), receives (some with a tag no send carries), logged events,
   plain commits, Commit_round rounds (some reopened later, so a round
   can hold several commits of one process) and crashes. *)
let random_trace seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let nprocs = 1 + int 4 in
  let t = Trace.create ~nprocs in
  let tags = ref 0 and rounds = ref 0 in
  for _ = 1 to int 90 do
    let pid = int nprocs in
    let logged = int 4 = 0 in
    let record kind = ignore (Trace.record t ~pid ~logged kind) in
    match int 12 with
    | 0 | 1 -> record (Event.Nd (if int 2 = 0 then Transient else Fixed))
    | 2 | 3 -> record (Event.Visible (int 50))
    | 4 ->
        let tag = if !tags > 0 && int 4 = 0 then int !tags else !tags in
        if tag = !tags then incr tags;
        record (Event.Send { dest = int nprocs; tag })
    | 5 | 6 ->
        record (Event.Receive { src = int nprocs; tag = int (!tags + 3) })
    | 7 -> ignore (Trace.record t ~pid Event.Commit)
    | 8 ->
        let r = if !rounds > 0 && int 2 = 0 then int !rounds else !rounds in
        if r = !rounds then incr rounds;
        for p = 0 to nprocs - 1 do
          if int 2 = 0 then
            ignore (Trace.record t ~pid:p (Event.Commit_round r))
        done
    | 9 -> ignore (Trace.record t ~pid Event.Crash)
    | _ -> record Event.Internal
  done;
  t

(* The theorem read literally, over every (ND event, target) pair: a
   violation is an ND event on [p] that happens-before a target with no
   later commit on [p] that happens-before, is, or is atomic with a
   commit that happens-before or is the target. *)
let pairwise_violations trace =
  let events = Trace.events trace in
  let commits = List.filter Event.is_commit events in
  let at_or_before c target =
    Event.equal c target || Trace.happens_before c target
  in
  let reaches c target =
    at_or_before c target
    || List.exists
         (fun c' -> Event.atomic_with c c' && at_or_before c' target)
         commits
  in
  let covered (nd : Event.t) target =
    List.exists
      (fun (c : Event.t) ->
        c.pid = nd.pid && Event.index c > Event.index nd && reaches c target)
      commits
  in
  let against ~others_only targets =
    List.concat_map
      (fun (nd : Event.t) ->
        List.filter_map
          (fun (target : Event.t) ->
            if
              Trace.happens_before nd target
              && (not (others_only && target.pid = nd.pid))
              && not (covered nd target)
            then Some { Save_work.nd; target }
            else None)
          targets)
      (List.filter Event.is_nd events)
  in
  against ~others_only:false (List.filter Event.is_visible events)
  @ against ~others_only:true commits

(* Processes with a commit that some other process's lost ND event (on
   a crashed process, after its last commit) happens-before. *)
let pairwise_orphans trace =
  let events = Trace.events trace in
  let lost =
    List.filter
      (fun (nd : Event.t) ->
        Event.is_nd nd
        && List.exists
             (fun (e : Event.t) -> e.pid = nd.pid && Event.is_crash e)
             events
        && List.for_all
             (fun (c : Event.t) ->
               c.pid <> nd.pid
               || (not (Event.is_commit c))
               || Event.index c < Event.index nd)
             events)
      events
  in
  List.sort_uniq compare
    (List.filter_map
       (fun (c : Event.t) ->
         if
           Event.is_commit c
           && List.exists
                (fun (nd : Event.t) ->
                  nd.pid <> c.pid && Trace.happens_before nd c)
                lost
         then Some c.pid
         else None)
       events)

(* Trace.happens_before's vector-clock projection, for every pair. *)
let horizon_rule_holds trace =
  let events = Trace.events trace in
  List.for_all
    (fun (e1 : Event.t) ->
      List.for_all
        (fun (e2 : Event.t) ->
          Trace.happens_before e1 e2
          = ((not (Event.equal e1 e2))
            && Event.index e1 < Vclock.get e2.vc e1.pid))
        events)
    events

(* Runs [long_factor] times longer under QCHECK_LONG (the CI soak). *)
let save_work_equivalence_prop =
  QCheck.Test.make ~name:"save-work oracle equals the pairwise theorem"
    ~count:300 ~long_factor:100
    (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.nat)
    (fun seed ->
      let t = random_trace seed in
      horizon_rule_holds t
      && Save_work.violations t = pairwise_violations t
      && Save_work.visible_violations t
         @ Save_work.orphan_violations t
         = pairwise_violations t
      && Save_work.orphans t = pairwise_orphans t)

(* --- Rio against a flat-array model --------------------------------------- *)

module Rio = Ft_stablemem.Rio

(* The model: one flat array, every store literal.  [m_touched] marks
   the chunks a nonzero word was ever stored into — exactly the chunks
   the real region must have allocated. *)
type rio_model = {
  m_words : int array;
  mutable m_written : int;
  mutable m_hook : (int -> int -> unit) option;
  m_touched : bool array;
}

let model_store m off v =
  m.m_words.(off) <- v;
  if v <> 0 then m.m_touched.(off / Rio.chunk_words) <- true

let model_write m off v =
  (match m.m_hook with Some f -> f off v | None -> ());
  model_store m off v;
  m.m_written <- m.m_written + 1

let model_diff_runs m ~off src ~spos ~len ~gap =
  let runs = ref [] and start = ref (-1) and last = ref (-1) in
  for i = 0 to len - 1 do
    if src.(spos + i) <> m.m_words.(off + i) then begin
      if !start < 0 then start := i
      else if i - !last > gap + 1 then begin
        runs := (!start, !last - !start + 1) :: !runs;
        start := i
      end;
      last := i
    end
  done;
  if !start >= 0 then runs := (!start, !last - !start + 1) :: !runs;
  List.rev !runs

(* A write hook logging every (offset, value) it is shown, raising
   [Crash_point] at its [crash_at]th word (never again after). *)
let recording_hook ~crash_at =
  let log = ref [] and seen = ref 0 in
  let hook off v =
    log := (off, v) :: !log;
    incr seen;
    if !seen = crash_at then raise (Rio.Crash_point (!seen - 1))
  in
  (hook, log)

(* Drive a region and the model through the same random operations
   drawn from [seed] — writes (many of them zeros), blits and
   region-to-region copies straddling chunk boundaries, pokes, reads,
   [sub], [blit_out] and the diff scan — with the hook installed and
   removed along the way, some hooks crashing mid-blit.  After every
   operation: same results, same [words_written], same hook log, same
   torn state; at the end, the same words and the allocated chunks
   exactly those a nonzero word was stored into. *)
let rio_agrees seed =
  let rng = Random.State.make [| seed; 0x52_69_6f |] in
  let int n = Random.State.int rng n in
  let cw = Rio.chunk_words in
  let size = 1 + int ((4 * cw) + 300) in
  let nchunks = (size + cw - 1) / cw in
  let r = Rio.create ~size in
  let m =
    { m_words = Array.make size 0; m_written = 0; m_hook = None;
      m_touched = Array.make nchunks false }
  in
  let value () =
    match int 5 with
    | 0 | 1 -> 0
    | 2 -> 1 + int 9
    | _ -> int 2_000_000 - 1_000_000
  in
  (* an offset, half the time within a few words of a chunk boundary *)
  let offset () =
    if int 2 = 0 then int size
    else max 0 (min (size - 1) ((cw * (1 + int nchunks)) - 6 + int 12))
  in
  let range () =
    let off = offset () in
    (off, int (min (size - off) ((2 * cw) + 10) + 1))
  in
  (* all zeros, dense, or zeros with a few nonzero words placed at the
     range's ends and on chunk-boundary words — where a chunk that must
     be allocated by one word is easiest to miss *)
  let source ~off len =
    let spos = int 4 in
    let a = Array.make (spos + len + int 4) 0 in
    (match int 3 with
    | 0 -> ()
    | 1 -> Array.iteri (fun i _ -> a.(i) <- value ()) a
    | _ ->
        for _ = 0 to int 3 do
          let edge = (cw * (1 + int nchunks)) - off - int 2 in
          let i =
            match int 3 with
            | 0 -> 0
            | 1 -> len - 1
            | _ -> if edge >= 0 && edge < len then edge else int (max 1 len)
          in
          if i >= 0 && i < len then a.(spos + i) <- 1 + int 9
        done);
    (a, spos)
  in
  let logs = ref None in
  let ok = ref true in
  let check b = if not b then ok := false in
  (* run [f] on the region and [g] on the model; both raise or neither *)
  let both f g =
    let crashed h =
      match h () with () -> false | exception Rio.Crash_point _ -> true
    in
    check (crashed f = crashed g)
  in
  for _ = 1 to 60 do
    (match int 11 with
    | 0 | 1 ->
        let off = offset () and v = value () in
        both (fun () -> Rio.write r off v) (fun () -> model_write m off v)
    | 2 | 3 ->
        let off, len = range () in
        let src, spos = source ~off len in
        both
          (fun () -> Rio.blit_sub_in r ~off src ~spos ~len)
          (fun () ->
            for i = 0 to len - 1 do
              model_write m (off + i) src.(spos + i)
            done)
    | 4 ->
        let len = int (min (size / 2) (cw + 40) + 1) in
        (* a third of the copies start, a third end, on a nonzero word *)
        let nonzero =
          let start = int size in
          let rec find k =
            if k = size then None
            else
              let i = (start + k) mod size in
              if m.m_words.(i) <> 0 then Some i else find (k + 1)
          in
          find 0
        in
        let src_off =
          match (int 3, nonzero) with
          | 0, Some i -> i
          | 1, Some i -> i - len + 1
          | _ -> int (size - len + 1)
        in
        let dst_off = int (size - len + 1) in
        if len > 0 && src_off >= 0 && src_off + len <= size
           && (src_off + len <= dst_off || dst_off + len <= src_off)
        then
          both
            (fun () -> Rio.copy_within r ~src_off ~dst_off ~len)
            (fun () ->
              for i = 0 to len - 1 do
                model_write m (dst_off + i) m.m_words.(src_off + i)
              done)
    | 5 ->
        let off = offset () and v = value () in
        Rio.poke r off v;
        model_store m off v
    | 6 ->
        let off, len = range () in
        check (Rio.sub r ~off ~len = Array.sub m.m_words off len);
        let dst = Array.make len 7 in
        Rio.blit_out r ~off dst;
        check (dst = Array.sub m.m_words off len)
    | 7 | 8 ->
        let off, len = range () in
        let src, spos = source ~off len in
        (* half the time: the region's own words with a few changes, so
           runs and gaps are short *)
        if int 2 = 0 then begin
          Array.blit m.m_words off src spos len;
          for _ = 0 to int 6 do
            if len > 0 then src.(spos + int len) <- value ()
          done
        end;
        let gap = int 4 in
        check
          (Rio.diff_runs r ~off src ~spos ~len ~gap
          = model_diff_runs m ~off src ~spos ~len ~gap)
    | 9 ->
        let crash_at = if int 3 = 0 then 1 + int 60 else 0 in
        let h, log = recording_hook ~crash_at in
        let h', log' = recording_hook ~crash_at in
        Rio.set_on_write r (Some h);
        m.m_hook <- Some h';
        logs := Some (log, log')
    | _ ->
        Rio.set_on_write r None;
        m.m_hook <- None;
        logs := None);
    check (Rio.words_written r = m.m_written);
    match !logs with
    | Some (log, log') -> check (!log = !log')
    | None -> ()
  done;
  let off = int size in
  check (Rio.read r off = m.m_words.(off));
  !ok
  && Rio.sub r ~off:0 ~len:size = m.m_words
  && Rio.chunks_allocated r
     = Array.fold_left (fun n b -> if b then n + 1 else n) 0 m.m_touched

(* Runs [long_factor] times longer under QCHECK_LONG (the CI soak). *)
let rio_model_prop =
  QCheck.Test.make ~name:"chunked Rio region equals a flat-array model"
    ~count:300 ~long_factor:100
    (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.nat)
    rio_agrees

(* --- conformance harness regressions ------------------------------------- *)

(* A Receive with nothing pending must be skipped outright: no event
   recorded, no protocol reaction — the rest of the script replays as if
   the receive were never written. *)
let test_receive_nothing_pending_skipped () =
  let script =
    [
      Conformance.step ~pid:0
        { Protocol.kind = Event.Receive { src = -1; tag = -1 };
          loggable = true };
      Conformance.step ~pid:0
        { Protocol.kind = Event.Visible 5; loggable = false };
    ]
  in
  let t = Conformance.run Protocols.cpvs ~nprocs:2 script in
  let events = Trace.events t in
  Alcotest.(check bool) "no receive recorded" false
    (List.exists
       (fun e ->
         match e.Event.kind with Event.Receive _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "visible still recorded" true
    (List.exists
       (fun e ->
         match e.Event.kind with Event.Visible _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "save-work upheld" true
    (Conformance.upholds_save_work Protocols.cpvs ~nprocs:2 script)

(* upholds_save_work is exactly "violations is empty" — exercised on a
   protocol that does convict (NO-COMMIT), so agreement is nontrivial. *)
let violations_agree_prop spec =
  QCheck.Test.make
    ~name:(spec.Protocol.spec_name ^ ": upholds iff violations empty")
    ~count:150 (arb_script 3)
    (fun script ->
      Conformance.upholds_save_work spec ~nprocs:3 script
      = (Conformance.violations spec ~nprocs:3 script = []))

let tests =
  List.map QCheck_alcotest.to_alcotest
    (conformance_tests
    @ [ no_commit_violates; stop_failure_prop;
        scheduler_matches_engines_prop; consistency_dup_bursts_prop;
        consistency_reorder_extra_prop; no_orphan_survives_prop ]
    @ List.map violations_agree_prop
        [ Protocols.no_commit; Protocols.cpvs; Protocols.cand_log;
          Protocols.causal_log ])
  @ [
      Alcotest.test_case "logging conformance scripts" `Quick
        test_logging_conformance_scripts;
      Alcotest.test_case "logging ping-pong clean (no kills)" `Quick
        test_logging_pingpong_clean;
      Alcotest.test_case "receive with nothing pending skipped" `Quick
        test_receive_nothing_pending_skipped;
      Alcotest.test_case "resource expansion (2.6)" `Quick
        test_resource_expansion;
      Alcotest.test_case "checkpoint exclusion consistent (2.6)" `Quick
        test_checkpoint_exclusion_consistent;
      Alcotest.test_case "checkpoint exclusion cheaper (2.6)" `Quick
        test_checkpoint_exclusion_cheaper;
      Alcotest.test_case "sbl logs receives" `Quick test_sbl_logs_receives;
    ]

(* its own group, so a soak can select it: test_props.exe test save-work *)
let save_work_tests =
  [ QCheck_alcotest.to_alcotest ~speed_level:`Quick save_work_equivalence_prop ]

(* likewise: test_props.exe test rio *)
let rio_tests =
  [ QCheck_alcotest.to_alcotest ~speed_level:`Quick rio_model_prop ]

let () =
  Alcotest.run "ft_props"
    [ ("properties", tests); ("save-work", save_work_tests);
      ("rio", rio_tests) ]
