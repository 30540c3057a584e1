(* The benchmark's workload runner.  [run.py] builds this executable and
   starts one process per measured pass, so each pass's peak RSS belongs
   to that workload alone.

     bench.exe pass  WORKLOAD SEED SPAWNED_AT
       set-up (repeated, median), one timed harness call, the simulated
       report and its checks; one JSON object on stdout.
     bench.exe heldout WORKLOAD SEED SPAWNED_AT
       a pass whose every input is drawn from SEED, for the held-out
       check: rescue's faults and mc's program too.
     bench.exe trace WORKLOAD SEED SPANS_FILE
       an untraced pass, the same workload with a span around every
       call into a layer, and another untraced pass; adds the per-layer
       metrics, the fidelity verdict and the tracing overhead, and
       writes the spans to SPANS_FILE.

   Every number is taken here, around calls into the libraries' public
   functions; no library is instrumented. *)

module Jstore = Ft_exp.Jstore
module Exp = Ft_exp.Exp
module Job = Ft_exp.Job
module Metrics = Ft_exp.Metrics
module Figure8 = Ft_harness.Figure8
module Serve = Ft_harness.Serve
module Rescue = Ft_harness.Rescue
module Netstorm = Ft_harness.Netstorm
module Scheduler = Ft_runtime.Scheduler
module Engine = Ft_runtime.Engine
module Protocols = Ft_core.Protocols
module Model = Ft_mc.Model
module Checker = Ft_mc.Checker

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let fsum f l = List.fold_left (fun a x -> a +. f x) 0. l
let ratio a b = if b = 0. then 0. else a /. b

(* --- spans ----------------------------------------------------------------- *)

(* Spans live in memory and are written out once the run is over.  The
   benchmark is single-threaded (one Exp worker), so children never
   overlap and a span's self time is its duration minus its children's. *)
type span = {
  id : int;
  name : string;
  key : string;  (** job key, app, protocol or tenant range *)
  parent : int;  (** -1 at the root *)
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;
}

let spans : span list ref = ref []
let nspans = ref 0
let open_spans : span list ref = ref []

let span ?(key = "") name f =
  let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !nspans; name; key; parent; t0 = now (); t1 = 0.; child_s = 0. }
  in
  incr nspans;
  spans := s :: !spans;
  open_spans := s :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- now ();
      open_spans := List.tl !open_spans;
      match !open_spans with
      | p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0)
      | [] -> ())
    f

let self_s s = s.t1 -. s.t0 -. s.child_s

(* Total self time of the spans called [name] (and [key], if given). *)
let self_total ?key name =
  fsum self_s
    (List.filter
       (fun s -> s.name = name && (key = None || Some s.key = key))
       !spans)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Jstore.to_string
           (Jstore.Obj
              [
                ("id", Jstore.Int s.id);
                ("name", Jstore.String s.name);
                ("key", Jstore.String s.key);
                ("parent", Jstore.Int s.parent);
                ("start", Jstore.Float s.t0);
                ("end", Jstore.Float s.t1);
                ("self_s", Jstore.Float (self_s s));
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Wrap each job's thunk in a span named [name], keyed by the job key. *)
let traced_jobs name jobs =
  List.map
    (fun (j : Job.t) ->
      Job.make ~key:j.Job.key ~seed:j.Job.seed (fun () ->
          span ~key:j.Job.key name j.Job.run))
    jobs

(* One Exp worker, as in every workload; the eval span's self time is the
   pool's dispatch cost. *)
let traced_eval name jobs =
  span "exp.eval" (fun () -> Exp.eval ~workers:1 (traced_jobs name jobs))

(* --- what a pass reports ----------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  report : string;  (** the simulated report, digested by run.py *)
  sim : (string * float * string) list;  (** name, value, unit *)
}

let lookup_of results =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) results;
  Hashtbl.find_opt tbl

let missing_jobs jobs lookup =
  sum (fun (j : Job.t) -> if lookup j.Job.key = None then 1 else 0) jobs

(* --- fig8 ------------------------------------------------------------------ *)

let fig8_scale = 0.25

(* The engine configurations behind [Figure8.jobs app], in its job order:
   the NO-COMMIT baseline, then (protocol x {DC, DC-disk}). *)
let fig8_configs app =
  let mem = Ft_runtime.Checkpointer.Reliable_memory in
  let disk = Ft_runtime.Checkpointer.Disk Ft_stablemem.Disk.default in
  (Protocols.no_commit, mem)
  :: List.concat_map
       (fun p -> [ (p, mem); (p, disk) ])
       (Figure8.protocols_for app)

type fig8_run = {
  f_app : Figure8.app;
  f_label : string;
  f_mem : bool;
  f_result : Engine.result;
  f_engine_s : float;
}

(* Every engine run of a traced fig8 pass, for its per-layer metrics. *)
let fig8_runs : fig8_run list ref = ref []

(* The jobs of [Figure8.jobs] for every app, under their keys, each doing
   what Figure8's job does: [Figure8.workload] and [Figure8.run_once],
   with the same value.  The value also says whether the engine run
   completed, which Figure8's record does not, so that a run that ends
   early counts as failed.  Traced, each call gets a span and each run is
   kept in [fig8_runs]. *)
let fig8_jobs_of ~traced seed =
  let sp ?key name f = if traced then span ?key name f else f () in
  List.concat_map
    (fun app ->
      List.map2
        (fun (j : Job.t) (protocol, medium) ->
          Job.make ~key:j.Job.key ~seed:j.Job.seed (fun () ->
              let w =
                sp "apps.build" (fun () -> Figure8.workload ~scale:fig8_scale app)
              in
              let t0 = now () in
              let r =
                sp ~key:(Figure8.app_name app) "runtime.engine_run" (fun () ->
                    Figure8.run_once ~w ~protocol ~medium ~seed)
              in
              if traced then
                fig8_runs :=
                  {
                    f_app = app;
                    f_label = protocol.Ft_core.Protocol.spec_name;
                    f_mem = medium = Ft_runtime.Checkpointer.Reliable_memory;
                    f_result = r;
                    f_engine_s = now () -. t0;
                  }
                  :: !fig8_runs;
              Jstore.Obj
                [
                  ("m", Metrics.to_json (Metrics.of_result r));
                  ( "fps",
                    Jstore.Float
                      (if app = Figure8.Xpilot then Ft_apps.Xpilot.fps r else 0.)
                  );
                  ("completed", Jstore.Bool (r.Engine.outcome = Engine.Completed));
                ]))
        (Figure8.jobs ~scale:fig8_scale ~seed app)
        (fig8_configs app))
    Figure8.all_apps

let fig8_jobs seed = fig8_jobs_of ~traced:false seed

(* A job fails when it is missing or its engine run did not complete. *)
let fig8_outcome seed jobs results =
  let lookup = lookup_of results in
  let figs =
    List.map
      (fun app -> Figure8.of_records ~scale:fig8_scale ~seed app lookup)
      Figure8.all_apps
  in
  let cells = List.concat_map (fun r -> r.Figure8.cells) figs in
  let incomplete (j : Job.t) =
    match Option.bind (lookup j.Job.key) (Jstore.member "completed") with
    | Some (Jstore.Bool true) -> 0
    | _ -> 1
  in
  {
    attempted = List.length jobs;
    failed = sum incomplete jobs;
    report = String.concat "" (List.map Figure8.render figs);
    sim =
      [
        ( "sim_overhead_pct",
          ratio
            (fsum (fun c -> c.Figure8.dc_overhead) cells)
            (float_of_int (List.length cells)),
          "%" );
      ];
  }

let fig8_traced seed =
  fig8_runs := [];
  let jobs = fig8_jobs_of ~traced:true seed in
  let results = traced_eval "exp.job" jobs in
  let o = fig8_outcome seed jobs results in
  let runs = !fig8_runs in
  let instr r = r.f_result.Engine.wall_instructions in
  let commits r = Array.fold_left ( + ) 0 r.f_result.Engine.commit_counts in
  let nocommit = List.filter (fun r -> r.f_label = "NO-COMMIT") runs in
  (* Host cost of a commit, per app: the CPVS DC run's seconds beyond the
     app's NO-COMMIT run, over the CPVS run's commits. *)
  let ns_per_commit app =
    let run label =
      List.find (fun r -> r.f_app = app && r.f_mem && r.f_label = label) runs
    in
    let cpvs = run Protocols.cpvs.Ft_core.Protocol.spec_name in
    1e9
    *. ratio (cpvs.f_engine_s -. (run "NO-COMMIT").f_engine_s)
         (float_of_int (commits cpvs))
  in
  let layers =
    [
      ("apps.build_s", self_total "apps.build");
      ("vm.instructions", float_of_int (sum instr nocommit));
      ( "vm.ns_per_instr",
        1e9 *. ratio (fsum (fun r -> r.f_engine_s) nocommit)
                 (float_of_int (sum instr nocommit)) );
      ("runtime.commits", float_of_int (sum commits runs));
      ( "os.nd_events",
        float_of_int
          (sum (fun r -> Array.fold_left ( + ) 0 r.f_result.Engine.nd_counts) runs)
      );
    ]
    @ List.concat_map
        (fun app ->
          let a = Figure8.app_name app in
          [
            ("runtime.engine_run_s." ^ a, self_total ~key:a "runtime.engine_run");
            ("runtime.ns_per_commit." ^ a, ns_per_commit app);
          ])
        Figure8.all_apps
  in
  (o, layers)

(* Fixed-input probes of the commit path, as in bench/main.ml's micros:
   median ns per commit over batches. *)
let probe ~batches ~per f =
  median
    (List.init batches (fun _ ->
         let t0 = now () in
         for _ = 1 to per do
           f ()
         done;
         (now () -. t0) *. 1e9 /. float_of_int per))

let checkpoint_commit_ns () =
  let ck =
    Ft_runtime.Checkpointer.create
      ~medium:Ft_runtime.Checkpointer.Reliable_memory ~nprocs:1
      ~heap_words:4096 ~stack_words:256 ()
  in
  let m = Ft_vm.Machine.create ~heap_size:4096 [| Ft_vm.Instr.Halt |] in
  let heap = Ft_vm.Machine.heap m in
  for i = 0 to 511 do
    Ft_vm.Memory.write heap i i
  done;
  let kernel = Ft_os.Kernel.create ~nprocs:1 () in
  let kstate = Ft_os.Kernel.snapshot_kstate kernel 0 in
  ignore (Ft_runtime.Checkpointer.commit ck ~pid:0 ~machine:m ~kstate);
  let tick = ref 0 in
  probe ~batches:9 ~per:4000 (fun () ->
      incr tick;
      for p = 0 to 7 do
        Ft_vm.Memory.write heap (p * 64) ((p * 64) + !tick)
      done;
      ignore (Ft_runtime.Checkpointer.commit ck ~pid:0 ~machine:m ~kstate))

let vista_commit_ns () =
  let v =
    Ft_stablemem.Vista.create ~data_words:1024
      (Ft_stablemem.Rio.create ~size:2048)
  in
  let page = Array.make 64 7 in
  probe ~batches:9 ~per:4000 (fun () ->
      Ft_stablemem.Vista.begin_tx v;
      for i = 0 to 7 do
        Ft_stablemem.Vista.write_range v ~off:(i * 64) page
      done;
      Ft_stablemem.Vista.commit v)

(* --- fleet ------------------------------------------------------------------ *)

let gale = List.find (fun p -> p.Netstorm.label = "gale") Netstorm.default_points
let fleet_protocols = [ Protocols.cpvs; Protocols.causal_log; Protocols.optimistic ]

let fleet_params seed =
  {
    Serve.default_params with
    procs = 256;
    requests = 51_200;
    crash_rate = 4.0;
    storm = Some gale;
    seed;
    shard_size = 256;
    recovery_crash_rate = 2.0;
    det_cap = 64;
  }

let fleet_jobs seed = Serve.jobs ~protocols:fleet_protocols (fleet_params seed)

let int_list field v =
  match Jstore.member field v with
  | Some (Jstore.List l) -> List.filter_map Jstore.to_int l
  | _ -> []

let lat_cells v =
  match Jstore.member "lat_us" v with
  | Some (Jstore.List l) ->
      List.filter_map
        (function
          | Jstore.List [ Jstore.Int us; Jstore.Int n ] -> Some (us, n)
          | _ -> None)
        l
  | _ -> []

let tenant_of_bad s = Scanf.sscanf_opt s "tenant %d" Fun.id

let fleet_outcome seed _jobs results =
  let p = fleet_params seed in
  let qpt = Serve.queries_per_tenant p in
  let r = Serve.of_records ~protocols:fleet_protocols p (lookup_of results) in
  let values = List.map snd results in
  (* Unacked requests, every request of a tenant an oracle flagged (at
     most once per request), and every request of a missing shard. *)
  let failed =
    sum
      (fun s ->
        let bad_tenants =
          List.sort_uniq compare (List.filter_map tenant_of_bad s.Serve.s_bad)
        in
        min s.Serve.s_requests
          (s.Serve.s_requests - s.Serve.s_acked + (qpt * List.length bad_tenants)))
      r.Serve.summaries
    + (List.length r.Serve.missing * p.Serve.shard_size * qpt)
  in
  let cells = Array.of_list (List.concat_map lat_cells values) in
  let total = Array.fold_left (fun a (_, n) -> a + n) 0 cells in
  let pct q =
    if total = 0 then 0. else float_of_int (Metrics.percentile_counts cells q)
  in
  let p999_us = pct 0.999 in
  let beyond =
    Array.fold_left
      (fun a (us, n) -> if float_of_int us > p999_us then a + n else a)
      0 cells
  in
  let mttrs = Array.of_list (List.concat_map (int_list "mttr_ns") values) in
  let acked = sum (fun s -> s.Serve.s_acked) r.Serve.summaries in
  let instr = sum (fun s -> s.Serve.s_instr) r.Serve.summaries in
  {
    attempted = List.length fleet_protocols * p.Serve.requests;
    failed = (if Serve.clean r then failed else max 1 failed);
    report = Serve.render r;
    sim =
      [
        ("sim_p50_ms", pct 0.5 /. 1e3, "ms");
        ("sim_p999_ms", p999_us /. 1e3, "ms");
        ("sim_latency_samples", float_of_int total, "count");
        ("sim_p999_beyond", float_of_int beyond, "count");
        ( "sim_mttr_p50_ms",
          (if mttrs = [||] then 0. else float_of_int (Metrics.p50 mttrs) /. 1e6),
          "ms" );
        ("sim_mttr_samples", float_of_int (Array.length mttrs), "count");
        ( "sim_work_per_minstr",
          ratio (float_of_int acked *. 1e6) (float_of_int instr),
          "1/Minstr" );
      ];
  }

(* The serve harness's private per-tenant seed, restated: a pure function
   of (seed, tenant) that the traced rebuild must reproduce exactly. *)
let tenant_seed ~seed tid =
  Random.State.bits (Random.State.make [| seed; tid; 0x5e7e |])

type fleet_counts = {
  mutable steps : int;
  mutable instr : int;
  mutable ref_instr : int;
  mutable commits : int;
  mutable crashes : int;
  mutable recoveries : int;
  mutable nested : int;
  mutable resumes : int;
  mutable orphans : int;
  mutable aborted : int;
  mutable det_hw : int;
  mutable det_flushes : int;
  mutable nd : int;
  mutable transmissions : int;
  mutable retransmits : int;
  mutable trace_events : int;
  mutable bad : int;
}

(* The serve job's per-tenant measurement, restated: first-occurrence
   ack times by query number, latency against the open-loop schedule,
   and each crash to the next ack. *)
let ack_times qpt (r : Scheduler.result) =
  let times = Array.make (qpt + 1) (-1) in
  List.iter
    (fun (_, v, t) ->
      let n = v - Ft_apps.Postgres.ack_base in
      if n >= 1 && n <= qpt && times.(n) < 0 then times.(n) <- t)
    r.Scheduler.visible_times;
  times

let latencies interval_ns times =
  let lats = ref [] and acked = ref 0 in
  Array.iteri
    (fun n t ->
      if n >= 1 && t >= 0 then begin
        incr acked;
        lats := max 0 (t - ((n - 1) * interval_ns)) :: !lats
      end)
    times;
  (!acked, !lats)

let mttrs (r : Scheduler.result) times =
  let acks =
    Array.to_list times |> List.filter (fun t -> t >= 0) |> List.sort compare
  in
  List.filter_map
    (fun (_, ct) ->
      List.find_opt (fun t -> t > ct) acks |> Option.map (fun t -> t - ct))
    r.Scheduler.crash_times

(* One shard, rebuilt from the public constructors the serve harness
   composes, with a span around each layer's call.  It does the serve
   job's work, latency histogram and MTTRs included, so its record can be
   checked against the serve job's and its wall time against the
   untraced pass's. *)
let fleet_shard (c : fleet_counts) (p : Serve.params) ~protocol =
  let n = p.Serve.procs and qpt = Serve.queries_per_tenant p in
  let seed = p.Serve.seed in
  let key = Printf.sprintf "tenants 0-%d" (n - 1) in
  let tenant_workload tid =
    span "apps.build" (fun () ->
        Ft_apps.Postgres.workload
          ~params:
            {
              Ft_apps.Postgres.queries = qpt;
              keyspace = p.Serve.keyspace;
              interval_ns = p.Serve.interval_ns;
              check_every = p.Serve.check_every;
              seed = tenant_seed ~seed tid;
            }
          ~ack:true ~open_loop:true ())
  in
  let kernel_of tid w =
    Ft_apps.Workload.kernel ~seed:(tenant_seed ~seed tid lxor 0x6b) w
  in
  let config ?(recovery_kills = []) ?(det_cap = 0) ~kills w =
    Ft_apps.Workload.engine_config w
      {
        Engine.default_config with
        protocol;
        kills;
        recovery_kills;
        det_cap;
        max_recovery_attempts = 10;
      }
  in
  let horizon_ns = (qpt * p.Serve.interval_ns * 2) + 2_000_000_000 in
  let ws = Array.init n tenant_workload in
  let kernels = Array.mapi kernel_of ws in
  let transport =
    Option.map
      (fun point ->
        let wnprocs = ws.(0).Ft_apps.Workload.nprocs in
        let policy =
          Ft_net.Policy.make ~drop:point.Netstorm.loss
            ~duplicate:point.Netstorm.dup ~reorder:point.Netstorm.reorder ()
        in
        let costs = Ft_os.Kernel.costs kernels.(0) in
        let tr =
          span "net.transport_create" (fun () ->
              Ft_net.Transport.create
                ~policy:(fun _ _ -> policy)
                (* the serve harness seeds it from (lo lxor 0x517), lo = 0 *)
                ~seed:(tenant_seed ~seed 0x517)
                ~nprocs:(n * wnprocs)
                ~latency_ns:costs.Ft_os.Kernel.network_latency_ns
                ~jitter_ns:costs.Ft_os.Kernel.network_jitter_ns
                ~deliver:(fun ~at ~src:_ ~dst m ->
                  Ft_os.Kernel.deliver_net kernels.(dst / wnprocs) ~at
                    ~dst:(dst mod wnprocs) m)
                ())
        in
        Array.iteri (fun i k -> Ft_os.Kernel.set_net k ~base:(i * wnprocs) tr) kernels;
        tr)
      p.Serve.storm
  in
  let tenants =
    Array.init n (fun tid ->
        let kills =
          Ft_faults.Kill_plan.tenant ~crash_rate:p.Serve.crash_rate ~horizon_ns
            ~seed tid
        in
        let recovery_kills =
          Ft_faults.Recovery_plan.tenant ~rate:p.Serve.recovery_crash_rate ~seed
            tid
        in
        ( config ~recovery_kills ~det_cap:p.Serve.det_cap ~kills ws.(tid),
          kernels.(tid),
          ws.(tid).Ft_apps.Workload.programs ))
  in
  let sched =
    span ~key "runtime.sched_create" (fun () -> Scheduler.create ~tenants ())
  in
  let results = span ~key "runtime.sched_run" (fun () -> Scheduler.run sched) in
  let refs =
    Array.init n (fun tid ->
        let w = tenant_workload tid in
        let kernel = kernel_of tid w in
        span ~key:(string_of_int tid) "runtime.ref_run" (fun () ->
            snd
              (Engine.execute ~cfg:(config ~kills:[] w) ~kernel
                 ~programs:w.Ft_apps.Workload.programs ())))
  in
  let crashes = ref 0 and recoveries = ref 0 and instr = ref 0 in
  let acked = ref 0 and lat_hist = Hashtbl.create 256 and mttr_all = ref [] in
  Array.iteri
    (fun i (r : Scheduler.result) ->
      let times = ack_times qpt r in
      let a, lats = latencies p.Serve.interval_ns times in
      acked := !acked + a;
      List.iter
        (fun l ->
          let cell = l / 1000 in
          Hashtbl.replace lat_hist cell
            (1 + Option.value ~default:0 (Hashtbl.find_opt lat_hist cell)))
        lats;
      mttr_all := List.rev_append (mttrs r times) !mttr_all;
      let reference = refs.(i) in
      let bad =
        span "core.oracle" (fun () ->
            (match
               Ft_core.Consistency.check ~reference:reference.Scheduler.visible
                 ~observed:r.Scheduler.visible
             with
            | Ft_core.Consistency.Consistent -> false
            | Ft_core.Consistency.Truncated _ ->
                r.Scheduler.outcome = Scheduler.Completed
            | _ -> true)
            || Ft_core.Save_work.visible_violations reference.Scheduler.trace = []
               && Ft_core.Save_work.visible_violations r.Scheduler.trace <> [])
      in
      if bad || r.Scheduler.outcome <> Scheduler.Completed then c.bad <- c.bad + 1;
      crashes := !crashes + r.Scheduler.crashes;
      recoveries := !recoveries + r.Scheduler.recoveries;
      instr := !instr + r.Scheduler.wall_instructions;
      c.ref_instr <- c.ref_instr + reference.Scheduler.wall_instructions;
      c.commits <- c.commits + Array.fold_left ( + ) 0 r.Scheduler.commit_counts;
      c.nested <- c.nested + r.Scheduler.nested_crashes;
      c.resumes <- c.resumes + r.Scheduler.cascade_resumes;
      c.orphans <- c.orphans + r.Scheduler.orphan_rollbacks;
      c.aborted <- c.aborted + r.Scheduler.aborted_rounds;
      c.det_hw <- max c.det_hw r.Scheduler.det_high_water;
      c.det_flushes <- c.det_flushes + r.Scheduler.det_forced_flushes;
      c.nd <- c.nd + Array.fold_left ( + ) 0 r.Scheduler.nd_counts;
      c.trace_events <- c.trace_events + Ft_core.Trace.length r.Scheduler.trace)
    results;
  Option.iter
    (fun tr ->
      let st = Ft_net.Transport.stats tr in
      c.transmissions <- c.transmissions + st.Ft_net.Transport.transmissions;
      c.retransmits <- c.retransmits + st.Ft_net.Transport.retransmits)
    transport;
  let steps = Scheduler.steps sched in
  c.steps <- c.steps + steps;
  c.crashes <- c.crashes + !crashes;
  c.recoveries <- c.recoveries + !recoveries;
  c.instr <- c.instr + !instr;
  let lat_cells =
    Hashtbl.fold (fun us n acc -> (us, n) :: acc) lat_hist [] |> List.sort compare
  in
  Jstore.Obj
    [
      ("acked", Jstore.Int !acked);
      ("crashes", Jstore.Int !crashes);
      ("recoveries", Jstore.Int !recoveries);
      ("instr", Jstore.Int !instr);
      ("sched_steps", Jstore.Int steps);
      ( "lat_us",
        Jstore.List
          (List.map
             (fun (us, n) -> Jstore.List [ Jstore.Int us; Jstore.Int n ])
             lat_cells) );
      ("mttr_ns", Jstore.List (List.rev_map (fun t -> Jstore.Int t) !mttr_all));
    ]

let fleet_counts () =
  {
    steps = 0; instr = 0; ref_instr = 0; commits = 0; crashes = 0;
    recoveries = 0; nested = 0; resumes = 0; orphans = 0; aborted = 0;
    det_hw = 0; det_flushes = 0; nd = 0; transmissions = 0; retransmits = 0;
    trace_events = 0; bad = 0;
  }

(* The shard records' fields the traced rebuild must reproduce. *)
let fidelity_fields =
  [ "acked"; "crashes"; "recoveries"; "instr"; "sched_steps"; "lat_us"; "mttr_ns" ]

let same_fields fields untraced traced =
  List.length untraced = List.length traced
  && List.for_all2
       (fun (k, u) (k', t) ->
         k = k'
         && List.for_all
              (fun f ->
                let u = Jstore.member f u in
                u <> None && u = Jstore.member f t)
              fields)
       untraced traced

let fleet_traced seed ~untraced ~heap_bytes =
  let p = fleet_params seed in
  let c = fleet_counts () in
  let jobs =
    List.map2
      (fun (j : Job.t) protocol ->
        Job.make ~key:j.Job.key ~seed:j.Job.seed (fun () ->
            fleet_shard c p ~protocol))
      (fleet_jobs seed) fleet_protocols
  in
  let results = traced_eval "exp.job" jobs in
  let requests = List.length fleet_protocols * p.Serve.requests in
  let f = float_of_int in
  let sched_run = self_total "runtime.sched_run" in
  let layers =
    [
      ("apps.build_s", self_total "apps.build");
      ("runtime.sched_create_s", self_total "runtime.sched_create");
      ("runtime.sched_run_s", sched_run);
      ("runtime.steps", f c.steps);
      ("runtime.ns_per_step", 1e9 *. ratio sched_run (f c.steps));
      ("runtime.ref_run_s", self_total "runtime.ref_run");
      ("vm.instructions", f c.instr);
      ("vm.redone_frac", ratio (f (c.instr - c.ref_instr)) (f c.instr));
      ("runtime.commits", f c.commits);
      ("runtime.crashes", f c.crashes);
      ("runtime.recoveries", f c.recoveries);
      ("runtime.nested_crashes", f c.nested);
      ("runtime.cascade_resumes", f c.resumes);
      ("runtime.orphan_rollbacks", f c.orphans);
      ("runtime.aborted_rounds", f c.aborted);
      ("os.det_high_water", f c.det_hw);
      ("os.det_forced_flushes", f c.det_flushes);
      ("os.nd_events", f c.nd);
      ("net.transmissions", f c.transmissions);
      ("net.retransmits", f c.retransmits);
      ("net.retx_frac", ratio (f c.retransmits) (f c.transmissions));
      ("core.oracle_s", self_total "core.oracle");
      ("core.trace_events", f c.trace_events);
      ("core.heap_bytes_per_request", ratio heap_bytes (f requests));
    ]
  in
  (same_fields fidelity_fields untraced results, c.bad, layers)

(* --- rescue ----------------------------------------------------------------- *)

(* Timed runs use smoke_spec as it stands, whatever the seed: a
   campaign's host cost is heavy-tailed in its fault seed (one trial under
   the full ladder can take seconds; 4-15 s over seeds 1-12 and 42), so
   a fault seed per run would measure the draw, not the code.  The
   held-out check draws the faults from the seed. *)
let held_out = ref false

let rescue_spec seed =
  if !held_out then { Rescue.smoke_spec with seed0 = seed } else Rescue.smoke_spec

let rescue_jobs seed = Rescue.jobs (rescue_spec seed)

let full_ladder r =
  List.find (fun s -> s.Rescue.l_name = "full") (Rescue.summaries r)

let rescue_outcome seed jobs results =
  let lookup = lookup_of results in
  let r = Rescue.of_records (rescue_spec seed) lookup in
  let dirty = sum (fun row -> if row.Rescue.violations > 0 then 1 else 0) r.Rescue.rows in
  let full = full_ladder r in
  {
    attempted = List.length jobs;
    failed =
      (let n = missing_jobs jobs lookup + dirty in
       if Rescue.clean r then n else max 1 n);
    report = Rescue.render r;
    sim =
      [
        ("rescued_frac", Rescue.ladder_rescued_frac full, "frac");
        ("sim_work_per_minstr", full.Rescue.l_work_per_minstr, "1/Minstr");
        ("rescue_crashed_runs", float_of_int full.Rescue.l_crashes, "count");
      ];
  }

let rescue_traced seed =
  let results = traced_eval "harness.rescue_cell" (rescue_jobs seed) in
  let r = Rescue.of_records (rescue_spec seed) (lookup_of results) in
  let full = full_ladder r in
  let yield name =
    match List.find_opt (fun s -> s.Rescue.l_name = name) (Rescue.summaries r) with
    | Some s -> Rescue.ladder_rescued_frac s
    | None -> 0.
  in
  let full_rows = List.filter (fun row -> row.Rescue.ladder = "full") r.Rescue.rows in
  let instr = float_of_int (sum (fun row -> row.Rescue.instr) full_rows) in
  let ref_instr = float_of_int (sum (fun row -> row.Rescue.ref_instr) full_rows) in
  let trials = sum (fun row -> row.Rescue.trials) r.Rescue.rows in
  let cells = List.filter (fun s -> s.name = "harness.rescue_cell") !spans in
  let layers =
    [
      ("recovery.rescued.l0", float_of_int full.Rescue.l_rescued_by_rung.(0));
      ("recovery.rescued.l1", float_of_int full.Rescue.l_rescued_by_rung.(1));
      ("recovery.rescued.l2", float_of_int full.Rescue.l_rescued_by_rung.(2));
      ("recovery.crashed_runs", float_of_int full.Rescue.l_crashes);
      ("recovery.yield.generic", yield "generic");
      ("recovery.yield.full", yield "full");
      ("faults.trials", float_of_int trials);
      ( "faults.crash_frac",
        ratio
          (float_of_int (sum (fun row -> row.Rescue.crashes) r.Rescue.rows))
          (float_of_int trials) );
      ( "harness.rescue_cell_s",
        ratio (fsum self_s cells) (float_of_int (List.length cells)) );
      ("vm.redone_frac", ratio (instr -. ref_instr) instr);
    ]
  in
  (results, layers)

(* --- mc --------------------------------------------------------------------- *)

(* One honest check per protocol on the default 3 x 4 program, as
   [ft mc] runs it.  Exhaustive search draws nothing at random, so timed
   runs do the same work at every seed; the held-out check draws a program
   from the seed. *)
let stats_value (s : Checker.stats) =
  Jstore.Obj
    [
      ("nodes", Jstore.Int s.Checker.nodes);
      ("runs", Jstore.Int s.Checker.runs);
      ("memo_hits", Jstore.Int s.Checker.memo_hits);
      ("steps", Jstore.Int s.Checker.steps);
      ("violations", Jstore.Int (List.length s.Checker.violations));
    ]

(* The held-out check's input: a random 3 x 4 program drawn from the
   seed, on which every honest protocol must still check clean. *)
let mc_random_program seed =
  let rng = Random.State.make [| seed; 0x6d63; 1 |] in
  Array.init 3 (fun p ->
      Array.init 4 (fun _ ->
          match Random.State.int rng 5 with
          | 0 -> Model.Internal
          | 1 ->
              let cls =
                if Random.State.bool rng then Ft_core.Event.Transient
                else Ft_core.Event.Fixed
              in
              Model.Nd (cls, Random.State.bool rng)
          | 2 -> Model.Visible
          | 3 -> Model.Send ((p + 1 + Random.State.int rng 2) mod 3)
          | _ -> Model.Receive))

let mc_jobs seed =
  let program =
    if !held_out then mc_random_program seed
    else Model.default_program ~nprocs:3 ~depth:4
  in
  List.map
    (fun spec ->
      Job.make ~key:spec.Ft_core.Protocol.spec_name ~seed (fun () ->
          stats_value (Checker.check ~spec ~defect:Model.Honest ~program ())))
    Protocols.figure8_extended

let mc_outcome _seed jobs results =
  let lookup = lookup_of results in
  let row (j : Job.t) =
    match lookup j.Job.key with
    | None -> (Printf.sprintf "%-12s missing\n" j.Job.key, 1)
    | Some v ->
        let g k = Jstore.get_int k v in
        ( Printf.sprintf "%-12s nodes %6d  runs %7d  memo %6d  steps %9d  violations %d\n"
            j.Job.key (g "nodes") (g "runs") (g "memo_hits") (g "steps")
            (g "violations"),
          if g "violations" = 0 then 0 else 1 )
  in
  let rows =
    List.map row
      (List.sort (fun (a : Job.t) (b : Job.t) -> compare a.Job.key b.Job.key) jobs)
  in
  {
    attempted = List.length jobs;
    failed = sum snd rows;
    report = String.concat "" (List.map fst rows);
    sim = [];
  }

let mc_traced seed =
  let results = traced_eval "mc.check" (mc_jobs seed) in
  let tot k = float_of_int (sum (fun (_, v) -> Jstore.get_int k v) results) in
  let check_s = fsum self_s (List.filter (fun s -> s.name = "mc.check") !spans) in
  let layers =
    [
      ("mc.nodes", tot "nodes");
      ("mc.runs", tot "runs");
      ("mc.steps", tot "steps");
      ("mc.memo_hit_frac", ratio (tot "memo_hits") (tot "nodes" +. tot "memo_hits"));
      ("mc.ns_per_step", 1e9 *. ratio check_s (tot "steps"));
    ]
    @ List.map
        (fun spec ->
          let name = spec.Ft_core.Protocol.spec_name in
          ("mc.check_s." ^ String.lowercase_ascii name, self_total ~key:name "mc.check"))
        Protocols.figure8_extended
  in
  (results, layers)

(* --- workloads ---------------------------------------------------------------- *)

type workload = {
  jobs : int -> Job.t list;  (** the set-up: the job list for a seed *)
  outcome : int -> Job.t list -> (string * Jstore.value) list -> outcome;
}

let workloads =
  [
    ("fig8", { jobs = fig8_jobs; outcome = fig8_outcome });
    ("fleet", { jobs = fleet_jobs; outcome = fleet_outcome });
    ("rescue", { jobs = rescue_jobs; outcome = rescue_outcome });
    ("mc", { jobs = mc_jobs; outcome = mc_outcome });
  ]

let setup_reps = 5

(* Set-up [setup_reps] times (the median is reported), then the one timed
   harness call: every job on one Exp worker. *)
let untraced w seed =
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let jobs = w.jobs seed in
        (now () -. t0, jobs))
  in
  let jobs = snd (List.hd setups) in
  let t0 = now () in
  let results = Exp.eval ~workers:1 jobs in
  let wall_s = now () -. t0 in
  (median (List.map fst setups), wall_s, jobs, results)

let outcome_fields o =
  [
    ("attempted", Jstore.Int o.attempted);
    ("failed", Jstore.Int o.failed);
    ("digest", Jstore.String (Digest.to_hex (Digest.string o.report)));
    ("report", Jstore.String o.report);
    ( "sim",
      Jstore.Obj
        (List.map
           (fun (k, v, u) -> (k, Jstore.Obj [ ("value", Jstore.Float v); ("unit", Jstore.String u) ]))
           o.sim) );
  ]

let print_obj fields = print_endline (Jstore.to_string (Jstore.Obj fields))

let pass name w seed spawned_at =
  let startup_s = now () -. spawned_at in
  let setup_s, wall_s, jobs, results = untraced w seed in
  let o = w.outcome seed jobs results in
  print_obj
    ([
       ("workload", Jstore.String name);
       ("seed", Jstore.Int seed);
       ("startup_s", Jstore.Float startup_s);
       ("setup_s", Jstore.Float (startup_s +. setup_s));
       ("wall_s", Jstore.Float wall_s);
     ]
    @ outcome_fields o)

(* The traced pass runs between two untraced ones in the same process, and
   its overhead is taken against their mean, so neither side gets the
   warmer heap. *)
let trace name w seed spans_path =
  let _, wall_s, jobs, results = untraced w seed in
  let o = w.outcome seed jobs results in
  let heap_bytes =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  in
  Gc.compact ();
  let t0 = now () in
  let ok, extra_failed, layers =
    match name with
    | "fig8" ->
        let o', layers = fig8_traced seed in
        (o'.report = o.report && o'.failed = o.failed, 0, layers)
    | "fleet" -> fleet_traced seed ~untraced:results ~heap_bytes
    | "rescue" ->
        let traced, layers = rescue_traced seed in
        let o' = rescue_outcome seed jobs traced in
        (o'.report = o.report, 0, layers)
    | _ ->
        let traced, layers = mc_traced seed in
        (same_fields [ "nodes"; "steps" ] results traced, 0, layers)
  in
  let traced_wall_s = now () -. t0 in
  Gc.compact ();
  let _, wall2_s, _, _ = untraced w seed in
  let wall_s = (wall_s +. wall2_s) /. 2. in
  let layers =
    layers
    @ [
        ("exp.dispatch_s", self_total "exp.eval");
        ("trace.overhead_frac", (traced_wall_s /. wall_s) -. 1.);
      ]
    @
    if name = "fig8" then
      [
        ("runtime.checkpoint_commit_ns", checkpoint_commit_ns ());
        ("stablemem.vista_commit_ns", vista_commit_ns ());
      ]
    else []
  in
  write_spans spans_path;
  print_obj
    ([
       ("workload", Jstore.String name);
       ("seed", Jstore.Int seed);
       ("wall_s", Jstore.Float wall_s);
       ("traced_wall_s", Jstore.Float traced_wall_s);
       ("fidelity", Jstore.Bool ok);
       ("traced_failed", Jstore.Int extra_failed);
       ("layers", Jstore.Obj (List.map (fun (k, v) -> (k, Jstore.Float v)) layers));
     ]
    @ outcome_fields o)

let () =
  let usage () =
    prerr_endline
      "usage: bench.exe (pass|heldout) WORKLOAD SEED SPAWNED_AT\n\
      \       bench.exe trace WORKLOAD SEED SPANS_FILE";
    exit 2
  in
  match Array.to_list Sys.argv with
  | [ _; mode; name; seed; arg ] -> (
      match (List.assoc_opt name workloads, int_of_string_opt seed) with
      | Some w, Some seed -> (
          match mode with
          | "pass" -> pass name w seed (float_of_string arg)
          | "heldout" ->
              held_out := true;
              pass name w seed (float_of_string arg)
          | "trace" -> trace name w seed arg
          | _ -> usage ())
      | _ -> usage ())
  | _ -> usage ()
