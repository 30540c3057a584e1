(** The two-dimensional protocol space (paper §2.4, Figures 3 and 4).

    One axis measures the effort a protocol makes to identify and convert
    application non-determinism; the other measures the effort made to
    identify visible events and commit as few non-visible events as
    possible.  All consistent-recovery protocols fall somewhere in the
    space; position predicts commit frequency, performance, recovery
    complexity — and, crucially for §2.6, the chance of violating
    Lose-work: protocols on the horizontal axis (zero visible-events
    effort) commit or convert all non-determinism and thereby guarantee
    that applications cannot survive propagation failures. *)

type point = {
  name : string;
  nd_effort : float;       (* 0..1 along the horizontal axis *)
  visible_effort : float;  (* 0..1 along the vertical axis *)
  from_literature : bool;  (* protocols placed but not executed here *)
  executable : string option;
      (* literature points realized by an executable spec in
         {!Protocols}: the spec's name, at the same coordinates *)
}

let of_spec (s : Protocol.spec) =
  {
    name = s.Protocol.spec_name;
    nd_effort = s.Protocol.nd_effort;
    visible_effort = s.Protocol.visible_effort;
    from_literature = false;
    executable = None;
  }

(* Placements of the recovery-literature protocols discussed in §2.4.
   Two of them — Manetho and Optimistic logging — are no longer placed
   only from the literature: {!Protocols.causal_log} and
   {!Protocols.optimistic} execute them, so those points carry the
   executable spec's name (and must sit at its coordinates). *)
let literature =
  [
    { name = "SBL"; nd_effort = 0.55; visible_effort = 0.0;
      from_literature = true; executable = None };
    { name = "FBL"; nd_effort = 0.55; visible_effort = 0.12;
      from_literature = true; executable = None };
    { name = "Targon/32"; nd_effort = 0.75; visible_effort = 0.0;
      from_literature = true; executable = None };
    { name = "Hypervisor"; nd_effort = 1.0; visible_effort = 0.0;
      from_literature = true; executable = None };
    { name = "Optimistic"; nd_effort = 0.6; visible_effort = 0.8;
      from_literature = true; executable = Some "OPTIMISTIC" };
    { name = "Manetho"; nd_effort = 0.75; visible_effort = 0.95;
      from_literature = true; executable = Some "CAUSAL-LOG" };
    { name = "Coord-ckpt"; nd_effort = 0.15; visible_effort = 0.9;
      from_literature = true; executable = None };
  ]

let executed = List.map of_spec Protocols.figure8_extended

let all = executed @ literature

(* §2.6: any protocol on the horizontal axis of the space — one that
   commits or converts every ND event without regard to visible events —
   ensures a commit lands after the ND event that steers the process onto
   a dangerous path, violating Lose-work. *)
let prevents_propagation_recovery p = p.visible_effort = 0.0

(* Design-variable trends of Figure 4, as orderings on points. *)
let expected_commit_frequency_rank p =
  (* farther from the origin -> fewer commits *)
  -.sqrt ((p.nd_effort ** 2.) +. (p.visible_effort ** 2.))

let simplicity_rank p =
  (* closer to the origin -> simpler, more likely implemented correctly *)
  sqrt ((p.nd_effort ** 2.) +. (p.visible_effort ** 2.))

let constrained_reexecution p =
  (* protocols off the vertical axis log/convert ND events, so recovery
     must constrain reexecution to the pre-failure path for a time *)
  p.nd_effort > 0.0

let nd_left_in_application p =
  (* farther from the horizontal axis -> more ND left uncommitted ->
     better chance of surviving propagation failures *)
  p.visible_effort

(* ASCII rendering of Figure 3, on a 64 x 18 grid. *)
let render points =
  let width = 64 and height = 18 in
  let buf = Buffer.create 2048 in
  let grid = Array.make_matrix height width ' ' in
  (* A literature point realized by an executable spec sits at exactly
     its twin's coordinates: plot one combined label instead of letting
     the two overwrite each other on the grid. *)
  let claimed = List.filter_map (fun p -> p.executable) points in
  let points = List.filter (fun p -> not (List.mem p.name claimed)) points in
  let place p =
    let x = int_of_float (p.nd_effort *. float_of_int (width - 12)) in
    let y = height - 2 - int_of_float (p.visible_effort
                                       *. float_of_int (height - 3)) in
    let x = max 0 (min (width - 1) x) and y = max 0 (min (height - 1) y) in
    let label =
      match p.executable with
      | Some e -> p.name ^ "=" ^ e
      | None -> p.name
    in
    String.iteri
      (fun i c -> if x + i < width then grid.(y).(x + i) <- c)
      label
  in
  List.iter place points;
  Buffer.add_string buf
    "effort to commit only visible events\n^\n";
  Array.iter
    (fun row ->
      Buffer.add_char buf '|';
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf "+";
  Buffer.add_string buf (String.make width '-');
  Buffer.add_string buf
    "> effort to identify/convert non-deterministic events\n";
  Buffer.contents buf
