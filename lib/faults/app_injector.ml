(** Application fault injection (paper §4.1).

    A fault is planned from a seeded RNG, then armed on a process running
    inside the engine.  Code mutations (destination register, deleted
    branch/instruction, lost initialization, off-by-one) change the
    program before the run; their {e activation} is the first dynamic
    execution of the mutated instruction.  Bit flips (stack, heap) are
    applied at a random dynamic instruction count; activation is the flip
    itself.  The engine records activation so {!Ft_core.Lose_work} can
    later decide whether a commit landed between activation and the
    crash, and so recovery can suppress the fault (the paper's end-to-end
    check). *)

type plan =
  | Code_mutation of { at : int; replacement : Ft_vm.Instr.t }
  | Bit_flip of {
      at_icount : int;
      target : [ `Stack | `Heap ];
      bit : int;
      loc_seed : int;  (* picks the word at flip time, among live state *)
    }

let pp_plan fmt = function
  | Code_mutation { at; replacement } ->
      Format.fprintf fmt "code[%d] := %s" at
        (Ft_vm.Instr.to_string replacement)
  | Bit_flip { at_icount; target; bit; _ } ->
      Format.fprintf fmt "flip bit %d of a %s word at icount %d" bit
        (match target with `Stack -> "stack" | `Heap -> "heap")
        at_icount

(* Candidate instruction indices for each code-mutation fault type.
   [Enter]/[Leave] are calling-convention artifacts with no source-line
   counterpart, so the "delete a random line of source" fault skips
   them. *)
let candidates (ft : Fault_type.t) code =
  let idx = ref [] in
  Array.iteri
    (fun i (ins : Ft_vm.Instr.t) ->
      let ok =
        match ft with
        | Fault_type.Destination_reg -> Ft_vm.Instr.dest_reg ins <> None
        | Fault_type.Delete_branch -> Ft_vm.Instr.is_branch ins
        | Fault_type.Off_by_one -> Ft_vm.Instr.is_cmp ins
        | Fault_type.Initialization -> (
            match ins with
            | Ft_vm.Instr.Sstore _ | Ft_vm.Instr.Store _ -> true
            | _ -> false)
        | Fault_type.Delete_instruction -> (
            match ins with
            | Ft_vm.Instr.Enter _ | Ft_vm.Instr.Leave | Ft_vm.Instr.Halt
            | Ft_vm.Instr.Ret | Ft_vm.Instr.Sigret ->
                false
            | _ -> true)
        | Fault_type.Stack_bit_flip | Fault_type.Heap_bit_flip -> false
      in
      if ok then idx := i :: !idx)
    code;
  !idx

(* Plan a fault of type [ft] against [code].  [horizon] is the expected
   dynamic instruction count of a fault-free run, used to place bit
   flips uniformly in time.  Returns [None] when the program has no
   suitable injection site. *)
let plan rng (ft : Fault_type.t) ~code ~horizon =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  match ft with
  | Fault_type.Stack_bit_flip | Fault_type.Heap_bit_flip ->
      Some
        (Bit_flip
           {
             at_icount = 1 + Random.State.int rng (max 1 horizon);
             target =
               (if ft = Fault_type.Stack_bit_flip then `Stack else `Heap);
             bit = Random.State.int rng 24;
             loc_seed = Random.State.bits rng;
           })
  | Fault_type.Destination_reg -> (
      match candidates ft code with
      | [] -> None
      | cs ->
          let at = pick cs in
          let ins = code.(at) in
          let old = Option.get (Ft_vm.Instr.dest_reg ins) in
          let rec fresh () =
            let r = Random.State.int rng Ft_vm.Instr.num_regs in
            if r = old then fresh () else r
          in
          Some
            (Code_mutation
               { at; replacement = Ft_vm.Instr.with_dest_reg ins (fresh ()) }))
  | Fault_type.Delete_branch | Fault_type.Delete_instruction
  | Fault_type.Initialization -> (
      match candidates ft code with
      | [] -> None
      | cs -> Some (Code_mutation { at = pick cs; replacement = Ft_vm.Instr.Nop }))
  | Fault_type.Off_by_one -> (
      match candidates ft code with
      | [] -> None
      | cs ->
          let at = pick cs in
          let replacement =
            match code.(at) with
            | Ft_vm.Instr.Cmp (op, d, a, b) ->
                Ft_vm.Instr.Cmp (Ft_vm.Instr.off_by_one_cmp op, d, a, b)
            | _ -> assert false
          in
          Some (Code_mutation { at; replacement }))

(* Arm a planned fault on process [pid] of a created (but not yet run)
   engine.  Uses the machine's [on_execute] hook for activation detection
   and flip scheduling; the engine's fault-suppression path clears the
   hook and restores pristine code on recovery. *)
let eval_cmp op a b =
  let r =
    match op with
    | Ft_vm.Instr.Lt -> a < b
    | Ft_vm.Instr.Le -> a <= b
    | Ft_vm.Instr.Gt -> a > b
    | Ft_vm.Instr.Ge -> a >= b
    | Ft_vm.Instr.Eq -> a = b
    | Ft_vm.Instr.Ne -> a <> b
  in
  if r then 1 else 0

let arm engine ~pid p =
  let m = Ft_runtime.Engine.machine engine pid in
  match p with
  | Code_mutation { at; replacement } ->
      let original = m.Ft_vm.Machine.code.(at) in
      m.Ft_vm.Machine.code.(at) <- replacement;
      let fired = ref false in
      (* Activation is the first execution whose outcome differs from the
         pristine instruction's: an off-by-one comparison activates only
         on inputs where the operators disagree, a deleted branch only
         when the branch would have been taken. *)
      let differs () =
        match (original, replacement) with
        | Ft_vm.Instr.Cmp (op, _, a, b), Ft_vm.Instr.Cmp (op', _, a', b')
          when a = a' && b = b' ->
            let va = m.Ft_vm.Machine.regs.(a)
            and vb = m.Ft_vm.Machine.regs.(b) in
            eval_cmp op va vb <> eval_cmp op' va vb
        | Ft_vm.Instr.Jz (r, _), Ft_vm.Instr.Nop ->
            m.Ft_vm.Machine.regs.(r) = 0
        | Ft_vm.Instr.Jnz (r, _), Ft_vm.Instr.Nop ->
            m.Ft_vm.Machine.regs.(r) <> 0
        | _ -> true
      in
      m.Ft_vm.Machine.on_execute <-
        Some
          (fun pc ->
            if pc = at && (not !fired) && differs () then begin
              fired := true;
              Ft_runtime.Engine.record_activation engine pid
            end)
  | Bit_flip { at_icount; target; bit; loc_seed } ->
      let count = ref 0 in
      m.Ft_vm.Machine.on_execute <-
        Some
          (fun _pc ->
            incr count;
            if !count = at_icount then begin
              let rng = Random.State.make [| loc_seed |] in
              (match target with
              | `Stack ->
                  let live = Ft_vm.Machine.live_stack_size m in
                  if live > 0 then begin
                    let i = Random.State.int rng live in
                    match Ft_vm.Machine.stack_slot m i with
                    | Some v ->
                        Ft_vm.Machine.set_stack_slot m i (v lxor (1 lsl bit))
                    | None -> ()
                  end
              | `Heap ->
                  let heap = Ft_vm.Machine.heap m in
                  let a = Ft_vm.Memory.pick_live_word heap rng in
                  Ft_vm.Memory.write heap a
                    (Ft_vm.Memory.read heap a lxor (1 lsl bit)));
              Ft_runtime.Engine.record_activation engine pid
            end)

(* Arm a fault that RECURS on replay.  Code mutations already recur for
   free — the mutation lives in the code array, which recovery does not
   touch (without suppression), so every replay re-executes the bug: the
   paper's propagating / Bohrbug case.  Bit flips are one-shot as
   planned by [arm]; here they are re-armed after every restore with
   parameters drawn from (seed, salt) — the environment salt the
   scheduler passes to its replay hook.

   The plan's firing instant is ABSOLUTE in the lineage's icount
   timeline (the plan is drawn at icount 0, where [arm]'s relative
   counter coincides with absolute icount); each re-arm converts it to
   the machine's current position.  Identical salt (generic replay,
   deep rollback) therefore recurs at the same absolute point of the
   replay — the state there is identical, so the corruption and the
   crash are too: a deterministic recurrence that defeats rungs L0 and
   L1.  If the restore point is already past the firing instant, the
   recurrence bites immediately — a state-dependent bug that the
   restored state still triggers.  A perturbed (L2) replay carries a
   fresh salt: the flip is redrawn — new instant, new word, new bit —
   and when the redrawn instant already lies in the past the fault is
   dodged outright, never to fire again on this lineage: the Heisenbug
   escape.  Everything is deterministic given (seed, salt): identical
   replays stay replayable. *)
let arm_recurring engine ~pid ~seed ft ~code ~horizon =
  let plan_for salt =
    let rng = Random.State.make [| seed; salt; 0xf11b |] in
    plan rng ft ~code ~horizon
  in
  match plan_for 0 with
  | None -> None
  | Some (Code_mutation _ as p) ->
      arm engine ~pid p;
      Some p
  | Some (Bit_flip _ as p) ->
      arm engine ~pid p;
      let m = Ft_runtime.Engine.machine engine pid in
      Ft_runtime.Engine.set_on_replay engine (fun rpid ~salt ->
          if rpid = pid then
            let now = Ft_vm.Machine.icount m in
            match plan_for salt with
            | Some (Bit_flip { at_icount; target; bit; loc_seed }) ->
                if salt = 0 || at_icount > now then
                  (* Same environment: recur at the same absolute point
                     (immediately, if the restore already sits past it).
                     New environment: fire at the redrawn instant. *)
                  arm engine ~pid
                    (Bit_flip
                       {
                         at_icount = max 1 (at_icount - now);
                         target;
                         bit;
                         loc_seed;
                       })
                (* else: the redrawn instant is already behind this
                   replay — the perturbed environment dodged the fault
                   for good.  Leave the old hook; it has fired. *)
            | Some (Code_mutation _) | None -> ());
      Some p
