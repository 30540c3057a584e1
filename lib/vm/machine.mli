(** The virtual machine interpreter.  Syscalls pause the machine for the
    engine to service; crash conditions (wild loads and stores, division
    by zero, bad jumps, failed consistency checks) are the crash events
    of the paper's model (§2.5).

    The state record is exposed: the execution engine and the fault
    injectors manipulate code, registers and breakpoints directly. *)

type crash_reason =
  | Heap_out_of_bounds of int
  | Stack_overflow
  | Stack_underflow
  | Division_by_zero
  | Bad_jump of int
  | Bad_register of int
  | Check_failed of int  (** pc of the failed consistency check *)
  | Killed  (** external stop failure *)

val crash_reason_to_string : crash_reason -> string

type status =
  | Running
  | Need_syscall of Syscall.t  (** paused just past a [Sys] instruction *)
  | Halted
  | Crashed of crash_reason

type t = {
  mutable code : Instr.t array;
  mutable pc : int;
  regs : int array;
  mutable stack : int array;
  mutable sp : int;
  mutable fp : int;
  heap : Memory.t;
  mutable status : status;
  mutable icount : int;  (** dynamic instructions executed *)
  mutable signal_handler : int;  (** code address, -1 when none *)
  mutable in_signal : bool;
  mutable break_pc : int;  (** static pc breakpoint, -1 when none *)
  mutable countdown : int;
      (** executed instructions until the countdown breakpoint fires,
          0 when none *)
  mutable on_break : t -> unit;  (** called when a breakpoint fires *)
}
(** {b Breakpoints} (used by fault injectors).  [on_break t] runs just
    before an instruction executes — after the pc range check, before
    [icount] and [pc] advance, so it sees [pc] at that instruction — if
    its static pc is [break_pc], or if it is the instruction on which
    [countdown] reaches 0.  It runs once even when both fire together.
    A positive [countdown] drops by one per executed instruction, in
    {!step} and {!step_n} alike; it counts from where it was set, not
    from [icount], so {!restore} (which rewinds [icount]) leaves it
    counting.  A countdown that fires reads 0 in the callback and stays
    0; [break_pc] stays set until someone clears it.  The callback may
    change the machine, including both breakpoints and the contents of
    [code], but not [code] itself. *)

val create :
  ?stack_size:int -> ?heap_size:int -> ?page_size:int -> Instr.t array -> t

val status : t -> status
val heap : t -> Memory.t
val icount : t -> int
val pc : t -> int

val crash : t -> crash_reason -> unit
val kill : t -> unit
(** An external stop failure. *)

val clear_breakpoints : t -> unit
(** [break_pc <- -1; countdown <- 0]. *)

val set_reg : t -> Instr.reg -> int -> unit
val stack_slot : t -> int -> int option
val set_stack_slot : t -> int -> int -> unit
val live_stack_size : t -> int

val step : t -> unit
(** Execute one instruction; no-op unless [Running]. *)

val step_n : t -> int -> int
(** [step_n t budget] executes up to [budget] instructions, stopping
    early at the first status change; returns the number executed.
    Equivalent to calling {!step} in a loop, state for state and
    breakpoint for breakpoint.

    The one interpreter loop: the in-range case of Const, Mov, Bin (but
    Div and Mod), Cmp, Load, Store, Push, Pop, Sload, Sstore, Jmp, Jz
    and Jnz runs inline, and everything else (every crash condition,
    every other opcode, the instruction at [break_pc] and the one on
    which [countdown] fires) goes through {!step}. *)

val is_running : t -> bool
(** [status t = Running], without the polymorphic compare. *)

val resume : t -> unit
(** Clear a [Need_syscall] status. *)

val rewind_syscall : t -> unit
(** Point the machine back at the pending [Sys] instruction so a
    checkpoint taken now replays the event (commit-before semantics). *)

val advance_past_syscall : t -> unit
(** Step over the [Sys] instruction after servicing it. *)

val deliver_signal : t -> bool
(** Push the continuation and the register file, jump to the installed
    handler.  Returns [false] when no handler is installed, a handler is
    already running, or the machine is not [Running]. *)

type snapshot = {
  s_code_len : int;
  s_pc : int;
  s_regs : int array;
  s_stack : int array;  (** live prefix *)
  s_sp : int;
  s_fp : int;
  s_heap : int array;
  s_icount : int;
  s_signal_handler : int;
  s_in_signal : bool;
}

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val state_words : t -> int
(** Words a full-process checkpoint would occupy. *)
