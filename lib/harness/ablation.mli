(** Measured ablations of the design choices DESIGN.md calls out — each
    a quantified version of a §2.6 mitigation or cost-model choice. *)

type crash_early_row = {
  check_every : int;
  crashes : int;
  violations : int;
  violation_pct : float;
}

val crash_early :
  ?cadences:int list -> ?target_crashes:int -> ?max_attempts:int -> unit ->
  crash_early_row list
(** Lose-work violation rate of nvi heap bit flips as a function of the
    consistency-check cadence: checking more often crashes sooner and
    leaves fewer commits on the dangerous path. *)

val render_crash_early : crash_early_row list -> string

type exclusion_row = {
  label : string;
  sim_time_ns : int;
  overhead_pct : float;
}

val exclusion : ?commands:int -> unit -> exclusion_row list
(** DC-disk overhead of magic with and without its recomputable
    framebuffer excluded from checkpoints. *)

val render_exclusion : exclusion_row list -> string

type page_row = { page_size : int; sim_time_ns : int }

val page_size : unit -> page_row list
val render_page_size : page_row list -> string

val disk_model : unit -> (string * int) list
val render_disk_model : (string * int) list -> string

val jobs : unit -> Ft_exp.Job.t list
(** Every ablation study's jobs (default parameters), for sweeping. *)

val render_records : (string -> Ft_exp.Jstore.value option) -> string
(** All four studies rendered from stored job values. *)

val run_all : unit -> string
(** [jobs] evaluated inline and rendered. *)
