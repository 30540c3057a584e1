(** ASCII table/figure rendering for experiment output. *)

val pad : int -> string -> string
val pad_left : int -> string -> string

val table : headers:string list -> rows:string list list -> string
(** First column left-aligned, the rest right-aligned. *)

val pct : float -> string
val pct1 : float -> string
val fps : float -> string
val section : string -> string

val merge_bench : path:string -> (string * Ft_exp.Jstore.value) list -> unit
(** Merge the given keys into a flat BENCH_RESULTS.json (starting one if
    absent), replacing those keys and preserving every other one. *)
