(** Paged heap memory with dirty-page tracking: the substrate for
    Discount Checking's copy-on-write incremental checkpoints (paper §3). *)

type t

exception Out_of_bounds of int

val create : ?page_size:int -> size:int -> unit -> t
(** [page_size] must be a power of two (default 64 words). *)

val size : t -> int
val page_size : t -> int
val npages : t -> int

val read : t -> int -> int
(** Raises {!Out_of_bounds}: the crash event of a wild load. *)

val write : t -> int -> int -> unit
(** Marks the containing page dirty.  Raises {!Out_of_bounds}. *)

val pick_live_word : t -> Random.State.t -> int
(** A word address for a fault injector to corrupt, drawn from the
    given stream: biased half the time to the low 4,096 words, and to a
    nonzero word when 64 probes find one. *)

val dirty_pages : t -> int list
(** Pages written since the last {!clear_dirty}, ascending. *)

val dirty_count : t -> int
val clear_dirty : t -> unit

val snapshot_page : t -> int -> int array
val restore_page : t -> int -> int array -> unit

val blit_page_into : t -> int -> int array -> unit
(** [blit_page_into t p dst] copies page [p] into [dst] (which must hold
    at least [page_size] words) without allocating. *)

val iter_page : t -> int -> (int -> int -> unit) -> unit
(** [iter_page t p f] calls [f addr word] for every word of page [p],
    in address order, without copying the page. *)

val snapshot : t -> int array

val words : t -> int array
(** The heap's live backing array, for bulk copies out of it without
    allocating a snapshot.  Read it only: a write through it would
    bypass bounds and dirty-page tracking. *)

val restore : t -> int array -> unit
(** Also clears dirty tracking. *)
