(** Chained hash map with transactional updates (PMDK's [hashmap_tx]).

    Fixed bucket array; each mutation is one failure-atomic transaction
    that snapshots the bucket slot (and the count) before relinking. *)

type t

type bug =
  | Skip_log_bucket  (** Relink the bucket head without [TX_ADD]. *)
  | Skip_log_count  (** Update the element count without [TX_ADD]. *)
  | Duplicate_log  (** Log the bucket slot twice. *)
  | No_commit  (** Leave the transaction open. *)

val create : ?buckets:int -> Pool.t -> t
val open_ : Pool.t -> root:int -> t
val root_off : t -> int
val pool : t -> Pool.t

val insert : ?bug:bug -> t -> key:int64 -> value:bytes -> unit
val lookup : t -> key:int64 -> bytes option
val remove : t -> key:int64 -> bool
val cardinal : t -> int
val iter : t -> (int64 -> bytes -> unit) -> unit

val check_consistent : t -> (unit, string) result
(** Chain pointers stay inside the heap, keys hash to their bucket, and
    the reachable-entry count equals the stored count. *)
