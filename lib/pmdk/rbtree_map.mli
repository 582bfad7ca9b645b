(** Red-black tree map (PMDK's [rbtree_map] example).

    CLRS-style red-black tree with parent pointers and a sentinel node.
    Every existing node is snapshotted ([TX_ADD]) before its first
    modification in a transaction; {!Skip_log_fixup} disables the snapshot
    in the rotation helper, reproducing the Table-6 rbtree_map.c:379 bug
    ("modify a tree node without logging it"). *)

type t

type bug =
  | Skip_log_fixup  (** Rotations modify nodes without logging them. *)
  | Skip_log_insert  (** The BST link-in step skips logging the parent. *)
  | Duplicate_log  (** Log the freshly linked node a second time. *)

val create : Pool.t -> t
val open_ : Pool.t -> root:int -> t
val root_off : t -> int
val pool : t -> Pool.t

val insert : ?bug:bug -> t -> key:int64 -> value:bytes -> unit
val lookup : t -> key:int64 -> bytes option
val remove : t -> key:int64 -> bool
val cardinal : t -> int
val iter : t -> (int64 -> bytes -> unit) -> unit
(** In increasing key order. *)

val check_consistent : t -> (unit, string) result
(** BST order, no red node with a red child, equal black height on all
    paths, parent pointers coherent, count matches. *)
