(** Typed accessors over a simulated PM device.

    The simulated CCS libraries lay out their persistent structures with
    explicit offsets (as C code over a mapped PM region does); these
    helpers read and write fixed-width little-endian scalars. Stores go
    through {!Machine.store} so dirtiness and versioning are tracked. *)

val get_i64 : Machine.t -> int -> int64
val set_i64 : Machine.t -> int -> int64 -> unit

val get_int : Machine.t -> int -> int
(** [get_int m off] reads an [int64] and truncates to [int] (layouts only
    store values that fit). *)

val set_int : Machine.t -> int -> int -> unit

val get_u8 : Machine.t -> int -> int
val set_u8 : Machine.t -> int -> int -> unit

val get_bytes : Machine.t -> int -> int -> bytes

val get_string : Machine.t -> int -> int -> string
(** [get_string m off len] reads [len] bytes and trims trailing NULs. *)

val set_string : Machine.t -> int -> len:int -> string -> unit
(** Writes the string NUL-padded to exactly [len] bytes (truncates if
    longer). *)
