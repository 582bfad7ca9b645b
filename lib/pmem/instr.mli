(** Instrumented PM access: executes an operation on the simulated machine
    {e and} reports it to the active sink, with the source location the
    calling library registers for itself.

    This plays the role of the WHISPER PM-operation macros the paper
    extends (§4.3): the substrate libraries perform every PM operation
    through this module, so swapping the sink swaps the testing tool. *)

open Pmtest_util
open Pmtest_trace

type t

val make : machine:Machine.t -> sink:Sink.t -> file:string -> t
val machine : t -> Machine.t
val sink : t -> Sink.t

val loc : t -> int -> Loc.t
(** Location in the registered source file. *)

(** {1 Stores (emit [write])} *)

val store_bytes : t -> line:int -> addr:int -> bytes -> unit
val store_i64 : t -> line:int -> addr:int -> int64 -> unit
val store_int : t -> line:int -> addr:int -> int -> unit
val store_u8 : t -> line:int -> addr:int -> int -> unit
val store_string : t -> line:int -> addr:int -> len:int -> string -> unit

(** {1 Loads (silent — loads are not PM operations)} *)

val load_i64 : t -> addr:int -> int64
val load_int : t -> addr:int -> int
val load_u8 : t -> addr:int -> int
val load_bytes : t -> addr:int -> len:int -> bytes
val load_string : t -> addr:int -> len:int -> string

(** {1 Ordering and durability primitives} *)

val clwb : t -> line:int -> addr:int -> size:int -> unit
val sfence : t -> line:int -> unit

val persist_barrier : t -> line:int -> addr:int -> size:int -> unit
(** The paper's [persist_barrier]: [clwb; sfence]. *)

val ofence : t -> line:int -> unit
val dfence : t -> line:int -> unit

val gpf : t -> line:int -> unit
(** CXL global persist barrier: drains all pending persists (machine
    [dfence]) and emits [gpf]. *)

(** {1 Annotations relayed to the sink} *)

val tx_event : t -> line:int -> Event.tx_event -> unit
val checker : t -> line:int -> Event.checker -> unit
val control : t -> line:int -> Event.control -> unit
