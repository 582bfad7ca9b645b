(** Memory persistency models and their low-level PM operations.

    A persistency model defines which primitives a program uses to enforce
    durability and ordering and how epochs advance (paper §2.1, §5.2):

    - {b X86}: [clwb addr size] initiates a cache-line writeback;
      [sfence] orders — every preceding [clwb] is complete (hence the
      written-back data durable) before anything after the fence.
    - {b HOPS}: the lightweight [ofence] orders persists without forcing
      them to complete; the heavyweight [dfence] additionally stalls until
      all preceding writes are durable. No explicit writeback exists —
      ordering and durability are decoupled fence properties.
    - {b eADR}: extended asynchronous DRAM refresh — the caches themselves
      are within the persistence domain, so a store is durable the moment
      it executes and persists in program order. Writebacks are never
      needed (a [clwb] is pure overhead the performance checker flags);
      [sfence] is accepted as an ordering no-op.
    - {b CXL}: shared memory over a CXL fabric — a store is globally
      {e visible} to every host the moment it executes, but it is only
      {e durable} once a global persist barrier ([gpf]) drains all hosts'
      pending persists. There is no per-line writeback; [gpf] is the only
      durability primitive and persists between barriers complete in any
      order. *)

type kind = X86 | Hops | Eadr | Cxl

type op =
  | Write of { addr : int; size : int }
      (** A store to persistent memory; [size] in bytes. *)
  | Clwb of { addr : int; size : int }
      (** Cache-line writeback of the range (x86). *)
  | Sfence  (** Store fence: completes preceding writebacks (x86). *)
  | Ofence  (** Ordering fence (HOPS). *)
  | Dfence  (** Durability fence (HOPS). *)
  | Gpf  (** Global persist barrier: drains all hosts' pending persists (CXL). *)

val kind_name : kind -> string

val all_kinds : kind list
(** Every model, in declaration order: [[X86; Hops; Eadr; Cxl]]. *)

val kind_names : string list
(** Canonical names of [all_kinds], for error messages and help text. *)

val kind_of_string : string -> kind option

val valid_op : kind -> op -> bool
(** Whether the operation belongs to the model's ISA: [Write] is valid
    everywhere; [Clwb]/[Sfence] only under X86 and eADR (legacy);
    [Ofence]/[Dfence] only under HOPS; [Gpf] only under CXL. *)

val is_fence : op -> bool
(** [Sfence], [Ofence], [Dfence] and [Gpf] advance the global timestamp. *)

val pp_op : Format.formatter -> op -> unit

val cache_line : int
(** Cache-line size used throughout the simulation (64 bytes). *)

val line_of_addr : int -> int
(** [line_of_addr a] is [a / cache_line]. *)

val line_span : addr:int -> size:int -> int * int
(** [(first, last)] cache-line indices touched by the byte range. *)
