(** Packed trace arenas: the flat, allocation-free twin of
    [Event.t array] sections.

    A builder encodes events into one growable byte buffer (1-byte tag +
    zigzag-LEB128 varints, locations interned per arena), the runtime
    hands whole arenas to workers, and [Engine.check_packed] walks them
    with a cursor — no [Event.t] is ever materialised on the fast path.
    The boxed representation stays available through {!to_events} /
    {!of_events}, and the packed↔boxed round trip is exact (pinned by
    test_packed and the fuzz packed-vs-boxed contract).

    An arena has a single internal read cursor, so concurrent decodes of
    the {e same} arena are not supported; arenas are owned by exactly one
    builder or worker at a time. *)

open Pmtest_util

type t

val create : ?capacity:int -> unit -> t
(** Fresh arena with [capacity] bytes pre-reserved (default 256). *)

val reset : t -> unit
(** Forget all contents (buffer retained for reuse). *)

val count : t -> int
(** Events encoded. *)

val byte_length : t -> int
val is_empty : t -> bool

val has_scope_controls : t -> bool
(** Whether any [Exclude]/[Include] control was encoded — lets the
    session skip the control re-scan on the common (control-free)
    path. *)

(** {1 Encoding} *)

val push : t -> thread:int -> Event.kind -> Loc.t -> unit
(** Encode one event: {!set_view} into the arena's scratch view, then
    the tag's fields in {!read}'s order. *)

val push_event : t -> Event.t -> unit

val of_events : Event.t array -> t

(** {1 Decoding} *)

(** Wire tags, one per {!Event.kind} shape (18 in all, mirroring
    [Serial]'s line tags).  [T_gpf] was appended last so the 17 seeded
    codes keep their on-wire values. *)
type tag =
  | T_write
  | T_clwb
  | T_sfence
  | T_ofence
  | T_dfence
  | T_is_persist
  | T_is_ordered
  | T_tx_begin
  | T_tx_add
  | T_tx_commit
  | T_tx_abort
  | T_tx_checker_start
  | T_tx_checker_end
  | T_exclude
  | T_include
  | T_lint_off
  | T_lint_on
  | T_gpf

(** One decoded event, overwritten in place by each {!read} — callers
    must copy anything they keep.  [lid] is the arena's id for the
    event's location (see {!loc}); [a]/[b] hold addr/size (or the A
    range of isOrderedBefore, whose B range is [c]/[d]); [rule] is only
    meaningful for lint tags.  Every other field is an immediate, so
    decoding into a long-lived view takes no write barrier. *)
type view = {
  mutable tag : tag;
  mutable thread : int;
  mutable lid : int;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  mutable rule : string;
}

val make_view : unit -> view

val read : t -> pos:int -> view -> int
(** Decode the event at byte offset [pos] into the view; returns the
    offset of the next event.  Iterate from 0 while [< byte_length t].
    Raises [Invalid_argument] if [pos] is out of bounds.  The arena is
    trusted — built by {!push} or validated by {!decode_wire} — so tags
    and varints are not checked: a one-byte varint, the common case,
    is one load and a compare. *)

val iter : t -> (view -> unit) -> unit

val loc : t -> int -> Loc.t
(** [loc t lid] is the location a view of [t] decoded with id [lid]:
    ids are stable while the arena is neither freed nor re-decoded, so
    an int can stand for a location until the arena is done with. *)

val set_view : view -> lid:int -> Event.kind -> unit
(** The one dispatcher from {!Event.kind} to the wire shape: sets [tag],
    [lid] and the tag's fields ([a]–[d]; [rule] for the lint tags only).
    [thread] is left alone, and a long-lived view takes no write
    barrier.  The encoder, [Engine.check] and the session's scope
    scan all go through it; {!kind_of_view} is its inverse. *)

val kind_of_view : view -> Event.kind
val event_of_view : t -> view -> Event.t
(** The event a view of [t] decoded, its location resolved by {!loc}. *)

val to_events : t -> Event.t array

(** {1 Checked decoding and the wire form}

    The cursor above ([read]/[iter]) trusts its input — it only ever
    sees arenas encoded by this module in this process.  Arenas that
    cross a process boundary (the [pmtestd] framed protocol) are
    arbitrary bytes: the functions here verify every tag, varint, rule
    string and location id and return a typed error instead of raising,
    so a corrupt network frame is a recoverable session error, never a
    dead checking worker. *)

type decode_error = { offset : int; reason : string }

val decode_error_to_string : decode_error -> string

val encode_wire : t -> string
(** Self-contained byte form: the arena's loc intern table followed by
    the event bytes, suitable for framing onto a socket.  Unlike the raw
    buffer, the result does not depend on this process's intern state. *)

type pool
(** An arena freelist (see the {e Arena freelists} section below). *)

val decode_wire : ?obs:Pmtest_obs.Obs.t -> ?pool:pool -> string -> (t, decode_error) result
(** Inverse of {!encode_wire}, fully validated: a truncated or garbage
    tag, an overlong or unterminated varint, an out-of-range location
    id, an overrunning rule string, a range whose size is not positive
    or an event count that disagrees with the header yields [Error] with
    the byte offset of the malformed field, and nothing may trail the
    event bytes.  The
    resulting arena is safe to hand to the unchecked cursor / the
    engine.  With [pool] the arena is drawn from (and its buffer reused
    out of) that freelist instead of freshly allocated — free it back to
    the {e same} pool. *)

(** {1 Arena freelists}

    Bounded pools so steady-state sections recycle buffers instead of
    allocating.  [alloc]/[free] default to a process-wide shared pool;
    the daemon gives each shard its own so arenas cycle decode → check →
    free entirely within one shard, with no cross-shard mutex.  [obs]
    (default disabled) counts arenas handed out ([arenas_allocated]) and
    freelist hits ([arenas_reused]). *)

val create_pool : ?cap:int -> unit -> pool
(** A fresh freelist holding at most [cap] (default 64) retired arenas. *)

val default_pool : pool

val alloc : ?obs:Pmtest_obs.Obs.t -> ?pool:pool -> unit -> t
val free : ?pool:pool -> t -> unit
(** Reset and return the arena to the pool (dropped if the pool is
    full).  The caller must not touch the arena afterwards. *)
