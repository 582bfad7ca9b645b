(** The PMTest checking engine (paper §4.4).

    The engine walks a trace once, maintaining a shadow memory keyed by
    byte range. Each modified range carries the epoch of its last write
    and, under x86, the epoch of the first [clwb] since that write; from
    those and the global timestamp the {e persist interval} — the epoch
    range in which the write may become durable — is derived on demand:

    - x86 (§4.4): a write's interval opens at its epoch and closes at the
      first [sfence] that follows a covering [clwb];
    - HOPS (§5.2): it closes at the first [dfence] after the write
      ([ofence] advances the epoch without persisting anything).

    Checking rules: [isPersist] holds iff the interval ends by the current
    timestamp; [isOrderedBefore a b] holds iff (x86) no interval of [a]
    overlaps one of [b], or (HOPS) every interval of [a] starts strictly
    before every interval of [b].

    The shadow memory is one page-indexed mutable {!Page_map}, whether
    the section arrives as boxed events ({!check}) or as a packed arena
    ({!check_packed}).

    Trace sections sent via [PMTest_SEND_TRACE] are independent (§4.4):
    each pass starts from fresh {e observable} state, which is what lets
    the runtime fan sections out to worker threads.  The storage behind
    it is not fresh: each domain keeps one engine state between passes
    and resets it in place, so a steady-state pass allocates nothing per
    entry and nothing per section but its report.  The reuse is safe
    under systhreads (a second concurrent pass in one domain builds its
    own state) and after an exception (a pass that raises drops its
    state); a pass that grew its state past a fixed bound drops it too. *)

open Pmtest_model
open Pmtest_trace

val check :
  ?obs:Pmtest_obs.Obs.t -> ?model:Model.kind -> ?prelude:Event.t array -> Event.t array -> Report.t
(** Validate one trace section. Defaults to the x86 persistency model.
    [prelude] (default empty) is replayed first — the session's
    exclusion preamble — so the report equals a check of
    [Array.append prelude entries] without that copy.  With an enabled
    [obs] the per-section entry/op/checker/diagnostic totals are added
    to the collector after the pass. *)

val check_packed :
  ?obs:Pmtest_obs.Obs.t -> ?model:Model.kind -> ?prelude:Event.t array -> Packed.t -> Report.t
(** The same pass driven by a cursor over a packed arena: no
    [Event.t array] is materialised.  [prelude] (default empty) is a
    boxed event prefix replayed before the arena — the session's
    exclusion preamble — so the report equals {!check} on
    [Array.append prelude (to_events p)].  Both entry points share one
    shadow memory, so the packed-vs-boxed contract (fuzz and
    test_packed) pins only the two dispatchers and the arena codec;
    diagnostics render their messages only here, at
    report-materialisation time. *)

(** {1 Introspection for tests and examples} *)

type range_status = {
  lo : int;
  hi : int;
  persist : Interval.t;  (** When the last write to this range may persist. *)
  flush : Interval.t option;  (** When its writeback may complete (x86). *)
}

type snapshot = { timestamp : int; ranges : range_status list }

val check_with_snapshot : ?model:Model.kind -> Event.t array -> Report.t * snapshot
(** Like {!check} but also returns the shadow-memory state after the last
    entry — the persist-interval table of the paper's Fig. 7. *)

val shadow_cardinality_of : snapshot -> int
