(** Mutable page-indexed disjoint interval map from byte ranges to
    [int]s — the engine's shadow memory, an in-place twin of
    {!Interval_map}.

    Same observable semantics: half-open ranges, stored intervals never
    overlap, [set]/[clear] split straddlers, adjacent equal values are
    {e not} merged, and [map_range] splits pieces at the query
    boundaries.  After any operation sequence, {!to_list} here equals
    [Interval_map.to_list] of the same sequence — pinned by the property
    tests in test_itree, including across many {!reset}s of one map.

    The difference is the cost model: a sorted array of pages, each
    holding its segments as parallel [lo]/[hi]/value int arrays mutated
    in place with [Array.blit].  An operation on a range inside one
    4 KiB page costs one page lookup, a binary search and a short
    memmove instead of a persistent-tree rebuild; the lookup is a binary
    search over the pages in use unless it hits the page found last, and
    a range ending exactly on a page edge also looks up the next page, to
    sever a join there.  Values are [int]s so that the map stores only
    immediates: once a map has grown to its working set, no operation
    allocates — not [set], [clear], [map_range], [covers] nor [exists].
    Ranges are expected to be small relative to the page (PM ops span
    bytes to a few cache lines); a range spanning several pages costs a
    binary search plus O(p) for the [p] pages it meets, and a whole-map
    walk costs O(p) in the pages in use.  [reset] is O(1) and keeps every
    page's arrays for the next epoch, whatever addresses it touches. *)

type t

val create : unit -> t

val reset : t -> unit
(** Remove every binding, keeping the pages' arrays for reuse. *)

val capacity : t -> int
(** Segment slots held by the map's page records, in use or kept for
    reuse — what the map costs to keep, in units of one stored
    interval.  At least 4 per page any epoch since {!create} touched. *)

val set : t -> lo:int -> hi:int -> int -> unit
(** Make every address in [\[lo, hi)] map to [v], splitting straddlers.
    Raises [Invalid_argument] if [lo >= hi]. *)

val clear : t -> lo:int -> hi:int -> unit
(** Remove all bindings in [\[lo, hi)], keeping straddling fragments. *)

val covers : t -> lo:int -> hi:int -> bool
(** Whether every address in [\[lo, hi)] has a binding. *)

val exists : t -> lo:int -> hi:int -> ('b -> int -> int -> int -> bool) -> 'b -> bool
(** [exists t ~lo ~hi f arg] calls [f arg l h v] on the stored intervals
    intersecting [\[lo, hi)], clipped to [\[l, h)], in ascending order,
    and stops at the first [true].  [~lo:min_int ~hi:max_int] walks the
    whole map.  [f] gets its environment as [arg], so a closed [f]
    allocates nothing.  [f] must not change [t]. *)

val map_range : t -> lo:int -> hi:int -> ('b -> int -> int) -> 'b -> bool
(** [map_range t ~lo ~hi f arg] splits stored intervals at [lo] and [hi]
    and replaces the value [v] of every piece inside with [f arg v];
    gaps stay unbound.  As [Interval_map.update_range] with
    [function None -> None | Some v -> Some (f arg v)].  [f] may run
    more than once for one piece that spans pages.  Returns whether
    [\[lo, hi)] was fully bound — what {!covers} would have said before
    the call, found by the same walk. *)

val fold : (int -> int -> int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** Stored intervals as [(lo, hi, v)] in address order. *)

val to_list : t -> (int * int * int) list
