(* Mutable page-indexed disjoint interval map — the engine's shadow
   memory, with the observable semantics of {!Interval_map}.

   Storage is an int-keyed hash table from page index (address asr
   [page_bits]) to a small sorted array of segments, each segment
   confined to its page.  A logical interval that crosses a page boundary
   is stored as one segment per page; every continuation segment carries
   a [jl] ("joined left") flag meaning "I am the same logical interval as
   the segment ending at my [lo]".  Reads follow flagged runs forward, so
   the observable contents — [to_list], the pieces [exists] visits,
   [map_range] piece boundaries — are exactly what {!Interval_map} would
   hold after the same operation sequence, including its deliberate
   non-merging of adjacent equal values (pinned by the property tests in
   test_itree, which keep {!Interval_map} as the reference).  A flagged
   segment always starts its page, and the segment it joins is always
   present.

   Lookups: the last page found is remembered, so consecutive operations
   on one page probe the table once between them; pages are never
   removed, so the remembered page never goes stale.  An operation on a
   range inside one page is a single lookup followed by work on that
   page's array.  A range spanning pages walks [live]: the pages given a
   segment since the last [reset], kept sorted by key, so a walk is a
   binary search plus a scan of the pages it meets, and [reset] touches
   only those pages.

   Mutation is in-place: page arrays are spliced with [Array.blit], no
   balanced-tree rebuilding.  The per-op paths allocate only the
   segments they store: walks are loops over mutable locals, callbacks
   take their environment as an argument instead of a closure, and a
   missing page is an exception, not an option. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_of_addr a = a asr page_bits
let page_lo k = k lsl page_bits
let page_aligned a = a land (page_size - 1) = 0

type 'a seg = { mutable lo : int; mutable hi : int; mutable v : 'a; mutable jl : bool }

type 'a page = {
  key : int;
  mutable segs : 'a seg array;
  mutable n : int;
  mutable listed : bool;  (* in [live] *)
}

(* A section's pages are mostly neighbours: identity hashing spreads them
   over consecutive buckets with no call into the runtime. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = k land max_int
end)

type 'a t = {
  pages : 'a page Tbl.t;
  mutable last : 'a page;  (* the page found last *)
  mutable live : 'a page array;  (* [0, nlive): listed pages, ascending keys *)
  mutable nlive : int;
}

(* A section's shadow, its TX log and its scope writes are three maps
   touching few pages each: a small table keeps per-section setup cheap.
   [last] starts on a placeholder keyed [min_int], which no lookup asks
   for: [page_of_addr] shifts it away. *)
let create () =
  { pages = Tbl.create 16; last = { key = min_int; segs = [||]; n = 0; listed = false };
    live = [||]; nlive = 0 }

let reset t =
  for i = 0 to t.nlive - 1 do
    let p = t.live.(i) in
    p.n <- 0;
    p.listed <- false
  done;
  t.nlive <- 0

let check_range name lo hi =
  if lo >= hi then invalid_arg ("Page_map." ^ name ^ ": empty range")

(* Raises [Not_found] when page [k] was never created. *)
let find_page t k =
  if k = t.last.key then t.last
  else begin
    let p = Tbl.find t.pages k in
    t.last <- p;
    p
  end

let ensure_page t k =
  match find_page t k with
  | p -> p
  | exception Not_found ->
    let p = { key = k; segs = [||]; n = 0; listed = false } in
    Tbl.add t.pages k p;
    t.last <- p;
    p

(* [a] with [x] inserted at [i] among its first [n] elements, grown by
   doubling when full. *)
let array_insert a n i x =
  let a =
    if n < Array.length a then a
    else begin
      let b = Array.make (max 4 (2 * n)) x in
      Array.blit a 0 b 0 n;
      b
    end
  in
  Array.blit a i a (i + 1) (n - i);
  a.(i) <- x;
  a

(* First index of [live] whose page key is at least [k]. *)
let first_live t k =
  let lo = ref 0 and hi = ref t.nlive in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.live.(mid).key >= k then hi := mid else lo := mid + 1
  done;
  !lo

let list_page t p =
  if not p.listed then begin
    p.listed <- true;
    t.live <- array_insert t.live t.nlive (first_live t p.key) p;
    t.nlive <- t.nlive + 1
  end

(* First index whose segment ends strictly after [x] — the first segment
   that could intersect anything at or right of [x]. *)
let lower_bound p x =
  let lo = ref 0 and hi = ref p.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.segs.(mid).hi > x then hi := mid else lo := mid + 1
  done;
  !lo

let page_insert t p i seg =
  p.segs <- array_insert p.segs p.n i seg;
  p.n <- p.n + 1;
  list_page t p

let page_remove p i j =
  if j > i then begin
    Array.blit p.segs j p.segs i (p.n - j);
    p.n <- p.n - (j - i)
  end

(* Clear [lo, hi) inside one page, preserving straddling fragments, and
   return the index where a segment starting at [lo] now belongs; [i] is
   [lower_bound p lo].  A right fragment starts a fresh logical interval,
   so its [jl] drops.  Bounds outside the page behave as the page's own
   edges. *)
let clear_page t p i ~lo ~hi =
  let i = ref i in
  if !i < p.n && p.segs.(!i).lo < lo then begin
    let s = p.segs.(!i) in
    if s.hi > hi then
      (* One segment covers the whole cleared span: split it. *)
      page_insert t p (!i + 1) { lo = hi; hi = s.hi; v = s.v; jl = false };
    s.hi <- lo;
    incr i
  end;
  let j = ref !i in
  while !j < p.n && p.segs.(!j).hi <= hi do
    incr j
  done;
  page_remove p !i !j;
  if !i < p.n && p.segs.(!i).lo < hi then begin
    let s = p.segs.(!i) in
    s.lo <- hi;
    s.jl <- false
  end;
  !i

(* Make [x] a segment boundary inside [p] that starts a fresh logical
   interval: split a segment straddling it, or sever the join of one
   starting there (only page-aligned starts carry [jl]). *)
let split_page t p x =
  let i = lower_bound p x in
  if i < p.n then begin
    let s = p.segs.(i) in
    if s.lo < x then begin
      page_insert t p (i + 1) { lo = x; hi = s.hi; v = s.v; jl = false };
      s.hi <- x
    end
    else if s.lo = x then s.jl <- false
  end

let split t x =
  match find_page t (page_of_addr x) with p -> split_page t p x | exception Not_found -> ()

(* After clearing up to [hi] nothing ends at [hi] any more, so a segment
   starting there must not continue a truncated interval.  Inside a page
   [clear_page] has already made it fresh; only the next page's first
   segment can still carry a join. *)
let clear_unchecked t ~lo ~hi =
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 = k1 then begin
    match find_page t k0 with
    | p -> ignore (clear_page t p (lower_bound p lo) ~lo ~hi)
    | exception Not_found -> ()
  end
  else begin
    let i = ref (first_live t k0) in
    while !i < t.nlive && t.live.(!i).key <= k1 do
      let p = t.live.(!i) in
      ignore (clear_page t p (lower_bound p lo) ~lo ~hi);
      incr i
    done
  end;
  if page_aligned hi then split t hi

let clear t ~lo ~hi =
  check_range "clear" lo hi;
  clear_unchecked t ~lo ~hi

let set t ~lo ~hi v =
  check_range "set" lo hi;
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 = k1 then begin
    let p = ensure_page t k0 in
    let i = lower_bound p lo in
    if i < p.n && p.segs.(i).lo = lo && p.segs.(i).hi = hi then begin
      (* Rewriting exactly one stored segment: reuse it. *)
      let s = p.segs.(i) in
      s.v <- v;
      s.jl <- false
    end
    else page_insert t p (clear_page t p i ~lo ~hi) { lo; hi; v; jl = false };
    if page_aligned hi then split t hi
  end
  else begin
    clear_unchecked t ~lo ~hi;
    (* One segment per page, continuations flagged. *)
    for k = k0 to k1 do
      let base = page_lo k in
      let plo = max lo base and phi = min hi (base + page_size) in
      let p = ensure_page t k in
      page_insert t p (lower_bound p plo) { lo = plo; hi = phi; v; jl = plo <> lo }
    done
  end

(* End of the contiguous segments of [p] from [x], or [x] when no
   segment holds [x]. *)
let covered_to p x =
  let i = ref (lower_bound p x) and x = ref x in
  while !i < p.n && p.segs.(!i).lo <= !x do
    x := p.segs.(!i).hi;
    incr i
  done;
  !x

let covers t ~lo ~hi =
  check_range "covers" lo hi;
  let x = ref lo and ok = ref true in
  while !ok && !x < hi do
    match find_page t (page_of_addr !x) with
    | exception Not_found -> ok := false
    | p ->
      let e = covered_to p !x in
      (* Past a gap, or stopped short of the page's end. *)
      if e = !x || (e < hi && not (page_aligned e)) then ok := false;
      x := e
  done;
  !ok

(* End of the logical interval through segment [s], followed across
   page-aligned joins but not past [hi]. *)
let run_end t s ~hi =
  let e = ref s.hi and joined = ref true in
  while !joined && !e < hi && page_aligned !e do
    joined := false;
    match find_page t (page_of_addr !e) with
    | p ->
      if p.n > 0 && p.segs.(0).jl && p.segs.(0).lo = !e then begin
        e := p.segs.(0).hi;
        joined := true
      end
    | exception Not_found -> ()
  done;
  !e

(* Each logical interval is reported once, from its first segment inside
   the query: a joined segment past [lo] was covered by its run. *)
let exists_in_page t p ~lo ~hi f arg =
  let i = ref (lower_bound p lo) and found = ref false in
  while (not !found) && !i < p.n && p.segs.(!i).lo < hi do
    let s = p.segs.(!i) in
    if not (s.jl && s.lo > lo) then found := f arg (max s.lo lo) (min (run_end t s ~hi) hi) s.v;
    incr i
  done;
  !found

let exists t ~lo ~hi f arg =
  check_range "exists" lo hi;
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 = k1 then
    match find_page t k0 with p -> exists_in_page t p ~lo ~hi f arg | exception Not_found -> false
  else begin
    let i = ref (first_live t k0) and found = ref false in
    while (not !found) && !i < t.nlive && t.live.(!i).key <= k1 do
      found := exists_in_page t t.live.(!i) ~lo ~hi f arg;
      incr i
    done;
    !found
  end

(* Map the segments of [p] inside [lo, hi), already split there, and
   return how far the segments run contiguously from [x]: it advances
   only over a segment starting exactly at it, so it stops at the first
   gap. *)
let map_page p ~lo ~hi f arg x =
  let i = ref (lower_bound p lo) and x = ref x in
  while !i < p.n && p.segs.(!i).lo < hi do
    let s = p.segs.(!i) in
    s.v <- f arg s.v;
    if s.lo = !x then x := s.hi;
    incr i
  done;
  !x

let map_range t ~lo ~hi f arg =
  check_range "map_range" lo hi;
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 = k1 then begin
    match find_page t k0 with
    | exception Not_found -> false
    | p ->
      split_page t p lo;
      if page_aligned hi then split t hi else split_page t p hi;
      map_page p ~lo ~hi f arg lo = hi
  end
  else begin
    split t lo;
    split t hi;
    let i = ref (first_live t k0) and x = ref lo in
    while !i < t.nlive && t.live.(!i).key <= k1 do
      x := map_page t.live.(!i) ~lo ~hi f arg !x;
      incr i
    done;
    !x = hi
  end

let fold f t acc =
  let acc = ref acc in
  ignore
    (exists t ~lo:min_int ~hi:max_int
       (fun f lo hi v ->
         acc := f lo hi v !acc;
         false)
       f);
  !acc

let to_list t = List.rev (fold (fun lo hi v acc -> (lo, hi, v) :: acc) t [])
