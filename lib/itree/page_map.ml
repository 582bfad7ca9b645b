(* Mutable page-indexed disjoint interval map from byte ranges to ints —
   the engine's shadow memory, with the observable semantics of
   {!Interval_map}.

   Storage is one array of page records sorted by page index (address
   asr [page_bits]), each holding its segments struct-of-arrays: sorted
   [lo]/[hi]/[v] int arrays and the [jl] flags, every segment confined
   to its page.  A logical interval that crosses a page boundary is
   stored as one segment per page; every continuation segment carries a
   [jl] ("joined left") flag meaning "I am the same logical interval as
   the segment ending at my [lo]".  Reads follow flagged runs forward,
   so the observable contents — [to_list], the pieces [exists] visits,
   [map_range] piece boundaries — are exactly what {!Interval_map} would
   hold after the same operation sequence, including its deliberate
   non-merging of adjacent equal values (pinned by the property tests in
   test_itree, which keep {!Interval_map} as the reference).  A flagged
   segment always starts its page, and the segment it joins is always
   present.

   Pages: [pages.(0 .. nlive-1)] are the pages given a segment since
   the last [reset], ascending by key; the records past [nlive] are
   spares from earlier epochs.  A page first touched takes a spare (or a
   new record) and is spliced into place, so a map reused across
   [reset]s holds as many page records as its busiest epoch needed,
   whatever addresses later epochs touch, and [reset] is O(1).  Lookups
   remember the last page found and otherwise binary-search the live
   prefix; a missing page reads as [none], a page with no segments, so
   read paths need no special case.

   Mutation is in-place: page arrays are spliced by typed loops (see
   [move_ints]).  Every array holds immediates only, so a steady-state operation
   allocates nothing and never crosses the write barrier: walks are
   loops over mutable locals, and callbacks take their environment as
   an argument instead of a closure. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_of_addr a = a asr page_bits
let page_lo k = k lsl page_bits
let page_aligned a = a land (page_size - 1) = 0

type page = {
  mutable key : int;
  mutable n : int;  (* segments in use *)
  mutable lo : int array;
  mutable hi : int array;
  mutable v : int array;
  mutable jl : bool array;
}

(* The missing page.  Its key is [min_int], which no lookup asks for
   ([page_of_addr] shifts it away), and it has no segments, so nothing
   ever writes to it: it is safely shared by every map and domain. *)
let none = { key = min_int; n = 0; lo = [||]; hi = [||]; v = [||]; jl = [||] }

type t = {
  mutable pages : page array;  (* [0, nlive) live, ascending keys; then spares *)
  mutable nlive : int;
  mutable npages : int;  (* records in [pages] *)
  mutable last : page;  (* the page found last, or [none] *)
}

let create () = { pages = [||]; nlive = 0; npages = 0; last = none }

let reset t =
  t.nlive <- 0;
  t.last <- none

let capacity t =
  let c = ref 0 in
  for i = 0 to t.npages - 1 do
    c := !c + Array.length t.pages.(i).lo
  done;
  !c

let check_range name lo hi =
  if lo >= hi then invalid_arg ("Page_map." ^ name ^ ": empty range")

(* First index of the live prefix whose page key is at least [k]. *)
let first_live t k =
  let lo = ref 0 and hi = ref t.nlive in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.pages.(mid).key >= k then hi := mid else lo := mid + 1
  done;
  !lo

(* Page [k], or [none] when it holds nothing this epoch. *)
let find t k =
  if k = t.last.key then t.last
  else begin
    let i = first_live t k in
    if i < t.nlive && t.pages.(i).key = k then begin
      let p = t.pages.(i) in
      t.last <- p;
      p
    end
    else none
  end

let ensure_page t k =
  let p = find t k in
  if p != none then p
  else begin
    if t.nlive = t.npages then begin
      if t.npages = Array.length t.pages then begin
        let a = Array.make (max 8 (2 * t.npages)) none in
        Array.blit t.pages 0 a 0 t.npages;
        t.pages <- a
      end;
      t.pages.(t.npages) <-
        { key = k; n = 0; lo = Array.make 4 0; hi = Array.make 4 0; v = Array.make 4 0;
          jl = Array.make 4 false };
      t.npages <- t.npages + 1
    end;
    (* The first spare moves into its sorted place; the blit shifts the
       live pages after it over the slot it leaves. *)
    let p = t.pages.(t.nlive) in
    p.key <- k;
    p.n <- 0;
    let i = first_live t k in
    Array.blit t.pages i t.pages (i + 1) (t.nlive - i);
    t.pages.(i) <- p;
    t.nlive <- t.nlive + 1;
    t.last <- p;
    p
  end

(* First index whose segment ends strictly after [x] — the first segment
   that could intersect anything at or right of [x]. *)
let lower_bound p x =
  let lo = ref 0 and hi = ref p.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.hi.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

(* [Array.blit] into an array in the major heap goes through the write
   barrier element by element, whatever the elements are.  These arrays
   hold immediates, so typed loops move them with plain stores.  Callers
   keep [src + len] and [dst + len] within the array. *)
let move_ints (a : int array) ~src ~dst len =
  if dst > src then
    for k = len - 1 downto 0 do
      Array.unsafe_set a (dst + k) (Array.unsafe_get a (src + k))
    done
  else
    for k = 0 to len - 1 do
      Array.unsafe_set a (dst + k) (Array.unsafe_get a (src + k))
    done

let move_flags (a : bool array) ~src ~dst len =
  if dst > src then
    for k = len - 1 downto 0 do
      Array.unsafe_set a (dst + k) (Array.unsafe_get a (src + k))
    done
  else
    for k = 0 to len - 1 do
      Array.unsafe_set a (dst + k) (Array.unsafe_get a (src + k))
    done

let move p ~src ~dst len =
  move_ints p.lo ~src ~dst len;
  move_ints p.hi ~src ~dst len;
  move_ints p.v ~src ~dst len;
  move_flags p.jl ~src ~dst len

let grow p =
  let cap = 2 * Array.length p.lo in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 p.n;
    b
  in
  p.lo <- extend p.lo 0;
  p.hi <- extend p.hi 0;
  p.v <- extend p.v 0;
  p.jl <- extend p.jl false

let page_insert p i ~lo ~hi ~v ~jl =
  if p.n = Array.length p.lo then grow p;
  move p ~src:i ~dst:(i + 1) (p.n - i);
  p.lo.(i) <- lo;
  p.hi.(i) <- hi;
  p.v.(i) <- v;
  p.jl.(i) <- jl;
  p.n <- p.n + 1

let page_remove p i j =
  if j > i then begin
    move p ~src:j ~dst:i (p.n - j);
    p.n <- p.n - (j - i)
  end

(* Clear [lo, hi) inside one page, preserving straddling fragments, and
   return the index where a segment starting at [lo] now belongs; [i] is
   [lower_bound p lo].  A right fragment starts a fresh logical interval,
   so its [jl] drops.  Bounds outside the page behave as the page's own
   edges. *)
let clear_page p i ~lo ~hi =
  let i = ref i in
  if !i < p.n && p.lo.(!i) < lo then begin
    if p.hi.(!i) > hi then
      (* One segment covers the whole cleared span: split it. *)
      page_insert p (!i + 1) ~lo:hi ~hi:p.hi.(!i) ~v:p.v.(!i) ~jl:false;
    p.hi.(!i) <- lo;
    incr i
  end;
  let j = ref !i in
  while !j < p.n && p.hi.(!j) <= hi do
    incr j
  done;
  page_remove p !i !j;
  if !i < p.n && p.lo.(!i) < hi then begin
    p.lo.(!i) <- hi;
    p.jl.(!i) <- false
  end;
  !i

(* Make [x] a segment boundary inside [p] that starts a fresh logical
   interval: split a segment straddling it, or sever the join of one
   starting there (only page-aligned starts carry [jl]). *)
let split_page p x =
  let i = lower_bound p x in
  if i < p.n then begin
    if p.lo.(i) < x then begin
      page_insert p (i + 1) ~lo:x ~hi:p.hi.(i) ~v:p.v.(i) ~jl:false;
      p.hi.(i) <- x
    end
    else if p.lo.(i) = x then p.jl.(i) <- false
  end

let split t x = split_page (find t (page_of_addr x)) x

(* After clearing up to [hi] nothing ends at [hi] any more, so a segment
   starting there must not continue a truncated interval.  Inside a page
   [clear_page] has already made it fresh; only the next page's first
   segment can still carry a join. *)
let clear_unchecked t ~lo ~hi =
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 = k1 then begin
    let p = find t k0 in
    ignore (clear_page p (lower_bound p lo) ~lo ~hi)
  end
  else begin
    let i = ref (first_live t k0) in
    while !i < t.nlive && t.pages.(!i).key <= k1 do
      let p = t.pages.(!i) in
      ignore (clear_page p (lower_bound p lo) ~lo ~hi);
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
    if i < p.n && p.lo.(i) = lo && p.hi.(i) = hi then begin
      (* Rewriting exactly one stored segment: overwrite it. *)
      p.v.(i) <- v;
      p.jl.(i) <- false
    end
    else page_insert p (clear_page p i ~lo ~hi) ~lo ~hi ~v ~jl:false;
    if page_aligned hi then split t hi
  end
  else begin
    clear_unchecked t ~lo ~hi;
    (* One segment per page, continuations flagged. *)
    for k = k0 to k1 do
      let base = page_lo k in
      let plo = max lo base and phi = min hi (base + page_size) in
      let p = ensure_page t k in
      page_insert p (lower_bound p plo) ~lo:plo ~hi:phi ~v ~jl:(plo <> lo)
    done
  end

(* End of the contiguous segments of [p] from [x], or [x] when no
   segment holds [x]. *)
let covered_to p x =
  let i = ref (lower_bound p x) and x = ref x in
  while !i < p.n && p.lo.(!i) <= !x do
    x := p.hi.(!i);
    incr i
  done;
  !x

let covers t ~lo ~hi =
  check_range "covers" lo hi;
  let x = ref lo and ok = ref true in
  while !ok && !x < hi do
    let e = covered_to (find t (page_of_addr !x)) !x in
    (* Past a gap, or stopped short of the page's end. *)
    if e = !x || (e < hi && not (page_aligned e)) then ok := false;
    x := e
  done;
  !ok

(* End of the logical interval through segment [i] of [p], followed
   across page-aligned joins but not past [hi]. *)
let run_end t p i ~hi =
  let e = ref p.hi.(i) and joined = ref true in
  while !joined && !e < hi && page_aligned !e do
    let q = find t (page_of_addr !e) in
    joined := q.n > 0 && q.jl.(0) && q.lo.(0) = !e;
    if !joined then e := q.hi.(0)
  done;
  !e

(* Each logical interval is reported once, from its first segment inside
   the query: a joined segment past [lo] was covered by its run. *)
let exists_in_page t p ~lo ~hi f arg =
  let i = ref (lower_bound p lo) and found = ref false in
  while (not !found) && !i < p.n && p.lo.(!i) < hi do
    let l = p.lo.(!i) in
    if not (p.jl.(!i) && l > lo) then
      found := f arg (max l lo) (min (run_end t p !i ~hi) hi) p.v.(!i);
    incr i
  done;
  !found

let exists t ~lo ~hi f arg =
  check_range "exists" lo hi;
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 = k1 then exists_in_page t (find t k0) ~lo ~hi f arg
  else begin
    let i = ref (first_live t k0) and found = ref false in
    while (not !found) && !i < t.nlive && t.pages.(!i).key <= k1 do
      found := exists_in_page t t.pages.(!i) ~lo ~hi f arg;
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
  while !i < p.n && p.lo.(!i) < hi do
    p.v.(!i) <- f arg p.v.(!i);
    if p.lo.(!i) = !x then x := p.hi.(!i);
    incr i
  done;
  !x

let map_range t ~lo ~hi f arg =
  check_range "map_range" lo hi;
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 = k1 then begin
    let p = find t k0 in
    split_page p lo;
    if page_aligned hi then split t hi else split_page p hi;
    map_page p ~lo ~hi f arg lo = hi
  end
  else begin
    split t lo;
    split t hi;
    let i = ref (first_live t k0) and x = ref lo in
    while !i < t.nlive && t.pages.(!i).key <= k1 do
      x := map_page t.pages.(!i) ~lo ~hi f arg !x;
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
