(* Mutable page-indexed disjoint interval map — the engine's shadow
   memory, with the observable semantics of {!Interval_map}.

   Storage is a hash table from page index (address asr [page_bits]) to a
   small sorted array of segments, each segment confined to its page.  A
   logical interval that crosses a page boundary is stored as one segment
   per page; every continuation segment carries a [jl] ("joined left")
   flag meaning "I am the same logical interval as the segment ending at
   my [lo]".  Reads follow flagged runs forward, so the observable
   contents — [to_list], the pieces [exists] visits, [map_range] piece
   boundaries — are exactly what {!Interval_map} would hold after the
   same operation sequence, including its deliberate non-merging of
   adjacent equal values (pinned by the property tests in test_itree,
   which keep {!Interval_map} as the reference).  A flagged segment
   always starts its page, and the segment it joins is always present.

   Mutation is in-place: page arrays are spliced with [Array.blit], no
   balanced-tree rebuilding.  The per-op paths allocate only the
   segments they store: walks are loops over mutable locals, callbacks
   take their environment as an argument instead of a closure, and a
   missing page is an exception, not an option. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_of_addr a = a asr page_bits
let page_lo k = k lsl page_bits

type 'a seg = { mutable lo : int; mutable hi : int; mutable v : 'a; mutable jl : bool }
type 'a page = { mutable segs : 'a seg array; mutable n : int }

(* [kmin, kmax] spans every page written since creation or the last
   [reset]; walks are clipped to it, so a whole-map walk is a query over
   [min_int, max_int). *)
type 'a t = { pages : (int, 'a page) Hashtbl.t; mutable kmin : int; mutable kmax : int }

(* Sections touch few pages; a small table keeps per-check setup cheap
   (one map is created for every checked section). *)
let create () = { pages = Hashtbl.create 16; kmin = max_int; kmax = min_int }

let reset t =
  Hashtbl.iter (fun _ p -> p.n <- 0) t.pages;
  t.kmin <- max_int;
  t.kmax <- min_int

let check_range name lo hi =
  if lo >= hi then invalid_arg ("Page_map." ^ name ^ ": empty range")

let ensure_page t k =
  match Hashtbl.find t.pages k with
  | p -> p
  | exception Not_found ->
    let p = { segs = [||]; n = 0 } in
    Hashtbl.replace t.pages k p;
    p

(* First index whose segment ends strictly after [x] — the first segment
   that could intersect anything at or right of [x]. *)
let lower_bound p x =
  let lo = ref 0 and hi = ref p.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.segs.(mid).hi > x then hi := mid else lo := mid + 1
  done;
  !lo

let page_insert p i seg =
  if p.n = Array.length p.segs then begin
    let cap = max 4 (2 * Array.length p.segs) in
    let segs = Array.make cap seg in
    Array.blit p.segs 0 segs 0 p.n;
    p.segs <- segs
  end;
  Array.blit p.segs i p.segs (i + 1) (p.n - i);
  p.segs.(i) <- seg;
  p.n <- p.n + 1

let page_remove p i j =
  if j > i then begin
    Array.blit p.segs j p.segs i (p.n - j);
    p.n <- p.n - (j - i)
  end

(* Visit the populated pages meeting [lo, hi) in ascending order with
   [visit t p ~lo ~hi x y], stopping at the first [true].  Small spans
   probe every page; a span much wider than the table (a whole-map walk
   over scattered pages) sorts the table's keys instead, allocating. *)
let exists_page t ~lo ~hi visit x y =
  let k0 = max (page_of_addr lo) t.kmin and k1 = min (page_of_addr (hi - 1)) t.kmax in
  if k0 > k1 then false
  else if k1 - k0 <= 2 * Hashtbl.length t.pages then begin
    let k = ref k0 and found = ref false in
    while (not !found) && !k <= k1 do
      (match Hashtbl.find t.pages !k with
      | p -> if p.n > 0 then found := visit t p ~lo ~hi x y
      | exception Not_found -> ());
      incr k
    done;
    !found
  end
  else
    let keys =
      Hashtbl.fold
        (fun k p acc -> if k >= k0 && k <= k1 && p.n > 0 then k :: acc else acc)
        t.pages []
    in
    List.exists (fun k -> visit t (Hashtbl.find t.pages k) ~lo ~hi x y) (List.sort compare keys)

(* Clear [lo, hi) inside one page, preserving straddling fragments.  A
   right fragment starts a fresh logical interval, so its [jl] drops.
   Bounds outside the page behave as the page's own edges. *)
let clear_page _t p ~lo ~hi () () =
  let i = ref (lower_bound p lo) in
  if !i < p.n && p.segs.(!i).lo < lo then begin
    let s = p.segs.(!i) in
    if s.hi > hi then begin
      (* One segment covers the whole cleared span: split it. *)
      page_insert p (!i + 1) { lo = hi; hi = s.hi; v = s.v; jl = false };
      s.hi <- lo;
      i := p.n (* nothing left to do *)
    end
    else begin
      s.hi <- lo;
      incr i
    end
  end;
  if !i < p.n then begin
    let j = ref !i in
    while !j < p.n && p.segs.(!j).hi <= hi && p.segs.(!j).lo < hi do
      incr j
    done;
    page_remove p !i !j;
    if !i < p.n && p.segs.(!i).lo < hi then begin
      let s = p.segs.(!i) in
      s.lo <- hi;
      s.jl <- false
    end
  end;
  false

(* Make [x] a segment boundary that starts a fresh logical interval:
   split a segment straddling it, or sever the join of one starting
   there (only page-aligned starts carry [jl]). *)
let split t x =
  match Hashtbl.find t.pages (page_of_addr x) with
  | exception Not_found -> ()
  | p ->
    let i = lower_bound p x in
    if i < p.n then begin
      let s = p.segs.(i) in
      if s.lo < x then begin
        page_insert p (i + 1) { lo = x; hi = s.hi; v = s.v; jl = false };
        s.hi <- x
      end
      else if s.lo = x then s.jl <- false
    end

let clear_unchecked t ~lo ~hi =
  ignore (exists_page t ~lo ~hi clear_page () ());
  (* The segment starting exactly at [hi] (if any) may have continued a
     logical interval we just truncated or removed; nothing ends at [hi]
     any more, so sever the join. *)
  split t hi

let clear t ~lo ~hi =
  check_range "clear" lo hi;
  clear_unchecked t ~lo ~hi

(* Insert the logical interval [lo, hi) -> v over a range known to be
   clear, one segment per page, continuations flagged. *)
let insert_logical t ~lo ~hi v =
  let k0 = page_of_addr lo and k1 = page_of_addr (hi - 1) in
  if k0 < t.kmin then t.kmin <- k0;
  if k1 > t.kmax then t.kmax <- k1;
  for k = k0 to k1 do
    let base = page_lo k in
    let plo = max lo base and phi = min hi (base + page_size) in
    let p = ensure_page t k in
    let i = lower_bound p plo in
    page_insert p i { lo = plo; hi = phi; v; jl = plo <> lo }
  done

let set t ~lo ~hi v =
  check_range "set" lo hi;
  clear_unchecked t ~lo ~hi;
  insert_logical t ~lo ~hi v

let covers t ~lo ~hi =
  check_range "covers" lo hi;
  let x = ref lo and ok = ref true in
  while !ok && !x < hi do
    match Hashtbl.find t.pages (page_of_addr !x) with
    | exception Not_found -> ok := false
    | p ->
      let i = lower_bound p !x in
      if i < p.n && p.segs.(i).lo <= !x then x := p.segs.(i).hi else ok := false
  done;
  !ok

(* End of the logical interval through segment [s], followed across
   page-aligned joins but not past [hi]. *)
let run_end t s ~hi =
  let e = ref s.hi and joined = ref true in
  while !joined && !e < hi && !e land (page_size - 1) = 0 do
    joined := false;
    match Hashtbl.find t.pages (page_of_addr !e) with
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
  exists_page t ~lo ~hi exists_in_page f arg

let map_page _t p ~lo ~hi f arg =
  let i = ref (lower_bound p lo) in
  while !i < p.n && p.segs.(!i).lo < hi do
    let s = p.segs.(!i) in
    s.v <- f arg s.v;
    incr i
  done;
  false

let map_range t ~lo ~hi f arg =
  check_range "map_range" lo hi;
  split t lo;
  split t hi;
  ignore (exists_page t ~lo ~hi map_page f arg)

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
