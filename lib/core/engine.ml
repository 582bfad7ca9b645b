open Pmtest_util
open Pmtest_itree
open Pmtest_model
open Pmtest_trace

type range_status = { lo : int; hi : int; persist : Interval.t; flush : Interval.t option }
type snapshot = { timestamp : int; ranges : range_status list }

(* A diagnostic is recorded as kind/loc plus a rendering thunk; the
   message string is only materialised when the report is built, so the
   hot path never runs Format.  Thunks must capture values eagerly —
   [st.now] and the shadow mutate as checking proceeds. *)
type pending_diag = { kind : Report.kind; loc : Loc.t; render : unit -> string }

(* One pass over one shadow memory: the page-indexed mutable
   {!Page_map}, and one dispatcher, [on_view], whatever form the section
   arrives in.  A packed arena is decoded into the state's view by the
   cursor; a boxed event is mapped into the same view by
   [Packed.set_view], the encoder's own map, so no second match over
   [Event.kind] exists to drift from the first.

   Local status of a modified byte range (paper §4.4): a {e slot}, an
   index into three int arrays — the epoch of its last write, the epoch
   of the first clwb since that write (-1 if none yet) and the write's
   location id.  The persist and flush intervals are not stored
   closed/open — they are derived lazily from these epochs and the
   current timestamp, so fences cost O(1) instead of a shadow-memory
   sweep.  A slot is never changed once pieces of the shadow share it: a
   clwb copies it into a fresh slot.

   A location id is an int that stands for a [Loc.t] during one pass:
   the arena's own id for a packed entry, the index of a boxed entry in
   its section, and [-1 - i] for entry [i] of the prelude.  [loc_of]
   turns it back into a location, only to render a diagnostic.

   So every array the state keeps holds immediates only, and a state can
   be kept from one section to the next (see [acquire]) without its
   old arrays pointing into the minor heap: the clean path of an entry
   allocates nothing once the state has grown to the section's working
   set.  The TX log and the checker-scope write set are {!Page_map}s too
   (values: 0 and the write's location id), reset in place at each
   transaction or scope start.  Exclusion holes are a flat sorted array
   of bounds, edited in place — they change a few times per section,
   and a pool's 256 KiB header hole would be 65 page segments.
   Callbacks are closed functions handed [st], and a failing check
   re-walks its range with lists only to render the diagnostic. *)
type state = {
  mutable model : Model.kind;
  mutable now : int;
  mutable write_epoch : int array;  (* slot -> epoch of the write *)
  mutable flush_epoch : int array;  (* slot -> epoch of its first clwb, or -1 *)
  mutable write_loc : int array;  (* slot -> location id of the write *)
  mutable slots : int;  (* slots in use *)
  shadow : Page_map.t;  (* byte -> status slot *)
  mutable holes : int array;  (* exclusion holes: lo0, hi0, lo1, hi1, ... ascending *)
  mutable nholes : int;
  mutable dfence_times : int array;  (* HOPS dfence / CXL gpf drain timestamps, ascending *)
  mutable ndfences : int;
  logged : Page_map.t;  (* TX_ADDed ranges of the open transaction *)
  mutable tx_depth : int;
  mutable scope_active : bool;
  scope_writes : Page_map.t;  (* byte -> location id of the write *)
  mutable scope_walks : int;  (* TX_CHECKER_ENDs that took the per-segment walk *)
  mutable unmodified : bool;  (* the clwb in hand met a byte never written *)
  mutable reflushed : bool;  (* ... or a write already written back *)
  mutable diags : pending_diag list;  (* newest first *)
  mutable ndiags : int;
  mutable entries : int;
  mutable ops : int;
  mutable checkers : int;
  (* What location ids index in this pass. *)
  mutable prelude : Event.t array;
  mutable events : Event.t array;
  mutable packed : bool;
  mutable arena : Packed.t;
  view : Packed.view;
}

let no_arena = Packed.create ~capacity:16 ()

let create_state () =
  {
    model = Model.X86;
    now = 0;
    write_epoch = [||];
    flush_epoch = [||];
    write_loc = [||];
    slots = 0;
    shadow = Page_map.create ();
    holes = [||];
    nholes = 0;
    dfence_times = [||];
    ndfences = 0;
    logged = Page_map.create ();
    tx_depth = 0;
    scope_active = false;
    scope_writes = Page_map.create ();
    scope_walks = 0;
    unmodified = false;
    reflushed = false;
    diags = [];
    ndiags = 0;
    entries = 0;
    ops = 0;
    checkers = 0;
    prelude = [||];
    events = [||];
    packed = false;
    arena = no_arena;
    view = Packed.make_view ();
  }

let reset st =
  st.now <- 0;
  st.slots <- 0;
  Page_map.reset st.shadow;
  st.nholes <- 0;
  st.ndfences <- 0;
  Page_map.reset st.logged;
  st.tx_depth <- 0;
  st.scope_active <- false;
  Page_map.reset st.scope_writes;
  st.scope_walks <- 0;
  st.unmodified <- false;
  st.reflushed <- false;
  st.diags <- [];
  st.ndiags <- 0;
  st.entries <- 0;
  st.ops <- 0;
  st.checkers <- 0;
  st.prelude <- [||];
  st.events <- [||];
  st.packed <- false;
  st.arena <- no_arena

(* One state per domain is kept between passes, in a slot taken with
   [Atomic.exchange]: a systhread that finds the slot empty — another
   systhread of the domain is mid-pass — builds a fresh state, and a pass
   that raises never puts its state back.  A state that has grown past
   [retain_limit] status slots, or past [retain_limit] segment slots
   across its maps' pages (so at most [retain_limit / 4] pages), is
   dropped after its pass: one huge section must not pin its shadow for
   the domain's lifetime.  Exclusion holes and drain stamps are bounded
   the same way.  The limit is far above a steady-state section (the
   benchmark's C-Tree and Redis sections use tens to hundreds) and bounds
   a kept state to a few hundred KiB. *)
let retain_limit = 4096

(* What an empty slot holds; never checked with. *)
let vacant = create_state ()
let slot = Domain.DLS.new_key (fun () -> Atomic.make vacant)

let acquire model =
  let st = Atomic.exchange (Domain.DLS.get slot) vacant in
  let st = if st == vacant then create_state () else st in
  st.model <- model;
  st

let release st =
  if
    Page_map.capacity st.shadow + Page_map.capacity st.logged
    + Page_map.capacity st.scope_writes
    <= retain_limit
    && Array.length st.write_epoch <= retain_limit
    && Array.length st.holes <= 2 * retain_limit
    && Array.length st.dfence_times <= retain_limit
  then begin
    reset st;
    Atomic.set (Domain.DLS.get slot) st
  end

let loc_of st lid =
  if lid < 0 then st.prelude.(-1 - lid).Event.loc
  else if st.packed then Packed.loc st.arena lid
  else st.events.(lid).Event.loc

let grown a n fill =
  let b = Array.make (max 64 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

let new_status st ~epoch ~flush lid =
  let s = st.slots in
  if s = Array.length st.write_epoch then begin
    st.write_epoch <- grown st.write_epoch s 0;
    st.flush_epoch <- grown st.flush_epoch s 0;
    st.write_loc <- grown st.write_loc s 0
  end;
  st.write_epoch.(s) <- epoch;
  st.flush_epoch.(s) <- flush;
  st.write_loc.(s) <- lid;
  st.slots <- s + 1;
  s

(* Slots come only from [new_status], so they are in bounds. *)
let[@inline] epoch_of st s = Array.unsafe_get st.write_epoch s
let[@inline] flushed_at st s = Array.unsafe_get st.flush_epoch s
let[@inline] lid_of st s = Array.unsafe_get st.write_loc s

let push_dfence st =
  if st.ndfences = Array.length st.dfence_times then
    st.dfence_times <- grown st.dfence_times st.ndfences 0;
  st.dfence_times.(st.ndfences) <- st.now;
  st.ndfences <- st.ndfences + 1

(* Smallest recorded dfence timestamp strictly greater than [epoch]. *)
let first_dfence_after st epoch =
  let lo = ref 0 and hi = ref st.ndfences in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if st.dfence_times.(mid) > epoch then hi := mid else lo := mid + 1
  done;
  if !lo < st.ndfences then Some st.dfence_times.(!lo) else None

let diag st kind lid render =
  st.diags <- { kind; loc = loc_of st lid; render } :: st.diags;
  st.ndiags <- st.ndiags + 1

(* --- Exclusion holes: [Interval_map.set]/[clear] on a flat array ------- *)

(* First hole ending after [x]. *)
let first_hole st x =
  let i = ref 0 and j = ref st.nholes in
  while !i < !j do
    let mid = (!i + !j) / 2 in
    if st.holes.((2 * mid) + 1) > x then j := mid else i := mid + 1
  done;
  !i

let hole_insert st i lo hi =
  let n = 2 * st.nholes in
  if n = Array.length st.holes then st.holes <- grown st.holes n 0;
  Array.blit st.holes (2 * i) st.holes ((2 * i) + 2) (n - (2 * i));
  st.holes.(2 * i) <- lo;
  st.holes.((2 * i) + 1) <- hi;
  st.nholes <- st.nholes + 1

(* Re-include [lo, hi), keeping straddling fragments, and return the
   index where a hole starting at [lo] now belongs. *)
let include_range st ~lo ~hi =
  if lo >= hi then invalid_arg "Engine: empty exclusion range";
  let i = ref (first_hole st lo) in
  if !i < st.nholes && st.holes.(2 * !i) < lo then begin
    let h = st.holes.((2 * !i) + 1) in
    if h > hi then hole_insert st (!i + 1) hi h;
    st.holes.((2 * !i) + 1) <- lo;
    incr i
  end;
  let j = ref !i in
  while !j < st.nholes && st.holes.((2 * !j) + 1) <= hi do
    incr j
  done;
  Array.blit st.holes (2 * !j) st.holes (2 * !i) (2 * (st.nholes - !j));
  st.nholes <- st.nholes - (!j - !i);
  if !i < st.nholes && st.holes.(2 * !i) < hi then st.holes.(2 * !i) <- hi;
  !i

let exclude_range st ~lo ~hi = hole_insert st (include_range st ~lo ~hi) lo hi

(* [f st lid lo hi] over the sub-ranges of [addr, addr+size) outside
   every exclusion hole, ascending, until one returns [true].  A binary
   search finds the first hole ending after [addr]; when it starts at or
   past the end — no hole meets the range — [f] sees the range whole. *)
let exists_effective st lid ~addr ~size f =
  let hi = addr + size and h = st.holes and n = st.nholes in
  let i = ref (first_hole st addr) in
  if !i = n || h.(2 * !i) >= hi then f st lid addr hi
  else begin
    let cursor = ref addr and found = ref false in
    while (not !found) && !cursor < hi do
      if !i < n && h.(2 * !i) < hi then begin
        if h.(2 * !i) > !cursor then found := f st lid !cursor h.(2 * !i);
        cursor := max !cursor h.((2 * !i) + 1);
        incr i
      end
      else begin
        found := f st lid !cursor hi;
        cursor := hi
      end
    done;
    !found
  end

(* The non-excluded sub-ranges of [addr, addr+size), and the shadow
   pieces in them: lists, for rendering diagnostics only. *)
let subranges st ~addr ~size =
  let acc = ref [] in
  ignore
    (exists_effective st 0 ~addr ~size (fun _ _ lo hi ->
         acc := (lo, hi) :: !acc;
         false));
  List.rev !acc

let pieces st ~lo ~hi =
  let acc = ref [] in
  ignore
    (Page_map.exists st.shadow ~lo ~hi
       (fun acc lo hi s ->
         acc := (lo, hi, s) :: !acc;
         false)
       acc);
  List.rev !acc

let statuses_in st ~addr ~size =
  List.concat_map (fun (lo, hi) -> pieces st ~lo ~hi) (subranges st ~addr ~size)

let x86_flushed st s = flushed_at st s >= 0 && st.now > flushed_at st s

let persist_interval st s =
  let we = epoch_of st s in
  match st.model with
  | Model.X86 ->
    if x86_flushed st s then Interval.make ~lo:we ~hi:(flushed_at st s + 1)
    else Interval.make_open we
  | Model.Hops | Model.Cxl -> begin
    (* CXL reuses the drain-time machinery: a store is durable once
       the first global persist barrier after its epoch completes. *)
    match first_dfence_after st we with
    | Some d -> Interval.make ~lo:we ~hi:d
    | None -> Interval.make_open we
  end
  | Model.Eadr ->
    (* The cache is persistent: a store is durable the instant it executes
       and stores persist in program order, so every write gets its own
       unit-width, already-closed interval (epochs advance per write). *)
    Interval.make ~lo:(we - 1) ~hi:we

(* [Interval.ends_by (persist_interval st s) st.now] without building
   the interval — the clean path of every persistence check.  Closed
   bounds are always timestamps already reached ([fe + 1 <= now] when
   [now > fe]; dfence stamps and eADR epochs never exceed [now]), so
   only the open/closed distinction matters. *)
let persisted_by_now st s =
  match st.model with
  | Model.X86 -> x86_flushed st s
  | Model.Hops | Model.Cxl ->
    (* [dfence_times] is ascending: a drain point after the write
       epoch exists iff the newest one is after it. *)
    st.ndfences > 0 && st.dfence_times.(st.ndfences - 1) > epoch_of st s
  | Model.Eadr -> true

let flush_interval st s =
  let fe = flushed_at st s in
  if fe < 0 then None
  else Some (if st.now > fe then Interval.make ~lo:fe ~hi:(fe + 1) else Interval.make_open fe)

let unpersisted st _ _ s = not (persisted_by_now st s)
let unpersisted_in st _ lo hi = Page_map.exists st.shadow ~lo ~hi unpersisted st

(* A write inside a checker scope: flag it if a transaction is open and
   no TX_ADD covers it, and remember it for TX_CHECKER_END. *)
let scope_write st lid lo hi =
  if st.tx_depth > 0 && not (Page_map.covers st.logged ~lo ~hi) then
    diag st Report.Missing_log lid (fun () ->
        Format.asprintf
          "persistent object [0x%x,+%d) modified inside a transaction without a backup log \
           entry"
          lo (hi - lo));
  Page_map.set st.scope_writes ~lo ~hi lid;
  false

let on_write st lid ~addr ~size =
  (* Under eADR each store is its own ordering point. *)
  if st.model = Model.Eadr then st.now <- st.now + 1;
  if st.scope_active then ignore (exists_effective st lid ~addr ~size scope_write);
  (* The store hits memory whether or not checking is excluded, so the
     shadow must cover the whole range: exclusion suppresses diagnostics
     (checkers and writeback rules filter through [exists_effective]),
     not history. Refreshing only the effective subranges would let a
     stale pre-exclusion status describe bytes a hole write has since
     overwritten — visible as wrong persist claims once re-included. *)
  Page_map.set st.shadow ~lo:addr ~hi:(addr + size) (new_status st ~epoch:st.now ~flush:(-1) lid)

let clwb_status st s =
  if flushed_at st s < 0 then
    new_status st ~epoch:(epoch_of st s) ~flush:st.now (lid_of st s)
  else begin
    (* A writeback is already pending or complete for this write: the
       second clwb is redundant. *)
    st.reflushed <- true;
    s
  end

let clwb_range st _ lo hi =
  (* Writing back a location that was never modified. *)
  if not (Page_map.map_range st.shadow ~lo ~hi clwb_status st) then st.unmodified <- true;
  false

let on_clwb st lid ~addr ~size =
  st.unmodified <- false;
  st.reflushed <- false;
  ignore (exists_effective st lid ~addr ~size clwb_range);
  if st.unmodified then
    diag st Report.Unnecessary_writeback lid (fun () ->
        Format.asprintf "writeback of unmodified data at [0x%x,+%d)" addr size);
  if st.reflushed then
    diag st Report.Duplicate_writeback lid (fun () ->
        Format.asprintf "persistent object [0x%x,+%d) written back more than once" addr size)

let on_is_persist st lid ~addr ~size =
  if exists_effective st lid ~addr ~size unpersisted_in then begin
    let lo, hi, s =
      List.find (fun (_, _, s) -> not (persisted_by_now st s)) (statuses_in st ~addr ~size)
    in
    let iv = persist_interval st s and now = st.now and wloc = loc_of st (lid_of st s) in
    diag st Report.Not_persisted lid (fun () ->
        Format.asprintf
          "isPersist(0x%x,%d): write at %s to [0x%x,+%d) has persist interval %a at \
           timestamp %d"
          addr size (Loc.to_string wloc) lo (hi - lo) Interval.pp iv now)
  end

let on_is_ordered_before st lid ~a_addr ~a_size ~b_addr ~b_size =
  let a_statuses = statuses_in st ~addr:a_addr ~size:a_size in
  let b_statuses = statuses_in st ~addr:b_addr ~size:b_size in
  let violation =
    List.find_map
      (fun (alo, ahi, sa) ->
        let ia = persist_interval st sa in
        List.find_map
          (fun (blo, bhi, sb) ->
            let ib = persist_interval st sb in
            let ordered =
              match st.model with
              | Model.X86 | Model.Eadr | Model.Cxl -> Interval.ordered_before ia ib
              | Model.Hops -> Interval.starts_before ia ib
            in
            if ordered then None else Some ((alo, ahi, sa, ia), (blo, bhi, sb, ib)))
          b_statuses)
      a_statuses
  in
  match violation with
  | None -> ()
  | Some ((alo, _, sa, ia), (blo, _, sb, ib)) ->
    let aloc = loc_of st (lid_of st sa) and bloc = loc_of st (lid_of st sb) in
    diag st Report.Not_ordered lid (fun () ->
        Format.asprintf
          "isOrderedBefore: write at %s to 0x%x %a may not persist before write at %s to \
           0x%x %a"
          (Loc.to_string aloc) alo Interval.pp ia (Loc.to_string bloc) blo Interval.pp ib)

let on_tx_add st lid ~addr ~size =
  let lo = addr and hi = addr + size in
  if Page_map.covers st.logged ~lo ~hi then
    diag st Report.Duplicate_log lid (fun () ->
        Format.asprintf "persistent object [0x%x,+%d) logged more than once" addr size);
  Page_map.set st.logged ~lo ~hi 0

let scope_unpersisted st lo hi _ = exists_effective st 0 ~addr:lo ~size:(hi - lo) unpersisted_in

(* The per-segment walk: each scope write, cut by the current holes,
   looked up in the shadow, and an [Incomplete_tx] for every unpersisted
   piece.  The only code that renders one. *)
let scope_walk st lid =
  if Page_map.exists st.scope_writes ~lo:min_int ~hi:max_int scope_unpersisted st then
    List.iter
      (fun (lo, hi, wlid) ->
        let wloc = loc_of st wlid in
        List.iter
          (fun (slo, shi) ->
            List.iter
              (fun (_, _, s) ->
                if not (persisted_by_now st s) then begin
                  let iv = persist_interval st s and now = st.now in
                  diag st Report.Incomplete_tx lid (fun () ->
                      Format.asprintf
                        "transaction update at %s to [0x%x,+%d) not persisted when the \
                         transaction checker scope ends (persist interval %a, timestamp %d)"
                        (Loc.to_string wloc) slo (shi - slo) Interval.pp iv now)
                end)
              (pieces st ~lo:slo ~hi:shi))
          (subranges st ~addr:lo ~size:(hi - lo)))
      (Page_map.to_list st.scope_writes)

(* TX_CHECKER_END asks whether some byte a scope write touched, outside
   the exclusion holes, is not yet persisted.  One merged walk over the
   scope writes and the shadow asks the same without the holes: a byte
   the walk clears is clear whatever the holes are, so when it finds
   nothing — every clean scope — that answer is exact.  Only when it
   finds an unpersisted byte does the per-segment walk answer again,
   with the holes of now. *)
let on_tx_checker_end st lid =
  if st.tx_depth > 0 then
    diag st Report.Incomplete_tx lid (fun () -> "transaction still open at TX_CHECKER_END");
  if Page_map.exists_under st.scope_writes st.shadow unpersisted st then begin
    st.scope_walks <- st.scope_walks + 1;
    scope_walk st lid
  end;
  st.scope_active <- false;
  Page_map.reset st.scope_writes

let invalid_op st lid op =
  diag st Report.Invalid_op lid (fun () ->
      Format.asprintf "operation %a is not part of the %s persistency model" Model.pp_op op
        (Model.kind_name st.model))

let eadr_clwb st lid ~addr ~size =
  (* The persistence domain includes the caches: any writeback is
     pure overhead on this platform. *)
  diag st Report.Unnecessary_writeback lid (fun () ->
      Format.asprintf "writeback of [0x%x,+%d) is redundant under eADR (caches are \
                       persistent)" addr size)

let drain st =
  st.now <- st.now + 1;
  push_dfence st

let on_exclude st ~addr ~size = exclude_range st ~lo:addr ~hi:(addr + size)
let on_include st ~addr ~size = ignore (include_range st ~lo:addr ~hi:(addr + size))

(* The one dispatcher: every entry reaches the transitions above as a
   {!Packed.view}, decoded by [Packed.read] from an arena or filled by
   [Packed.set_view] from a boxed event.  [lid] is the entry's location
   id (see [state]).  Op validity mirrors [Model.valid_op] without
   building an op value; the boxed value is only constructed on the
   (diagnosed, rare) invalid path. *)
let on_view st (v : Packed.view) =
  st.entries <- st.entries + 1;
  let lid = v.Packed.lid in
  match v.Packed.tag with
  | Packed.T_write ->
    st.ops <- st.ops + 1;
    (* Write is valid under every model. *)
    on_write st lid ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_clwb ->
    st.ops <- st.ops + 1;
    if st.model = Model.Hops || st.model = Model.Cxl then
      invalid_op st lid (Model.Clwb { addr = v.Packed.a; size = v.Packed.b })
    else if st.model = Model.Eadr then eadr_clwb st lid ~addr:v.Packed.a ~size:v.Packed.b
    else on_clwb st lid ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_sfence ->
    st.ops <- st.ops + 1;
    if st.model = Model.Hops || st.model = Model.Cxl then invalid_op st lid Model.Sfence
    else if st.model <> Model.Eadr then st.now <- st.now + 1
  | Packed.T_ofence ->
    st.ops <- st.ops + 1;
    if st.model <> Model.Hops then invalid_op st lid Model.Ofence else st.now <- st.now + 1
  | Packed.T_dfence ->
    st.ops <- st.ops + 1;
    if st.model <> Model.Hops then invalid_op st lid Model.Dfence else drain st
  | Packed.T_gpf ->
    st.ops <- st.ops + 1;
    if st.model <> Model.Cxl then invalid_op st lid Model.Gpf else drain st
  | Packed.T_is_persist ->
    st.checkers <- st.checkers + 1;
    on_is_persist st lid ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_is_ordered ->
    st.checkers <- st.checkers + 1;
    on_is_ordered_before st lid ~a_addr:v.Packed.a ~a_size:v.Packed.b ~b_addr:v.Packed.c
      ~b_size:v.Packed.d
  | Packed.T_tx_begin ->
    if st.tx_depth = 0 then Page_map.reset st.logged;
    st.tx_depth <- st.tx_depth + 1
  | Packed.T_tx_add -> on_tx_add st lid ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_tx_commit | Packed.T_tx_abort ->
    st.tx_depth <- max 0 (st.tx_depth - 1);
    if st.tx_depth = 0 then Page_map.reset st.logged
  | Packed.T_tx_checker_start ->
    st.scope_active <- true;
    Page_map.reset st.scope_writes
  | Packed.T_tx_checker_end -> on_tx_checker_end st lid
  | Packed.T_exclude -> on_exclude st ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_include -> on_include st ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_lint_off | Packed.T_lint_on -> ()

let report_of st =
  {
    Report.diagnostics =
      List.rev_map (fun p -> { Report.kind = p.kind; loc = p.loc; message = p.render () }) st.diags;
    entries = st.entries;
    ops = st.ops;
    checkers = st.checkers;
  }

(* Totals across every engine pass. *)
let entries_checked = Pmtest_obs.Obs.counter "entries_checked"
let ops_checked = Pmtest_obs.Obs.counter "ops_checked"
let checkers_run = Pmtest_obs.Obs.counter "checkers_run"
let diagnostics = Pmtest_obs.Obs.counter "diagnostics"
let scope_walks = Pmtest_obs.Obs.counter "scope_end_walks"

let note_obs obs st =
  let module Obs = Pmtest_obs.Obs in
  if Obs.enabled obs then begin
    Obs.add obs entries_checked st.entries;
    Obs.add obs ops_checked st.ops;
    Obs.add obs checkers_run st.checkers;
    Obs.add obs diagnostics st.ndiags;
    Obs.add obs scope_walks st.scope_walks
  end

let ranges_of st =
  List.rev
    (Page_map.fold
       (fun lo hi s acc ->
         { lo; hi; persist = persist_interval st s; flush = flush_interval st s } :: acc)
       st.shadow [])

let on_event st lid (e : Event.t) =
  Packed.set_view st.view ~lid e.Event.kind;
  on_view st st.view

(* A pass over [prelude] then [entries]: the state comes from this
   domain's slot and goes back to it only if the pass returns. *)
let run_events model prelude entries =
  let st = acquire model in
  st.prelude <- prelude;
  for i = 0 to Array.length prelude - 1 do
    on_event st (-1 - i) prelude.(i)
  done;
  st.events <- entries;
  for i = 0 to Array.length entries - 1 do
    on_event st i entries.(i)
  done;
  st

let finish obs st =
  note_obs obs st;
  let r = report_of st in
  release st;
  r

let check ?(obs = Pmtest_obs.Obs.disabled) ?(model = Model.X86) ?(prelude = [||]) entries =
  finish obs (run_events model prelude entries)

let check_packed ?(obs = Pmtest_obs.Obs.disabled) ?(model = Model.X86) ?(prelude = [||]) packed
    =
  (* The session's exclusion preamble arrives boxed (it is rebuilt from
     the live scope, never traced); replaying it through [set_view] and
     the same [on_view] keeps the report identical to {!check} on the
     section array with the same events prepended. *)
  let st = run_events model prelude [||] in
  st.packed <- true;
  st.arena <- packed;
  let v = st.view in
  let n = Packed.byte_length packed in
  let pos = ref 0 in
  while !pos < n do
    pos := Packed.read packed ~pos:!pos v;
    on_view st v
  done;
  finish obs st

let check_with_snapshot ?(model = Model.X86) entries =
  let st = run_events model [||] entries in
  let r = (report_of st, { timestamp = st.now; ranges = ranges_of st }) in
  release st;
  r
