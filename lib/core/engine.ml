open Pmtest_util
open Pmtest_itree
open Pmtest_model
open Pmtest_trace

(* Local status of a modified byte range (paper §4.4). The persist and
   flush intervals are not stored closed/open — they are derived lazily
   from these epochs and the current timestamp, so fences cost O(1)
   instead of a shadow-memory sweep. *)
type status = {
  write_epoch : int;
  write_loc : Loc.t;
  flush_epoch : int;  (* first clwb since the last write; -1 if none yet *)
}

type range_status = { lo : int; hi : int; persist : Interval.t; flush : Interval.t option }
type snapshot = { timestamp : int; ranges : range_status list }

(* Smallest recorded dfence timestamp strictly greater than [epoch]. *)
let first_dfence_after times epoch =
  let n = Vec.length times in
  let rec search lo hi =
    if lo >= hi then if lo < n then Some (Vec.get times lo) else None
    else
      let mid = (lo + hi) / 2 in
      if Vec.get times mid > epoch then search lo mid else search (mid + 1) hi
  in
  search 0 n

(* A diagnostic is recorded as kind/loc plus a rendering thunk; the
   message string is only materialised when the report is built, so the
   hot path never runs Format.  Thunks must capture values eagerly —
   [st.now] and the shadow mutate as checking proceeds. *)
type pending_diag = { kind : Report.kind; loc : Loc.t; render : unit -> string }

(* One pass over one shadow memory: the page-indexed mutable
   {!Page_map}, whatever form the section arrives in.  Boxed events go
   through [on_entry], packed arenas through the [on_view] cursor; both
   drive the same transitions below.

   The clean path of every entry allocates only the shadow segments and
   statuses it stores.  The TX log and the checker-scope write set are
   {!Page_map}s too, reset in place at each transaction or scope start.
   Exclusion holes stay a persistent {!Interval_map} — they change a few
   times per section, and a pool's 256 KiB header hole would be 65 page
   segments — mirrored in the flat array [holes] for allocation-free
   walks.
   Callbacks are closed functions handed [st], and a failing check
   re-walks its range with lists only to render the diagnostic. *)
type state = {
  model : Model.kind;
  mutable now : int;
  shadow : status Page_map.t;
  mutable excluded : unit Interval_map.t;
  mutable holes : int array;  (* [excluded] flattened: lo0, hi0, lo1, hi1, ... ascending *)
  dfence_times : int Vec.t;  (* HOPS dfence / CXL gpf drain timestamps *)
  logged : unit Page_map.t;  (* TX_ADDed ranges of the open transaction *)
  mutable tx_depth : int;
  mutable scope_active : bool;
  scope_writes : Loc.t Page_map.t;
  mutable unmodified : bool;  (* the clwb in hand met a byte never written *)
  mutable reflushed : bool;  (* ... or a write already written back *)
  diags : pending_diag Vec.t;
  mutable entries : int;
  mutable ops : int;
  mutable checkers : int;
}

let create_state model =
  {
    model;
    now = 0;
    shadow = Page_map.create ();
    excluded = Interval_map.empty;
    holes = [||];
    dfence_times = Vec.create ();
    logged = Page_map.create ();
    tx_depth = 0;
    scope_active = false;
    scope_writes = Page_map.create ();
    unmodified = false;
    reflushed = false;
    diags = Vec.create ();
    entries = 0;
    ops = 0;
    checkers = 0;
  }

let diag st kind loc render = Vec.push st.diags { kind; loc; render }

let set_excluded st excluded =
  st.excluded <- excluded;
  st.holes <-
    Array.of_list (List.rev (Interval_map.fold (fun lo hi () acc -> hi :: lo :: acc) excluded []))

(* [f st loc lo hi] over the sub-ranges of [addr, addr+size) outside
   every exclusion hole, ascending, until one returns [true].  A binary
   search finds the first hole ending after [addr]; when it starts at or
   past the end — no hole meets the range — [f] sees the range whole. *)
let exists_effective st loc ~addr ~size f =
  let hi = addr + size and h = st.holes in
  let n = Array.length h / 2 in
  let i = ref 0 and j = ref n in
  while !i < !j do
    let mid = (!i + !j) / 2 in
    if h.((2 * mid) + 1) > addr then j := mid else i := mid + 1
  done;
  if !i = n || h.(2 * !i) >= hi then f st loc addr hi
  else begin
    let cursor = ref addr and found = ref false in
    while (not !found) && !cursor < hi do
      if !i < n && h.(2 * !i) < hi then begin
        if h.(2 * !i) > !cursor then found := f st loc !cursor h.(2 * !i);
        cursor := max !cursor h.((2 * !i) + 1);
        incr i
      end
      else begin
        found := f st loc !cursor hi;
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
    (exists_effective st Loc.none ~addr ~size (fun _ _ lo hi ->
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

let x86_flushed st s = s.flush_epoch >= 0 && st.now > s.flush_epoch

let persist_interval st (s : status) =
  match st.model with
  | Model.X86 ->
    if x86_flushed st s then Interval.make ~lo:s.write_epoch ~hi:(s.flush_epoch + 1)
    else Interval.make_open s.write_epoch
  | Model.Hops | Model.Cxl -> begin
    (* CXL reuses the drain-time machinery: a store is durable once
       the first global persist barrier after its epoch completes. *)
    match first_dfence_after st.dfence_times s.write_epoch with
    | Some d -> Interval.make ~lo:s.write_epoch ~hi:d
    | None -> Interval.make_open s.write_epoch
  end
  | Model.Eadr ->
    (* The cache is persistent: a store is durable the instant it executes
       and stores persist in program order, so every write gets its own
       unit-width, already-closed interval (epochs advance per write). *)
    Interval.make ~lo:(s.write_epoch - 1) ~hi:s.write_epoch

(* [Interval.ends_by (persist_interval st s) st.now] without building
   the interval — the clean path of every persistence check.  Closed
   bounds are always timestamps already reached ([fe + 1 <= now] when
   [now > fe]; dfence stamps and eADR epochs never exceed [now]), so
   only the open/closed distinction matters. *)
let persisted_by_now st (s : status) =
  match st.model with
  | Model.X86 -> x86_flushed st s
  | Model.Hops | Model.Cxl ->
    (* [dfence_times] is ascending: a drain point after the write
       epoch exists iff the newest one is after it. *)
    let n = Vec.length st.dfence_times in
    n > 0 && Vec.get st.dfence_times (n - 1) > s.write_epoch
  | Model.Eadr -> true

let flush_interval st (s : status) =
  if s.flush_epoch < 0 then None
  else
    let fe = s.flush_epoch in
    Some (if st.now > fe then Interval.make ~lo:fe ~hi:(fe + 1) else Interval.make_open fe)

let unpersisted st _ _ s = not (persisted_by_now st s)
let unpersisted_in st _ lo hi = Page_map.exists st.shadow ~lo ~hi unpersisted st

(* A write inside a checker scope: flag it if a transaction is open and
   no TX_ADD covers it, and remember it for TX_CHECKER_END. *)
let scope_write st loc lo hi =
  if st.tx_depth > 0 && not (Page_map.covers st.logged ~lo ~hi) then
    diag st Report.Missing_log loc (fun () ->
        Format.asprintf
          "persistent object [0x%x,+%d) modified inside a transaction without a backup log \
           entry"
          lo (hi - lo));
  Page_map.set st.scope_writes ~lo ~hi loc;
  false

let on_write st loc ~addr ~size =
  (* Under eADR each store is its own ordering point. *)
  if st.model = Model.Eadr then st.now <- st.now + 1;
  if st.scope_active then ignore (exists_effective st loc ~addr ~size scope_write);
  (* The store hits memory whether or not checking is excluded, so the
     shadow must cover the whole range: exclusion suppresses diagnostics
     (checkers and writeback rules filter through [exists_effective]),
     not history. Refreshing only the effective subranges would let a
     stale pre-exclusion status describe bytes a hole write has since
     overwritten — visible as wrong persist claims once re-included. *)
  Page_map.set st.shadow ~lo:addr ~hi:(addr + size)
    { write_epoch = st.now; write_loc = loc; flush_epoch = -1 }

let clwb_status st s =
  if s.flush_epoch < 0 then { s with flush_epoch = st.now }
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

let on_clwb st loc ~addr ~size =
  st.unmodified <- false;
  st.reflushed <- false;
  ignore (exists_effective st loc ~addr ~size clwb_range);
  if st.unmodified then
    diag st Report.Unnecessary_writeback loc (fun () ->
        Format.asprintf "writeback of unmodified data at [0x%x,+%d)" addr size);
  if st.reflushed then
    diag st Report.Duplicate_writeback loc (fun () ->
        Format.asprintf "persistent object [0x%x,+%d) written back more than once" addr size)

let on_is_persist st loc ~addr ~size =
  if exists_effective st loc ~addr ~size unpersisted_in then begin
    let lo, hi, s =
      List.find (fun (_, _, s) -> not (persisted_by_now st s)) (statuses_in st ~addr ~size)
    in
    let iv = persist_interval st s and now = st.now and wloc = s.write_loc in
    diag st Report.Not_persisted loc (fun () ->
        Format.asprintf
          "isPersist(0x%x,%d): write at %s to [0x%x,+%d) has persist interval %a at \
           timestamp %d"
          addr size (Loc.to_string wloc) lo (hi - lo) Interval.pp iv now)
  end

let on_is_ordered_before st loc ~a_addr ~a_size ~b_addr ~b_size =
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
    let aloc = sa.write_loc and bloc = sb.write_loc in
    diag st Report.Not_ordered loc (fun () ->
        Format.asprintf
          "isOrderedBefore: write at %s to 0x%x %a may not persist before write at %s to \
           0x%x %a"
          (Loc.to_string aloc) alo Interval.pp ia (Loc.to_string bloc) blo Interval.pp ib)

let on_tx_add st loc ~addr ~size =
  let lo = addr and hi = addr + size in
  if Page_map.covers st.logged ~lo ~hi then
    diag st Report.Duplicate_log loc (fun () ->
        Format.asprintf "persistent object [0x%x,+%d) logged more than once" addr size);
  Page_map.set st.logged ~lo ~hi ()

let scope_unpersisted st lo hi _ =
  exists_effective st Loc.none ~addr:lo ~size:(hi - lo) unpersisted_in

let on_tx_checker_end st loc =
  if st.tx_depth > 0 then
    diag st Report.Incomplete_tx loc (fun () -> "transaction still open at TX_CHECKER_END");
  if Page_map.exists st.scope_writes ~lo:min_int ~hi:max_int scope_unpersisted st then
    List.iter
      (fun (lo, hi, wloc) ->
        List.iter
          (fun (slo, shi) ->
            List.iter
              (fun (_, _, s) ->
                if not (persisted_by_now st s) then begin
                  let iv = persist_interval st s and now = st.now in
                  diag st Report.Incomplete_tx loc (fun () ->
                      Format.asprintf
                        "transaction update at %s to [0x%x,+%d) not persisted when the \
                         transaction checker scope ends (persist interval %a, timestamp %d)"
                        (Loc.to_string wloc) slo (shi - slo) Interval.pp iv now)
                end)
              (pieces st ~lo:slo ~hi:shi))
          (subranges st ~addr:lo ~size:(hi - lo)))
      (Page_map.to_list st.scope_writes);
  st.scope_active <- false;
  Page_map.reset st.scope_writes

let invalid_op st loc op =
  diag st Report.Invalid_op loc (fun () ->
      Format.asprintf "operation %a is not part of the %s persistency model" Model.pp_op op
        (Model.kind_name st.model))

let eadr_clwb st loc ~addr ~size =
  (* The persistence domain includes the caches: any writeback is
     pure overhead on this platform. *)
  diag st Report.Unnecessary_writeback loc (fun () ->
      Format.asprintf "writeback of [0x%x,+%d) is redundant under eADR (caches are \
                       persistent)" addr size)

let on_op st loc op =
  st.ops <- st.ops + 1;
  if not (Model.valid_op st.model op) then invalid_op st loc op
  else begin
    match op with
    | Model.Write { addr; size } -> on_write st loc ~addr ~size
    | Model.Clwb { addr; size } ->
      if st.model = Model.Eadr then eadr_clwb st loc ~addr ~size
      else on_clwb st loc ~addr ~size
    | Model.Sfence -> if st.model <> Model.Eadr then st.now <- st.now + 1
    | Model.Ofence -> st.now <- st.now + 1
    | Model.Dfence | Model.Gpf ->
      st.now <- st.now + 1;
      Vec.push st.dfence_times st.now
  end

let on_entry st (e : Event.t) =
  st.entries <- st.entries + 1;
  let loc = e.loc in
  match e.kind with
  | Event.Op op -> on_op st loc op
  | Event.Checker c -> begin
    st.checkers <- st.checkers + 1;
    match c with
    | Event.Is_persist { addr; size } -> on_is_persist st loc ~addr ~size
    | Event.Is_ordered_before { a_addr; a_size; b_addr; b_size } ->
      on_is_ordered_before st loc ~a_addr ~a_size ~b_addr ~b_size
  end
  | Event.Tx tx -> begin
    match tx with
    | Event.Tx_begin ->
      if st.tx_depth = 0 then Page_map.reset st.logged;
      st.tx_depth <- st.tx_depth + 1
    | Event.Tx_add { addr; size } -> on_tx_add st loc ~addr ~size
    | Event.Tx_commit | Event.Tx_abort ->
      st.tx_depth <- max 0 (st.tx_depth - 1);
      if st.tx_depth = 0 then Page_map.reset st.logged
    | Event.Tx_checker_start ->
      st.scope_active <- true;
      Page_map.reset st.scope_writes
    | Event.Tx_checker_end -> on_tx_checker_end st loc
  end
  | Event.Control c -> begin
    match c with
    | Event.Exclude { addr; size } ->
      set_excluded st (Interval_map.set st.excluded ~lo:addr ~hi:(addr + size) ())
    | Event.Include { addr; size } ->
      set_excluded st (Interval_map.clear st.excluded ~lo:addr ~hi:(addr + size))
    | Event.Lint_off _ | Event.Lint_on _ ->
      (* Static-lint suppression scopes mean nothing to the dynamic engine. *)
      ()
  end

(* Packed dispatch: same transitions as [on_entry], decoded straight
   from the cursor view.  Op validity mirrors [Model.valid_op] without
   building an op value; the boxed value is only constructed on the
   (diagnosed, rare) invalid path. *)
let on_view st (v : Packed.view) =
  st.entries <- st.entries + 1;
  let loc = v.Packed.loc in
  match v.Packed.tag with
  | Packed.T_write ->
    st.ops <- st.ops + 1;
    (* Write is valid under every model. *)
    on_write st loc ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_clwb ->
    st.ops <- st.ops + 1;
    if st.model = Model.Hops || st.model = Model.Cxl then
      invalid_op st loc (Model.Clwb { addr = v.Packed.a; size = v.Packed.b })
    else if st.model = Model.Eadr then eadr_clwb st loc ~addr:v.Packed.a ~size:v.Packed.b
    else on_clwb st loc ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_sfence ->
    st.ops <- st.ops + 1;
    if st.model = Model.Hops || st.model = Model.Cxl then invalid_op st loc Model.Sfence
    else if st.model <> Model.Eadr then st.now <- st.now + 1
  | Packed.T_ofence ->
    st.ops <- st.ops + 1;
    if st.model <> Model.Hops then invalid_op st loc Model.Ofence else st.now <- st.now + 1
  | Packed.T_dfence ->
    st.ops <- st.ops + 1;
    if st.model <> Model.Hops then invalid_op st loc Model.Dfence
    else begin
      st.now <- st.now + 1;
      Vec.push st.dfence_times st.now
    end
  | Packed.T_gpf ->
    st.ops <- st.ops + 1;
    if st.model <> Model.Cxl then invalid_op st loc Model.Gpf
    else begin
      st.now <- st.now + 1;
      Vec.push st.dfence_times st.now
    end
  | Packed.T_is_persist ->
    st.checkers <- st.checkers + 1;
    on_is_persist st loc ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_is_ordered ->
    st.checkers <- st.checkers + 1;
    on_is_ordered_before st loc ~a_addr:v.Packed.a ~a_size:v.Packed.b ~b_addr:v.Packed.c
      ~b_size:v.Packed.d
  | Packed.T_tx_begin ->
    if st.tx_depth = 0 then Page_map.reset st.logged;
    st.tx_depth <- st.tx_depth + 1
  | Packed.T_tx_add -> on_tx_add st loc ~addr:v.Packed.a ~size:v.Packed.b
  | Packed.T_tx_commit | Packed.T_tx_abort ->
    st.tx_depth <- max 0 (st.tx_depth - 1);
    if st.tx_depth = 0 then Page_map.reset st.logged
  | Packed.T_tx_checker_start ->
    st.scope_active <- true;
    Page_map.reset st.scope_writes
  | Packed.T_tx_checker_end -> on_tx_checker_end st loc
  | Packed.T_exclude ->
    set_excluded st (Interval_map.set st.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b) ())
  | Packed.T_include ->
    set_excluded st (Interval_map.clear st.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b))
  | Packed.T_lint_off | Packed.T_lint_on -> ()

let report_of st =
  {
    Report.diagnostics =
      List.map
        (fun p -> { Report.kind = p.kind; loc = p.loc; message = p.render () })
        (Vec.to_list st.diags);
    entries = st.entries;
    ops = st.ops;
    checkers = st.checkers;
  }

(* Totals across every engine pass. *)
let entries_checked = Pmtest_obs.Obs.counter "entries_checked"
let ops_checked = Pmtest_obs.Obs.counter "ops_checked"
let checkers_run = Pmtest_obs.Obs.counter "checkers_run"
let diagnostics = Pmtest_obs.Obs.counter "diagnostics"

let note_obs obs st =
  let module Obs = Pmtest_obs.Obs in
  if Obs.enabled obs then begin
    Obs.add obs entries_checked st.entries;
    Obs.add obs ops_checked st.ops;
    Obs.add obs checkers_run st.checkers;
    Obs.add obs diagnostics (Vec.length st.diags)
  end

let ranges_of st =
  List.rev
    (Page_map.fold
       (fun lo hi s acc ->
         { lo; hi; persist = persist_interval st s; flush = flush_interval st s } :: acc)
       st.shadow [])

let run_events model entries =
  let st = create_state model in
  Array.iter (on_entry st) entries;
  st

let check ?(obs = Pmtest_obs.Obs.disabled) ?(model = Model.X86) entries =
  let st = run_events model entries in
  note_obs obs st;
  report_of st

let check_packed ?(obs = Pmtest_obs.Obs.disabled) ?(model = Model.X86) ?(prelude = [||]) packed
    =
  (* The session's exclusion preamble arrives boxed (it is rebuilt from
     the live scope, never traced); replaying it through [on_entry]
     keeps the report identical to {!check} on the section array with
     the same events prepended. *)
  let st = run_events model prelude in
  let v = Packed.make_view () in
  let n = Packed.byte_length packed in
  let pos = ref 0 in
  while !pos < n do
    pos := Packed.read packed ~pos:!pos v;
    on_view st v
  done;
  note_obs obs st;
  report_of st

let check_with_snapshot ?(model = Model.X86) entries =
  let st = run_events model entries in
  (report_of st, { timestamp = st.now; ranges = ranges_of st })

let shadow_cardinality_of snap = List.length snap.ranges
