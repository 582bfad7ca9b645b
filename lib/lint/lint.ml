open Pmtest_util
open Pmtest_itree
open Pmtest_model
open Pmtest_trace
module Report = Pmtest_core.Report

type finding = {
  rule : Rule.t;
  index : int;
  loc : Loc.t;
  message : string;
  fixit : Fixit.t option;
}

type result = { findings : finding list; entries : int; ops : int; checkers : int }

(* Per-byte-range shadow state. [wserial]/[fserial] identify the store
   and writeback instructions that produced the state, so end-of-trace
   sweeps report each instruction once however many fragments the
   interval map split it into. Suppression is captured eagerly: the
   [LINT_OFF] scope that matters is the one active where the store or
   writeback was issued, not where the trace ends. *)
type flush_info = { fserial : int; floc : Loc.t; fepoch : int; fsup : bool }

type status = {
  wserial : int;
  wloc : Loc.t;
  wepoch : int;  (** Fence epoch at the store — HOPS durability. *)
  wsup : bool;
  flush : flush_info option;
}

type st = {
  model : Model.kind;
  rules : Rule.set;
  mutable epoch : int;  (** sfence count (x86) / dfence count (HOPS). *)
  mutable shadow : status Interval_map.t;
  mutable excluded : unit Interval_map.t;
  mutable excl_sites : (Loc.t * bool) Interval_map.t;
  mutable logged : unit Interval_map.t;
  mutable tx_depth : int;
  mutable tx_stack : Loc.t list;  (** Open TX_BEGIN locations, newest first. *)
  mutable work_since_fence : int;
  mutable cur : int;  (** Index of the event being analysed; trace length during {!sweep}. *)
  mutable serial : int;
  mutable wild_off : int;
  offs : (string, int) Hashtbl.t;
  findings : finding Vec.t;
  mutable entries : int;
  mutable ops : int;
  mutable checkers : int;
}

let suppressed st rule =
  st.wild_off > 0
  || match Hashtbl.find_opt st.offs (Rule.id rule) with Some n -> n > 0 | None -> false

let enabled st rule = Rule.mem st.rules rule
let active st rule = enabled st rule && not (suppressed st rule)

let finding st rule loc ?fixit fmt =
  Format.kasprintf
    (fun message -> Vec.push st.findings { rule; index = st.cur; loc; message; fixit })
    fmt

(* Subranges of [addr, addr+size) not currently excluded — the same
   holes the dynamic engine skips (Engine.exists_effective). *)
let effective excluded ~addr ~size =
  let lo = addr and hi = addr + size in
  let holes = Interval_map.overlapping excluded ~lo ~hi in
  let rec walk cursor = function
    | [] -> if cursor < hi then [ (cursor, hi) ] else []
    | (k, h, ()) :: rest ->
      let gap = if k > cursor then [ (cursor, k) ] else [] in
      gap @ walk (max cursor h) rest
  in
  walk lo holes

let on_write st loc ~addr ~size =
  (* HOPS and CXL have no writeback: the store itself is the work a
     drain point (dfence / gpf) completes. *)
  if st.model = Model.Hops || st.model = Model.Cxl then
    st.work_since_fence <- st.work_since_fence + 1;
  let subs = effective st.excluded ~addr ~size in
  if subs <> [] then begin
    if st.tx_depth > 0 && active st Rule.Unlogged_tx_write then begin
      (* Every logged-coverage gap becomes an [Insert_log] range, so one
         applied edit silences the finding (and adds no duplicate log). *)
      let missing =
        List.concat_map (fun (lo, hi) -> effective st.logged ~addr:lo ~size:(hi - lo)) subs
      in
      match missing with
      | [] -> ()
      | (lo, hi) :: _ ->
        finding st Rule.Unlogged_tx_write loc
          ~fixit:
            (Fixit.Insert_log
               (List.map (fun (lo, hi) -> Fixit.range ~addr:lo ~size:(hi - lo)) missing))
          "persistent object [0x%x,+%d) modified inside a transaction without a backup log entry"
          lo (hi - lo)
    end;
    if st.model = Model.X86 then begin
      if active st Rule.Write_after_flush then begin
        let pending = ref None in
        List.iter
          (fun (lo, hi) ->
            if !pending = None then
              List.iter
                (fun (_, _, s) ->
                  match (s.flush, !pending) with
                  | Some f, None when f.fepoch >= st.epoch -> pending := Some f
                  | _ -> ())
                (Interval_map.overlapping st.shadow ~lo ~hi))
          subs;
        match !pending with
        | None -> ()
        | Some f ->
          finding st Rule.Write_after_flush loc
            ~fixit:
              (Fixit.Hint
                 (Printf.sprintf "move this store after the fence completing the writeback at %s"
                    (Loc.to_string f.floc)))
            "store to [0x%x,+%d) overlaps a writeback (at %s) that no fence has completed yet"
            addr size (Loc.to_string f.floc)
      end
    end;
  end;
  if st.model <> Model.Eadr then begin
    (* Under eADR the caches are persistent: a store is durable as it
       executes, so there is nothing to track. Like the dynamic engine,
       the shadow spans the whole stored range even inside exclusion
       holes — findings above stay hole-gated, but the recorded state
       must describe what memory actually holds. *)
    st.serial <- st.serial + 1;
    let s =
      {
        wserial = st.serial;
        wloc = loc;
        wepoch = st.epoch;
        wsup = suppressed st Rule.Write_never_flushed;
        flush = None;
      }
    in
    st.shadow <- Interval_map.set st.shadow ~lo:addr ~hi:(addr + size) s
  end

let on_clwb st loc ~addr ~size =
  if st.model = Model.Eadr then begin
    if active st Rule.Unnecessary_flush then
      finding st Rule.Unnecessary_flush loc ~fixit:Fixit.Delete
        "writeback of [0x%x,+%d) is redundant under eADR (caches are persistent)" addr size
  end
  else begin
    st.work_since_fence <- st.work_since_fence + 1;
    let subs = effective st.excluded ~addr ~size in
    if subs <> [] then begin
      (* Classify the effective range before mutating the shadow: the
         fragments doing useful work (a dirty, not-yet-flushed byte)
         become the [Narrow] target when the writeback also covers
         clean or already-flushed bytes; a writeback with no work at
         all can simply be deleted. *)
      let work = ref [] in
      let unnecessary = ref false in
      let dup = ref None in
      List.iter
        (fun (lo, hi) ->
          let cursor = ref lo in
          List.iter
            (fun (k, h, s) ->
              if k > !cursor then unnecessary := true;
              (match s.flush with
              | None -> work := (k, h) :: !work
              | Some prev -> if !dup = None then dup := Some prev);
              cursor := h)
            (Interval_map.overlapping st.shadow ~lo ~hi);
          if !cursor < hi then unnecessary := true)
        subs;
      let work = List.rev !work in
      let narrow_or_delete () =
        if work = [] then Fixit.Delete
        else Fixit.Narrow (List.map (fun (lo, hi) -> Fixit.range ~addr:lo ~size:(hi - lo)) work)
      in
      st.serial <- st.serial + 1;
      let fi =
        {
          fserial = st.serial;
          floc = loc;
          fepoch = st.epoch;
          fsup = suppressed st Rule.Flush_without_fence;
        }
      in
      List.iter
        (fun (lo, hi) ->
          st.shadow <-
            Interval_map.update_range st.shadow ~lo ~hi ~f:(function
              | None -> None
              | Some s -> (
                match s.flush with None -> Some { s with flush = Some fi } | Some _ -> Some s)))
        subs;
      if !unnecessary && active st Rule.Unnecessary_flush then
        finding st Rule.Unnecessary_flush loc ~fixit:(narrow_or_delete ())
          "writeback of unmodified data at [0x%x,+%d)" addr size;
      match !dup with
      | Some prev when active st Rule.Duplicate_flush ->
        finding st Rule.Duplicate_flush loc ~fixit:(narrow_or_delete ())
          "persistent object [0x%x,+%d) written back more than once (already flushed at %s)" addr
          size (Loc.to_string prev.floc)
      | _ -> ()
    end
  end

let on_fence st loc ~kind =
  (* [kind] is `Order (pure ordering: ofence) or `Drain (sfence/dfence). *)
  match kind with
  | `Order -> st.work_since_fence <- st.work_since_fence + 1
  | `Drain ->
    if st.work_since_fence = 0 && active st Rule.Redundant_fence then begin
      match st.model with
      | Model.X86 ->
        finding st Rule.Redundant_fence loc ~fixit:Fixit.Delete
          "fence orders no writeback (nothing was flushed since the previous fence)"
      | Model.Hops ->
        finding st Rule.Redundant_fence loc ~fixit:Fixit.Delete
          "durability fence drains nothing (no write since the previous dfence)"
      | Model.Cxl ->
        finding st Rule.Redundant_fence loc ~fixit:Fixit.Delete
          "global persist barrier drains nothing (no write since the previous gpf)"
      | Model.Eadr -> ()
    end;
    st.epoch <- st.epoch + 1;
    st.work_since_fence <- 0

let on_op st loc op =
  st.ops <- st.ops + 1;
  if Model.valid_op st.model op then
    match op with
    | Model.Write { addr; size } -> on_write st loc ~addr ~size
    | Model.Clwb { addr; size } -> on_clwb st loc ~addr ~size
    | Model.Sfence -> if st.model <> Model.Eadr then on_fence st loc ~kind:`Drain
    | Model.Ofence -> on_fence st loc ~kind:`Order
    | Model.Dfence | Model.Gpf -> on_fence st loc ~kind:`Drain

let on_tx st loc tx =
  match tx with
  | Event.Tx_begin ->
    if st.tx_depth = 0 then st.logged <- Interval_map.empty;
    st.tx_depth <- st.tx_depth + 1;
    st.tx_stack <- loc :: st.tx_stack
  | Event.Tx_add { addr; size } ->
    st.logged <- Interval_map.set st.logged ~lo:addr ~hi:(addr + size) ()
  | Event.Tx_commit | Event.Tx_abort ->
    if st.tx_depth = 0 then begin
      (* No fixit: removing the TX_END and adding the missing TX_BEGIN
         are both plausible, so no single mechanical edit applies. *)
      if active st Rule.Unbalanced_tx then
        finding st Rule.Unbalanced_tx loc "transaction end with no transaction open"
    end
    else begin
      st.tx_depth <- st.tx_depth - 1;
      st.tx_stack <- (match st.tx_stack with [] -> [] | _ :: tl -> tl);
      if st.tx_depth = 0 then st.logged <- Interval_map.empty
    end
  | Event.Tx_checker_start | Event.Tx_checker_end -> ()

let on_control st loc c =
  match c with
  | Event.Exclude { addr; size } ->
    st.excluded <- Interval_map.set st.excluded ~lo:addr ~hi:(addr + size) ();
    st.excl_sites <-
      Interval_map.set st.excl_sites ~lo:addr ~hi:(addr + size)
        (loc, suppressed st Rule.Unmatched_exclude)
  | Event.Include { addr; size } ->
    st.excluded <- Interval_map.clear st.excluded ~lo:addr ~hi:(addr + size);
    st.excl_sites <- Interval_map.clear st.excl_sites ~lo:addr ~hi:(addr + size)
  | Event.Lint_off { rule } ->
    if rule = "*" then st.wild_off <- st.wild_off + 1
    else
      Hashtbl.replace st.offs rule
        (1 + match Hashtbl.find_opt st.offs rule with Some n -> n | None -> 0)
  | Event.Lint_on { rule } ->
    if rule = "*" then st.wild_off <- max 0 (st.wild_off - 1)
    else (
      match Hashtbl.find_opt st.offs rule with
      | Some n when n > 0 -> Hashtbl.replace st.offs rule (n - 1)
      | _ -> ())

let on_entry st i (e : Event.t) =
  st.cur <- i;
  st.entries <- st.entries + 1;
  match e.Event.kind with
  | Event.Op op -> on_op st e.Event.loc op
  | Event.Checker _ -> st.checkers <- st.checkers + 1
  | Event.Tx tx -> on_tx st e.Event.loc tx
  | Event.Control c -> on_control st e.Event.loc c

(* End-of-trace sweeps. Shadow fragments sharing a serial are one
   instruction; bytes excluded by then are not reported. Fragments are
   first grouped per instruction so a finding's [Insert_flush] covers
   {e every} still-dirty byte of the store, not just the first
   fragment the interval map happened to yield. *)
type sweep_group = {
  mutable gloc : Loc.t;
  mutable gfrags : (int * int) list;  (** Reportable fragments, reversed. *)
}

let sweep st =
  (* Sweep findings anchor at the trace length: insertion edits append. *)
  if st.model <> Model.Eadr then begin
    let groups_w = Hashtbl.create 64 and groups_f = Hashtbl.create 64 in
    let accumulate tbl serial loc subs =
      let g =
        match Hashtbl.find_opt tbl serial with
        | Some g -> g
        | None ->
          let g = { gloc = loc; gfrags = [] } in
          Hashtbl.add tbl serial g;
          g
      in
      g.gfrags <- List.rev_append subs g.gfrags
    in
    Interval_map.iter
      (fun lo hi s ->
        let subs = effective st.excluded ~addr:lo ~size:(hi - lo) in
        if subs <> [] then
          match st.model with
          | Model.X86 -> (
            match s.flush with
            | None ->
              if enabled st Rule.Write_never_flushed && not s.wsup then
                accumulate groups_w s.wserial s.wloc subs
            | Some f ->
              if f.fepoch >= st.epoch && enabled st Rule.Flush_without_fence && not f.fsup then
                accumulate groups_f f.fserial f.floc subs)
          | Model.Hops | Model.Cxl ->
            if s.wepoch >= st.epoch && enabled st Rule.Write_never_flushed && not s.wsup then
              accumulate groups_w s.wserial s.wloc subs
          | Model.Eadr -> ())
      st.shadow;
    let in_serial_order tbl = List.sort compare (Hashtbl.fold (fun k g acc -> (k, g) :: acc) tbl [])
    in
    List.iter
      (fun (_, g) ->
        let frags = List.rev g.gfrags in
        let lo, hi = List.hd frags in
        match st.model with
        | Model.X86 ->
          finding st Rule.Write_never_flushed g.gloc
            ~fixit:
              (Fixit.Insert_flush
                 (List.map (fun (lo, hi) -> Fixit.range ~addr:lo ~size:(hi - lo)) frags))
            "store to [0x%x,+%d) is never written back" lo (hi - lo)
        | Model.Hops ->
          finding st Rule.Write_never_flushed g.gloc ~fixit:Fixit.Insert_fence
            "store to [0x%x,+%d) is never made durable (no dfence follows)" lo (hi - lo)
        | Model.Cxl ->
          finding st Rule.Write_never_flushed g.gloc ~fixit:Fixit.Insert_fence
            "store to [0x%x,+%d) is never made durable (no gpf follows)" lo (hi - lo)
        | Model.Eadr -> ())
      (in_serial_order groups_w);
    List.iter
      (fun (_, g) ->
        let lo, hi = List.hd (List.rev g.gfrags) in
        finding st Rule.Flush_without_fence g.gloc ~fixit:Fixit.Insert_fence
          "writeback of [0x%x,+%d) is never completed by a fence" lo (hi - lo))
      (in_serial_order groups_f)
  end;
  if enabled st Rule.Unbalanced_tx then
    List.iter
      (fun bloc ->
        finding st Rule.Unbalanced_tx bloc
          ~fixit:(Fixit.Hint "add TX_END (or TX_ABORT) on every path out of this transaction")
          "transaction opened here never commits or aborts")
      (List.rev st.tx_stack);
  if enabled st Rule.Unmatched_exclude then begin
    let seen = Hashtbl.create 8 in
    Interval_map.iter
      (fun lo hi (loc, sup) ->
        if (not sup) && not (Hashtbl.mem seen loc) then begin
          Hashtbl.add seen loc ();
          finding st Rule.Unmatched_exclude loc
            ~fixit:
              (Fixit.Hint
                 (Printf.sprintf "add PMTest_INCLUDE(0x%x,%d) when checking should resume" lo
                    (hi - lo)))
            "range [0x%x,+%d) excluded here is never re-included" lo (hi - lo)
        end)
      st.excl_sites
  end

let run ?(model = Model.X86) ?(rules = Rule.default) entries =
  let st =
    {
      model;
      rules;
      epoch = 0;
      shadow = Interval_map.empty;
      excluded = Interval_map.empty;
      excl_sites = Interval_map.empty;
      logged = Interval_map.empty;
      tx_depth = 0;
      tx_stack = [];
      work_since_fence = 0;
      cur = 0;
      serial = 0;
      wild_off = 0;
      offs = Hashtbl.create 8;
      findings = Vec.create ();
      entries = 0;
      ops = 0;
      checkers = 0;
    }
  in
  Array.iteri (on_entry st) entries;
  st.cur <- Array.length entries;
  sweep st;
  {
    findings = Vec.to_list st.findings;
    entries = st.entries;
    ops = st.ops;
    checkers = st.checkers;
  }

let report_of (r : result) =
  let diagnostics =
    List.map
      (fun f ->
        let message =
          match f.fixit with
          | None -> f.message
          | Some fix -> Printf.sprintf "%s [fix-it: %s]" f.message (Fixit.describe fix)
        in
        { Report.kind = Rule.report_kind f.rule; loc = f.loc; message })
      r.findings
  in
  { Report.diagnostics; entries = r.entries; ops = r.ops; checkers = r.checkers }

let strip_checkers entries =
  Array.of_list
    (List.filter
       (fun (e : Event.t) ->
         match e.Event.kind with
         | Event.Checker _ | Event.Tx (Event.Tx_checker_start | Event.Tx_checker_end) -> false
         | _ -> true)
       (Array.to_list entries))

let has_fail (r : result) =
  List.exists (fun f -> Rule.severity f.rule = Report.Fail) r.findings

let pp_finding ppf f =
  Format.fprintf ppf "@[<v2>%s [%s] %s @@ %a%a@]"
    (Report.severity_string (Rule.severity f.rule))
    (Rule.id f.rule) f.message Loc.pp f.loc
    (fun ppf -> function
      | None -> ()
      | Some fix -> Format.fprintf ppf "@,fix-it: %s" (Fixit.describe fix))
    f.fixit

let pp ppf (r : result) =
  if r.findings = [] then
    Format.fprintf ppf "clean (%d entries, %d PM ops, %d checkers ignored)" r.entries r.ops
      r.checkers
  else begin
    Format.fprintf ppf "@[<v>%d finding(s) over %d entries:" (List.length r.findings) r.entries;
    List.iter (fun f -> Format.fprintf ppf "@,%a" pp_finding f) r.findings;
    Format.fprintf ppf "@]"
  end

let machine_lines (r : result) =
  List.map
    (fun f ->
      Printf.sprintf "%s\t%s\t%s\t%s\t%s"
        (Report.severity_string (Rule.severity f.rule))
        (Rule.id f.rule) (Loc.to_string f.loc) f.message
        (match f.fixit with None -> "-" | Some fix -> Fixit.to_string fix))
    r.findings
