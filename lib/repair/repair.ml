open Pmtest_util
open Pmtest_itree
open Pmtest_model
open Pmtest_trace
module Lint = Pmtest_lint.Lint
module Rule = Pmtest_lint.Rule
module Fixit = Pmtest_lint.Fixit
module Engine = Pmtest_core.Engine
module Report = Pmtest_core.Report
module Obs = Pmtest_obs.Obs

type edit = { index : int; rule : Rule.t; fix : Fixit.t }

let repairable_rules =
  [
    Rule.Redundant_fence;
    Rule.Duplicate_flush;
    Rule.Unnecessary_flush;
    Rule.Write_never_flushed;
    Rule.Flush_without_fence;
    Rule.Unlogged_tx_write;
  ]

let repairable rule = List.mem rule repairable_rules

let drain_fence_op = function
  | Model.X86 | Model.Eadr -> Model.Sfence
  | Model.Hops -> Model.Dfence
  | Model.Cxl -> Model.Gpf

(* Sub-ranges of [addr, addr+size) not covered by [map] — the lint's
   exclusion-hole walk, reused for planned-log coverage. *)
let gaps map ~addr ~size =
  let lo = addr and hi = addr + size in
  let covered = Interval_map.overlapping map ~lo ~hi in
  let rec walk cursor = function
    | [] -> if cursor < hi then [ (cursor, hi) ] else []
    | (k, h, ()) :: rest ->
      let gap = if k > cursor then [ (cursor, k) ] else [] in
      gap @ walk (max cursor h) rest
  in
  walk lo covered

(* --- Planning ---------------------------------------------------------------- *)

(* One lint pass's findings become one round of edits:

   - [Delete]/[Narrow] anchor at the offending instruction. A writeback
     can carry both a duplicate-flush and an unnecessary-flush finding;
     they compute the same edit, so the first wins.
   - [Insert_log] edits are deduplicated with a transaction-aware walk:
     within one top-level transaction, a range planned for logging once
     must not be planned again for a later store (that would insert a
     duplicate undo-log entry). A range dropped here that a {e later}
     transaction still needs resurfaces on the next fix-point round.
   - [Insert_flush]/[Insert_fence] anchor at the trace end, where the
     lint's end-of-trace sweep reported them; all fence needs collapse
     into a single trailing drain fence, emitted after the appended
     writebacks (which themselves need completing under x86). *)
let plan ~model events (r : Lint.result) =
  let n = Array.length events in
  let seen_inline = Hashtbl.create 16 in
  let inline = ref [] in
  let log_findings = ref [] in
  let flush_edits = ref [] in
  let fence_rule = ref None in
  List.iter
    (fun (f : Lint.finding) ->
      if repairable f.Lint.rule then
        match f.Lint.fixit with
        | None | Some (Fixit.Hint _) -> ()
        | Some ((Fixit.Delete | Fixit.Narrow _) as fix) ->
          if not (Hashtbl.mem seen_inline f.Lint.index) then begin
            Hashtbl.add seen_inline f.Lint.index ();
            inline := { index = f.Lint.index; rule = f.Lint.rule; fix } :: !inline
          end
        | Some (Fixit.Insert_log rs) -> log_findings := (f.Lint.index, f.Lint.rule, rs) :: !log_findings
        | Some (Fixit.Insert_flush rs) ->
          flush_edits := { index = n; rule = f.Lint.rule; fix = Fixit.Insert_flush rs } :: !flush_edits
        | Some Fixit.Insert_fence ->
          if !fence_rule = None then fence_rule := Some f.Lint.rule)
    r.Lint.findings;
  let log_edits =
    let pending = ref (List.sort compare (List.rev !log_findings)) in
    let planned = ref Interval_map.empty in
    let depth = ref 0 in
    let out = ref [] in
    Array.iteri
      (fun i (e : Event.t) ->
        (match e.Event.kind with
        | Event.Tx Event.Tx_begin ->
          if !depth = 0 then planned := Interval_map.empty;
          incr depth
        | Event.Tx (Event.Tx_commit | Event.Tx_abort) ->
          if !depth > 0 then begin
            decr depth;
            if !depth = 0 then planned := Interval_map.empty
          end
        | _ -> ());
        let rec take () =
          match !pending with
          | (j, rule, rs) :: rest when j = i ->
            pending := rest;
            let leftover =
              List.concat_map
                (fun (r : Fixit.range) -> gaps !planned ~addr:r.Fixit.addr ~size:r.Fixit.size)
                rs
            in
            if leftover <> [] then begin
              List.iter (fun (lo, hi) -> planned := Interval_map.set !planned ~lo ~hi ()) leftover;
              let rs = List.map (fun (lo, hi) -> Fixit.range ~addr:lo ~size:(hi - lo)) leftover in
              out := { index = i; rule; fix = Fixit.Insert_log rs } :: !out
            end;
            take ()
          | _ -> ()
        in
        take ())
      events;
    List.rev !out
  in
  let flush_edits = List.rev !flush_edits in
  let fence_edit =
    (* Appended writebacks must themselves be completed, so any flush
       insertion implies the trailing fence even without a
       flush-without-fence finding. Never under eADR (no insertions
       exist there at all). *)
    match (!fence_rule, flush_edits) with
    | Some rule, _ -> [ { index = n; rule; fix = Fixit.Insert_fence } ]
    | None, _ :: _ when model <> Model.Eadr ->
      [ { index = n; rule = Rule.Write_never_flushed; fix = Fixit.Insert_fence } ]
    | _ -> []
  in
  List.sort (fun a b -> compare a.index b.index) (!inline @ log_edits) @ flush_edits @ fence_edit

(* --- Application ------------------------------------------------------------- *)

let apply ~model events edits =
  let inserts_before : (int, Fixit.range list) Hashtbl.t = Hashtbl.create 16 in
  let replace : (int, [ `Delete | `Narrow of Fixit.range list ]) Hashtbl.t = Hashtbl.create 16 in
  let appended = ref [] in
  let fence = ref false in
  List.iter
    (fun ed ->
      match ed.fix with
      | Fixit.Delete -> Hashtbl.replace replace ed.index `Delete
      | Fixit.Narrow rs -> Hashtbl.replace replace ed.index (`Narrow rs)
      | Fixit.Insert_log rs ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt inserts_before ed.index) in
        Hashtbl.replace inserts_before ed.index (prev @ rs)
      | Fixit.Insert_flush rs -> appended := !appended @ rs
      | Fixit.Insert_fence -> fence := true
      | Fixit.Hint _ -> ())
    edits;
  let out = ref [] in
  let push e = out := e :: !out in
  let rline = ref 0 in
  let rloc () =
    incr rline;
    Loc.make ~file:"repair" ~line:!rline
  in
  Array.iteri
    (fun i (e : Event.t) ->
      (match Hashtbl.find_opt inserts_before i with
      | Some rs ->
        List.iter
          (fun (r : Fixit.range) ->
            push
              (Event.make ~thread:e.Event.thread ~loc:(rloc ())
                 (Event.Tx (Event.Tx_add { addr = r.Fixit.addr; size = r.Fixit.size }))))
          rs
      | None -> ());
      match Hashtbl.find_opt replace i with
      | Some `Delete -> ()
      | Some (`Narrow rs) ->
        List.iter
          (fun (r : Fixit.range) ->
            push
              (Event.make ~thread:e.Event.thread ~loc:e.Event.loc
                 (Event.Op (Model.Clwb { addr = r.Fixit.addr; size = r.Fixit.size }))))
          rs
      | None -> push e)
    events;
  List.iter
    (fun (r : Fixit.range) ->
      push
        (Event.make ~loc:(rloc ()) (Event.Op (Model.Clwb { addr = r.Fixit.addr; size = r.Fixit.size }))))
    !appended;
  if !fence then push (Event.make ~loc:(rloc ()) (Event.Op (drain_fence_op model)));
  Array.of_list (List.rev !out)

(* --- Fixed point ------------------------------------------------------------- *)

type outcome = {
  repaired : Event.t array;
  iterations : int;  (** Lint passes run, including the final clean one. *)
  converged : bool;
  edits : (int * edit) list;  (** [(round, edit)] in application order. *)
  deleted_fences : int;
  deleted_flushes : int;
  narrowed_flushes : int;
  inserted_flushes : int;
  inserted_fences : int;
  inserted_logs : int;
}

let edits_applied o = List.length o.edits

let count_edits edits =
  List.fold_left
    (fun (df, dl, nw, ifl, ife, ilg) (_, ed) ->
      match (ed.fix, ed.rule) with
      | Fixit.Delete, Rule.Redundant_fence -> (df + 1, dl, nw, ifl, ife, ilg)
      | Fixit.Delete, _ -> (df, dl + 1, nw, ifl, ife, ilg)
      | Fixit.Narrow _, _ -> (df, dl, nw + 1, ifl, ife, ilg)
      | Fixit.Insert_flush rs, _ -> (df, dl, nw, ifl + List.length rs, ife, ilg)
      | Fixit.Insert_fence, _ -> (df, dl, nw, ifl, ife + 1, ilg)
      | Fixit.Insert_log rs, _ -> (df, dl, nw, ifl, ife, ilg + List.length rs)
      | Fixit.Hint _, _ -> (df, dl, nw, ifl, ife, ilg))
    (0, 0, 0, 0, 0, 0) edits

let default_max_rounds = 16

(* Traces run to a fixed point, the edits applied and analysis passes
   run across them, the time spent analysing and applying, and the time
   spent verifying plans. *)
let traces_repaired = Obs.counter "repair_traces"
let edits_total = Obs.counter "repair_edits"
let rounds_total = Obs.counter "repair_rounds"
let repair_ns = Obs.counter "repair_ns"
let verify_ns = Obs.counter "repair_verify_ns"

let fixpoint ?(obs = Obs.disabled) ?(model = Model.X86) ?(rules = Rule.default)
    ?(max_rounds = default_max_rounds) ?lint events =
  let rec go round events edits lint =
    let r = match lint with Some r -> r | None -> Lint.run ~model ~rules events in
    let p = plan ~model events r in
    if p = [] then (events, round, true, edits)
    else if round >= max_rounds then (events, round, false, edits)
    else
      go (round + 1) (apply ~model events p) (edits @ List.map (fun ed -> (round, ed)) p) None
  in
  let t0 = Obs.now_ns () in
  let repaired, rounds, converged, edits = go 1 events [] lint in
  let deleted_fences, deleted_flushes, narrowed_flushes, inserted_flushes, inserted_fences,
      inserted_logs =
    count_edits edits
  in
  let o =
    {
      repaired;
      iterations = rounds;
      converged;
      edits;
      deleted_fences;
      deleted_flushes;
      narrowed_flushes;
      inserted_flushes;
      inserted_fences;
      inserted_logs;
    }
  in
  if Obs.enabled obs then begin
    Obs.add obs traces_repaired 1;
    Obs.add obs edits_total (edits_applied o);
    Obs.add obs rounds_total o.iterations;
    Obs.add obs repair_ns (Obs.now_ns () - t0)
  end;
  o

(* --- Static verification ------------------------------------------------------ *)

let has_lint_off events =
  Array.exists
    (fun (e : Event.t) ->
      match e.Event.kind with Event.Control (Event.Lint_off _) -> true | _ -> false)
    events

let fail_key (r : Report.t) =
  List.sort compare
    (List.map (fun (d : Report.diagnostic) -> (d.Report.kind, d.Report.loc)) (Report.fails r))

let multiset_subset a b =
  (* Both sorted; every element of [a] appears in [b] at least as often. *)
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> if x = y then go a' b' else if compare x y > 0 then go a b' else false
  in
  go a b

let verify_static ?(obs = Obs.disabled) ?(model = Model.X86) ?(rules = Rule.default) ~original
    ?original_report (o : outcome) =
  let t0 = Obs.now_ns () in
  let problems = ref [] in
  let fail fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  if not o.converged then fail "repair did not converge within %d rounds" o.iterations;
  (* 1. The repaired trace lints clean for every repairable rule. This
     lint is the proof's own, never the fixpoint's last round. *)
  let lr = Lint.run ~model ~rules o.repaired in
  List.iter
    (fun (f : Lint.finding) ->
      if
        repairable f.Lint.rule
        && match f.Lint.fixit with None | Some (Fixit.Hint _) -> false | Some _ -> true
      then fail "repaired trace still lints %s at %s" (Rule.id f.Lint.rule) (Loc.to_string f.Lint.loc))
    lr.Lint.findings;
  (* 2. Re-repairing is the identity: the plan over the repaired trace
     is empty (idempotence). *)
  if plan ~model o.repaired lr <> [] then
    fail "repair is not idempotent: the repaired trace still has a non-empty plan";
  (* 3. Engine differential. Repairs must never introduce a new
     Fail-severity diagnostic, and must not increase the engine's own
     writeback perf warnings; when nothing was suppressed inline and
     the perf rules ran, those warnings must be gone entirely. *)
  let er_orig = match original_report with Some r -> r | None -> Engine.check ~model original in
  let er = Engine.check ~model o.repaired in
  if not (multiset_subset (fail_key er) (fail_key er_orig)) then
    fail "repair introduced a new engine FAIL diagnostic";
  let bounded kind label =
    let before = Report.count kind er_orig and after = Report.count kind er in
    if after > before then fail "engine %s diagnostics grew from %d to %d" label before after
  in
  bounded Report.Duplicate_writeback "duplicate-writeback";
  bounded Report.Unnecessary_writeback "unnecessary-writeback";
  bounded Report.Missing_log "missing-log";
  if not (has_lint_off original) then begin
    let gone kind rule label =
      if Rule.mem rules rule && Report.count kind er > 0 then
        fail "engine still reports %s on the repaired trace" label
    in
    gone Report.Duplicate_writeback Rule.Duplicate_flush "duplicate-writeback";
    gone Report.Unnecessary_writeback Rule.Unnecessary_flush "unnecessary-writeback"
  end;
  (* 4. The packed fast path agrees with the boxed engine on the
     repaired trace — repairs must not manufacture representation
     disagreements. *)
  if Engine.check_packed ~model (Packed.of_events o.repaired) <> er then
    fail "packed and boxed engine reports differ on the repaired trace";
  if Obs.enabled obs then Obs.add obs verify_ns (Obs.now_ns () - t0);
  List.rev !problems

(* --- Diff rendering ----------------------------------------------------------- *)

(* A plain LCS line diff over the serialized traces: small, dependency
   free, and the traces involved are a few thousand lines at most. *)
let diff_lines (a : string array) (b : string array) =
  let n = Array.length a and m = Array.length b in
  (* lcs.(i).(j) = LCS length of a[i..] and b[j..] *)
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if a.(i) = b.(j) then 1 + lcs.(i + 1).(j + 1) else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let out = ref [] in
  let rec walk i j =
    if i < n && j < m && a.(i) = b.(j) then begin
      out := (' ', a.(i)) :: !out;
      walk (i + 1) (j + 1)
    end
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then begin
      out := ('+', b.(j)) :: !out;
      walk i (j + 1)
    end
    else if i < n then begin
      out := ('-', a.(i)) :: !out;
      walk (i + 1) j
    end
  in
  walk 0 0;
  List.rev !out

let pp_diff ?(context = 2) ppf ~original ~repaired =
  let serial evs = Array.map Serial.entry_to_line evs in
  let lines = diff_lines (serial original) (serial repaired) in
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let keep = Array.make n false in
  Array.iteri
    (fun i (c, _) ->
      if c <> ' ' then
        for j = max 0 (i - context) to min (n - 1) (i + context) do
          keep.(j) <- true
        done)
    arr;
  let out = ref [] in
  let skipping = ref false in
  Array.iteri
    (fun i (c, line) ->
      if keep.(i) then begin
        if !skipping then out := "  ..." :: !out;
        skipping := false;
        out := Printf.sprintf "%c %s" c line :: !out
      end
      else skipping := true)
    arr;
  if !skipping then out := "  ..." :: !out;
  Format.pp_open_vbox ppf 0;
  Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string ppf (List.rev !out);
  Format.pp_close_box ppf ()

let machine_lines (o : outcome) =
  List.map
    (fun (round, ed) ->
      Printf.sprintf "%d\t%d\t%s\t%s" round ed.index (Rule.id ed.rule) (Fixit.to_string ed.fix))
    o.edits

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf
    "@[<v>%d edit(s) in %d round(s)%s: %d fence(s) and %d writeback(s) deleted, %d writeback(s) \
     narrowed, %d writeback(s), %d fence(s) and %d log entr%s inserted@]"
    (edits_applied o) o.iterations
    (if o.converged then "" else " (DID NOT CONVERGE)")
    o.deleted_fences o.deleted_flushes o.narrowed_flushes o.inserted_flushes o.inserted_fences
    o.inserted_logs
    (if o.inserted_logs = 1 then "y" else "ies")
