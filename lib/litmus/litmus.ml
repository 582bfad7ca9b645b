open Pmtest_util
open Pmtest_model
open Pmtest_trace
module Engine = Pmtest_core.Engine
module Report = Pmtest_core.Report
module Machine = Pmtest_pmem.Machine
module Crashtest = Pmtest_crashtest.Crashtest
module Gen = Pmtest_fuzz.Gen
module Oracle = Pmtest_fuzz.Oracle

type expect = Allowed | Forbidden
type scope = Any | Final
type state_check = { expect : expect; scope : scope; cells : (int * int) list }
type checker_expect = { index : int; pass : bool }

type t = {
  name : string;
  model : Model.kind;
  doc : string;
  events : Event.t array;
  states : state_check list;
  checkers : checker_expect list;
  lines : int;
}

let addr_of_line line = line * Model.cache_line

(* Write payloads follow the oracle's convention: the k-th write
   (0-based) stores [chr ((k mod 250) + 1)], so ordinal [n] (1-based)
   observes byte [chr (((n-1) mod 250) + 1)] and ordinal 0 the zeroed
   initial content. *)
let payload_of_ordinal = function
  | 0 -> '\000'
  | n -> Char.chr (((n - 1) mod 250) + 1)

(* {1 Builder} *)

type builder = {
  mutable rev_events : Event.t list;
  mutable count : int;
  mutable writes : int;
  mutable b_states : state_check list;
  mutable b_checkers : checker_expect list;
  mutable max_line : int;
}

let note_line b line = if line > b.max_line then b.max_line <- line

let push b kind =
  b.rev_events <-
    Event.make ~loc:(Loc.make ~file:"litmus" ~line:b.count) kind :: b.rev_events;
  b.count <- b.count + 1

let w b line =
  note_line b line;
  push b (Event.Op (Model.Write { addr = addr_of_line line; size = Gen.write_size }));
  b.writes <- b.writes + 1;
  b.writes

let clwb b line =
  note_line b line;
  push b (Event.Op (Model.Clwb { addr = addr_of_line line; size = Gen.write_size }))

let sfence b = push b (Event.Op Model.Sfence)
let ofence b = push b (Event.Op Model.Ofence)
let dfence b = push b (Event.Op Model.Dfence)
let gpf b = push b (Event.Op Model.Gpf)

let check_persist b line ~pass =
  note_line b line;
  b.b_checkers <- { index = b.count; pass } :: b.b_checkers;
  push b (Event.Checker (Event.Is_persist { addr = addr_of_line line; size = Gen.write_size }))

let check_ordered b la lb ~pass =
  note_line b la;
  note_line b lb;
  b.b_checkers <- { index = b.count; pass } :: b.b_checkers;
  push b
    (Event.Checker
       (Event.Is_ordered_before
          {
            a_addr = addr_of_line la;
            a_size = Gen.write_size;
            b_addr = addr_of_line lb;
            b_size = Gen.write_size;
          }))

let state b expect scope cells =
  List.iter (fun (line, _) -> note_line b line) cells;
  b.b_states <- { expect; scope; cells } :: b.b_states

let allowed b cells = state b Allowed Any cells
let forbidden b cells = state b Forbidden Any cells
let allowed_final b cells = state b Allowed Final cells
let forbidden_final b cells = state b Forbidden Final cells

let make ~name ~model ~doc f =
  let b =
    {
      rev_events = [];
      count = 0;
      writes = 0;
      b_states = [];
      b_checkers = [];
      max_line = 0;
    }
  in
  f b;
  let events = Array.of_list (List.rev b.rev_events) in
  Array.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Op op ->
        if not (Model.valid_op model op) then
          invalid_arg
            (Printf.sprintf "litmus test %s: op %s is invalid under %s" name
               (Format.asprintf "%a" Model.pp_op op)
               (Model.kind_name model))
      | _ -> ())
    events;
  {
    name;
    model;
    doc;
    events;
    states = List.rev b.b_states;
    checkers = List.rev b.b_checkers;
    lines = b.max_line + 1;
  }

let program_of t =
  { Gen.model = t.model; pm_size = t.lines * Model.cache_line; events = t.events }

let with_events t events = { t with events }

(* {1 Runner} *)

type failure = { leg : string; message : string }
type outcome = { test : t; failures : failure list }

let passed o = o.failures = []

let pp_expect = function Allowed -> "allowed" | Forbidden -> "forbidden"
let pp_scope = function Any -> "any crash point" | Final -> "final crash point"

let pp_state sc =
  Printf.sprintf "%s@%s {%s}" (pp_expect sc.expect) (pp_scope sc.scope)
    (String.concat "; "
       (List.map (fun (line, ord) -> Printf.sprintf "L%d=%d" line ord) sc.cells))

let matches_state cells img =
  List.for_all
    (fun (line, ord) ->
      let a = addr_of_line line in
      let v = payload_of_ordinal ord in
      let rec go k = k >= Gen.write_size || (Bytes.get img (a + k) = v && go (k + 1)) in
      go 0)
    cells

(* Engine leg: the trace checker's verdicts on the embedded
   isPersist/isOrderedBefore assertions. *)
let engine_leg t =
  let fail fmt = Printf.ksprintf (fun message -> { leg = "engine"; message }) fmt in
  let r = Engine.check ~model:t.model t.events in
  let invalid =
    if Report.count Report.Invalid_op r > 0 then
      [ fail "program is not valid under %s" (Model.kind_name t.model) ]
    else []
  in
  invalid
  @ List.filter_map
      (fun ce ->
        let loc = t.events.(ce.index).Event.loc in
        let failed =
          List.exists
            (fun (d : Report.diagnostic) ->
              (d.Report.kind = Report.Not_persisted || d.Report.kind = Report.Not_ordered)
              && Loc.equal d.Report.loc loc)
            r.Report.diagnostics
        in
        if not failed = ce.pass then None
        else
          Some
            (fail "checker at event %d: engine says %s, test expects %s" ce.index
               (if failed then "FAIL" else "pass")
               (if ce.pass then "pass" else "FAIL")))
      t.checkers

(* Oracle leg: exhaustive per-model crash-state enumeration decides both
   the checker verdicts and the allowed/forbidden state expectations.
   [sim] substitutes the model simulation — the broken-model tests use it
   to prove the harness catches an implementation that admits a
   forbidden state or loses an allowed one. *)
let oracle_leg ?sim t =
  let fail fmt = Printf.ksprintf (fun message -> { leg = "oracle"; message }) fmt in
  let p = program_of t in
  if not (Gen.oracle_eligible p) then
    [ fail "program is not oracle-eligible — litmus tests must be straight-line and aligned" ]
  else begin
    let limit = 1 lsl 16 in
    let mk = match sim with Some f -> f | None -> fun p -> Oracle.sim_for ~limit p in
    let { Oracle.points; exhaustive } = Oracle.run (mk p) p in
    let checker_fails =
      if not exhaustive then [ fail "crash-state enumeration truncated" ]
      else
        List.filter_map
          (fun ce ->
            match List.find_opt (fun (pt : Oracle.point) -> pt.Oracle.index = ce.index) points with
            | None -> Some (fail "checker at event %d not evaluated by the oracle" ce.index)
            | Some pt ->
              if pt.Oracle.holds = ce.pass then None
              else
                Some
                  (fail "checker at event %d: enumeration says %s, test expects %s" ce.index
                     (if pt.Oracle.holds then "holds" else "violated")
                     (if ce.pass then "pass" else "FAIL")))
          t.checkers
    in
    let world = Oracle.explore_with (mk p) p in
    let state_fails =
      if not world.Oracle.exhaustive then [ fail "crash-state exploration truncated" ]
      else
        List.filter_map
          (fun sc ->
            let tbl =
              match sc.scope with Any -> world.Oracle.images | Final -> world.Oracle.final
            in
            let present =
              Hashtbl.fold
                (fun img () acc -> acc || matches_state sc.cells (Bytes.of_string img))
                tbl false
            in
            match (sc.expect, present) with
            | Allowed, false -> Some (fail "state %s is not reachable" (pp_state sc))
            | Forbidden, true -> Some (fail "state %s is reachable" (pp_state sc))
            | Allowed, true | Forbidden, false -> None)
          t.states
    in
    checker_fails @ state_fails
  end

(* Crashtest leg: the same expectations checked against the simulated
   device, crash-injected after every step. The device is exact for x86
   and CXL; eADR is exact once every store drains immediately (caches
   are in the persistence domain); for HOPS the device ignores epoch
   ordering and over-approximates the reachable set, so only allowed
   states (which the superset must contain) are conclusive there. *)
let crashtest_leg t =
  let fail fmt = Printf.ksprintf (fun message -> { leg = "crashtest"; message }) fmt in
  let p = program_of t in
  let exact = match t.model with Model.X86 | Model.Eadr | Model.Cxl -> true | Model.Hops -> false in
  let apply m (e : Event.t) ~payload =
    match e.Event.kind with
    | Event.Op (Model.Write { addr; size }) ->
      Machine.store m ~addr (Bytes.make size (payload ()));
      if t.model = Model.Eadr then Machine.dfence m
    | Event.Op (Model.Clwb { addr; size }) -> Machine.clwb m ~addr ~size
    | Event.Op Model.Sfence -> Machine.sfence m
    | Event.Op Model.Ofence -> Machine.ofence m
    | Event.Op (Model.Dfence | Model.Gpf) -> Machine.dfence m
    | _ -> ()
  in
  let machine = Machine.create ~track_versions:true ~size:p.Gen.pm_size () in
  let states = Array.of_list t.states in
  let seen = Array.make (Array.length states) false in
  let steps = Array.length t.events in
  let cur = ref (-1) in
  let counter = ref 0 in
  let payload () =
    let v = Char.chr ((!counter mod 250) + 1) in
    incr counter;
    v
  in
  let step i =
    cur := i;
    apply machine t.events.(i) ~payload
  in
  let recover img =
    let bad = ref None in
    Array.iteri
      (fun i sc ->
        let in_scope = match sc.scope with Any -> true | Final -> !cur = steps - 1 in
        if in_scope && matches_state sc.cells img then begin
          seen.(i) <- true;
          if sc.expect = Forbidden && exact && !bad = None then
            bad := Some (Printf.sprintf "state %s generated by the device" (pp_state sc))
        end)
      states;
    match !bad with None -> Ok () | Some m -> Error m
  in
  let config =
    { Crashtest.samples_per_point = 256; exhaustive_limit = 1 lsl 16; seed = 7; max_failures = 16 }
  in
  let verdict = Crashtest.run ~config ~machine ~recover ~steps ~step () in
  let forbidden_fails =
    List.sort_uniq compare
      (List.map (fun (f : Crashtest.failure) -> f.Crashtest.message) verdict.Crashtest.failures)
    |> List.map (fun message -> { leg = "crashtest"; message })
  in
  let allowed_fails =
    Array.to_list
      (Array.mapi
         (fun i sc ->
           if sc.expect = Allowed && not seen.(i) then
             Some (fail "state %s never generated by the device" (pp_state sc))
           else None)
         states)
    |> List.filter_map Fun.id
  in
  forbidden_fails @ allowed_fails

let run_test ?sim t =
  { test = t; failures = engine_leg t @ oracle_leg ?sim t @ crashtest_leg t }

(* Name + per-leg failure messages, nothing wall-clock-dependent: farm
   job attempts over the same test slice must digest identically. *)
let outcomes_digest outcomes =
  let b = Buffer.create 256 in
  List.iter
    (fun o ->
      Printf.bprintf b "%s %s\n" o.test.name (if passed o then "pass" else "FAIL");
      List.iter (fun f -> Printf.bprintf b "  %s: %s\n" f.leg f.message) o.failures)
    outcomes;
  Digest.to_hex (Digest.string (Buffer.contents b))
