open Pmtest_trace
module Model = Pmtest_model.Model
module Machine = Pmtest_pmem.Machine

type outcome = {
  crash_points : int;
  states_tested : int;
  violations : int;
  first_violation : (int * bytes) option;
  exhaustive : bool;
}

let replay_op m = function
  | Model.Write { addr; size } ->
    (* The trace records address and size, not payload; replaying for the
       oracle uses the machine the program actually ran on, so [run]
       threads payloads through by re-executing against a scratch device:
       writes store a recognizable pattern derived from the trace position
       when no machine-coupled payload is available. This function is used
       by the tests through [Instrumented] programs whose stores were
       already applied; here we only reproduce dirtiness, so the durable
       images distinguish "old" from "new" bytes. *)
    Machine.store m ~addr (Bytes.make size '\xff')
  | Model.Clwb { addr; size } -> Machine.clwb m ~addr ~size
  | Model.Sfence -> Machine.sfence m
  | Model.Ofence -> Machine.ofence m
  | Model.Dfence -> Machine.dfence m
  (* A global persist barrier drains every host's pending persists —
     on a single simulated device that is the dfence's persist-all. *)
  | Model.Gpf -> Machine.dfence m

let replay m entries =
  Array.iter
    (fun (e : Event.t) -> match e.kind with Event.Op op -> replay_op m op | _ -> ())
    entries

let fresh_machine ~size = Machine.create ~track_versions:true ~size ()

let is_crash_point ~every_op (e : Event.t) =
  match e.Event.kind with
  | Event.Op op -> every_op || Model.is_fence op
  | _ -> false

let run ?(limit_per_point = 65536) ?(every_op = true) ~size ~check entries =
  let m = fresh_machine ~size in
  let crash_points = ref 0 in
  let states = ref 0 in
  let violations = ref 0 in
  let first_violation = ref None in
  let exhaustive = ref true in
  let test_point idx =
    incr crash_points;
    let ok =
      Machine.iter_crash_states ~limit:limit_per_point m (fun img ->
          incr states;
          if not (check img) then begin
            incr violations;
            if !first_violation = None then first_violation := Some (idx, Bytes.copy img)
          end)
    in
    if not ok then exhaustive := false
  in
  Array.iteri
    (fun idx (e : Event.t) ->
      (match e.Event.kind with Event.Op op -> replay_op m op | _ -> ());
      if is_crash_point ~every_op e then test_point idx)
    entries;
  test_point (Array.length entries);
  {
    crash_points = !crash_points;
    states_tested = !states;
    violations = !violations;
    first_violation = !first_violation;
    exhaustive = !exhaustive;
  }

let estimated_states ~size entries =
  (* One crash point after every operation, as [run] models by default. *)
  let m = fresh_machine ~size in
  let total = ref 0.0 in
  Array.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Op op ->
        replay_op m op;
        total := !total +. Machine.crash_state_count m
      | _ -> ())
    entries;
  total := !total +. Machine.crash_state_count m;
  !total

type live = {
  machine : Machine.t;
  check : bytes -> bool;
  limit_per_point : int;
  mutable l_crash_points : int;
  mutable l_states : int;
  mutable l_violations : int;
  mutable l_first : (int * bytes) option;
  mutable l_exhaustive : bool;
  mutable seq : int;
}

let live_test_point l =
  l.l_crash_points <- l.l_crash_points + 1;
  let ok =
    Machine.iter_crash_states ~limit:l.limit_per_point l.machine (fun img ->
        l.l_states <- l.l_states + 1;
        if not (l.check img) then begin
          l.l_violations <- l.l_violations + 1;
          if l.l_first = None then l.l_first <- Some (l.seq, Bytes.copy img)
        end)
  in
  if not ok then l.l_exhaustive <- false

let attach ?(limit_per_point = 65536) ~machine ~check () =
  if not (Machine.track_versions machine) then
    invalid_arg "Yat.attach: machine must be created with ~track_versions:true";
  let l =
    {
      machine;
      check;
      limit_per_point;
      l_crash_points = 0;
      l_states = 0;
      l_violations = 0;
      l_first = None;
      l_exhaustive = true;
      seq = 0;
    }
  in
  let emit kind _loc =
    l.seq <- l.seq + 1;
    match (kind : Event.kind) with
    | Event.Op _ ->
      (* The instrumented program applies the op to the machine before
         notifying the sink, so the machine state is current here; a crash
         is modelled after every operation — Yat's exhaustive discipline. *)
      live_test_point l
    | _ -> ()
  in
  (l, { Sink.emit })

let live_outcome l =
  live_test_point l;
  {
    crash_points = l.l_crash_points;
    states_tested = l.l_states;
    violations = l.l_violations;
    first_violation = l.l_first;
    exhaustive = l.l_exhaustive;
  }
