open Pmtest_model
open Pmtest_trace

let with_kind (e : Event.t) kind = { e with Event.kind }

(* Candidate simplifications of one event, most aggressive first. *)
let simplify_event (e : Event.t) =
  let range_variants addr size mk =
    List.filter_map
      (fun (a, s) -> if (a, s) <> (addr, size) then Some (with_kind e (mk a s)) else None)
      [
        (0, 8);
        (0, size);
        (addr, 8);
        (addr / Model.cache_line * Model.cache_line, size);
        (addr, max 1 (size / 2));
        (addr / 2, size);
      ]
  in
  let thread_variant = if e.Event.thread <> 0 then [ { e with Event.thread = 0 } ] else [] in
  let kind_variants =
    match e.Event.kind with
    | Event.Op (Model.Write { addr; size }) ->
      range_variants addr size (fun addr size -> Event.Op (Model.Write { addr; size }))
    | Event.Op (Model.Clwb { addr; size }) ->
      range_variants addr size (fun addr size -> Event.Op (Model.Clwb { addr; size }))
    | Event.Checker (Event.Is_persist { addr; size }) ->
      range_variants addr size (fun addr size -> Event.Checker (Event.Is_persist { addr; size }))
    | Event.Tx (Event.Tx_add { addr; size }) ->
      range_variants addr size (fun addr size -> Event.Tx (Event.Tx_add { addr; size }))
    | Event.Control (Event.Exclude { addr; size }) ->
      range_variants addr size (fun addr size -> Event.Control (Event.Exclude { addr; size }))
    | Event.Control (Event.Include { addr; size }) ->
      range_variants addr size (fun addr size -> Event.Control (Event.Include { addr; size }))
    | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
      List.filter_map
        (fun (a_addr', a_size', b_addr', b_size') ->
          if (a_addr', a_size', b_addr', b_size') <> (a_addr, a_size, b_addr, b_size) then
            Some
              (with_kind e
                 (Event.Checker
                    (Event.Is_ordered_before
                       { a_addr = a_addr'; a_size = a_size'; b_addr = b_addr'; b_size = b_size' })))
          else None)
        [
          (a_addr, 8, b_addr, 8);
          (a_addr, max 1 (a_size / 2), b_addr, max 1 (b_size / 2));
        ]
    | _ -> []
  in
  thread_variant @ kind_variants

(* Strictly-decreasing measure so simplification cannot oscillate between
   variants (e.g. size 4 -> canonical 8 -> back). *)
let measure (e : Event.t) =
  let r =
    match e.Event.kind with
    | Event.Op (Model.Write { addr; size } | Model.Clwb { addr; size })
    | Event.Checker (Event.Is_persist { addr; size })
    | Event.Tx (Event.Tx_add { addr; size })
    | Event.Control (Event.Exclude { addr; size } | Event.Include { addr; size }) ->
      addr + size
    | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
      a_addr + a_size + b_addr + b_size
    | _ -> 0
  in
  r + e.Event.thread

let simplify ~pred events =
  let events = ref events in
  let changed = ref false in
  let i = ref 0 in
  while !i < Array.length !events do
    let progressed = ref true in
    while !progressed do
      progressed := false;
      List.iter
        (fun variant ->
          if (not !progressed) && measure variant < measure !events.(!i) then begin
            let candidate = Array.copy !events in
            candidate.(!i) <- variant;
            if pred candidate then begin
              events := candidate;
              changed := true;
              progressed := true
            end
          end)
        (simplify_event !events.(!i))
    done;
    incr i
  done;
  (!events, !changed)

let minimize ?(max_rounds = 8) ~pred events =
  if not (pred events) then
    invalid_arg "Shrink.minimize: predicate does not hold on the input";
  let events = ref events in
  let round = ref 0 in
  let continue = ref true in
  while !continue && !round < max_rounds do
    incr round;
    let e1, c1 = Pmtest_util.Ddmin.pass ~pred !events in
    let e2, c2 = simplify ~pred e1 in
    events := e2;
    continue := c1 || c2
  done;
  !events
