open Pmtest_util
open Pmtest_model
open Pmtest_trace
open Pmtest_itree

module Obs = Pmtest_obs.Obs

type t = {
  runtime : Runtime.t;
  obs : Obs.t;
  packed : bool;
  builders : (int, Builder.t) Hashtbl.t;
  vars : (string, int * int) Hashtbl.t;
  mutex : Mutex.t;
  mutable tracking : bool;
  (* Exclusions outlive trace sections: the engine checks each section
     independently, so the active exclusion set is re-announced at the
     head of every section sent to the workers. *)
  mutable excluded : unit Interval_map.t;
  (* Called with every section handed to the runtime — how offline tools
     (the static lint, trace recorders) observe a live session. *)
  mutable observers : (Event.t array -> unit) list;
}

let init ?(model = Model.X86) ?(workers = 1) ?(obs = Obs.disabled) ?(packed = false) () =
  let t =
    {
      runtime = Runtime.create ~workers ~model ~obs ();
      obs;
      packed;
      builders = Hashtbl.create 8;
      vars = Hashtbl.create 16;
      mutex = Mutex.create ();
      tracking = true;
      excluded = Interval_map.empty;
      observers = [];
    }
  in
  Hashtbl.replace t.builders 0 (Builder.create ~thread:0 ~packed ~obs ());
  t

let model t = Runtime.model t.runtime
let worker_count t = Runtime.worker_count t.runtime
let obs t = t.obs
let packed t = t.packed

let builder t thread =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.builders thread with
      | Some b -> b
      | None ->
        let b = Builder.create ~thread ~packed:t.packed ~obs:t.obs () in
        Builder.set_enabled b t.tracking;
        Hashtbl.replace t.builders thread b;
        b)

let thread_init t ~thread = ignore (builder t thread)

let start t =
  Mutex.protect t.mutex (fun () ->
      t.tracking <- true;
      Hashtbl.iter (fun _ b -> Builder.set_enabled b true) t.builders)

let stop t =
  Mutex.protect t.mutex (fun () ->
      t.tracking <- false;
      Hashtbl.iter (fun _ b -> Builder.set_enabled b false) t.builders)

let tracking t = t.tracking

let sink ?(thread = 0) t = Sink.observed t.obs (Builder.sink (builder t thread))

let emit ?(thread = 0) ?(loc = Loc.none) t kind =
  if Obs.enabled t.obs then Obs.add t.obs Obs.events_traced 1;
  Builder.emit (builder t thread) kind loc

let exclude ?thread ?loc t ~addr ~size =
  emit ?thread ?loc t (Event.Control (Event.Exclude { addr; size }))

let include_ ?thread ?loc t ~addr ~size =
  emit ?thread ?loc t (Event.Control (Event.Include { addr; size }))

let lint_off ?thread ?loc ?(rule = "*") t =
  emit ?thread ?loc t (Event.Control (Event.Lint_off { rule }))

let lint_on ?thread ?loc ?(rule = "*") t =
  emit ?thread ?loc t (Event.Control (Event.Lint_on { rule }))

let on_section t f = Mutex.protect t.mutex (fun () -> t.observers <- t.observers @ [ f ])

let reg_var t name ~addr ~size =
  Mutex.protect t.mutex (fun () -> Hashtbl.replace t.vars name (addr, size))

let unreg_var t name = Mutex.protect t.mutex (fun () -> Hashtbl.remove t.vars name)
let get_var t name = Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.vars name)

let note_control t = function
  | Event.Exclude { addr; size } ->
    t.excluded <- Interval_map.set t.excluded ~lo:addr ~hi:(addr + size) ()
  | Event.Include { addr; size } ->
    t.excluded <- Interval_map.clear t.excluded ~lo:addr ~hi:(addr + size)
  | Event.Lint_off _ | Event.Lint_on _ -> ()

let send_boxed t section ~preamble =
  let section =
    if preamble = [] then section else Array.append (Array.of_list preamble) section
  in
  List.iter (fun f -> f section) t.observers;
  Runtime.send_trace t.runtime section

(* The exclusion preamble plus the live-scope update, shared by both
   representations. Returns (preamble, observers are present). *)
let section_prologue t ~thread ~note =
  Mutex.protect t.mutex (fun () ->
      let preamble =
        List.rev
          (Interval_map.fold
             (fun lo hi () acc ->
               Event.make ~thread (Event.Control (Event.Exclude { addr = lo; size = hi - lo }))
               :: acc)
             t.excluded [])
      in
      (* Update the live exclusion set from this section's controls so
         the next section starts from the right scope. *)
      note ();
      (preamble, t.observers <> []))

let send_trace ?(thread = 0) t =
  let b = builder t thread in
  if Builder.is_packed b then begin
    let p = Builder.take_packed b in
    if Packed.count p > 0 then begin
      let note () =
        (* Only decode the section looking for scope controls when the
           builder actually recorded one — the common fast path skips
           the scan entirely. *)
        if Packed.has_scope_controls p then
          Packed.iter p (fun (v : Packed.view) ->
              match v.Packed.tag with
              | Packed.T_exclude ->
                t.excluded <-
                  Interval_map.set t.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b) ()
              | Packed.T_include ->
                t.excluded <-
                  Interval_map.clear t.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b)
              | _ -> ())
      in
      let preamble, have_observers = section_prologue t ~thread ~note in
      if not have_observers then
        (* An active exclusion scope rides along as a boxed prelude —
           the arena itself is never decoded. *)
        Runtime.send_packed t.runtime
          ~prelude:(if preamble = [] then [||] else Array.of_list preamble)
          p
      else begin
        (* Observers want the boxed shape; decode once and recycle the
           arena. *)
        let section = Packed.to_events p in
        Packed.free p;
        send_boxed t section ~preamble
      end
    end
    else begin
      Packed.free p;
      if Obs.enabled t.obs then Obs.add t.obs Obs.sections_dropped 1
    end
  end
  else begin
    let section = Builder.take b in
    if Array.length section > 0 then begin
      let preamble, _ =
        section_prologue t ~thread ~note:(fun () ->
            Array.iter
              (fun (e : Event.t) ->
                match e.Event.kind with Event.Control c -> note_control t c | _ -> ())
              section)
      in
      send_boxed t section ~preamble
    end
    else if Obs.enabled t.obs then Obs.add t.obs Obs.sections_dropped 1
  end

let get_result t = Runtime.get_result t.runtime
let section_length ?(thread = 0) t = Builder.length (builder t thread)

let is_persist ?thread ?loc t ~addr ~size =
  emit ?thread ?loc t (Event.Checker (Event.Is_persist { addr; size }))

let is_persist_var ?thread ?loc t name =
  match get_var t name with
  | None -> raise Not_found
  | Some (addr, size) -> is_persist ?thread ?loc t ~addr ~size

let is_ordered_before ?thread ?loc t ~a_addr ~a_size ~b_addr ~b_size =
  emit ?thread ?loc t (Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }))

let tx_checker_start ?thread ?loc t = emit ?thread ?loc t (Event.Tx Event.Tx_checker_start)
let tx_checker_end ?thread ?loc t = emit ?thread ?loc t (Event.Tx Event.Tx_checker_end)

let finish t =
  let threads =
    Mutex.protect t.mutex (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.builders [])
  in
  List.iter (fun thread -> send_trace ~thread t) threads;
  Runtime.shutdown t.runtime
