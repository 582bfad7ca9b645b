open Pmtest_util
open Pmtest_model
open Pmtest_trace
open Pmtest_itree

module Obs = Pmtest_obs.Obs

type target = {
  model : Model.kind;
  send : prelude:Event.t array -> Packed.t -> (unit, string) result;
  send_boxed : prelude:Event.t array -> Event.t array -> (unit, string) result;
  get_result : unit -> (Report.t, string) result;
  shutdown : unit -> (Report.t, string) result;
}

let local runtime =
  {
    model = Runtime.model runtime;
    send =
      (fun ~prelude p ->
        Runtime.send_packed ~prelude runtime p;
        Ok ());
    send_boxed =
      (fun ~prelude section ->
        Runtime.send_trace ~prelude runtime section;
        Ok ());
    get_result = (fun () -> Ok (Runtime.get_result runtime));
    shutdown = (fun () -> Ok (Runtime.shutdown runtime));
  }

type t = {
  target : target;
  obs : Obs.t;
  packed : bool;
  builders : (int, Builder.t) Hashtbl.t;
  vars : (string, int * int) Hashtbl.t;
  mutex : Mutex.t;
  mutable tracking : bool;
  (* Exclusions outlive trace sections: the engine checks each section
     independently, so the active exclusion set is re-announced as a
     preamble beside every section sent to the target. *)
  mutable excluded : unit Interval_map.t;
  (* The last preamble built and the thread it was built for, kept until
     the scope changes: a session with a steady scope sends every
     section the same array. *)
  mutable preamble : (int * Event.t array) option;
  (* Called with every section handed to the target — how offline tools
     (the static lint, trace recorders) observe a live session. *)
  mutable observers : (Event.t array -> unit) list;
  (* The target's first error (a remote transport can fail); later
     sections are still taken, so builders never grow unbounded. *)
  mutable error : string option;
  scan : Packed.view;  (* [note_scope]'s view of a boxed event *)
}

let over ?(obs = Obs.disabled) ?(packed = false) target =
  let t =
    {
      target;
      obs;
      packed;
      builders = Hashtbl.create 8;
      vars = Hashtbl.create 16;
      mutex = Mutex.create ();
      tracking = true;
      excluded = Interval_map.empty;
      preamble = None;
      observers = [];
      error = None;
      scan = Packed.make_view ();
    }
  in
  Hashtbl.replace t.builders 0 (Builder.create ~thread:0 ~packed ~obs ());
  t

let init ?(model = Model.X86) ?(workers = 1) ?(obs = Obs.disabled) ?packed () =
  over ~obs ?packed (local (Runtime.create ~workers ~model ~obs ()))

let model t = t.target.model
let obs t = t.obs

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

let set_tracking t on =
  Mutex.protect t.mutex (fun () ->
      t.tracking <- on;
      Hashtbl.iter (fun _ b -> Builder.set_enabled b on) t.builders)

let start t = set_tracking t true
let stop t = set_tracking t false

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

type section = Arena of Packed.t | Events of Event.t array

(* The live exclusion scope as [Exclude] controls, in address order.
   Caller holds [t.mutex]. *)
let preamble t ~thread =
  match t.preamble with
  | Some (th, a) when th = thread -> a
  | _ ->
    let a =
      Array.of_list
        (List.rev
           (Interval_map.fold
              (fun lo hi () acc ->
                Event.make ~thread (Event.Control (Event.Exclude { addr = lo; size = hi - lo }))
                :: acc)
              t.excluded []))
    in
    t.preamble <- Some (thread, a);
    a

let rescope t ~exclude addr size =
  let hi = addr + size in
  t.preamble <- None;
  t.excluded <-
    (if exclude then Interval_map.set t.excluded ~lo:addr ~hi ()
     else Interval_map.clear t.excluded ~lo:addr ~hi)

(* Apply a section's scope controls to the live exclusion set, so the
   next section starts from the right scope.  Both section forms are
   scanned as {!Packed.view}s: an arena is decoded only when its builder
   recorded a scope control, a boxed event is mapped by
   [Packed.set_view] into [t.scan].  Caller holds [t.mutex]. *)
let note_view t (v : Packed.view) =
  match v.Packed.tag with
  | Packed.T_exclude -> rescope t ~exclude:true v.Packed.a v.Packed.b
  | Packed.T_include -> rescope t ~exclude:false v.Packed.a v.Packed.b
  | _ -> ()

let note_scope t = function
  | Arena p -> if Packed.has_scope_controls p then Packed.iter p (note_view t)
  | Events a ->
    Array.iter
      (fun (e : Event.t) ->
        Packed.set_view t.scan ~lid:0 e.Event.kind;
        note_view t t.scan)
      a

let latch t = function
  | Ok () -> ()
  | Error msg -> Mutex.protect t.mutex (fun () -> if t.error = None then t.error <- Some msg)

let send_trace ?(thread = 0) t =
  let b = builder t thread in
  match if Builder.is_packed b then Arena (Builder.take_packed b) else Events (Builder.take b) with
  | Arena p when Packed.count p = 0 ->
    Packed.free p;
    if Obs.enabled t.obs then Obs.add t.obs Obs.sections_dropped 1
  | Events [||] -> if Obs.enabled t.obs then Obs.add t.obs Obs.sections_dropped 1
  | section ->
    (* The preamble is the scope {e before} this section's own controls. *)
    let prelude, observers =
      Mutex.protect t.mutex (fun () ->
          let prelude = preamble t ~thread in
          note_scope t section;
          (prelude, t.observers))
    in
    latch t
      (match (section, observers) with
      | Arena p, [] ->
        (* An active exclusion scope rides along as a prelude — the arena
           itself is never decoded. *)
        t.target.send ~prelude p
      | _ ->
        (* Observers want the boxed shape; decode once and recycle the
           arena.  They see the preamble at the section's head; the
           target gets it beside the section, uncopied. *)
        let events =
          match section with
          | Events a -> a
          | Arena p ->
            let a = Packed.to_events p in
            Packed.free p;
            a
        in
        (match observers with
        | [] -> ()
        | _ ->
          let seen = if Array.length prelude = 0 then events else Array.append prelude events in
          List.iter (fun f -> f seen) observers);
        t.target.send_boxed ~prelude events)

let ok_or_fail = function Ok r -> r | Error msg -> failwith msg
let get_result t = ok_or_fail (t.target.get_result ())
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

let finish_result t =
  let threads =
    Mutex.protect t.mutex (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.builders [])
  in
  List.iter (fun thread -> send_trace ~thread t) threads;
  match Mutex.protect t.mutex (fun () -> t.error) with
  | Some msg -> Error msg
  | None -> t.target.shutdown ()

let finish t = ok_or_fail (finish_result t)
