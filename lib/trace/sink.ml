open Pmtest_util
module Model = Pmtest_model.Model

type t = { emit : Event.kind -> Loc.t -> unit }

let null = { emit = (fun _ _ -> ()) }


let observed obs t =
  (* Disabled observability must not cost an extra closure on the
     per-event hot path: hand the caller back the unwrapped sink. *)
  if not (Pmtest_obs.Obs.enabled obs) then t
  else { emit = (fun k loc -> Pmtest_obs.Obs.(add obs events_traced 1); t.emit k loc) }

let counting () =
  let n = ref 0 in
  ({ emit = (fun _ _ -> incr n) }, fun () -> !n)

let emit t ?(loc = Loc.none) kind = t.emit kind loc
let write t ?loc ~addr ~size () = emit t ?loc (Event.Op (Model.Write { addr; size }))
let clwb t ?loc ~addr ~size () = emit t ?loc (Event.Op (Model.Clwb { addr; size }))
let sfence t ?loc () = emit t ?loc (Event.Op Model.Sfence)
let ofence t ?loc () = emit t ?loc (Event.Op Model.Ofence)
let dfence t ?loc () = emit t ?loc (Event.Op Model.Dfence)
let gpf t ?loc () = emit t ?loc (Event.Op Model.Gpf)
