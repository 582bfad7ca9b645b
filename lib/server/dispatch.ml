module Model = Pmtest_model.Model
module Wire = Pmtest_wire.Wire

type 'a frame =
  | Hello of Model.kind
  | Prelude of 'a
  | Section of 'a
  | Get_result
  | Bye
  | Other of Wire.kind
  | Bad of string

type 'a action =
  | Ack of int * Model.kind
  | Set_prelude of int * 'a
  | Check of { sid : int; section : 'a; depth : int }
  | Shed of int * 'a
  | Reply of int
  | Close of int * string option

type 'a session = {
  held : 'a frame Queue.t;  (* received, not yet acted on *)
  mutable live : bool;  (* past an admitted [Hello] *)
  mutable inflight : int;
  mutable since : float;  (* start of the idle clock *)
}

type 'a t = {
  max_inflight : int;
  policy : Wire.policy;
  idle_timeout : float;
  admit : unit -> string option;
  sessions : (int, 'a session) Hashtbl.t;
  mutable stopping : bool;
}

let create ~max_inflight ~policy ~idle_timeout ~admit =
  { max_inflight; policy; idle_timeout; admit; sessions = Hashtbl.create 16; stopping = false }

let least_loaded pins =
  let best = ref 0 in
  Array.iteri (fun i n -> if n < pins.(!best) then best := i) pins;
  !best

let blocked t s = t.policy = Wire.Block && s.inflight >= t.max_inflight

(* Waiting on its client, not on the daemon: only then is a session read
   and its idle clock running. *)
let waiting t s = Queue.is_empty s.held && not (blocked t s)

let kind_name = function
  | Hello _ -> "hello"
  | Prelude _ -> "prelude"
  | Section _ -> "section"
  | Get_result -> "get-result"
  | Bye -> "bye"
  | Other k -> Wire.kind_name k
  | Bad _ -> "err"

(* Act on held frames in arrival order until one has to wait. *)
let rec pump t sid s acc =
  let next a =
    ignore (Queue.pop s.held);
    pump t sid s (a :: acc)
  in
  let close msg =
    Hashtbl.remove t.sessions sid;
    List.rev (Close (sid, msg) :: acc)
  in
  match Queue.peek_opt s.held with
  | None -> if t.stopping then close None else List.rev acc
  | Some (Hello model) when not s.live -> (
    match t.admit () with
    | Some why -> close (Some why)
    | None ->
      s.live <- true;
      next (Ack (sid, model)))
  | Some Bye -> close None
  | Some (Bad msg) -> close (Some msg)
  | Some f when not s.live -> close (Some ("expected hello, got " ^ kind_name f))
  | Some (Prelude p) -> next (Set_prelude (sid, p))
  | Some (Section p) when s.inflight < t.max_inflight ->
    s.inflight <- s.inflight + 1;
    next (Check { sid; section = p; depth = s.inflight })
  | Some (Section p) -> if t.policy = Wire.Shed then next (Shed (sid, p)) else List.rev acc
  | Some Get_result -> if s.inflight = 0 then next (Reply sid) else List.rev acc
  | Some f -> close (Some (Printf.sprintf "unexpected %s frame" (kind_name f)))

let transition t sid ~now f =
  match Hashtbl.find_opt t.sessions sid with
  | None -> []
  | Some s ->
    (* A session the daemon held up gets a full idle period from the
       moment it waits on its client again. *)
    if not (waiting t s) then s.since <- now;
    f s;
    pump t sid s []

let connect t sid ~now =
  Hashtbl.replace t.sessions sid
    { held = Queue.create (); live = false; inflight = 0; since = now };
  transition t sid ~now ignore

let frames t sid ~now fs =
  transition t sid ~now (fun s ->
      if fs <> [] then s.since <- now;
      List.iter (fun f -> Queue.push f s.held) fs)

let completed t sid ~now = transition t sid ~now (fun s -> s.inflight <- s.inflight - 1)

let hangup t sid =
  let known = Hashtbl.mem t.sessions sid in
  Hashtbl.remove t.sessions sid;
  if known then [ Close (sid, None) ] else []

let sids t p =
  List.sort compare (Hashtbl.fold (fun sid s l -> if p s then sid :: l else l) t.sessions [])

let expired t ~now s = t.idle_timeout > 0. && waiting t s && now >= s.since +. t.idle_timeout

let tick t ~now =
  List.map
    (fun sid ->
      let s = Hashtbl.find t.sessions sid in
      Hashtbl.remove t.sessions sid;
      Close (sid, if s.live then Some "idle timeout exceeded" else None))
    (sids t (expired t ~now))

let stop t =
  t.stopping <- true;
  List.concat_map (fun sid -> pump t sid (Hashtbl.find t.sessions sid) []) (sids t (fun _ -> true))

(* After [stop] a waiting session is closed at once, so none is read. *)
let readable t sid =
  match Hashtbl.find_opt t.sessions sid with Some s -> waiting t s | None -> false

(* A blocked session is woken when half its window is free, not at the
   first free slot: one wake refills many sections, and the checkers
   still have the other half queued meanwhile. *)
let needed t =
  let need s =
    match Queue.peek_opt s.held with
    | Some Get_result -> s.inflight
    | _ -> s.inflight - (t.max_inflight / 2)
  in
  let fewest _ s n = if waiting t s then n else if n = 0 then need s else min n (need s) in
  Hashtbl.fold fewest t.sessions 0

let next_deadline t =
  let due _ s d = if waiting t s then Float.min d (s.since +. t.idle_timeout) else d in
  let d = Hashtbl.fold due t.sessions infinity in
  if t.idle_timeout <= 0. || d = infinity then None else Some d

let sessions t = Hashtbl.length t.sessions
