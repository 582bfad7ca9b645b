(* Spans for the traced run: name ([layer.fn]), start and end on the
   monotonic clock, the enclosing span and a session id.  Spans nest by a
   stack, so a span's children are disjoint and its self time is its
   duration minus theirs.  Everything stays in memory until
   {!write_chrome}.  A disabled recorder ({!off}) does nothing, so the
   untraced run pays one branch per call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span. *)
  session : int;
  name : string;
  t0 : int64;
  mutable t1 : int64;
}

type t = {
  on : bool;
  mutable spans : span list;  (** Newest first. *)
  mutable next : int;
  mutable stack : span list;
  mutable session : int;
}

let now () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9
let off = { on = false; spans = []; next = 0; stack = []; session = 0 }
let create () = { on = true; spans = []; next = 0; stack = []; session = 0 }

let set_session t k = if t.on then t.session <- k

let push t name ~t0 =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = t.next; parent; session = t.session; name; t0; t1 = t0 } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let enter t name = if t.on then t.stack <- push t name ~t0:(now ()) :: t.stack

let leave t =
  if t.on then
    match t.stack with
    | s :: rest ->
      s.t1 <- now ();
      t.stack <- rest
    | [] -> invalid_arg "Span.leave: no open span"

let wrap t name f =
  enter t name;
  let r = f () in
  leave t;
  r

(* A span timed elsewhere — on another thread, or by a measurement that
   already read the clock — placed under the currently open span.  Such
   spans may overlap their siblings, which the self times then
   undercount. *)
let record t name ~t0 ~t1 = if t.on then (push t name ~t0).t1 <- t1

let duration_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Self time per span name, summed over the spans [keep] selects. *)
let self_ns ?(keep = fun _ -> true) t =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if keep s then begin
        let self = duration_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id) in
        Hashtbl.replace by_name s.name
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name))
      end)
    t.spans;
  by_name

let spans t = List.rev t.spans

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly.  [metadata] rides along
   under its own key; both viewers ignore keys they do not know. *)
let write_chrome t ~path ~metadata =
  let all = spans t in
  let base = match all with s :: _ -> s.t0 | [] -> 0L in
  let us x = Int64.to_float (Int64.sub x base) /. 1e3 in
  let event s =
    let cat =
      match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name
    in
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str cat);
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.t0));
        ("dur", Json.Num (duration_ns s /. 1e3));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.session));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("session", Json.Num (float_of_int s.session));
            ] );
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.Arr (List.map event all));
        ("displayTimeUnit", Json.Str "ms");
        ("metadata", metadata);
      ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Json.to_string doc))
