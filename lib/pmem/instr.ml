open Pmtest_util
open Pmtest_trace

type t = { machine : Machine.t; sink : Sink.t; file : string }

let make ~machine ~sink ~file = { machine; sink; file }
let machine t = t.machine
let sink t = t.sink
let loc t line = Loc.make ~file:t.file ~line

let emit_write t ~line ~addr ~size = Sink.write t.sink ~loc:(loc t line) ~addr ~size ()

let store_bytes t ~line ~addr b =
  Machine.store t.machine ~addr b;
  emit_write t ~line ~addr ~size:(Bytes.length b)

let store_i64 t ~line ~addr v =
  Access.set_i64 t.machine addr v;
  emit_write t ~line ~addr ~size:8

let store_int t ~line ~addr v = store_i64 t ~line ~addr (Int64.of_int v)

let store_u8 t ~line ~addr v =
  Access.set_u8 t.machine addr v;
  emit_write t ~line ~addr ~size:1

let store_string t ~line ~addr ~len s =
  Access.set_string t.machine addr ~len s;
  emit_write t ~line ~addr ~size:len

let load_i64 t ~addr = Access.get_i64 t.machine addr
let load_int t ~addr = Access.get_int t.machine addr
let load_u8 t ~addr = Access.get_u8 t.machine addr
let load_bytes t ~addr ~len = Access.get_bytes t.machine addr len
let load_string t ~addr ~len = Access.get_string t.machine addr len

let clwb t ~line ~addr ~size =
  Machine.clwb t.machine ~addr ~size;
  Sink.clwb t.sink ~loc:(loc t line) ~addr ~size ()

let sfence t ~line =
  Machine.sfence t.machine;
  Sink.sfence t.sink ~loc:(loc t line) ()

let persist_barrier t ~line ~addr ~size =
  clwb t ~line ~addr ~size;
  sfence t ~line

let ofence t ~line =
  Machine.ofence t.machine;
  Sink.ofence t.sink ~loc:(loc t line) ()

let dfence t ~line =
  Machine.dfence t.machine;
  Sink.dfence t.sink ~loc:(loc t line) ()

let gpf t ~line =
  (* One simulated device stands in for the fabric: the global persist
     barrier drains everything pending, like a dfence at machine level. *)
  Machine.dfence t.machine;
  Sink.gpf t.sink ~loc:(loc t line) ()

let tx_event t ~line ev = Sink.emit t.sink ~loc:(loc t line) (Event.Tx ev)
let checker t ~line c = Sink.emit t.sink ~loc:(loc t line) (Event.Checker c)
let control t ~line c = Sink.emit t.sink ~loc:(loc t line) (Event.Control c)
