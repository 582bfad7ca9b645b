open Pmtest_util
module Model = Pmtest_model.Model
module Obs = Pmtest_obs.Obs

(* Packed trace arena: events byte-encoded into one growable [Bytes]
   buffer instead of one heap block per entry.

   Wire layout per event: a 1-byte tag, then zigzag-LEB128 varints for
   the thread id, an arena-local location id, and the tag's arguments
   (lint controls carry a length-prefixed rule string).  Locations are
   interned per arena — the common case of a tight instrumentation loop
   re-emitting the same callsite is a single pointer comparison — so a
   steady-state op costs a handful of byte stores and no allocation.

   Decoding goes through a reusable mutable {!view}: the cursor loop in
   [Engine.check_packed] reads straight out of the buffer and never
   materialises an [Event.t].  Each arena has one internal read cursor
   ([rpos]), so interleaved decodes of the same arena from two threads
   are not supported (arenas are owned by one builder, then by one
   worker — never shared). *)

type tag =
  | T_write
  | T_clwb
  | T_sfence
  | T_ofence
  | T_dfence
  | T_is_persist
  | T_is_ordered
  | T_tx_begin
  | T_tx_add
  | T_tx_commit
  | T_tx_abort
  | T_tx_checker_start
  | T_tx_checker_end
  | T_exclude
  | T_include
  | T_lint_off
  | T_lint_on
  | T_gpf

let tag_of_code =
  [|
    T_write; T_clwb; T_sfence; T_ofence; T_dfence; T_is_persist; T_is_ordered; T_tx_begin;
    T_tx_add; T_tx_commit; T_tx_abort; T_tx_checker_start; T_tx_checker_end; T_exclude;
    T_include; T_lint_off; T_lint_on; T_gpf;
  |]

type t = {
  mutable buf : Bytes.t;
  mutable len : int;  (* bytes used *)
  mutable count : int;  (* events encoded *)
  mutable rpos : int;  (* internal read cursor (varint decoding) *)
  mutable scope_controls : int;  (* Exclude/Include events encoded *)
  locs : Loc.t Vec.t;  (* id -> location; id 0 is Loc.none *)
  (* line -> interned (loc, id) pairs with that line.  Keyed by the int
     so a miss never hashes the file string; the per-line list is almost
     always a singleton (different files sharing a line number). *)
  loc_ids : (int, (Loc.t * int) list) Hashtbl.t;
  (* Direct-mapped intern cache keyed by [line land (size-1)].  Call
     sites build a fresh [Loc.t] per event, so a single last-loc memo
     misses whenever two sites alternate; a per-line slot keeps the
     whole working set of an instrumentation loop hot without hashing
     the file string. *)
  memo_locs : Loc.t array;
  memo_ids : int array;
}

let memo_size = 32

let create ?(capacity = 256) () =
  let t =
    {
      buf = Bytes.create (max 16 capacity);
      len = 0;
      count = 0;
      rpos = 0;
      scope_controls = 0;
      locs = Vec.create ();
      loc_ids = Hashtbl.create 32;
      memo_locs = Array.make memo_size Loc.none;
      memo_ids = Array.make memo_size 0;
    }
  in
  Vec.push t.locs Loc.none;
  t

(* The loc intern table deliberately survives reset: ids stay valid
   because [locs] is kept, and a recycled arena keeps the program's
   callsite working set interned instead of re-paying the hash-miss
   path on the first occurrence of every site in every section.  The
   table is bounded by the number of distinct callsites, like any
   string intern pool. *)
let reset t =
  t.len <- 0;
  t.count <- 0;
  t.rpos <- 0;
  t.scope_controls <- 0

let count t = t.count
let byte_length t = t.len
let is_empty t = t.count = 0
let has_scope_controls t = t.scope_controls > 0

(* --- Encoding ---------------------------------------------------------- *)

let ensure t n =
  if t.len + n > Bytes.length t.buf then begin
    let cap = ref (max 64 (2 * Bytes.length t.buf)) in
    while t.len + n > !cap do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.buf 0 b 0 t.len;
    t.buf <- b
  end

(* Zigzag so negative ints (legal in hand-built events) stay compact. *)
let[@inline] zigzag n = (n lsl 1) lxor (n asr 62)
let[@inline] unzigzag u = (u lsr 1) lxor (- (u land 1))

let rec put_u t u =
  if u < 0x80 then begin
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr u);
    t.len <- t.len + 1
  end
  else begin
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (u land 0x7f lor 0x80));
    t.len <- t.len + 1;
    put_u t (u lsr 7)
  end

(* Callers run [ensure] for the whole event up front (see [hdr]), so the
   varint writer itself skips the bounds check. *)
let[@inline] put_varint_unsafe t n = put_u t (zigzag n)

let intern_slow t (loc : Loc.t) =
  let entries = match Hashtbl.find t.loc_ids loc.Loc.line with e -> e | exception Not_found -> [] in
  let rec find = function
    | [] ->
      let id = Vec.length t.locs in
      Vec.push t.locs loc;
      Hashtbl.replace t.loc_ids loc.Loc.line ((loc, id) :: entries);
      id
    | ((l : Loc.t), id) :: rest ->
      if l.Loc.file == loc.Loc.file || String.equal l.Loc.file loc.Loc.file then id
      else find rest
  in
  find entries

let intern t (loc : Loc.t) =
  let slot = loc.Loc.line land (memo_size - 1) in
  let m = Array.unsafe_get t.memo_locs slot in
  if loc == m || (loc.Loc.line = m.Loc.line && loc.Loc.file == m.Loc.file) then
    Array.unsafe_get t.memo_ids slot
  else begin
    let id = intern_slow t loc in
    Array.unsafe_set t.memo_locs slot loc;
    Array.unsafe_set t.memo_ids slot id;
    id
  end

(* Reserves room for the tag plus up to six varints (thread, loc and at
   most four args, 10 bytes each) so the per-event encode path does one
   bounds check total; arg writers below use the unsafe puts. *)
let hdr t code ~thread lid =
  ensure t 61;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr code);
  t.len <- t.len + 1;
  put_varint_unsafe t thread;
  put_varint_unsafe t lid

let fin t = t.count <- t.count + 1

let push_write t ~thread ~addr ~size loc =
  hdr t 0 ~thread (intern t loc);
  put_varint_unsafe t addr;
  put_varint_unsafe t size;
  fin t

let push_clwb t ~thread ~addr ~size loc =
  hdr t 1 ~thread (intern t loc);
  put_varint_unsafe t addr;
  put_varint_unsafe t size;
  fin t

let push_fence t ~thread op loc =
  let code =
    match op with Model.Sfence -> 2 | Model.Ofence -> 3 | Model.Gpf -> 17 | _ -> 4
  in
  hdr t code ~thread (intern t loc);
  fin t

let put_rule t rule =
  put_varint_unsafe t (String.length rule);
  ensure t (String.length rule);
  Bytes.blit_string rule 0 t.buf t.len (String.length rule);
  t.len <- t.len + String.length rule

let push t ~thread (kind : Event.kind) loc =
  (match kind with
  | Event.Op (Model.Write { addr; size }) ->
    hdr t 0 ~thread (intern t loc);
    put_varint_unsafe t addr;
    put_varint_unsafe t size
  | Event.Op (Model.Clwb { addr; size }) ->
    hdr t 1 ~thread (intern t loc);
    put_varint_unsafe t addr;
    put_varint_unsafe t size
  | Event.Op Model.Sfence -> hdr t 2 ~thread (intern t loc)
  | Event.Op Model.Ofence -> hdr t 3 ~thread (intern t loc)
  | Event.Op Model.Dfence -> hdr t 4 ~thread (intern t loc)
  | Event.Op Model.Gpf -> hdr t 17 ~thread (intern t loc)
  | Event.Checker (Event.Is_persist { addr; size }) ->
    hdr t 5 ~thread (intern t loc);
    put_varint_unsafe t addr;
    put_varint_unsafe t size
  | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
    hdr t 6 ~thread (intern t loc);
    put_varint_unsafe t a_addr;
    put_varint_unsafe t a_size;
    put_varint_unsafe t b_addr;
    put_varint_unsafe t b_size
  | Event.Tx Event.Tx_begin -> hdr t 7 ~thread (intern t loc)
  | Event.Tx (Event.Tx_add { addr; size }) ->
    hdr t 8 ~thread (intern t loc);
    put_varint_unsafe t addr;
    put_varint_unsafe t size
  | Event.Tx Event.Tx_commit -> hdr t 9 ~thread (intern t loc)
  | Event.Tx Event.Tx_abort -> hdr t 10 ~thread (intern t loc)
  | Event.Tx Event.Tx_checker_start -> hdr t 11 ~thread (intern t loc)
  | Event.Tx Event.Tx_checker_end -> hdr t 12 ~thread (intern t loc)
  | Event.Control (Event.Exclude { addr; size }) ->
    t.scope_controls <- t.scope_controls + 1;
    hdr t 13 ~thread (intern t loc);
    put_varint_unsafe t addr;
    put_varint_unsafe t size
  | Event.Control (Event.Include { addr; size }) ->
    t.scope_controls <- t.scope_controls + 1;
    hdr t 14 ~thread (intern t loc);
    put_varint_unsafe t addr;
    put_varint_unsafe t size
  | Event.Control (Event.Lint_off { rule }) ->
    hdr t 15 ~thread (intern t loc);
    put_rule t rule
  | Event.Control (Event.Lint_on { rule }) ->
    hdr t 16 ~thread (intern t loc);
    put_rule t rule);
  fin t

let push_event t (e : Event.t) = push t ~thread:e.Event.thread e.Event.kind e.Event.loc

(* --- Decoding ---------------------------------------------------------- *)

type view = {
  mutable tag : tag;
  mutable thread : int;
  mutable loc : Loc.t;
  mutable lid : int;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  mutable rule : string;
}

let make_view () =
  { tag = T_write; thread = 0; loc = Loc.none; lid = 0; a = 0; b = 0; c = 0; d = 0; rule = "" }

let rec read_u t p shift acc =
  let b = Char.code (Bytes.unsafe_get t.buf p) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 <> 0 then read_u t (p + 1) (shift + 7) acc
  else begin
    t.rpos <- p + 1;
    acc
  end

let read_int t =
  let u = read_u t t.rpos 0 0 in
  unzigzag u

let read t ~pos (v : view) =
  if pos >= t.len then invalid_arg "Packed.read: out of bounds";
  let code = Char.code (Bytes.unsafe_get t.buf pos) in
  t.rpos <- pos + 1;
  v.tag <- tag_of_code.(code);
  v.thread <- read_int t;
  let lid = read_int t in
  v.lid <- lid;
  v.loc <- Vec.get t.locs lid;
  (match v.tag with
  | T_write | T_clwb | T_is_persist | T_tx_add | T_exclude | T_include ->
    v.a <- read_int t;
    v.b <- read_int t
  | T_is_ordered ->
    v.a <- read_int t;
    v.b <- read_int t;
    v.c <- read_int t;
    v.d <- read_int t
  | T_lint_off | T_lint_on ->
    let n = read_int t in
    v.rule <- Bytes.sub_string t.buf t.rpos n;
    t.rpos <- t.rpos + n
  | _ -> ());
  t.rpos

let loc t lid = Vec.get t.locs lid

let kind_of_view v : Event.kind =
  match v.tag with
  | T_write -> Event.Op (Model.Write { addr = v.a; size = v.b })
  | T_clwb -> Event.Op (Model.Clwb { addr = v.a; size = v.b })
  | T_sfence -> Event.Op Model.Sfence
  | T_ofence -> Event.Op Model.Ofence
  | T_dfence -> Event.Op Model.Dfence
  | T_gpf -> Event.Op Model.Gpf
  | T_is_persist -> Event.Checker (Event.Is_persist { addr = v.a; size = v.b })
  | T_is_ordered ->
    Event.Checker
      (Event.Is_ordered_before { a_addr = v.a; a_size = v.b; b_addr = v.c; b_size = v.d })
  | T_tx_begin -> Event.Tx Event.Tx_begin
  | T_tx_add -> Event.Tx (Event.Tx_add { addr = v.a; size = v.b })
  | T_tx_commit -> Event.Tx Event.Tx_commit
  | T_tx_abort -> Event.Tx Event.Tx_abort
  | T_tx_checker_start -> Event.Tx Event.Tx_checker_start
  | T_tx_checker_end -> Event.Tx Event.Tx_checker_end
  | T_exclude -> Event.Control (Event.Exclude { addr = v.a; size = v.b })
  | T_include -> Event.Control (Event.Include { addr = v.a; size = v.b })
  | T_lint_off -> Event.Control (Event.Lint_off { rule = v.rule })
  | T_lint_on -> Event.Control (Event.Lint_on { rule = v.rule })

let event_of_view v : Event.t = { Event.kind = kind_of_view v; loc = v.loc; thread = v.thread }

let iter t f =
  let v = make_view () in
  let pos = ref 0 in
  while !pos < t.len do
    pos := read t ~pos:!pos v;
    f v
  done

let to_events t =
  if t.count = 0 then [||]
  else begin
    let out = Array.make t.count (event_of_view (make_view ())) in
    let v = make_view () in
    let pos = ref 0 and i = ref 0 in
    while !pos < t.len do
      pos := read t ~pos:!pos v;
      out.(!i) <- event_of_view v;
      incr i
    done;
    out
  end

let of_events evs =
  let t = create ~capacity:(16 * Array.length evs) () in
  Array.iter (push_event t) evs;
  t

(* --- Checked decoding and the wire form --------------------------------
   The hot cursor above trusts its input: it was encoded by this module
   in this process.  Arenas that arrive over a socket are hostile bytes;
   the checked reader walks the same layout with every bound verified
   and a typed error instead of an exception, so one corrupt frame is a
   session-level failure, never a dead worker. *)

type decode_error = { offset : int; reason : string }

let decode_error_to_string e = Printf.sprintf "byte %d: %s" e.offset e.reason

exception Bad of decode_error

let bad offset fmt = Printf.ksprintf (fun reason -> raise (Bad { offset; reason })) fmt

(* Bounds-checked varint at [p], from a field starting at [pos]: unlike
   [read_u] it never reads past [len] and rejects encodings longer than
   an OCaml int.  Leaves [rpos] after the field, as [read_u] does. *)
let rec read_u_checked t pos p shift acc =
  if p >= t.len then bad pos "truncated varint"
  else if shift > 63 then bad pos "varint too long"
  else begin
    let b = Char.code (Bytes.get t.buf p) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then read_u_checked t pos (p + 1) (shift + 7) acc
    else begin
      t.rpos <- p + 1;
      acc
    end
  end

let arg_checked t = unzigzag (read_u_checked t t.rpos t.rpos 0 0)

(* Every range needs a positive size: the shadow memory has no meaning
   for an empty one, and would refuse it inside a worker. *)
let size_checked t =
  let p = t.rpos in
  let n = arg_checked t in
  if n <= 0 then bad p "non-positive range size %d" n;
  n

(* The checked twin of [read]: raises [Bad] at the first malformed
   field.  Fields are stored as they are read, so after a failure the
   view is unspecified. *)
let read_checked t ~pos (v : view) =
  if pos < 0 || pos >= t.len then bad pos "event offset out of bounds";
  let code = Char.code (Bytes.get t.buf pos) in
  if code >= Array.length tag_of_code then bad pos "unknown tag 0x%02x" code;
  v.tag <- tag_of_code.(code);
  t.rpos <- pos + 1;
  v.thread <- arg_checked t;
  let lid = arg_checked t in
  if lid < 0 || lid >= Vec.length t.locs then bad t.rpos "location id %d out of range" lid;
  v.lid <- lid;
  v.loc <- Vec.get t.locs lid;
  (match v.tag with
  | T_write | T_clwb | T_is_persist | T_tx_add | T_exclude | T_include ->
    v.a <- arg_checked t;
    v.b <- size_checked t
  | T_is_ordered ->
    v.a <- arg_checked t;
    v.b <- size_checked t;
    v.c <- arg_checked t;
    v.d <- size_checked t
  | T_lint_off | T_lint_on ->
    let n = arg_checked t in
    let p = t.rpos in
    if n < 0 || n > t.len - p then bad p "rule string overruns the arena";
    v.rule <- Bytes.sub_string t.buf p n;
    t.rpos <- p + n
  | T_sfence | T_ofence | T_dfence | T_gpf | T_tx_begin | T_tx_commit | T_tx_abort
  | T_tx_checker_start | T_tx_checker_end ->
    ());
  t.rpos

let validate t =
  let v = make_view () in
  match
    let pos = ref 0 and n = ref 0 in
    while !pos < t.len do
      pos := read_checked t ~pos:!pos v;
      incr n
    done;
    !n
  with
  | n when n = t.count -> Ok ()
  | n ->
    Error
      {
        offset = t.len;
        reason = Printf.sprintf "event count mismatch: header says %d, decoded %d" t.count n;
      }
  | exception Bad e -> Error e

(* --- Arena freelists ----------------------------------------------------
   Sections retire at a steady rate (builder fills, worker drains), so a
   small pool keeps the hot loop at zero arena allocations.  Each pool is
   guarded by its own mutex: alloc runs on program threads, free on
   worker domains.  [default_pool] serves in-process sessions; the
   daemon gives every shard its own pool so arenas recycle shard-locally
   (decode on the shard's session readers, free on the shard's workers)
   with no cross-shard contention. *)

type pool = { mutable items : t list; mutable plen : int; pcap : int; pm : Mutex.t }

let create_pool ?(cap = 64) () = { items = []; plen = 0; pcap = max 0 cap; pm = Mutex.create () }
let default_pool = create_pool ()

(* Arenas handed out, and how many of them came off a freelist. *)
let arenas_allocated = Obs.counter "arenas_allocated"
let arenas_reused = Obs.counter "arenas_reused"

let alloc ?(obs = Obs.disabled) ?(pool = default_pool) () =
  let a =
    Mutex.protect pool.pm (fun () ->
        match pool.items with
        | p :: rest ->
          pool.items <- rest;
          pool.plen <- pool.plen - 1;
          Some p
        | [] -> None)
  in
  match a with
  | Some p ->
    if Obs.enabled obs then begin
      Obs.add obs arenas_allocated 1;
      Obs.add obs arenas_reused 1
    end;
    p
  | None ->
    if Obs.enabled obs then Obs.add obs arenas_allocated 1;
    create ()

let free ?(pool = default_pool) t =
  reset t;
  Mutex.protect pool.pm (fun () ->
      if pool.plen < pool.pcap then begin
        pool.items <- t :: pool.items;
        pool.plen <- pool.plen + 1
      end)

(* Builder-side recycling keeps the intern table (see [reset]); an arena
   reused for {e decoding} must not — decoded loc ids index the frame's
   own table, so the previous tenant's interned locations would alias
   them. *)
let reset_for_decode t =
  reset t;
  Vec.clear t.locs;
  Vec.push t.locs Loc.none;
  Hashtbl.reset t.loc_ids;
  Array.fill t.memo_locs 0 memo_size Loc.none;
  Array.fill t.memo_ids 0 memo_size 0


(* Self-contained byte form: the per-arena loc intern table travels in
   front of the event bytes, so the receiver can rebuild an equivalent
   arena without sharing this process's intern state.  Layout (unsigned
   LEB128 varints):

     nlocs, then for ids 1..nlocs-1: line, file length, file bytes
     event count, event byte length, event bytes (the arena buffer)

   Slot 0 is always [Loc.none] and is not transmitted. *)

let put_uv buf u =
  let rec go u =
    if u < 0x80 then Buffer.add_char buf (Char.unsafe_chr u)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (u land 0x7f lor 0x80));
      go (u lsr 7)
    end
  in
  if u < 0 then invalid_arg "Packed.encode_wire: negative length field";
  go u

let encode_wire t =
  let b = Buffer.create (t.len + 64) in
  put_uv b (Vec.length t.locs);
  for i = 1 to Vec.length t.locs - 1 do
    let l = Vec.get t.locs i in
    put_uv b l.Loc.line;
    put_uv b (String.length l.Loc.file);
    Buffer.add_string b l.Loc.file
  done;
  put_uv b t.count;
  put_uv b t.len;
  Buffer.add_subbytes b t.buf 0 t.len;
  Buffer.contents b

let decode_wire ?obs ?pool s =
  let slen = String.length s in
  let uv pos =
    let rec go p shift acc =
      if p >= slen then bad pos "truncated varint"
      else if shift > 63 then bad pos "varint too long"
      else begin
        let b = Char.code (String.unsafe_get s p) in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 <> 0 then go (p + 1) (shift + 7) acc else (acc, p + 1)
      end
    in
    go pos 0 0
  in
  try
    let nlocs, p = uv 0 in
    if nlocs < 1 then bad 0 "location table must include slot 0";
    let t =
      match pool with
      | None -> create ~capacity:16 ()
      | Some pool ->
        (* On a decode error the arena is dropped to the GC rather than
           returned — malformed frames end the whole session anyway. *)
        let t = alloc ?obs ~pool () in
        reset_for_decode t;
        t
    in
    let p = ref p in
    for _ = 1 to nlocs - 1 do
      let line, q = uv !p in
      if line < 0 then bad !p "negative location line";
      let flen, q = uv q in
      if flen < 0 || flen > slen - q then bad q "file name overruns the frame";
      Vec.push t.locs (Loc.make ~file:(String.sub s q flen) ~line);
      p := q + flen
    done;
    let count, q = uv !p in
    if count < 0 then bad !p "negative event count";
    let blen, q = uv q in
    if blen < 0 || blen <> slen - q then bad q "event bytes do not fill the frame";
    if Bytes.length t.buf < blen then t.buf <- Bytes.create blen;
    Bytes.blit_string s q t.buf 0 blen;
    t.len <- blen;
    t.count <- count;
    (match validate t with Ok () -> () | Error e -> raise (Bad e));
    (* Recount scope controls (the counter normally accrues at encode
       time) so [has_scope_controls] holds on received arenas too. *)
    let v = make_view () in
    let pos = ref 0 in
    while !pos < t.len do
      pos := read t ~pos:!pos v;
      match v.tag with
      | T_exclude | T_include -> t.scope_controls <- t.scope_controls + 1
      | _ -> ()
    done;
    Ok t
  with Bad e -> Error e
