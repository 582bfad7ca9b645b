(* Layout.
   Root object (24 B): [0]=nbuckets  [8]=count  [16]=buckets array offset.
   Bucket array: nbuckets slots of 8 B, each the offset of the first entry.
   Entry (32 B): [0]=key  [8]=next  [16]=val_off  [24]=val_len. *)

type t = { pool : Pool.t; root : int; nbuckets : int; buckets : int }
type bug = Skip_log_bucket | Skip_log_count | Duplicate_log | No_commit

let entry_size = 32

let pool t = t.pool
let root_off t = t.root

let hash t key =
  (* Int64.to_int truncates to 63 bits, so mask AFTER the conversion to
     keep the result non-negative. *)
  let h = Int64.to_int (Int64.mul key 0x9E3779B97F4A7C15L) land max_int in
  h mod t.nbuckets

let create ?(buckets = 1024) pool =
  let root = Pool.alloc pool 24 in
  let arr = Pool.alloc pool (8 * buckets) in
  Pool.set_root pool root;
  Pool.store_int ~line:500 pool ~off:root buckets;
  Pool.store_int ~line:501 pool ~off:(root + 8) 0;
  Pool.store_int ~line:502 pool ~off:(root + 16) arr;
  Pool.persist ~line:503 pool ~off:root ~size:24;
  { pool; root; nbuckets = buckets; buckets = arr }

let open_ pool ~root =
  let nbuckets = Pool.load_int pool ~off:root in
  let buckets = Pool.load_int pool ~off:(root + 16) in
  { pool; root; nbuckets; buckets }

let cardinal t = Pool.load_int t.pool ~off:(t.root + 8)

let bump_count ?bug t delta =
  if bug <> Some Skip_log_count then Pool.tx_add_once ~line:510 t.pool ~off:(t.root + 8) ~size:8;
  Pool.store_int ~line:511 t.pool ~off:(t.root + 8) (cardinal t + delta)

let slot_of t key = t.buckets + (8 * hash t key)
let entry_key t e = Pool.load_i64 t.pool ~off:e
let entry_next t e = Pool.load_int t.pool ~off:(e + 8)
let entry_val t e = (Pool.load_int t.pool ~off:(e + 16), Pool.load_int t.pool ~off:(e + 24))

let find_entry t key =
  let rec go e = if e = 0 then None else if entry_key t e = key then Some e else go (entry_next t e) in
  go (Pool.load_int t.pool ~off:(slot_of t key))

let insert ?bug t ~key ~value =
  Pool.tx_begin t.pool;
  (match find_entry t key with
  | Some e ->
    let old_off, old_len = entry_val t e in
    Pool.tx_add_once ~line:520 t.pool ~off:(e + 16) ~size:16;
    Pool.store_int ~line:521 t.pool ~off:(e + 16) (Value_block.write t.pool value);
    Pool.store_int ~line:522 t.pool ~off:(e + 24) (Bytes.length value);
    Value_block.free t.pool ~off:old_off ~len:old_len
  | None ->
    let slot = slot_of t key in
    let head = Pool.load_int t.pool ~off:slot in
    let e = Pool.alloc t.pool entry_size in
    Pool.store_i64 ~line:523 t.pool ~off:e key;
    Pool.store_int ~line:524 t.pool ~off:(e + 8) head;
    Pool.store_int ~line:525 t.pool ~off:(e + 16) (Value_block.write t.pool value);
    Pool.store_int ~line:526 t.pool ~off:(e + 24) (Bytes.length value);
    if bug <> Some Skip_log_bucket then Pool.tx_add_once ~line:527 t.pool ~off:slot ~size:8;
    if bug = Some Duplicate_log then Pool.tx_add ~line:528 t.pool ~off:slot ~size:8;
    Pool.store_int ~line:529 t.pool ~off:slot e;
    bump_count ?bug t 1);
  if bug = Some No_commit then () else Pool.tx_commit t.pool

let lookup t ~key =
  match find_entry t key with
  | None -> None
  | Some e ->
    let voff, vlen = entry_val t e in
    Some (Value_block.read t.pool ~off:voff ~len:vlen)

let remove t ~key =
  let slot = slot_of t key in
  let rec find_prev prev_slot e =
    if e = 0 then None
    else if entry_key t e = key then Some (prev_slot, e)
    else find_prev (e + 8) (entry_next t e)
  in
  match find_prev slot (Pool.load_int t.pool ~off:slot) with
  | None -> false
  | Some (prev_slot, e) ->
    Pool.tx t.pool (fun () ->
        let voff, vlen = entry_val t e in
        Pool.tx_add_once ~line:530 t.pool ~off:prev_slot ~size:8;
        Pool.store_int ~line:531 t.pool ~off:prev_slot (entry_next t e);
        Value_block.free t.pool ~off:voff ~len:vlen;
        Pool.free t.pool ~off:e ~size:entry_size;
        bump_count t (-1));
    true

let iter t f =
  for b = 0 to t.nbuckets - 1 do
    let rec go e =
      if e <> 0 then begin
        let voff, vlen = entry_val t e in
        f (entry_key t e) (Value_block.read t.pool ~off:voff ~len:vlen);
        go (entry_next t e)
      end
    in
    go (Pool.load_int t.pool ~off:(t.buckets + (8 * b)))
  done

let check_consistent t =
  let heap = Pool.heap_start t.pool in
  let size = Pmtest_pmem.Machine.size (Pool.machine t.pool) in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let reachable = ref 0 in
  for b = 0 to t.nbuckets - 1 do
    let rec go e steps =
      if steps > 1_000_000 then err "cycle suspected in bucket %d" b
      else if e <> 0 then begin
        if e < heap || e + entry_size > size then err "entry 0x%x outside heap" e
        else begin
          incr reachable;
          let k = entry_key t e in
          if hash t k <> b then err "key %Ld found in wrong bucket %d" k b;
          let voff, vlen = entry_val t e in
          if vlen < 0 || (vlen > 0 && (voff < heap || voff + vlen > size)) then
            err "entry 0x%x has bad value block" e;
          go (entry_next t e) (steps + 1)
        end
      end
    in
    go (Pool.load_int t.pool ~off:(t.buckets + (8 * b))) 0
  done;
  if !reachable <> cardinal t then
    err "count mismatch: %d reachable, count says %d" !reachable (cardinal t);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
