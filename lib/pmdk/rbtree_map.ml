(* CLRS red-black tree with a sentinel nil node.

   Node layout (64 B):
     [0]=key  [8]=val_off  [16]=val_len  [24]=color(0=black,1=red)
     [32]=parent  [40]=left  [48]=right

   Root object: [0]=nil offset, [8]=root node offset, [16]=count. *)

type t = { pool : Pool.t; root : int; nil : int }
type bug = Skip_log_fixup | Skip_log_insert | Duplicate_log

let node_size = 64
let black = 0
let red = 1

let pool t = t.pool
let root_off t = t.root

let get_key t n = Pool.load_i64 t.pool ~off:n
let set_key ?(line = 300) t n k = Pool.store_i64 ~line t.pool ~off:n k
let get_val t n = (Pool.load_int t.pool ~off:(n + 8), Pool.load_int t.pool ~off:(n + 16))

let set_val ?(line = 301) t n (voff, vlen) =
  Pool.store_int ~line t.pool ~off:(n + 8) voff;
  Pool.store_int ~line:(line + 1) t.pool ~off:(n + 16) vlen

let color t n = Pool.load_int t.pool ~off:(n + 24)
let set_color ?(line = 302) t n c = Pool.store_int ~line t.pool ~off:(n + 24) c
let parent t n = Pool.load_int t.pool ~off:(n + 32)
let set_parent ?(line = 303) t n p = Pool.store_int ~line t.pool ~off:(n + 32) p
let left t n = Pool.load_int t.pool ~off:(n + 40)
let set_left ?(line = 304) t n v = Pool.store_int ~line t.pool ~off:(n + 40) v
let right t n = Pool.load_int t.pool ~off:(n + 48)
let set_right ?(line = 305) t n v = Pool.store_int ~line t.pool ~off:(n + 48) v

let log_node ?(line = 310) t n = Pool.tx_add_once ~line t.pool ~off:n ~size:node_size
let log_root_slot ?(line = 311) t = Pool.tx_add_once ~line t.pool ~off:(t.root + 8) ~size:8

let tree_root t = Pool.load_int t.pool ~off:(t.root + 8)
let set_tree_root ?(line = 312) t n = Pool.store_int ~line t.pool ~off:(t.root + 8) n
let cardinal t = Pool.load_int t.pool ~off:(t.root + 16)

let bump_count t delta =
  Pool.tx_add_once ~line:313 t.pool ~off:(t.root + 16) ~size:8;
  Pool.store_int ~line:314 t.pool ~off:(t.root + 16) (cardinal t + delta)

let create pool =
  let root = Pool.alloc pool 24 in
  let nil = Pool.alloc pool node_size in
  Pool.set_root pool root;
  Pool.store_int ~line:320 pool ~off:root nil;
  Pool.store_int ~line:321 pool ~off:(root + 8) nil;
  Pool.store_int ~line:322 pool ~off:(root + 16) 0;
  Pool.store_int ~line:323 pool ~off:(nil + 24) black;
  Pool.store_int ~line:324 pool ~off:(nil + 32) nil;
  Pool.store_int ~line:325 pool ~off:(nil + 40) nil;
  Pool.store_int ~line:326 pool ~off:(nil + 48) nil;
  Pool.persist ~line:327 pool ~off:root ~size:24;
  (* Only bytes 24..56 of the sentinel were rewritten since allocation
     zeroed (and persisted) the block; flushing more would be redundant. *)
  Pool.persist ~line:328 pool ~off:(nil + 24) ~size:32;
  { pool; root; nil }

let open_ pool ~root = { pool; root; nil = Pool.load_int pool ~off:root }

(* Rotations. [log] is false only under the Skip_log_fixup bug — the
   historical rbtree_map.c:379 pattern. *)
let rotate_left ~log t x =
  let y = right t x in
  if log then begin
    log_node ~line:330 t x;
    log_node ~line:331 t y
  end;
  let yl = left t y in
  set_right ~line:332 t x yl;
  if yl <> t.nil then begin
    if log then log_node ~line:333 t yl;
    set_parent ~line:334 t yl x
  end;
  let xp = parent t x in
  set_parent ~line:335 t y xp;
  if xp = t.nil then begin
    if log then log_root_slot ~line:336 t;
    set_tree_root ~line:337 t y
  end
  else begin
    if log then log_node ~line:338 t xp;
    if left t xp = x then set_left ~line:339 t xp y else set_right ~line:340 t xp y
  end;
  set_left ~line:341 t y x;
  set_parent ~line:342 t x y

let rotate_right ~log t x =
  let y = left t x in
  if log then begin
    log_node ~line:350 t x;
    log_node ~line:351 t y
  end;
  let yr = right t y in
  set_left ~line:352 t x yr;
  if yr <> t.nil then begin
    if log then log_node ~line:353 t yr;
    set_parent ~line:354 t yr x
  end;
  let xp = parent t x in
  set_parent ~line:355 t y xp;
  if xp = t.nil then begin
    if log then log_root_slot ~line:356 t;
    set_tree_root ~line:357 t y
  end
  else begin
    if log then log_node ~line:358 t xp;
    if right t xp = x then set_right ~line:359 t xp y else set_left ~line:360 t xp y
  end;
  set_right ~line:361 t y x;
  set_parent ~line:362 t x y

let insert_fixup ?bug t z0 =
  let log = bug <> Some Skip_log_fixup in
  let z = ref z0 in
  while color t (parent t !z) = red do
    let zp = parent t !z in
    let zpp = parent t zp in
    if zp = left t zpp then begin
      let y = right t zpp in
      if color t y = red then begin
        log_node ~line:370 t zp;
        log_node ~line:371 t y;
        log_node ~line:372 t zpp;
        set_color ~line:373 t zp black;
        set_color ~line:374 t y black;
        set_color ~line:375 t zpp red;
        z := zpp
      end
      else begin
        if right t zp = !z then begin
          z := zp;
          rotate_left ~log t !z
        end;
        let zp = parent t !z in
        let zpp = parent t zp in
        if log then begin
          log_node ~line:376 t zp;
          log_node ~line:377 t zpp
        end;
        set_color ~line:378 t zp black;
        set_color ~line:379 t zpp red;
        rotate_right ~log t zpp
      end
    end
    else begin
      let y = left t zpp in
      if color t y = red then begin
        log_node ~line:380 t zp;
        log_node ~line:381 t y;
        log_node ~line:382 t zpp;
        set_color ~line:383 t zp black;
        set_color ~line:384 t y black;
        set_color ~line:385 t zpp red;
        z := zpp
      end
      else begin
        if left t zp = !z then begin
          z := zp;
          rotate_right ~log t !z
        end;
        let zp = parent t !z in
        let zpp = parent t zp in
        if log then begin
          log_node ~line:386 t zp;
          log_node ~line:387 t zpp
        end;
        set_color ~line:388 t zp black;
        set_color ~line:389 t zpp red;
        rotate_left ~log t zpp
      end
    end
  done;
  let r = tree_root t in
  if color t r = red then begin
    if log then log_node ~line:390 t r;
    set_color ~line:391 t r black
  end

let store_value t value = (Value_block.write t.pool value, Bytes.length value)

let replace_value t n value =
  let old_off, old_len = get_val t n in
  Pool.tx_add_once ~line:392 t.pool ~off:(n + 8) ~size:16;
  set_val ~line:393 t n (store_value t value);
  Value_block.free t.pool ~off:old_off ~len:old_len

let insert ?bug t ~key ~value =
  Pool.tx t.pool (fun () ->
      (* BST descent. *)
      let y = ref t.nil in
      let x = ref (tree_root t) in
      let existing = ref t.nil in
      while !x <> t.nil && !existing = t.nil do
        if get_key t !x = key then existing := !x
        else begin
          y := !x;
          x := if key < get_key t !x then left t !x else right t !x
        end
      done;
      if !existing <> t.nil then replace_value t !existing value
      else begin
        let z = Pool.alloc t.pool node_size in
        set_key ~line:400 t z key;
        set_val ~line:401 t z (store_value t value);
        set_color ~line:402 t z red;
        set_parent ~line:403 t z !y;
        set_left ~line:404 t z t.nil;
        set_right ~line:405 t z t.nil;
        if bug = Some Duplicate_log then Pool.tx_add ~line:406 t.pool ~off:z ~size:node_size;
        if !y = t.nil then begin
          log_root_slot ~line:407 t;
          set_tree_root ~line:408 t z
        end
        else begin
          if bug <> Some Skip_log_insert then log_node ~line:409 t !y;
          if key < get_key t !y then set_left ~line:410 t !y z else set_right ~line:411 t !y z
        end;
        insert_fixup ?bug t z;
        bump_count t 1
      end)

let find_node t key =
  let rec go x =
    if x = t.nil then t.nil
    else if get_key t x = key then x
    else go (if key < get_key t x then left t x else right t x)
  in
  go (tree_root t)

let lookup t ~key =
  let n = find_node t key in
  if n = t.nil then None
  else
    let voff, vlen = get_val t n in
    Some (Value_block.read t.pool ~off:voff ~len:vlen)

let minimum t x =
  let rec go x = if left t x = t.nil then x else go (left t x) in
  go x

(* Replace subtree rooted at [u] with the one rooted at [v]. *)
let transplant t u v =
  let up = parent t u in
  if up = t.nil then begin
    log_root_slot ~line:420 t;
    set_tree_root ~line:421 t v
  end
  else begin
    log_node ~line:422 t up;
    if u = left t up then set_left ~line:423 t up v else set_right ~line:424 t up v
  end;
  log_node ~line:425 t v;
  set_parent ~line:426 t v up

let delete_fixup t x0 =
  let x = ref x0 in
  while !x <> tree_root t && color t !x = black do
    let xp = parent t !x in
    if !x = left t xp then begin
      let w = ref (right t xp) in
      if color t !w = red then begin
        log_node ~line:430 t !w;
        log_node ~line:431 t xp;
        set_color ~line:432 t !w black;
        set_color ~line:433 t xp red;
        rotate_left ~log:true t xp;
        w := right t (parent t !x)
      end;
      if color t (left t !w) = black && color t (right t !w) = black then begin
        log_node ~line:434 t !w;
        set_color ~line:435 t !w red;
        x := parent t !x
      end
      else begin
        if color t (right t !w) = black then begin
          let wl = left t !w in
          log_node ~line:436 t wl;
          log_node ~line:437 t !w;
          set_color ~line:438 t wl black;
          set_color ~line:439 t !w red;
          rotate_right ~log:true t !w;
          w := right t (parent t !x)
        end;
        let xp = parent t !x in
        log_node ~line:440 t !w;
        log_node ~line:441 t xp;
        set_color ~line:442 t !w (color t xp);
        set_color ~line:443 t xp black;
        let wr = right t !w in
        if wr <> t.nil then begin
          log_node ~line:444 t wr;
          set_color ~line:445 t wr black
        end;
        rotate_left ~log:true t xp;
        x := tree_root t
      end
    end
    else begin
      let w = ref (left t xp) in
      if color t !w = red then begin
        log_node ~line:450 t !w;
        log_node ~line:451 t xp;
        set_color ~line:452 t !w black;
        set_color ~line:453 t xp red;
        rotate_right ~log:true t xp;
        w := left t (parent t !x)
      end;
      if color t (right t !w) = black && color t (left t !w) = black then begin
        log_node ~line:454 t !w;
        set_color ~line:455 t !w red;
        x := parent t !x
      end
      else begin
        if color t (left t !w) = black then begin
          let wr = right t !w in
          log_node ~line:456 t wr;
          log_node ~line:457 t !w;
          set_color ~line:458 t wr black;
          set_color ~line:459 t !w red;
          rotate_left ~log:true t !w;
          w := left t (parent t !x)
        end;
        let xp = parent t !x in
        log_node ~line:460 t !w;
        log_node ~line:461 t xp;
        set_color ~line:462 t !w (color t xp);
        set_color ~line:463 t xp black;
        let wl = left t !w in
        if wl <> t.nil then begin
          log_node ~line:464 t wl;
          set_color ~line:465 t wl black
        end;
        rotate_right ~log:true t xp;
        x := tree_root t
      end
    end
  done;
  if !x <> t.nil then begin
    log_node ~line:466 t !x;
    set_color ~line:467 t !x black
  end

let remove t ~key =
  let z = find_node t key in
  if z = t.nil then false
  else begin
    Pool.tx t.pool (fun () ->
        let voff, vlen = get_val t z in
        let y_original_color = ref (color t z) in
        let x = ref t.nil in
        if left t z = t.nil then begin
          x := right t z;
          transplant t z (right t z)
        end
        else if right t z = t.nil then begin
          x := left t z;
          transplant t z (left t z)
        end
        else begin
          let y = minimum t (right t z) in
          y_original_color := color t y;
          x := right t y;
          if parent t y = z then begin
            log_node ~line:470 t !x;
            set_parent ~line:471 t !x y
          end
          else begin
            transplant t y (right t y);
            log_node ~line:472 t y;
            set_right ~line:473 t y (right t z);
            log_node ~line:474 t (right t y);
            set_parent ~line:475 t (right t y) y
          end;
          transplant t z y;
          log_node ~line:476 t y;
          set_left ~line:477 t y (left t z);
          log_node ~line:478 t (left t y);
          set_parent ~line:479 t (left t y) y;
          set_color ~line:480 t y (color t z)
        end;
        if !y_original_color = black then delete_fixup t !x;
        Value_block.free t.pool ~off:voff ~len:vlen;
        Pool.free t.pool ~off:z ~size:node_size;
        bump_count t (-1));
    true
  end

let iter t f =
  let rec go n =
    if n <> t.nil then begin
      go (left t n);
      let voff, vlen = get_val t n in
      f (get_key t n) (Value_block.read t.pool ~off:voff ~len:vlen);
      go (right t n)
    end
  in
  go (tree_root t)

let check_consistent t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let count = ref 0 in
  (* Returns the black height of the subtree; -1 propagates failure. *)
  let rec go n ~lo ~hi =
    if n = t.nil then 1
    else begin
      incr count;
      let k = get_key t n in
      (match lo with Some l when k <= l -> err "key %Ld violates BST order" k | _ -> ());
      (match hi with Some h when k >= h -> err "key %Ld violates BST order" k | _ -> ());
      let l = left t n and r = right t n in
      if l <> t.nil && parent t l <> n then err "bad parent pointer below %Ld" k;
      if r <> t.nil && parent t r <> n then err "bad parent pointer below %Ld" k;
      if color t n = red && (color t l = red || color t r = red) then
        err "red node %Ld has a red child" k;
      let bl = go l ~lo ~hi:(Some k) in
      let br = go r ~lo:(Some k) ~hi in
      if bl <> br then err "black-height mismatch at %Ld (%d vs %d)" k bl br;
      bl + (if color t n = black then 1 else 0)
    end
  in
  let r = tree_root t in
  if r <> t.nil then begin
    if color t r <> black then err "root is red";
    ignore (go r ~lo:None ~hi:None)
  end;
  if !count <> cardinal t then
    err "count mismatch: %d nodes reachable, count says %d" !count (cardinal t);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
