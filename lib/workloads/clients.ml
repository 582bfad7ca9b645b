open Pmtest_util

type kv_op = Get of int64 | Set of int64 * string

type fs_op =
  | Create of string
  | Write of { name : string; off : int; data : string }
  | Read of { name : string; off : int; len : int }
  | Delete of string
  | Fsync of string

let value rng size =
  String.init size (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

let memslap ?(value_size = 32) ~ops ~keys rng =
  Array.init ops (fun _ ->
      let key = Int64.of_int (Rng.int rng keys) in
      if Rng.int rng 100 < 5 then Set (key, value rng value_size) else Get key)

let ycsb ?(value_size = 32) ?(theta = 0.9) ~ops ~keys rng =
  Array.init ops (fun _ ->
      let key = Int64.of_int (Rng.zipf rng ~n:keys ~theta) in
      if Rng.int rng 100 < 50 then Set (key, value rng value_size) else Get key)

let redis_lru ?(value_size = 32) ~ops ~keys rng =
  (* The LRU test mostly inserts fresh keys (forcing eviction) with
     occasional reads of recently used ones. *)
  Array.init ops (fun i ->
      if Rng.int rng 100 < 80 then
        Set (Int64.of_int (Rng.int rng keys), value rng value_size)
      else
        let recent = max 0 (i - 1 - Rng.int rng 16) in
        Get (Int64.of_int (recent mod keys)))

let file_name i = Printf.sprintf "f%04d" i

let filebench ?(io_size = 256) ~ops ~files rng =
  (* File-server flavour: whole-file writes and reads with some churn. *)
  let exists = Array.make files false in
  Array.init ops (fun _ ->
      let f = Rng.int rng files in
      let name = file_name f in
      if not exists.(f) then begin
        exists.(f) <- true;
        Create name
      end
      else
        match Rng.int rng 10 with
        | 0 ->
          exists.(f) <- false;
          Delete name
        | 1 | 2 | 3 -> Read { name; off = 0; len = io_size }
        | 4 -> Fsync name
        | _ -> Write { name; off = 0; data = value rng io_size })

let oltp ?(row_size = 64) ~ops ~tables ~rows_per_table rng =
  (* OLTP-complex flavour: row-granular updates at random offsets of a few
     large "table" files, with a commit fsync after each update. *)
  let table_name i = Printf.sprintf "tbl%02d" i in
  let created = Array.make tables false in
  let out = ref [] in
  let n = ref 0 in
  while !n < ops do
    let tbl = Rng.int rng tables in
    if not created.(tbl) then begin
      created.(tbl) <- true;
      out := Create (table_name tbl) :: !out;
      incr n
    end
    else begin
      let row = Rng.int rng rows_per_table in
      out := Write { name = table_name tbl; off = row * row_size; data = value rng row_size } :: !out;
      incr n;
      if !n < ops then begin
        out := Fsync (table_name tbl) :: !out;
        incr n
      end
    end
  done;
  Array.of_list (List.rev !out)
