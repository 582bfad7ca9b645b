let get_i64 m off =
  let b = Machine.load m ~addr:off ~len:8 in
  Bytes.get_int64_le b 0

let set_i64 m off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Machine.store m ~addr:off b

let get_int m off = Int64.to_int (get_i64 m off)
let set_int m off v = set_i64 m off (Int64.of_int v)

let get_u8 m off = Char.code (Bytes.get (Machine.load m ~addr:off ~len:1) 0)

let set_u8 m off v =
  Machine.store m ~addr:off (Bytes.make 1 (Char.chr (v land 0xff)))

let get_bytes m off len = Machine.load m ~addr:off ~len

let get_string m off len =
  let b = get_bytes m off len in
  let rec trimmed i = if i > 0 && Bytes.get b (i - 1) = '\000' then trimmed (i - 1) else i in
  Bytes.sub_string b 0 (trimmed len)

let set_string m off ~len s =
  let b = Bytes.make len '\000' in
  let n = min len (String.length s) in
  Bytes.blit_string s 0 b 0 n;
  Machine.store m ~addr:off b
