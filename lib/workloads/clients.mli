(** Load generators for the real-workload experiments (paper Table 4).

    Each generator produces a deterministic operation stream from a seeded
    RNG, mimicking the op mixes of the original clients:

    - {!memslap}: Memslap's default mix — 5% SET / 95% GET over a uniform
      key space;
    - {!ycsb}: YCSB workload A shape — 50% UPDATE / 50% READ with Zipfian
      key popularity;
    - {!redis_lru}: the redis-cli LRU test — SETs over a key space larger
      than the cache capacity plus GETs of recent keys;
    - {!filebench}: a Filebench-like file-server mix (create / write /
      read / delete);
    - {!oltp}: an OLTP-complex-like mix — small row updates in large
      table files followed by fsync. *)

open Pmtest_util

type kv_op = Get of int64 | Set of int64 * string

type fs_op =
  | Create of string
  | Write of { name : string; off : int; data : string }
  | Read of { name : string; off : int; len : int }
  | Delete of string
  | Fsync of string

val memslap : ?value_size:int -> ops:int -> keys:int -> Rng.t -> kv_op array
val ycsb : ?value_size:int -> ?theta:float -> ops:int -> keys:int -> Rng.t -> kv_op array
val redis_lru : ?value_size:int -> ops:int -> keys:int -> Rng.t -> kv_op array

val filebench : ?io_size:int -> ops:int -> files:int -> Rng.t -> fs_op array
val oltp : ?row_size:int -> ops:int -> tables:int -> rows_per_table:int -> Rng.t -> fs_op array

