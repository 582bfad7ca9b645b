(* Collector internals: one Atomic per declared counter, one mutex for
   everything section-grained. Section hooks fire a handful of times per
   section (hundreds of entries), so a mutex there costs nothing next to
   the engine pass itself; counters (the per-event one included) stay
   lock-free. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type hist = {
  total : int;
  sum_ns : int;
  min_ns : int;
  max_ns : int;
  buckets : (int * int) list;
}

type worker_stat = { id : int; sections : int; busy_ns : int }
type shard_stat = { shard : int; shard_sessions : int; shard_sections : int }

type span = {
  seq : int;
  worker : int;
  entries : int;
  sent_ns : int;
  start_ns : int;
  done_ns : int;
  merged_ns : int;
}

type snapshot = {
  elapsed_ns : int;
  counters : (string * int) list;
  hists : (string * hist) list;
  workers : worker_stat list;
  shards : shard_stat list;
  spans : span list;
}

(* --- Registry ---------------------------------------------------------------- *)

(* A handle is its slot in every collector's arrays; names are kept
   newest-first. Collectors size their arrays at creation, hence the
   freeze. *)
type counter = int
type gauge = int
type histogram = int

let counter_names = ref []
let hist_names = ref []
let frozen = ref false

let declare names kind name =
  if !frozen then
    invalid_arg (Printf.sprintf "Obs.%s %S: declared after a collector was created" kind name);
  if name = "elapsed_ns" || List.mem name !names then
    invalid_arg (Printf.sprintf "Obs.%s %S: name already declared" kind name);
  names := name :: !names;
  List.length !names - 1

let counter name = declare counter_names "counter" name
let gauge name = declare counter_names "gauge" name
let histogram name = declare hist_names "histogram" name

(* Durations live in log2 buckets: bucket [i] holds [2^i, 2^(i+1)) ns,
   with 0 and 1 ns both in bucket 0. 63 buckets cover any OCaml int. *)
let n_buckets = 63

let bucket_of ns =
  if ns < 2 then 0
  else begin
    let i = ref 0 and v = ref ns in
    while !v > 1 do
      v := !v lsr 1;
      incr i
    done;
    Stdlib.min !i (n_buckets - 1)
  end

type hist_acc = {
  mutable h_total : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

let hist_acc () = { h_total = 0; h_sum = 0; h_min = 0; h_max = 0; h_buckets = Array.make n_buckets 0 }

let hist_add h ns =
  let ns = Stdlib.max 0 ns in
  if h.h_total = 0 || ns < h.h_min then h.h_min <- ns;
  if ns > h.h_max then h.h_max <- ns;
  h.h_total <- h.h_total + 1;
  h.h_sum <- h.h_sum + ns;
  let b = bucket_of ns in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_of_acc h =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
  done;
  { total = h.h_total; sum_ns = h.h_sum; min_ns = h.h_min; max_ns = h.h_max; buckets = !buckets }

(* --- Collector ---------------------------------------------------------------- *)

type pending = {
  p_entries : int;
  p_sent : int;
  mutable p_worker : int;
  mutable p_start : int;
  mutable p_done : int;
}

type t = {
  on : bool;
  max_spans : int;
  created : int;
  counts : int Atomic.t array;
  m : Mutex.t;
  (* Everything below is guarded by [m]. *)
  hists : hist_acc array;
  pending : (int, pending) Hashtbl.t;
  wstats : (int, int ref * int ref) Hashtbl.t;  (* id -> (sections, busy_ns) *)
  shstats : (int, int ref * int ref) Hashtbl.t;  (* shard -> (sessions, sections) *)
  spans : span Queue.t;
}

let make ~on ~max_spans =
  {
    on;
    max_spans;
    created = now_ns ();
    counts = Array.init (List.length !counter_names) (fun _ -> Atomic.make 0);
    m = Mutex.create ();
    hists = Array.init (List.length !hist_names) (fun _ -> hist_acc ());
    pending = Hashtbl.create 32;
    wstats = Hashtbl.create 8;
    shstats = Hashtbl.create 8;
    spans = Queue.create ();
  }

let disabled = make ~on:false ~max_spans:0

let create ?(max_spans = 1024) () =
  frozen := true;
  make ~on:true ~max_spans

let enabled t = t.on
let add t c n = if t.on then ignore (Atomic.fetch_and_add t.counts.(c) n)

let max t g v =
  if t.on then begin
    let a = t.counts.(g) in
    let rec raise_to () =
      let cur = Atomic.get a in
      if v > cur && not (Atomic.compare_and_set a cur v) then raise_to ()
    in
    raise_to ()
  end

let record t h ns = if t.on then Mutex.protect t.m (fun () -> hist_add t.hists.(h) ns)

(* --- Section spans ------------------------------------------------------------ *)

let events_traced = counter "events_traced"
let sections_sent = counter "sections_sent"
let sections_checked = counter "sections_checked"
let sections_merged = counter "sections_merged"
let sections_dropped = counter "sections_dropped"
let queue_hwm = gauge "queue_hwm"
let check_h = histogram "check"
let e2e_h = histogram "e2e"
let since t = now_ns () - t.created

let section_sent t ~seq ~entries =
  if t.on then begin
    add t sections_sent 1;
    Mutex.protect t.m (fun () ->
        Hashtbl.replace t.pending seq
          { p_entries = entries; p_sent = since t; p_worker = 0; p_start = 0; p_done = 0 })
  end

let check_started t ~seq ~worker =
  if t.on then
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.pending seq with
        | None -> ()
        | Some p ->
          p.p_worker <- worker;
          p.p_start <- since t)

(* A (sections, sessions-or-busy) pair per worker id or shard index. *)
let stat_refs tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
    let s = (ref 0, ref 0) in
    Hashtbl.replace tbl key s;
    s

let check_finished t ~seq =
  if t.on then
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.pending seq with
        | None -> ()
        | Some p ->
          p.p_done <- since t;
          add t sections_checked 1;
          let sections, busy = stat_refs t.wstats p.p_worker in
          incr sections;
          busy := !busy + (p.p_done - p.p_start);
          hist_add t.hists.(check_h) (p.p_done - p.p_start))

let section_merged t ~seq =
  if t.on then
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.pending seq with
        | None -> ()
        | Some p ->
          Hashtbl.remove t.pending seq;
          let merged_ns = since t in
          add t sections_merged 1;
          hist_add t.hists.(e2e_h) (merged_ns - p.p_sent);
          Queue.push
            {
              seq;
              worker = p.p_worker;
              entries = p.p_entries;
              sent_ns = p.p_sent;
              start_ns = p.p_start;
              done_ns = p.p_done;
              merged_ns;
            }
            t.spans;
          if Queue.length t.spans > t.max_spans then ignore (Queue.pop t.spans))

let sync_section t ~seq ~entries f =
  if not t.on then f ()
  else begin
    add t events_traced entries;
    section_sent t ~seq ~entries;
    max t queue_hwm 1;
    check_started t ~seq ~worker:0;
    let r = f () in
    check_finished t ~seq;
    section_merged t ~seq;
    r
  end

(* Per-shard admission/dispatch counters (the daemon's shards share one
   collector, so the scaling story — are sessions and sections actually
   spreading? — is visible in one snapshot). *)

let shard_session t ~shard =
  if t.on then Mutex.protect t.m (fun () -> incr (fst (stat_refs t.shstats shard)))

let shard_section t ~shard =
  if t.on then Mutex.protect t.m (fun () -> incr (snd (stat_refs t.shstats shard)))

(* --- Snapshots ----------------------------------------------------------------- *)

let snapshot t =
  let counter_names = List.rev !counter_names and hist_names = List.rev !hist_names in
  if not t.on then
    {
      elapsed_ns = 0;
      counters = List.map (fun n -> (n, 0)) counter_names;
      hists = List.map (fun n -> (n, hist_of_acc (hist_acc ()))) hist_names;
      workers = [];
      shards = [];
      spans = [];
    }
  else
    Mutex.protect t.m (fun () ->
        let table tbl f =
          List.sort compare (Hashtbl.fold (fun k (a, b) acc -> f k !a !b :: acc) tbl [])
        in
        {
          elapsed_ns = since t;
          counters = List.mapi (fun i n -> (n, Atomic.get t.counts.(i))) counter_names;
          hists = List.mapi (fun i n -> (n, hist_of_acc t.hists.(i))) hist_names;
          workers = table t.wstats (fun id sections busy_ns -> { id; sections; busy_ns });
          shards =
            table t.shstats (fun shard shard_sessions shard_sections ->
                { shard; shard_sessions; shard_sections });
          spans = List.of_seq (Queue.to_seq t.spans);
        })

let find s name = List.assoc_opt name s.counters

(* --- Pretty console sink ---------------------------------------------------- *)

let pp_dur ppf ns =
  if ns < 1_000 then Format.fprintf ppf "%dns" ns
  else if ns < 1_000_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then Format.fprintf ppf "%.1fms" (float_of_int ns /. 1e6)
  else Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)

let dur_to_string ns = Format.asprintf "%a" pp_dur ns

let pp_hist ppf (name, h) =
  Format.fprintf ppf "@,%s latency: %d sample(s), min %s, mean %s, max %s" name h.total
    (dur_to_string h.min_ns)
    (dur_to_string (h.sum_ns / h.total))
    (dur_to_string h.max_ns);
  let widest = List.fold_left (fun m (_, c) -> Stdlib.max m c) 1 h.buckets in
  List.iter
    (fun (i, count) ->
      let lo = if i = 0 then 0 else 1 lsl i in
      let hi = 1 lsl (i + 1) in
      let bar = String.make (Stdlib.max 1 (count * 24 / widest)) '#' in
      Format.fprintf ppf "@,  [%7s, %7s)  %-24s %d" (dur_to_string lo) (dur_to_string hi) bar
        count)
    h.buckets

(* Counters named [*_ns] are durations and print as such. *)
let pp ppf s =
  Format.fprintf ppf "@[<v>pipeline profile — %s elapsed" (dur_to_string s.elapsed_ns);
  let nonzero = List.filter (fun (_, v) -> v <> 0) s.counters in
  List.iter
    (fun (k, v) ->
      if String.ends_with ~suffix:"_ns" k then Format.fprintf ppf "@,%-24s %s" k (dur_to_string v)
      else Format.fprintf ppf "@,%-24s %d" k v)
    nonzero;
  let zeros = List.length s.counters - List.length nonzero in
  if zeros > 0 then Format.fprintf ppf "@,(%d other counter(s) at zero)" zeros;
  if s.shards <> [] then begin
    Format.fprintf ppf "@,shards (admission + dispatch spread):";
    List.iter
      (fun sh ->
        Format.fprintf ppf "@,  shard%-2d sessions %4d  sections %6d" sh.shard
          sh.shard_sessions sh.shard_sections)
      s.shards
  end;
  if s.workers <> [] then begin
    Format.fprintf ppf "@,workers (utilization = busy / elapsed):";
    List.iter
      (fun w ->
        let util =
          if s.elapsed_ns <= 0 then 0.0
          else 100.0 *. float_of_int w.busy_ns /. float_of_int s.elapsed_ns
        in
        Format.fprintf ppf "@,  w%-3d sections %6d  busy %8s  utilization %5.1f%%" w.id
          w.sections (dur_to_string w.busy_ns) util)
      s.workers
  end;
  List.iter (fun (_, h as nh) -> if h.total > 0 then pp_hist ppf nh) s.hists;
  if s.spans <> [] then
    Format.fprintf ppf "@,%d span(s) retained (full records in the TSV/JSON output)"
      (List.length s.spans);
  Format.fprintf ppf "@]"

(* --- TSV sink (round-trippable) --------------------------------------------- *)

let counter_fields s = ("elapsed_ns", s.elapsed_ns) :: s.counters

let to_tsv s =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  List.iter (fun (k, v) -> line "counter\t%s\t%d" k v) (counter_fields s);
  List.iter (fun w -> line "worker\t%d\t%d\t%d" w.id w.sections w.busy_ns) s.workers;
  List.iter
    (fun sh -> line "shard\t%d\t%d\t%d" sh.shard sh.shard_sessions sh.shard_sections)
    s.shards;
  List.iter
    (fun (name, h) ->
      line "hist\t%s\t%d\t%d\t%d\t%d" name h.total h.sum_ns h.min_ns h.max_ns;
      List.iter (fun (i, c) -> line "histbucket\t%s\t%d\t%d" name i c) h.buckets)
    s.hists;
  List.iter
    (fun sp ->
      line "span\t%d\t%d\t%d\t%d\t%d\t%d\t%d" sp.seq sp.worker sp.entries sp.sent_ns sp.start_ns
        sp.done_ns sp.merged_ns)
    s.spans;
  Buffer.contents b

(* Lines accumulate newest-first and are reversed once at the end. *)
let of_tsv text =
  let elapsed = ref None and counters = ref [] and hists = ref [] in
  let workers = ref [] and shards = ref [] and spans = ref [] in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  let ints l = List.map int_of_string l in
  List.iter
    (fun l ->
      if !err = None && String.trim l <> "" then
        match String.split_on_char '\t' l with
        | [ "counter"; k; v ] -> (
          match int_of_string_opt v with
          | None -> fail "bad counter value in %S" l
          | Some _ when List.mem_assoc k !counters || (k = "elapsed_ns" && !elapsed <> None) ->
            fail "repeated counter %S" k
          | Some v when k = "elapsed_ns" -> elapsed := Some v
          | Some v -> counters := (k, v) :: !counters)
        | "worker" :: rest -> (
          match ints rest with
          | [ id; sections; busy_ns ] -> workers := { id; sections; busy_ns } :: !workers
          | _ | (exception Failure _) -> fail "malformed worker line %S" l)
        | "shard" :: rest -> (
          match ints rest with
          | [ shard; shard_sessions; shard_sections ] ->
            shards := { shard; shard_sessions; shard_sections } :: !shards
          | _ | (exception Failure _) -> fail "malformed shard line %S" l)
        | "hist" :: name :: rest -> (
          match ints rest with
          | _ when List.mem_assoc name !hists -> fail "repeated histogram %S" name
          | [ total; sum_ns; min_ns; max_ns ] ->
            hists := (name, ref { total; sum_ns; min_ns; max_ns; buckets = [] }) :: !hists
          | _ | (exception Failure _) -> fail "malformed hist line %S" l)
        | "histbucket" :: name :: rest -> (
          match (ints rest, List.assoc_opt name !hists) with
          | [ i; c ], Some h -> h := { !h with buckets = !h.buckets @ [ (i, c) ] }
          | _, None -> fail "histbucket before its hist line: %S" l
          | _ | (exception Failure _) -> fail "malformed histbucket line %S" l)
        | "span" :: rest -> (
          match ints rest with
          | [ seq; worker; entries; sent_ns; start_ns; done_ns; merged_ns ] ->
            spans := { seq; worker; entries; sent_ns; start_ns; done_ns; merged_ns } :: !spans
          | _ | (exception Failure _) -> fail "malformed span line %S" l)
        | _ -> fail "unrecognized line %S" l)
    (String.split_on_char '\n' text);
  match !err with
  | Some m -> Error m
  | None ->
    Ok
      {
        elapsed_ns = Option.value !elapsed ~default:0;
        counters = List.rev !counters;
        hists = List.rev_map (fun (name, h) -> (name, !h)) !hists;
        workers = List.rev !workers;
        shards = List.rev !shards;
        spans = List.rev !spans;
      }

(* --- JSON-lines sink --------------------------------------------------------- *)

let to_jsonl s =
  let b = Buffer.create 1024 in
  let obj fields =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%S:%s" k v))
      fields;
    Buffer.add_string b "}\n"
  in
  let i n = string_of_int n in
  obj
    ((("type", "\"counters\"") :: List.map (fun (k, v) -> (k, i v)) (counter_fields s)));
  List.iter
    (fun w ->
      obj
        [
          ("type", "\"worker\""); ("id", i w.id); ("sections", i w.sections);
          ("busy_ns", i w.busy_ns);
        ])
    s.workers;
  List.iter
    (fun sh ->
      obj
        [
          ("type", "\"shard\""); ("shard", i sh.shard); ("sessions", i sh.shard_sessions);
          ("sections", i sh.shard_sections);
        ])
    s.shards;
  List.iter
    (fun (name, h) ->
      obj
        [
          ("type", "\"hist\"");
          ("name", Printf.sprintf "%S" name);
          ("total", i h.total);
          ("sum_ns", i h.sum_ns);
          ("min_ns", i h.min_ns);
          ("max_ns", i h.max_ns);
          ( "buckets",
            "["
            ^ String.concat ","
                (List.map (fun (bi, c) -> Printf.sprintf "[%d,%d]" bi c) h.buckets)
            ^ "]" );
        ])
    s.hists;
  List.iter
    (fun sp ->
      obj
        [
          ("type", "\"span\""); ("seq", i sp.seq); ("worker", i sp.worker);
          ("entries", i sp.entries); ("sent_ns", i sp.sent_ns); ("start_ns", i sp.start_ns);
          ("done_ns", i sp.done_ns); ("merged_ns", i sp.merged_ns);
        ])
    s.spans;
  Buffer.contents b
