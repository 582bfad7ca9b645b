open Pmtest_util
module Model = Pmtest_model.Model
module Machine = Pmtest_pmem.Machine
module Sink = Pmtest_trace.Sink
module Event = Pmtest_trace.Event
module Fs = Pmtest_pmfs.Fs
module Nova = Pmtest_nova.Nova
module Crashtest = Pmtest_crashtest.Crashtest
module Names = Map.Make (String)
module Pages = Map.Make (Int)

type fs_kind = Pmfs | Nova

let fs_kind_name = function Pmfs -> "pmfs" | Nova -> "nova"

let fs_kind_of_string = function
  | "pmfs" -> Some Pmfs
  | "nova" -> Some Nova
  | _ -> None

type config = {
  fs : fs_kind;
  model : Model.kind;
  max_ops : int;
  fault : string option;
  boundary_filter : (int -> bool) option;
}

let default_config fs = { fs; model = Model.X86; max_ops = 10; fault = None; boundary_filter = None }

(* Past [exhaustive_limit] images a boundary is sampled
   [samples_per_boundary] times; a run stops after [max_failures]
   failures, and a campaign shrinks at most that many findings. *)
let samples_per_boundary = 12
let exhaustive_limit = 96
let max_failures = 4

(* --- Stats ------------------------------------------------------------------ *)

type failure = { op_index : int; boundary : int; message : string }

type stats = {
  ops : int;
  applied : int;
  boundaries : int;
  explored : int;
  images : int;
  recoveries : int;
  avoided : float;
  failures : failure list;
}

let zero_stats =
  {
    ops = 0;
    applied = 0;
    boundaries = 0;
    explored = 0;
    images = 0;
    recoveries = 0;
    avoided = 0.;
    failures = [];
  }

let add_stats a b =
  {
    ops = a.ops + b.ops;
    applied = a.applied + b.applied;
    boundaries = a.boundaries + b.boundaries;
    explored = a.explored + b.explored;
    images = a.images + b.images;
    recoveries = a.recoveries + b.recoveries;
    avoided = a.avoided +. b.avoided;
    failures = a.failures @ b.failures;
  }

let pruned_ratio st =
  let total = st.avoided +. float_of_int st.recoveries in
  if total <= 0. then 0. else st.avoided /. total

(* --- What each file system supplies ---------------------------------------- *)

(* Everything the one driver below needs from a file system. ['fs] is a
   live or recovered instance; ['c] is the committed-state model of one
   file's contents. The committed state of a run is a [Names] map from
   file name to ['c]. *)
type ('fs, 'c) impl = {
  faults : string list;  (** Canonical names of the seeded faults. *)
  fault_noun : string;  (** How [with_fault] names one in an error. *)
  workload : max_ops:int -> Workload.cfg;
  mkfs : config -> Sink.t -> 'fs;  (** Geometry and the seeded fault. *)
  machine : 'fs -> Machine.t;
  lookup : 'fs -> string -> int option;
  readdir : 'fs -> (string * int) list;
  create : 'fs -> string -> (unit, string) result;
  write : 'fs -> ino:int -> off:int -> len:int -> char -> (unit, string) result;
  unlink : 'fs -> string -> (unit, string) result;
  fsync : 'fs -> ino:int -> unit;
  empty : 'c;
  write_contents : 'c -> off:int -> len:int -> char -> 'c option;
      (** [None] when the file system refuses the write. *)
  file_exact : 'fs -> name:string -> ino:int -> 'c -> (unit, string) result;
  file_inflight :
    'fs -> name:string -> ino:int -> old:'c -> nw:'c -> off:int -> len:int -> (unit, string) result;
      (** The contents a crash may leave while the write [off]/[len]
          that turns [old] into [nw] is in flight. *)
  recover : Machine.t -> ('fs, string) result;  (** fsck plus mount. *)
}

type any_impl = Impl : ('fs, 'c) impl -> any_impl

(* [config.fault] resolved against a file system's fault table. *)
let seeded table config =
  Option.map
    (fun name ->
      match List.assoc_opt name table with
      | Some f -> f
      | None -> invalid_arg ("Crashfs.run_ops: unknown fault " ^ name))
    config.fault

let read_failed name e = Error (Printf.sprintf "file %s: read failed: %s" name e)

(* -- PMFS: a file is its bytes (holes read back as zeros). -- *)

let pmfs_faults =
  [
    ("journal-double-flush", Fs.Journal_double_flush);
    ("data-double-flush", Fs.Data_double_flush);
    ("flush-unmapped", Fs.Flush_unmapped);
    ("skip-journal-flush", Fs.Skip_journal_flush);
    ("skip-commit-fence", Fs.Skip_commit_fence);
    ("fsync-redundant-fence", Fs.Fsync_redundant_fence);
    ("empty-tx-fence", Fs.Empty_tx_fence);
    ("alloc-no-zero", Fs.Alloc_no_zero);
  ]

let pmfs_max_bytes = 12 * Fs.block_size

let pmfs_file_exact fs2 ~name ~ino want =
  let size = Fs.file_size fs2 ~ino in
  if size <> String.length want then
    Error (Printf.sprintf "file %s: size %d, committed state expects %d" name size (String.length want))
  else if size = 0 then Ok ()
  else
    match Fs.read fs2 ~ino ~off:0 ~len:size with
    | Error e -> read_failed name e
    | Ok got ->
      if got = want then Ok ()
      else Error (Printf.sprintf "file %s: contents differ from committed state" name)

(* The in-flight XIP write window: metadata (size, allocations) rolls
   back atomically with the journal, but data goes in place — bytes in
   the written range may be old or new, torn at any granularity. *)
let pmfs_file_inflight fs2 ~name ~ino ~old ~nw ~off ~len =
  let osz = String.length old and nsz = String.length nw in
  let size = Fs.file_size fs2 ~ino in
  if size = nsz && nsz <> osz then pmfs_file_exact fs2 ~name ~ino nw
  else if size <> osz then
    Error
      (Printf.sprintf "file %s: size %d, in-flight write allows only %d or %d" name size osz nsz)
  else if osz = 0 then Ok ()
  else
    match Fs.read fs2 ~ino ~off:0 ~len:osz with
    | Error e -> read_failed name e
    | Ok got ->
      let allowed i c = c = old.[i] || (i >= off && i < off + len && c = nw.[i]) in
      let rec first i =
        if i = String.length got then Ok ()
        else if allowed i got.[i] then first (i + 1)
        else
          Error (Printf.sprintf "file %s: byte %d is neither the old nor the in-flight value" name i)
      in
      first 0

let pmfs =
  {
    faults = List.map fst pmfs_faults;
    fault_noun = "pmfs fault";
    workload = Workload.pmfs_cfg;
    mkfs =
      (fun config sink ->
        let fs =
          Fs.mkfs ~track_versions:true ~inodes:8
            ~blocks:((4 * config.max_ops) + 8)
            ~journal_entries:24 ~sink ()
        in
        Fs.set_fault fs (seeded pmfs_faults config);
        fs);
    machine = Fs.machine;
    lookup = Fs.lookup;
    readdir = Fs.readdir;
    create = (fun fs n -> Result.map ignore (Fs.create fs n));
    write = (fun fs ~ino ~off ~len fill -> Fs.write fs ~ino ~off (String.make len fill));
    unlink = Fs.unlink;
    fsync = Fs.fsync;
    empty = "";
    write_contents =
      (fun old ~off ~len fill ->
        if off + len > pmfs_max_bytes then None
        else begin
          let nb = Bytes.make (max (String.length old) (off + len)) '\000' in
          Bytes.blit_string old 0 nb 0 (String.length old);
          Bytes.fill nb off len fill;
          Some (Bytes.to_string nb)
        end);
    file_exact = pmfs_file_exact;
    file_inflight = pmfs_file_inflight;
    recover =
      (fun machine ->
        Result.bind (Fsck.pmfs_journal machine) (fun () ->
            let fs = Fs.mount ~machine ~sink:Sink.null in
            Result.map (fun () -> fs) (Fsck.pmfs fs)));
  }

(* -- NOVA: a file is its pages, by page offset. -- *)

let nova_bugs =
  [
    ("skip-data-persist", Nova.Skip_data_persist);
    ("skip-entry-persist", Nova.Skip_entry_persist);
    ("skip-tail-persist", Nova.Skip_tail_persist);
    ("valid-before-init", Nova.Valid_before_init);
  ]

let nova_blank_page = String.make Nova.page_size '\000'
let nova_page pages pgoff = Option.value ~default:nova_blank_page (Pages.find_opt pgoff pages)

(* Every page of [pages] reads back as committed, in page order. *)
let nova_pages_match fs2 ~name ~ino pages =
  Pages.fold
    (fun pgoff want acc ->
      Result.bind acc (fun () ->
          match Nova.read fs2 ~ino ~pgoff with
          | Error e -> read_failed name e
          | Ok got ->
            if got = want then Ok ()
            else Error (Printf.sprintf "file %s: page %d differs from committed state" name pgoff)))
    pages (Ok ())

let nova_file_exact fs2 ~name ~ino pages =
  Result.bind (nova_pages_match fs2 ~name ~ino pages) (fun () ->
      let n = Nova.file_pages fs2 ~ino in
      if n <> Pages.cardinal pages then
        Error
          (Printf.sprintf "file %s: %d committed pages on media, committed state expects %d" name n
             (Pages.cardinal pages))
      else Ok ())

(* In-flight NOVA write: the log commit is atomic, so the target page is
   wholly old or wholly new; every other page is untouched. *)
let nova_file_inflight fs2 ~name ~ino ~old ~nw ~off:pgoff ~len:_ =
  match Nova.read fs2 ~ino ~pgoff with
  | Error e -> read_failed name e
  | Ok got when got <> nova_page old pgoff && got <> nova_page nw pgoff ->
    Error
      (Printf.sprintf "file %s: page %d is neither the old nor the in-flight contents" name pgoff)
  | Ok _ ->
    Result.bind (nova_pages_match fs2 ~name ~ino (Pages.remove pgoff old)) (fun () ->
        let n = Nova.file_pages fs2 ~ino in
        let before = Pages.cardinal old and after = Pages.cardinal nw in
        if n <> before && n <> after then
          Error
            (Printf.sprintf "file %s: %d committed pages on media, in-flight write allows %d or %d"
               name n before after)
        else Ok ())

let nova =
  {
    faults = List.map fst nova_bugs;
    fault_noun = "nova bug";
    workload = Workload.nova_cfg;
    mkfs =
      (fun config sink ->
        (* 8 inodes (the name pool is 6 wide), data sized so every write
           of the run gets a fresh CoW page without ever hitting the
           allocator limit (an allocation failure would commit a
           partial op). *)
        let inodes = 8 in
        let log_area = 64 + (inodes * 64) + (inodes * 64 * 64) in
        let data_off = (log_area + Nova.page_size - 1) / Nova.page_size * Nova.page_size in
        let size = data_off + (Nova.page_size * (config.max_ops + 8)) in
        let fs = Nova.mkfs ~track_versions:true ~inodes ~size ~sink () in
        Nova.set_bug fs (seeded nova_bugs config);
        fs);
    machine = Nova.machine;
    lookup = Nova.lookup;
    readdir = Nova.readdir;
    create = (fun fs n -> Result.map ignore (Nova.create fs n));
    write =
      (fun fs ~ino ~off ~len fill ->
        Nova.write fs ~ino ~pgoff:off (String.make (min len Nova.page_size) fill));
    unlink = Nova.unlink;
    fsync = (fun _ ~ino:_ -> ());
    empty = Pages.empty;
    write_contents =
      (fun pages ~off:pgoff ~len fill ->
        let nb = Bytes.of_string (nova_page pages pgoff) in
        Bytes.fill nb 0 (min len Nova.page_size) fill;
        Some (Pages.add pgoff (Bytes.to_string nb) pages));
    file_exact = nova_file_exact;
    file_inflight = nova_file_inflight;
    recover =
      (fun machine ->
        let fs = Nova.mount ~machine ~sink:Sink.null in
        Result.map (fun () -> fs) (Fsck.nova fs));
  }

let impl_of = function Pmfs -> Impl pmfs | Nova -> Impl nova

(* --- Configs ---------------------------------------------------------------- *)

let fault_names fs = match impl_of fs with Impl i -> i.faults

let with_fault config name =
  match impl_of config.fs with
  | Impl i ->
    if name = "none" then Ok { config with fault = None }
    else if List.mem name i.faults then Ok { config with fault = Some name }
    else
      Error
        (Printf.sprintf "unknown %s %S (expected one of: %s)" i.fault_noun name
           (String.concat ", " i.faults))

let make_config ?max_ops ?fault fs model =
  match (model : Model.kind) with
  | Model.Cxl ->
    Error
      "crashfs takes model x86, hops or eadr: the PM file systems use flush/fence \
       primitives (gpf-based crash enumeration is covered by the crashtest CXL tests)"
  | Model.X86 | Model.Hops | Model.Eadr -> (
    let config = { (default_config fs) with model } in
    let config = match max_ops with None -> config | Some m -> { config with max_ops = m } in
    match fault with None -> Ok config | Some f -> with_fault config f)

(* --- The committed-state oracle --------------------------------------------- *)

(* The spec after [op]; [None] when the op would fail, which leaves the
   spec as it was. Both a live op that returned [Ok] and the op in
   flight at a crash advance the spec through here. *)
let spec_apply i spec (op : Workload.op) =
  match op with
  | Create n -> if Names.mem n spec then None else Some (Names.add n i.empty spec)
  | Write { name; off; len; fill } ->
    Option.bind (Names.find_opt name spec) (fun old ->
        Option.map (fun c -> Names.add name c spec) (i.write_contents old ~off ~len fill))
  | Unlink n -> if Names.mem n spec then Some (Names.remove n spec) else None
  | Fsync _ | Readdir -> None

let advance i spec op = Option.value ~default:spec (spec_apply i spec op)

let spec_names spec = List.map fst (Names.bindings spec)
let sorted_names listing = List.sort compare (List.map fst listing)

let names_mismatch ~what got want =
  Printf.sprintf "%s: directory lists [%s], committed state expects [%s]" what
    (String.concat " " got) (String.concat " " want)

(* A recovered instance holds either the spec or the spec after the
   pending op. Every file must be exact, except that with the directory
   unchanged the pending write's file gets the in-flight check. *)
let check_spec i spec ~pending fs2 =
  let got = sorted_names (i.readdir fs2) in
  let after = Option.bind pending (spec_apply i spec) in
  let check base ~inflight =
    Names.fold
      (fun name want acc ->
        Result.bind acc (fun () ->
            match i.lookup fs2 name with
            | None -> Error (Printf.sprintf "file %s: lookup failed after recovery" name)
            | Some ino -> (
              match inflight with
              | Some (rn, nw, off, len) when rn = name ->
                i.file_inflight fs2 ~name ~ino ~old:want ~nw ~off ~len
              | _ -> i.file_exact fs2 ~name ~ino want)))
      base (Ok ())
  in
  if got = spec_names spec then
    let inflight =
      match (pending, after) with
      | Some (Workload.Write { name; off; len; _ }), Some sa ->
        Some (name, Names.find name sa, off, len)
      | _ -> None
    in
    check spec ~inflight
  else
    match after with
    | Some sa when spec_names sa = got -> check sa ~inflight:None
    | _ -> Error (names_mismatch ~what:"recovery" got (spec_names spec))

let judge i spec ~pending img =
  match Result.bind (i.recover (Machine.of_image img)) (check_spec i spec ~pending) with
  | r -> r
  | exception e -> Error ("recovery raised " ^ Printexc.to_string e)

let check_image config ~committed ~pending img =
  match impl_of config.fs with
  | Impl i -> judge i (List.fold_left (advance i) Names.empty committed) ~pending img

(* --- The driver ------------------------------------------------------------- *)

let run_with i config ~seed ops =
  let rng = Rng.create (seed lxor 0x5F3C_9A17) in
  let target = ref Sink.null in
  let sink = { Sink.emit = (fun kind loc -> !target.Sink.emit kind loc) } in
  let fs = i.mkfs config sink in
  let machine = i.machine fs in
  let spec = ref Names.empty in
  let apply (op : Workload.op) =
    let on_file n k = match i.lookup fs n with None -> Error "no such file" | Some ino -> k ino in
    match op with
    | Create n -> i.create fs n
    | Write { name; off; len; fill } -> on_file name (fun ino -> i.write fs ~ino ~off ~len fill)
    | Unlink n -> i.unlink fs n
    | Fsync n -> on_file n (fun ino -> Ok (i.fsync fs ~ino))
    | Readdir ->
      ignore (i.readdir fs);
      Ok ()
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let cur_op = ref (-1) in
  let pending : Workload.op option ref = ref None in
  let writes_since = ref 0 in
  let last_images = ref 0. in
  let boundaries = ref 0 in
  let explored = ref 0 in
  let images = ref 0 in
  let recoveries = ref 0 in
  let avoided = ref 0. in
  let failures = ref [] in
  let nfailures = ref 0 in
  let record f =
    if !nfailures < max_failures then begin
      failures := f :: !failures;
      incr nfailures
    end
  in
  let consider idx img =
    incr images;
    let digest = Digest.bytes img in
    if Hashtbl.mem seen digest then avoided := !avoided +. 1.
    else begin
      Hashtbl.add seen digest ();
      incr recoveries;
      match judge i !spec ~pending:!pending (Bytes.copy img) with
      | Ok () -> ()
      | Error message -> record { op_index = !cur_op; boundary = idx; message }
    end
  in
  let boundary () =
    if !nfailures < max_failures then begin
      let idx = !boundaries in
      incr boundaries;
      if !writes_since = 0 then
        (* Epoch equivalence: no store since the last boundary, so the
           reachable image set cannot have grown — skip the whole class. *)
        avoided := !avoided +. !last_images
      else begin
        writes_since := 0;
        let explore =
          match config.boundary_filter with None -> true | Some f -> f idx
        in
        incr explored;
        if explore then begin
          let count = ref 0 in
          let f img =
            incr count;
            consider idx img
          in
          (match config.model with
          | Model.Eadr -> f (Machine.volatile_image machine)
          | Model.X86 | Model.Hops ->
            ignore
              (Crashtest.explore ~limit:exhaustive_limit ~samples:samples_per_boundary machine rng
                 f)
          | Model.Cxl -> assert false);
          last_images := float_of_int !count
        end
        else last_images := 0.
      end
    end
  in
  let watcher kind _loc =
    match (kind : Event.kind) with
    | Event.Op (Model.Write _) -> incr writes_since
    | Event.Op (Model.Clwb _ | Model.Sfence | Model.Ofence | Model.Dfence | Model.Gpf) ->
      boundary ()
    | _ -> ()
  in
  target := { Sink.emit = watcher };
  let ops_run = ref 0 in
  let applied = ref 0 in
  Array.iteri
    (fun idx op ->
      if !nfailures < max_failures then begin
        incr ops_run;
        cur_op := idx;
        pending := Some op;
        (match apply op with
        | Ok () -> (
          incr applied;
          spec := advance i !spec op;
          pending := None;
          let got = sorted_names (i.readdir fs) and want = spec_names !spec in
          if got <> want then
            record
              { op_index = idx; boundary = -1; message = names_mismatch ~what:"live view" got want })
        | Error _ -> ()
        | exception e ->
          record { op_index = idx; boundary = -1; message = "apply raised " ^ Printexc.to_string e });
        pending := None
      end)
    ops;
  cur_op := -1;
  (* End of the run is a boundary too: anything still dirty here is a
     committed operation at risk (e.g. an unfenced commit on the last op). *)
  boundary ();
  (* Clean shutdown must recover to exactly the committed state. *)
  Machine.persist_all machine;
  (match judge i !spec ~pending:None (Machine.media_image machine) with
  | Ok () -> ()
  | Error message -> record { op_index = -1; boundary = !boundaries; message });
  {
    ops = !ops_run;
    applied = !applied;
    boundaries = !boundaries;
    explored = !explored;
    images = !images;
    recoveries = !recoveries;
    avoided = !avoided;
    failures = List.rev !failures;
  }

let run_ops config ~seed ops =
  (match config.model with
  | Model.Cxl ->
    invalid_arg
      "Crashfs.run_ops: the PM file systems use flush/fence primitives; gpf-based crash \
       enumeration is covered by the crashtest CXL tests"
  | Model.X86 | Model.Hops | Model.Eadr -> ());
  match impl_of config.fs with Impl i -> run_with i config ~seed ops

let gen_ops config ~seed =
  match impl_of config.fs with
  | Impl i -> Workload.generate (i.workload ~max_ops:config.max_ops) (Rng.create seed)

(* --- Shrinking -------------------------------------------------------------- *)

let shrink config ~seed ops =
  let pred ops' = (run_ops config ~seed ops').failures <> [] in
  if not (pred ops) then invalid_arg "Crashfs.shrink: the input sequence survives";
  let ops = ref (fst (Ddmin.pass ~pred ops)) in
  (* Greedy operand simplification of the surviving writes. *)
  let simplify (op : Workload.op) =
    match op with
    | Write { name; off; len; fill } ->
      List.filter_map
        (fun v -> if v <> op then Some v else None)
        [
          Workload.Write { name; off = 0; len = 1; fill = 'a' };
          Workload.Write { name; off = 0; len; fill };
          Workload.Write { name; off; len = min len 8; fill };
        ]
    | _ -> []
  in
  let progressed = ref true in
  let rounds = ref 0 in
  while !progressed && !rounds < 4 do
    progressed := false;
    incr rounds;
    Array.iteri
      (fun i op ->
        List.iter
          (fun v ->
            let candidate = Array.copy !ops in
            candidate.(i) <- v;
            if candidate.(i) <> !ops.(i) && pred candidate then begin
              ops := candidate;
              progressed := true
            end)
          (simplify op))
      !ops
  done;
  !ops

(* --- Campaigns -------------------------------------------------------------- *)

type finding = {
  f_seed : int;
  f_ops : Workload.op array;
  f_shrunk : Workload.op array;
  f_failure : failure;
}

type campaign = { runs : int; total : stats; findings : finding list }

let run_campaign config ~count ~seed ?(progress = fun _ -> ()) () =
  let total = ref zero_stats in
  let findings = ref [] in
  for i = 0 to count - 1 do
    let run_seed = seed + i in
    let ops = gen_ops config ~seed:run_seed in
    let st = run_ops config ~seed:run_seed ops in
    total := add_stats !total st;
    (match st.failures with
    | f :: _ when List.length !findings < max_failures ->
      let shrunk = shrink config ~seed:run_seed ops in
      findings := { f_seed = run_seed; f_ops = ops; f_shrunk = shrunk; f_failure = f } :: !findings
    | _ -> ());
    progress (i + 1)
  done;
  { runs = count; total = !total; findings = List.rev !findings }

let run_range config ~lo ~hi ?progress () =
  if hi < lo then invalid_arg "Crashfs.run_range: inverted seed range";
  run_campaign config ~count:(hi - lo) ~seed:lo ?progress ()

(* Every field here is a pure function of (config, seed range) — the
   sampler is seeded, [avoided] is computed from counts — so the digest
   is stable across re-runs and hosts. %h renders the float exactly. *)
let campaign_digest c =
  let b = Buffer.create 512 in
  let st = c.total in
  Printf.bprintf b "runs %d\nops %d %d\nboundaries %d %d\nimages %d %d\navoided %h\n" c.runs
    st.ops st.applied st.boundaries st.explored st.images st.recoveries st.avoided;
  List.iter
    (fun f ->
      Printf.bprintf b "finding %d %d %d %s\n" f.f_seed f.f_failure.op_index f.f_failure.boundary
        f.f_failure.message;
      Array.iter (fun op -> Printf.bprintf b "%s\n" (Workload.op_to_string op)) f.f_shrunk)
    c.findings;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pp_summary ppf c =
  let st = c.total in
  Format.fprintf ppf
    "@[<v>%d runs, %d ops (%d applied)@,\
     %d persist boundaries, %d explored (%.1f%% epoch-pruned)@,\
     %d images enumerated, %d distinct recoveries (%.1f%% of candidate states pruned)@,\
     %d finding(s)@]"
    c.runs st.ops st.applied st.boundaries st.explored
    (100. *. (1. -. (float_of_int st.explored /. float_of_int (max 1 st.boundaries))))
    st.images st.recoveries
    (100. *. pruned_ratio st)
    (List.length c.findings);
  List.iter
    (fun f ->
      Format.fprintf ppf "@,  seed %d, op %d, boundary %d: %s@,  shrunk to %d op(s):" f.f_seed
        f.f_failure.op_index f.f_failure.boundary f.f_failure.message (Array.length f.f_shrunk);
      Array.iter (fun op -> Format.fprintf ppf "@,    %a" Workload.pp_op op) f.f_shrunk)
    c.findings

(* --- Reproducers ------------------------------------------------------------ *)

module Repro = struct
  type case = {
    name : string;
    fs : fs_kind;
    model : Model.kind;
    seed : int;
    fault : string option;
    expect_failure : bool;
    ops : Workload.op array;
  }

  let config_of_case c =
    match make_config ?fault:c.fault c.fs c.model with
    | Ok config -> config
    | Error e -> invalid_arg ("Crashfs.Repro.config_of_case: " ^ e)

  let of_finding (config : config) finding =
    let fault = config.fault in
    {
      name =
        Printf.sprintf "%s-%s-seed%d" (fs_kind_name config.fs)
          (Option.value ~default:"clean" fault) finding.f_seed;
      fs = config.fs;
      model = config.model;
      seed = finding.f_seed;
      fault;
      expect_failure = true;
      ops = finding.f_shrunk;
    }

  let banner = "pmtest-crashfs-case v1"

  let to_text c =
    let fields =
      [
        ("name", c.name);
        ("fs", fs_kind_name c.fs);
        ("model", Model.kind_name c.model);
        ("seed", string_of_int c.seed);
      ]
      @ Option.to_list (Option.map (fun f -> ("fault", f)) c.fault)
      @ [ ("check", if c.expect_failure then "fails" else "survives") ]
    in
    Files.render
      { Files.banner = Some banner; fields }
      (Seq.map Workload.op_to_string (Array.to_seq c.ops))

  (* Fields fill a case whose [fs] and [expect_failure] are still unset. *)
  let add_field acc (key, value) =
    match acc with
    | Error _ -> acc
    | Ok (c, fs, check) -> (
      match key with
      | "name" -> Ok ({ c with name = value }, fs, check)
      | "fs" -> (
        match fs_kind_of_string value with
        | Some k -> Ok (c, Some k, check)
        | None -> Error (Printf.sprintf "unknown fs %S" value))
      | "model" -> (
        match Model.kind_of_string value with
        | Some model -> Ok ({ c with model }, fs, check)
        | None -> Error (Printf.sprintf "unknown model %S" value))
      | "seed" -> (
        match int_of_string_opt value with
        | Some seed -> Ok ({ c with seed }, fs, check)
        | None -> Error (Printf.sprintf "bad seed %S" value))
      | "fault" -> Ok ({ c with fault = Some value }, fs, check)
      | "check" -> (
        match value with
        | "fails" -> Ok (c, fs, Some true)
        | "survives" -> Ok (c, fs, Some false)
        | _ -> Error (Printf.sprintf "unknown check %S" value))
      | _ -> acc)

  let of_parsed ~name (t : Files.text) =
    let blank =
      {
        name;
        fs = Pmfs;
        model = Model.X86;
        seed = 0;
        fault = None;
        expect_failure = false;
        ops = [||];
      }
    in
    let rec ops acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | (_, line) :: rest -> (
        match Workload.op_of_string (String.trim line) with
        | Ok op -> ops (op :: acc) rest
        | Error _ as e -> e)
    in
    if t.Files.header.Files.banner <> Some banner then Error "not a pmtest-crashfs-case file"
    else
      let fields = List.fold_left add_field (Ok (blank, None, None)) t.Files.header.Files.fields in
      match (fields, ops [] t.Files.body) with
      | (Error e, _) | (_, Error e) -> Error e
      | Ok (_, None, _), _ -> Error "missing `# fs:` header"
      | Ok (_, _, None), _ -> Error "missing `# check:` header"
      | Ok (c, Some fs, Some expect_failure), Ok ops ->
        let c = { c with fs; expect_failure; ops } in
        (* Validate the fault name eagerly. *)
        Result.map (fun _ -> c) (make_config ?fault:c.fault fs c.model)

  let of_text ~name text = of_parsed ~name (Files.parse_text text)

  let save ~dir c =
    Files.mkdir_p dir;
    let path = Filename.concat dir (c.name ^ ".pmt") in
    Files.write_atomic path (fun oc -> output_string oc (to_text c));
    path

  let load_dir dir =
    Files.load_corpus dir (fun path ->
        Result.bind (Files.read_text path) (fun t ->
            of_parsed ~name:(Filename.chop_suffix (Filename.basename path) ".pmt") t
            |> Result.map_error (Printf.sprintf "%s: %s" path)))

  let replay c =
    let config = config_of_case c in
    let st = run_ops config ~seed:c.seed c.ops in
    let failed = st.failures <> [] in
    if failed = c.expect_failure then Ok st
    else if c.expect_failure then
      Error (Printf.sprintf "case %s: expected a recovery failure but the run survived" c.name)
    else
      Error
        (Printf.sprintf "case %s: expected a clean run but got: %s" c.name
           (match st.failures with f :: _ -> f.message | [] -> "?"))
end
