open Pmtest_util
module Model = Pmtest_model.Model
module Machine = Pmtest_pmem.Machine
module Sink = Pmtest_trace.Sink
module Event = Pmtest_trace.Event
module Fs = Pmtest_pmfs.Fs
module Nova = Pmtest_nova.Nova
module Crashtest = Pmtest_crashtest.Crashtest

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
  samples_per_boundary : int;
  exhaustive_limit : int;
  max_failures : int;
  pmfs_fault : Fs.fault option;
  nova_bug : Nova.bug option;
  boundary_filter : (int -> bool) option;
}

let default_config fs =
  {
    fs;
    model = Model.X86;
    max_ops = 10;
    samples_per_boundary = 12;
    exhaustive_limit = 96;
    max_failures = 4;
    pmfs_fault = None;
    nova_bug = None;
    boundary_filter = None;
  }

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

let nova_bugs =
  [
    ("skip-data-persist", Nova.Skip_data_persist);
    ("skip-entry-persist", Nova.Skip_entry_persist);
    ("skip-tail-persist", Nova.Skip_tail_persist);
    ("valid-before-init", Nova.Valid_before_init);
  ]

let fault_names = function
  | Pmfs -> List.map fst pmfs_faults
  | Nova -> List.map fst nova_bugs

let with_fault config name =
  if name = "none" then Ok { config with pmfs_fault = None; nova_bug = None }
  else
    match config.fs with
    | Pmfs -> (
      match List.assoc_opt name pmfs_faults with
      | Some f -> Ok { config with pmfs_fault = Some f }
      | None ->
        Error
          (Printf.sprintf "unknown pmfs fault %S (expected one of: %s)" name
             (String.concat ", " (fault_names Pmfs))))
    | Nova -> (
      match List.assoc_opt name nova_bugs with
      | Some b -> Ok { config with nova_bug = Some b }
      | None ->
        Error
          (Printf.sprintf "unknown nova bug %S (expected one of: %s)" name
             (String.concat ", " (fault_names Nova))))

let fault_name config =
  match config.fs with
  | Pmfs ->
    Option.bind config.pmfs_fault (fun f ->
        List.find_opt (fun (_, f') -> f' = f) pmfs_faults |> Option.map fst)
  | Nova ->
    Option.bind config.nova_bug (fun b ->
        List.find_opt (fun (_, b') -> b' = b) nova_bugs |> Option.map fst)

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

(* --- Drivers ---------------------------------------------------------------- *)

(* One driver per file system: apply an op to the live instance (updating
   the committed-state spec on success), check the live volatile view
   against the spec, and remount-and-check one crash image against the
   spec with the in-flight op's allowed outcomes. *)
type driver = {
  d_machine : Machine.t;
  d_apply : Workload.op -> (unit, string) result;
  d_live_check : unit -> (unit, string) result;
  d_check_image : pending:Workload.op option -> bytes -> (unit, string) result;
}

let sorted_names fold_tbl = List.sort compare fold_tbl

let names_mismatch ~what got want =
  Error
    (Printf.sprintf "%s: directory lists [%s], committed state expects [%s]" what
       (String.concat " " got) (String.concat " " want))

(* -- PMFS -- *)

let pmfs_max_bytes = 12 * Fs.block_size

(* The committed-state model: file name -> contents (length = size; holes
   are the zero bytes PMFS reads back). *)
let pmfs_spec_write old ~off ~len fill =
  let osz = Bytes.length old in
  let nsz = max osz (off + len) in
  let nb = Bytes.make nsz '\000' in
  Bytes.blit old 0 nb 0 osz;
  Bytes.fill nb off len fill;
  nb

(* Pure spec-level application; [None] when the op would fail (then the
   only acceptable post-crash state is the unchanged spec). *)
let pmfs_spec_apply spec op =
  let copy () = Hashtbl.copy spec in
  match (op : Workload.op) with
  | Create n ->
    if Hashtbl.mem spec n then None
    else begin
      let s = copy () in
      Hashtbl.replace s n Bytes.empty;
      Some s
    end
  | Write { name; off; len; fill } -> (
    match Hashtbl.find_opt spec name with
    | Some old when off + len <= pmfs_max_bytes ->
      let s = copy () in
      Hashtbl.replace s name (pmfs_spec_write old ~off ~len fill);
      Some s
    | _ -> None)
  | Unlink n ->
    if Hashtbl.mem spec n then begin
      let s = copy () in
      Hashtbl.remove s n;
      Some s
    end
    else None
  | Fsync _ | Readdir -> None

let spec_names spec = sorted_names (Hashtbl.fold (fun k _ acc -> k :: acc) spec [])

let pmfs_file_exact fs2 ~name ~ino want =
  let size = Fs.file_size fs2 ~ino in
  if size <> Bytes.length want then
    Error (Printf.sprintf "file %s: size %d, committed state expects %d" name size (Bytes.length want))
  else if size = 0 then Ok ()
  else
    match Fs.read fs2 ~ino ~off:0 ~len:size with
    | Error e -> Error (Printf.sprintf "file %s: read failed: %s" name e)
    | Ok got ->
      if got = Bytes.to_string want then Ok ()
      else Error (Printf.sprintf "file %s: contents differ from committed state" name)

(* The in-flight XIP write window: metadata (size, allocations) rolls
   back atomically with the journal, but data goes in place — bytes in
   the written range may be old or new, torn at any granularity. *)
let pmfs_file_inflight fs2 ~name ~ino ~old ~nw ~off ~len =
  let osz = Bytes.length old and nsz = Bytes.length nw in
  let size = Fs.file_size fs2 ~ino in
  if size = nsz && nsz <> osz then pmfs_file_exact fs2 ~name ~ino nw
  else if size <> osz then
    Error
      (Printf.sprintf "file %s: size %d, in-flight write allows only %d or %d" name size osz nsz)
  else if osz = 0 then Ok ()
  else
    match Fs.read fs2 ~ino ~off:0 ~len:osz with
    | Error e -> Error (Printf.sprintf "file %s: read failed: %s" name e)
    | Ok got ->
      let bad = ref None in
      String.iteri
        (fun i c ->
          if !bad = None then
            let in_range = i >= off && i < off + len in
            let okc =
              if in_range then c = Bytes.get old i || c = Bytes.get nw i
              else c = Bytes.get old i
            in
            if not okc then bad := Some i)
        got;
      (match !bad with
      | None -> Ok ()
      | Some i ->
        Error
          (Printf.sprintf "file %s: byte %d is neither the old nor the in-flight value" name i))

let pmfs_check_spec spec ~pending fs2 =
  let want_before = spec_names spec in
  let got = sorted_names (List.map fst (Fs.readdir fs2)) in
  let after = Option.bind pending (pmfs_spec_apply spec) in
  let check_with base ~relax =
    let rec go = function
      | [] -> Ok ()
      | name :: rest -> (
        match Fs.lookup fs2 name with
        | None -> Error (Printf.sprintf "file %s: lookup failed after recovery" name)
        | Some ino -> (
          let want = Hashtbl.find base name in
          let res =
            match relax with
            | Some (rn, old, nw, off, len) when rn = name ->
              pmfs_file_inflight fs2 ~name ~ino ~old ~nw ~off ~len
            | _ -> pmfs_file_exact fs2 ~name ~ino want
          in
          match res with Ok () -> go rest | Error _ as e -> e))
    in
    go (spec_names base)
  in
  if got = want_before then begin
    let relax =
      match pending with
      | Some (Workload.Write { name; off; len; fill }) -> (
        match Hashtbl.find_opt spec name with
        | Some old when off + len <= pmfs_max_bytes ->
          Some (name, old, pmfs_spec_write old ~off ~len fill, off, len)
        | _ -> None)
      | _ -> None
    in
    check_with spec ~relax
  end
  else
    match after with
    | Some sa when spec_names sa = got -> check_with sa ~relax:None
    | _ -> names_mismatch ~what:"recovery" got want_before

let pmfs_driver config sink =
  let max_ops = config.max_ops in
  let fs =
    Fs.mkfs ~track_versions:true ~inodes:8
      ~blocks:((4 * max_ops) + 8)
      ~journal_entries:24 ~sink ()
  in
  Fs.set_fault fs config.pmfs_fault;
  let spec : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
  let apply (op : Workload.op) =
    match op with
    | Create n -> (
      match Fs.create fs n with
      | Ok _ ->
        Hashtbl.replace spec n Bytes.empty;
        Ok ()
      | Error e -> Error e)
    | Write { name; off; len; fill } -> (
      match Fs.lookup fs name with
      | None -> Error "no such file"
      | Some ino -> (
        match Fs.write fs ~ino ~off (String.make len fill) with
        | Ok () ->
          let old = Option.value ~default:Bytes.empty (Hashtbl.find_opt spec name) in
          Hashtbl.replace spec name (pmfs_spec_write old ~off ~len fill);
          Ok ()
        | Error e -> Error e))
    | Unlink n -> (
      match Fs.unlink fs n with
      | Ok () ->
        Hashtbl.remove spec n;
        Ok ()
      | Error e -> Error e)
    | Fsync n -> (
      match Fs.lookup fs n with
      | None -> Error "no such file"
      | Some ino ->
        Fs.fsync fs ~ino;
        Ok ())
    | Readdir ->
      ignore (Fs.readdir fs);
      Ok ()
  in
  let live_check () =
    let got = sorted_names (List.map fst (Fs.readdir fs)) in
    let want = spec_names spec in
    if got = want then Ok () else names_mismatch ~what:"live view" got want
  in
  let check_image ~pending img =
    match
      let machine = Machine.of_image img in
      match Fsck.pmfs_journal machine with
      | Error _ as e -> e
      | Ok () -> (
        let fs2 = Fs.mount ~machine ~sink:Sink.null in
        match Fsck.pmfs fs2 with
        | Error _ as e -> e
        | Ok () -> pmfs_check_spec spec ~pending fs2)
    with
    | r -> r
    | exception e -> Error ("recovery raised " ^ Printexc.to_string e)
  in
  {
    d_machine = Fs.machine fs;
    d_apply = apply;
    d_live_check = live_check;
    d_check_image = check_image;
  }

(* -- NOVA -- *)

(* The committed-state model: file name -> page offset -> page contents. *)
let nova_blank_page () = String.make Nova.page_size '\000'

let nova_spec_write pages ~pgoff ~len fill =
  let old = Option.value ~default:(nova_blank_page ()) (Hashtbl.find_opt pages pgoff) in
  let len = min len Nova.page_size in
  let nb = Bytes.of_string old in
  Bytes.fill nb 0 len fill;
  Bytes.to_string nb

let nova_spec_apply spec op =
  let copy () =
    let s = Hashtbl.create 8 in
    Hashtbl.iter (fun k v -> Hashtbl.replace s k (Hashtbl.copy v)) spec;
    s
  in
  match (op : Workload.op) with
  | Create n ->
    if Hashtbl.mem spec n then None
    else begin
      let s = copy () in
      Hashtbl.replace s n (Hashtbl.create 4);
      Some s
    end
  | Write { name; off = pgoff; len; fill } -> (
    match Hashtbl.find_opt spec name with
    | None -> None
    | Some pages ->
      let s = copy () in
      let pages' = Hashtbl.find s name in
      Hashtbl.replace pages' pgoff (nova_spec_write pages ~pgoff ~len fill);
      Some s)
  | Unlink n ->
    if Hashtbl.mem spec n then begin
      let s = copy () in
      Hashtbl.remove s n;
      Some s
    end
    else None
  | Fsync _ | Readdir -> None

let nova_file_exact fs2 ~name ~ino pages =
  let pgoffs = sorted_names (Hashtbl.fold (fun k _ acc -> k :: acc) pages []) in
  let rec go = function
    | [] ->
      let n = Nova.file_pages fs2 ~ino in
      if n <> Hashtbl.length pages then
        Error
          (Printf.sprintf "file %s: %d committed pages on media, committed state expects %d" name n
             (Hashtbl.length pages))
      else Ok ()
    | pgoff :: rest -> (
      match Nova.read fs2 ~ino ~pgoff with
      | Error e -> Error (Printf.sprintf "file %s: read failed: %s" name e)
      | Ok got ->
        if got = Hashtbl.find pages pgoff then go rest
        else Error (Printf.sprintf "file %s: page %d differs from committed state" name pgoff))
  in
  go pgoffs

(* In-flight NOVA write: the log commit is atomic, so the target page is
   wholly old or wholly new; every other page is untouched. *)
let nova_file_inflight fs2 ~name ~ino ~pages ~pgoff ~nw =
  let old = Option.value ~default:(nova_blank_page ()) (Hashtbl.find_opt pages pgoff) in
  let fresh = not (Hashtbl.mem pages pgoff) in
  match Nova.read fs2 ~ino ~pgoff with
  | Error e -> Error (Printf.sprintf "file %s: read failed: %s" name e)
  | Ok got ->
    if got <> old && got <> nw then
      Error
        (Printf.sprintf "file %s: page %d is neither the old nor the in-flight contents" name pgoff)
    else begin
      let others = Hashtbl.copy pages in
      Hashtbl.remove others pgoff;
      let rec go = function
        | [] ->
          let n = Nova.file_pages fs2 ~ino in
          let before = Hashtbl.length pages in
          let after = if fresh then before + 1 else before in
          if n <> before && n <> after then
            Error
              (Printf.sprintf "file %s: %d committed pages on media, in-flight write allows %d or %d"
                 name n before after)
          else Ok ()
        | p :: rest -> (
          match Nova.read fs2 ~ino ~pgoff:p with
          | Error e -> Error (Printf.sprintf "file %s: read failed: %s" name e)
          | Ok got' ->
            if got' = Hashtbl.find others p then go rest
            else Error (Printf.sprintf "file %s: page %d differs from committed state" name p))
      in
      go (sorted_names (Hashtbl.fold (fun k _ acc -> k :: acc) others []))
    end

let nova_check_spec spec ~pending fs2 =
  let want_before = spec_names spec in
  let got = sorted_names (List.map fst (Nova.readdir fs2)) in
  let after = Option.bind pending (nova_spec_apply spec) in
  let check_with base ~relax =
    let rec go = function
      | [] -> Ok ()
      | name :: rest -> (
        match Nova.lookup fs2 name with
        | None -> Error (Printf.sprintf "file %s: lookup failed after recovery" name)
        | Some ino -> (
          let pages = Hashtbl.find base name in
          let res =
            match relax with
            | Some (rn, pgoff, nw) when rn = name ->
              nova_file_inflight fs2 ~name ~ino ~pages ~pgoff ~nw
            | _ -> nova_file_exact fs2 ~name ~ino pages
          in
          match res with Ok () -> go rest | Error _ as e -> e))
    in
    go (spec_names base)
  in
  if got = want_before then begin
    let relax =
      match pending with
      | Some (Workload.Write { name; off = pgoff; len; fill }) -> (
        match Hashtbl.find_opt spec name with
        | Some pages -> Some (name, pgoff, nova_spec_write pages ~pgoff ~len fill)
        | None -> None)
      | _ -> None
    in
    check_with spec ~relax
  end
  else
    match after with
    | Some sa when spec_names sa = got -> check_with sa ~relax:None
    | _ -> names_mismatch ~what:"recovery" got want_before

let nova_driver config sink =
  (* Geometry: 8 inodes (name pool is 6 wide), data sized so every write
     of the run gets a fresh CoW page without ever hitting the allocator
     limit (an allocation failure would commit a partial op). *)
  let inodes = 8 in
  let log_area = 64 + (inodes * 64) + (inodes * 64 * 64) in
  let data_off = (log_area + Nova.page_size - 1) / Nova.page_size * Nova.page_size in
  let size = data_off + (Nova.page_size * (config.max_ops + 8)) in
  let fs = Nova.mkfs ~track_versions:true ~inodes ~size ~sink () in
  Nova.set_bug fs config.nova_bug;
  let spec : (string, (int, string) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let apply (op : Workload.op) =
    match op with
    | Create n -> (
      match Nova.create fs n with
      | Ok _ ->
        Hashtbl.replace spec n (Hashtbl.create 4);
        Ok ()
      | Error e -> Error e)
    | Write { name; off = pgoff; len; fill } -> (
      match Nova.lookup fs name with
      | None -> Error "no such file"
      | Some ino -> (
        let len = min len Nova.page_size in
        match Nova.write fs ~ino ~pgoff (String.make len fill) with
        | Ok () ->
          let pages = Hashtbl.find spec name in
          Hashtbl.replace pages pgoff (nova_spec_write pages ~pgoff ~len fill);
          Ok ()
        | Error e -> Error e))
    | Unlink n -> (
      match Nova.unlink fs n with
      | Ok () ->
        Hashtbl.remove spec n;
        Ok ()
      | Error e -> Error e)
    | Fsync n -> if Nova.lookup fs n = None then Error "no such file" else Ok ()
    | Readdir ->
      ignore (Nova.readdir fs);
      Ok ()
  in
  let live_check () =
    let got = sorted_names (List.map fst (Nova.readdir fs)) in
    let want = spec_names spec in
    if got = want then Ok () else names_mismatch ~what:"live view" got want
  in
  let check_image ~pending img =
    match
      let machine = Machine.of_image img in
      let fs2 = Nova.mount ~machine ~sink:Sink.null in
      match Fsck.nova fs2 with
      | Error _ as e -> e
      | Ok () -> nova_check_spec spec ~pending fs2
    with
    | r -> r
    | exception e -> Error ("recovery raised " ^ Printexc.to_string e)
  in
  {
    d_machine = Nova.machine fs;
    d_apply = apply;
    d_live_check = live_check;
    d_check_image = check_image;
  }

(* --- The harness ------------------------------------------------------------ *)

let run_ops config ~seed ops =
  (match config.model with
  | Model.Cxl ->
    invalid_arg
      "Crashfs.run_ops: the PM file systems use flush/fence primitives; gpf-based crash \
       enumeration is covered by the crashtest CXL tests"
  | Model.X86 | Model.Hops | Model.Eadr -> ());
  if config.samples_per_boundary <= 0 || config.exhaustive_limit <= 0 then
    invalid_arg "Crashfs.run_ops: sampling knobs must be positive";
  let rng = Rng.create (seed lxor 0x5F3C_9A17) in
  let target = ref Sink.null in
  let sink = { Sink.emit = (fun kind loc -> !target.Sink.emit kind loc) } in
  let driver =
    match config.fs with Pmfs -> pmfs_driver config sink | Nova -> nova_driver config sink
  in
  let machine = driver.d_machine in
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
    if !nfailures < config.max_failures then begin
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
      match driver.d_check_image ~pending:!pending (Bytes.copy img) with
      | Ok () -> ()
      | Error message -> record { op_index = !cur_op; boundary = idx; message }
    end
  in
  let boundary () =
    if !nfailures < config.max_failures then begin
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
              (Crashtest.explore ~limit:config.exhaustive_limit
                 ~samples:config.samples_per_boundary machine rng f)
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
    (fun i op ->
      if !nfailures < config.max_failures then begin
        incr ops_run;
        cur_op := i;
        pending := Some op;
        (match driver.d_apply op with
        | Ok () -> (
          incr applied;
          pending := None;
          match driver.d_live_check () with
          | Ok () -> ()
          | Error message -> record { op_index = i; boundary = -1; message })
        | Error _ -> ()
        | exception e ->
          record { op_index = i; boundary = -1; message = "apply raised " ^ Printexc.to_string e });
        pending := None
      end)
    ops;
  cur_op := -1;
  (* End of the run is a boundary too: anything still dirty here is a
     committed operation at risk (e.g. an unfenced commit on the last op). *)
  boundary ();
  (* Clean shutdown must recover to exactly the committed state. *)
  Machine.persist_all machine;
  (match driver.d_check_image ~pending:None (Machine.media_image machine) with
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

let gen_ops config ~seed =
  let cfg =
    match config.fs with
    | Pmfs -> Workload.pmfs_cfg ~max_ops:config.max_ops
    | Nova -> Workload.nova_cfg ~max_ops:config.max_ops
  in
  Workload.generate cfg (Rng.create seed)

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
    | f :: _ when List.length !findings < config.max_failures ->
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
    let fault = fault_name config in
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
