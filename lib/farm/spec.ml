(* Campaign specs: what a coordinator splits into jobs and what travels
   in every [Job_offer] and checkpoint. *)

module Model = Pmtest_model.Model
module Crashfs = Pmtest_crashfs.Crashfs
module Suite = Pmtest_litmus.Suite

type kind = Fuzz | Crashfs | Litmus

type t = {
  kind : kind;
  model : Model.kind;
  fs : Crashfs.fs_kind;
  fault : string option;
  seed : int;
  count : int;
  chunk : int;
  max_ops : int option;
}

let kind_name = function Fuzz -> "fuzz" | Crashfs -> "crashfs" | Litmus -> "litmus"

let kind_of_name = function
  | "fuzz" -> Some Fuzz
  | "crashfs" -> Some Crashfs
  | "litmus" -> Some Litmus
  | _ -> None

let fuzz ?max_ops ~model ~seed ~count ~chunk () =
  { kind = Fuzz; model; fs = Crashfs.Pmfs; fault = None; seed; count; chunk; max_ops }

let crashfs ?max_ops ?fault ~fs ~model ~seed ~count ~chunk () =
  { kind = Crashfs; model; fs; fault; seed; count; chunk; max_ops }

let litmus ~chunk () =
  {
    kind = Litmus;
    model = Model.X86;
    fs = Crashfs.Pmfs;
    fault = None;
    seed = 0;
    count = List.length Suite.all;
    chunk;
    max_ops = None;
  }

let to_string t =
  let b = Buffer.create 64 in
  Buffer.add_string b (kind_name t.kind);
  Printf.bprintf b " model=%s fs=%s seed=%d count=%d chunk=%d" (Model.kind_name t.model)
    (Crashfs.fs_kind_name t.fs) t.seed t.count t.chunk;
  Option.iter (fun f -> Printf.bprintf b " fault=%s" f) t.fault;
  Option.iter (fun m -> Printf.bprintf b " max_ops=%d" m) t.max_ops;
  Buffer.contents b

(* Everything [run_units] would choke on, caught before any job is
   offered: seeds travel as unsigned varints (a negative one would
   blow up mid-[encode_job_offer], inside the coordinator loop), and an
   unknown fault name would make every attempt of every job fail
   worker-side. *)
let validate t =
  if t.seed < 0 then Error "negative seed (job ranges travel as unsigned varints)"
  else if t.count < 0 then Error "negative count"
  else if t.chunk < 1 then Error "chunk < 1"
  else
    match (t.kind, t.fault) with
    | _, None -> Ok ()
    | Crashfs, Some f ->
      Result.map (fun _ -> ()) (Crashfs.with_fault (Crashfs.default_config t.fs) f)
    | (Fuzz | Litmus), Some _ ->
      Error (Printf.sprintf "fault only applies to crashfs campaigns, not %s" (kind_name t.kind))

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [] | [ "" ] -> Error "empty campaign spec"
  | kind_s :: rest -> (
    match kind_of_name kind_s with
    | None -> Error (Printf.sprintf "unknown campaign kind %S" kind_s)
    | Some kind ->
      let spec =
        ref
          {
            kind;
            model = Model.X86;
            fs = Crashfs.Pmfs;
            fault = None;
            seed = 0;
            count = -1;
            chunk = -1;
            max_ops = None;
          }
      in
      let err = ref None in
      let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
      List.iter
        (fun tok ->
          if tok <> "" && !err = None then
            match String.index_opt tok '=' with
            | None -> fail "malformed spec token %S" tok
            | Some i -> (
              let key = String.sub tok 0 i in
              let value = String.sub tok (i + 1) (String.length tok - i - 1) in
              let int_val f =
                match int_of_string_opt value with
                | Some n -> f n
                | None -> fail "bad integer %S for %s" value key
              in
              match key with
              | "model" -> (
                match Model.kind_of_string value with
                | Some m -> spec := { !spec with model = m }
                | None -> fail "unknown model %S" value)
              | "fs" -> (
                match Crashfs.fs_kind_of_string value with
                | Some f -> spec := { !spec with fs = f }
                | None -> fail "unknown fs %S" value)
              | "fault" -> spec := { !spec with fault = Some value }
              | "seed" -> int_val (fun n -> spec := { !spec with seed = n })
              | "count" -> int_val (fun n -> spec := { !spec with count = n })
              | "chunk" -> int_val (fun n -> spec := { !spec with chunk = n })
              | "max_ops" -> int_val (fun n -> spec := { !spec with max_ops = Some n })
              | _ -> fail "unknown spec key %S" key))
        rest;
      (match !err with
      | Some e -> Error e
      | None ->
        if !spec.count < 0 then Error "spec is missing count"
        else if !spec.chunk < 1 then Error "spec is missing chunk (or chunk < 1)"
        else Result.map (fun () -> !spec) (validate !spec)))

let jobs t =
  let stop = t.seed + t.count in
  let rec go id lo acc =
    if lo >= stop then List.rev acc
    else
      let hi = min stop (lo + t.chunk) in
      go (id + 1) hi ((id, lo, hi) :: acc)
  in
  go 0 t.seed []
