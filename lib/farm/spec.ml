(* Campaign specs: what a coordinator splits into jobs and what travels
   in every [Job_offer] and checkpoint. *)

module Model = Pmtest_model.Model
module Campaign = Pmtest_fuzz.Campaign
module Gen = Pmtest_fuzz.Gen
module Crashfs = Pmtest_crashfs.Crashfs
module Suite = Pmtest_litmus.Suite

type kind = Fuzz | Crashfs of { fs : Crashfs.fs_kind; fault : string option } | Litmus

type t = {
  kind : kind;
  model : Model.kind;
  seed : int;
  count : int;
  chunk : int;
  max_ops : int option;
}

let kind_name = function Fuzz -> "fuzz" | Crashfs _ -> "crashfs" | Litmus -> "litmus"

let fuzz ?max_ops ~model ~seed ~count ~chunk () =
  { kind = Fuzz; model; seed; count; chunk; max_ops }

let crashfs ?max_ops ?fault ~fs ~model ~seed ~count ~chunk () =
  { kind = Crashfs { fs; fault }; model; seed; count; chunk; max_ops }

let litmus ~chunk () =
  let count = List.length Suite.all in
  { kind = Litmus; model = Model.X86; seed = 0; count; chunk; max_ops = None }

let campaign_cfg t =
  let base = Campaign.default_cfg t.model in
  let gen =
    match t.max_ops with
    | None -> base.Campaign.gen
    | Some m -> { base.Campaign.gen with Gen.max_ops = m }
  in
  { base with Campaign.gen; seed = t.seed; count = t.count }

let crashfs_config t =
  match t.kind with
  | Crashfs { fs; fault } -> Crashfs.make_config ?max_ops:t.max_ops ?fault fs t.model
  | Fuzz | Litmus -> Error (kind_name t.kind ^ " is not a crashfs campaign")

let to_string t =
  let b = Buffer.create 64 in
  Buffer.add_string b (kind_name t.kind);
  Printf.bprintf b " model=%s" (Model.kind_name t.model);
  (match t.kind with
  | Crashfs { fs; _ } -> Printf.bprintf b " fs=%s" (Crashfs.fs_kind_name fs)
  | Fuzz | Litmus -> ());
  Printf.bprintf b " seed=%d count=%d chunk=%d" t.seed t.count t.chunk;
  (match t.kind with
  | Crashfs { fault = Some f; _ } -> Printf.bprintf b " fault=%s" f
  | _ -> ());
  Option.iter (fun m -> Printf.bprintf b " max_ops=%d" m) t.max_ops;
  Buffer.contents b

(* Everything [run_units] would choke on, caught before any job is
   offered: seeds travel as unsigned varints (a negative one would
   blow up mid-[encode_job_offer], inside the coordinator loop), an
   unknown fault name would make every attempt of every job fail
   worker-side, and so would a litmus range past the suite.  A litmus
   campaign runs the fixed suite, so a model, seed or op bound other
   than [litmus]'s would be recorded in checkpoints and never used. *)
let validate t =
  if t.seed < 0 then Error "negative seed (job ranges travel as unsigned varints)"
  else if t.count < 0 then Error "negative count"
  else if t.chunk < 1 then Error "chunk < 1"
  else
    match t.kind with
    | Crashfs _ -> Result.map ignore (crashfs_config t)
    | Fuzz -> Ok ()
    | Litmus ->
      let suite = litmus ~chunk:t.chunk () in
      if t.model <> suite.model then
        Error
          (Printf.sprintf "a litmus campaign takes model=%s (each test names its own model)"
             (Model.kind_name suite.model))
      else if t.seed <> suite.seed then
        Error (Printf.sprintf "a litmus campaign takes seed=%d (the suite's first test)" suite.seed)
      else if t.max_ops <> None then Error "max_ops only applies to fuzz and crashfs campaigns"
      else if t.count > suite.count then
        Error (Printf.sprintf "count %d runs past the %d-test litmus suite" t.count suite.count)
      else Ok ()

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [] | [ "" ] -> Error "empty campaign spec"
  | kind_s :: rest -> (
    let kind =
      match kind_s with
      | "fuzz" -> Some Fuzz
      | "crashfs" -> Some (Crashfs { fs = Crashfs.Pmfs; fault = None })
      | "litmus" -> Some Litmus
      | _ -> None
    in
    match kind with
    | None -> Error (Printf.sprintf "unknown campaign kind %S" kind_s)
    | Some kind ->
      let spec =
        ref { kind; model = Model.X86; seed = 0; count = -1; chunk = -1; max_ops = None }
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
              match (key, !spec.kind) with
              | "model", _ -> (
                match Model.kind_of_string value with
                | Some m -> spec := { !spec with model = m }
                | None -> fail "unknown model %S" value)
              | "fs", Crashfs c -> (
                match Crashfs.fs_kind_of_string value with
                | Some fs -> spec := { !spec with kind = Crashfs { c with fs } }
                | None -> fail "unknown fs %S" value)
              | "fault", Crashfs c ->
                spec := { !spec with kind = Crashfs { c with fault = Some value } }
              | ("fs" | "fault"), (Fuzz | Litmus) ->
                fail "%s only applies to crashfs campaigns, not %s" key kind_s
              | "seed", _ -> int_val (fun n -> spec := { !spec with seed = n })
              | "count", _ -> int_val (fun n -> spec := { !spec with count = n })
              | "chunk", _ -> int_val (fun n -> spec := { !spec with chunk = n })
              | "max_ops", _ -> int_val (fun n -> spec := { !spec with max_ops = Some n })
              | _ -> fail "unknown spec key %S" key))
        rest;
      match !err with
      | Some e -> Error e
      | None ->
        if !spec.count < 0 then Error "spec is missing count"
        else if !spec.chunk < 1 then Error "spec is missing chunk (or chunk < 1)"
        else Result.map (fun () -> !spec) (validate !spec))

let jobs t =
  let stop = t.seed + t.count in
  let rec go id lo acc =
    if lo >= stop then List.rev acc
    else
      let hi = min stop (lo + t.chunk) in
      go (id + 1) hi ((id, lo, hi) :: acc)
  in
  go 0 t.seed []
