(* On-disk campaign checkpoints.  [write_atomic] is the write they and the
   triage store share: a SIGKILL mid-write leaves a stray [.tmp], never a
   torn file a resume would trip over. *)

module Files = Pmtest_util.Files

let write_atomic path text =
  Files.mkdir_p (Filename.dirname path);
  Files.write_atomic path (fun oc -> output_string oc text)

type done_job = { job : int; attempt : int; units : int; digest : string }

type t = {
  spec : Spec.t;
  jobs : int;
  done_jobs : done_job list;
  findings : (string * string) list;
  nondet : int list;
}

let magic = "pmfarm-checkpoint v1"

(* No header: the magic is the first body line, then one [key rest]
   line per record. *)
let to_text t =
  let line = Printf.sprintf in
  Files.render Files.no_header
    (List.to_seq
       ([ magic; line "spec %s" (Spec.to_string t.spec); line "jobs %d" t.jobs ]
       @ List.map (fun d -> line "done %d %d %d %s" d.job d.attempt d.units d.digest) t.done_jobs
       @ List.map (fun (dg, name) -> line "finding %s %s" dg name) t.findings
       @ List.map (line "nondet %d") t.nondet))

let save ~path t = write_atomic path (to_text t)

let load path =
  match Result.map (fun t -> List.map snd t.Files.body) (Files.read_text path) with
  | Error e -> Error e
  | Ok [] -> Error (path ^ ": empty checkpoint")
  | Ok (first :: rest) when String.trim first = magic ->
    let spec = ref None in
    let jobs = ref (-1) in
    let done_jobs = ref [] in
    let findings = ref [] in
    let nondet = ref [] in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
    List.iter
      (fun line ->
        if !err = None then
          match String.index_opt line ' ' with
          | None -> fail "malformed checkpoint line %S" line
          | Some i -> (
            let key = String.sub line 0 i in
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            match key with
            | "spec" -> (
              match Spec.of_string rest with
              | Ok s -> spec := Some s
              | Error e -> fail "bad spec: %s" e)
            | "jobs" -> (
              match int_of_string_opt rest with
              | Some n when n >= 0 -> jobs := n
              | _ -> fail "bad jobs count %S" rest)
            | "done" -> (
              match String.split_on_char ' ' rest with
              | [ j; a; u; d ] -> (
                match (int_of_string_opt j, int_of_string_opt a, int_of_string_opt u) with
                | Some job, Some attempt, Some units ->
                  done_jobs := { job; attempt; units; digest = d } :: !done_jobs
                | _ -> fail "bad done line %S" rest)
              | _ -> fail "bad done line %S" rest)
            | "finding" -> (
              match String.index_opt rest ' ' with
              | Some i ->
                findings :=
                  (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
                  :: !findings
              | None -> fail "bad finding line %S" rest)
            | "nondet" -> (
              match int_of_string_opt rest with
              | Some j -> nondet := j :: !nondet
              | None -> fail "bad nondet line %S" rest)
            | _ -> fail "unknown checkpoint key %S" key))
      rest;
    (match (!err, !spec) with
    | Some e, _ -> Error (path ^ ": " ^ e)
    | None, None -> Error (path ^ ": missing spec line")
    | None, Some spec ->
      if !jobs < 0 then Error (path ^ ": missing jobs line")
      else
        Ok
          {
            spec;
            jobs = !jobs;
            done_jobs = List.rev !done_jobs;
            findings = List.sort compare !findings;
            nondet = List.sort compare !nondet;
          })
  | Ok (first :: _) -> Error (Printf.sprintf "%s: not a pmfarm checkpoint (%S)" path first)

let pp ppf t =
  Format.fprintf ppf "@[<v>campaign: %s@,jobs: %d/%d done@,findings: %d@,nondet: %s@]"
    (Spec.to_string t.spec) (List.length t.done_jobs) t.jobs (List.length t.findings)
    (if t.nondet = [] then "none"
     else String.concat "," (List.map string_of_int t.nondet))
