(* On-disk campaign checkpoints.  [write_atomic] is the write they and the
   triage store share: a SIGKILL mid-write leaves a stray [.tmp], never a
   torn file a resume would trip over. *)

let write_atomic path text =
  Pmtest_util.Files.mkdir_p (Filename.dirname path);
  Pmtest_util.Files.write_atomic path (fun oc -> output_string oc text)

type done_job = { job : int; attempt : int; units : int; digest : string }

type t = {
  spec : Spec.t;
  jobs : int;
  done_jobs : done_job list;
  findings : (string * string) list;
  nondet : int list;
}

let magic = "pmfarm-checkpoint v1"

let to_text t =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s\n" magic;
  Printf.bprintf b "spec %s\n" (Spec.to_string t.spec);
  Printf.bprintf b "jobs %d\n" t.jobs;
  List.iter
    (fun d -> Printf.bprintf b "done %d %d %d %s\n" d.job d.attempt d.units d.digest)
    t.done_jobs;
  List.iter (fun (dg, name) -> Printf.bprintf b "finding %s %s\n" dg name) t.findings;
  List.iter (fun j -> Printf.bprintf b "nondet %d\n" j) t.nondet;
  Buffer.contents b

let save ~path t = write_atomic path (to_text t)

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  with
  | exception Sys_error e -> Error e
  | [] -> Error (path ^ ": empty checkpoint")
  | first :: rest when String.trim first = magic ->
    let spec = ref None in
    let jobs = ref (-1) in
    let done_jobs = ref [] in
    let findings = ref [] in
    let nondet = ref [] in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
    List.iter
      (fun line ->
        if String.trim line <> "" && !err = None then
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
  | first :: _ -> Error (Printf.sprintf "%s: not a pmfarm checkpoint (%S)" path first)

let pp ppf t =
  Format.fprintf ppf "@[<v>campaign: %s@,jobs: %d/%d done@,findings: %d@,nondet: %s@]"
    (Spec.to_string t.spec) (List.length t.done_jobs) t.jobs (List.length t.findings)
    (if t.nondet = [] then "none"
     else String.concat "," (List.map string_of_int t.nondet))
