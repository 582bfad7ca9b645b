(* [pipeline.exe compare A.json B.json]: for every end-to-end metric of
   BENCHMARK.json and every workload, each side's median and quartiles
   over its correct runs and a verdict against the metric's bound:

   - missing: one side has no value for it;
   - unresolved: either side's quartile spread exceeds the bound;
   - worse / better: B's median moved past the bound from A's;
   - within: otherwise.

   A and B are files of untraced run records, one JSON object per line,
   as [--json] appends them.  A record whose verdicts failed ([correct]
   false) is left out of the quartiles and counted.  Exit status 1 if any
   record is incorrect or anything is missing, unresolved or worse. *)

module Stats = Pmtest_util.Stats

let read_file path = In_channel.with_open_bin path In_channel.input_all

let quartiles values =
  let a = Array.of_list values in
  (Stats.percentile a 25.0, Stats.percentile a 50.0, Stats.percentile a 75.0)

let spread (q1, med, q3) = (q3 -. q1) /. Float.abs med

type bound = { name : string; lower_is_better : bool; bound : float }

let bounds benchmark =
  Json.parse (read_file benchmark)
  |> Json.member "end_to_end"
  |> Option.fold ~none:[] ~some:Json.list
  |> List.filter_map (fun m ->
         match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
         | Some (Json.Str name), Some (Json.Str better), Some (Json.Num bound) ->
           Some { name; lower_is_better = better = "lower"; bound }
         | _ -> None)

(* The untraced records of a file: ((workload, metric), value) over the
   correct ones, and how many were incorrect. *)
let load path =
  let records =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Json.parse
    |> List.filter (fun r -> Json.member "trace" r = Some (Json.Num 0.0))
  in
  let correct, incorrect =
    List.partition (fun r -> Json.member "correct" r = Some (Json.Bool true)) records
  in
  let values r =
    match (Json.member "workload" r, Json.member "metrics" r) with
    | Some (Json.Str w), Some (Json.Obj ms) ->
      List.filter_map
        (fun (k, v) ->
          Option.bind (Json.member "value" v) Json.num |> Option.map (fun x -> ((w, k), x)))
        ms
    | _ -> []
  in
  Printf.printf "%s: %d correct record(s), %d incorrect (left out)\n" path (List.length correct)
    (List.length incorrect);
  (List.concat_map values correct, List.length incorrect)

let main ~benchmark a b =
  let ra, bad_a = load a in
  let rb, bad_b = load b in
  let workloads = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) (ra @ rb)) in
  let values rs key = List.filter_map (fun (k, v) -> if k = key then Some v else None) rs in
  let show = function
    | [] -> "-"
    | v ->
      let q1, med, q3 = quartiles v in
      Printf.sprintf "%.4g / %.4g / %.4g" q1 med q3
  in
  let bounds = bounds benchmark and bad = ref (bad_a + bad_b) in
  Printf.printf "%-18s %-22s %6s %32s %32s  %s\n" "workload" "metric" "bound" "A q1 / median / q3"
    "B q1 / median / q3" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let va = values ra (w, m.name) and vb = values rb (w, m.name) in
          let verdict, detail =
            match (va, vb) with
            | [], _ | _, [] -> ("missing", "")
            | _ ->
              let qa = quartiles va and qb = quartiles vb in
              let _, ma, _ = qa and _, mb, _ = qb in
              let change = (mb -. ma) /. Float.abs ma in
              let worse = if m.lower_is_better then change else -.change in
              ( (if spread qa > m.bound || spread qb > m.bound then "unresolved"
                 else if worse > m.bound then "worse"
                 else if worse < -.m.bound then "better"
                 else "within"),
                Printf.sprintf " (%+.1f%%; spreads %.1f%% / %.1f%%)" (100.0 *. change)
                  (100.0 *. spread qa) (100.0 *. spread qb) )
          in
          if verdict <> "within" && verdict <> "better" then incr bad;
          Printf.printf "%-18s %-22s %5.0f%% %32s %32s  %s%s, n=%d/%d\n" w m.name (100.0 *. m.bound)
            (show va) (show vb) verdict detail (List.length va) (List.length vb))
        bounds)
    workloads;
  if !bad > 0 then 1 else 0
