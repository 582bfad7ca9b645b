open Pmtest_util
module Machine = Pmtest_pmem.Machine

type config = {
  samples_per_point : int;
  exhaustive_limit : int;
  seed : int;
  max_failures : int;
}

let default_config = { samples_per_point = 24; exhaustive_limit = 256; seed = 0xC4A5; max_failures = 8 }

type failure = { crash_point : int; message : string }

type verdict = {
  crash_points : int;
  images_tested : int;
  exhaustive_points : int;
  failures : failure list;
}

let survived v = v.failures = []

let explore ~limit ~samples machine rng f =
  if Machine.crash_state_count machine <= float_of_int limit then begin
    ignore (Machine.iter_crash_states ~limit machine f);
    true
  end
  else begin
    for _ = 1 to samples do
      f (Machine.sample_crash_state machine rng)
    done;
    false
  end

type live = {
  l_machine : Machine.t;
  l_recover : bytes -> (unit, string) result;
  l_config : config;
  l_rng : Rng.t;
  mutable l_ops : int;
  mutable l_crash_points : int;
  mutable l_images : int;
  mutable l_exhaustive : int;
  mutable l_failures : failure list;
}

let live config ~machine ~recover ~who =
  if not (Machine.track_versions machine) then
    invalid_arg (who ^ ": machine must be created with ~track_versions:true");
  {
    l_machine = machine;
    l_recover = recover;
    l_config = config;
    l_rng = Rng.create config.seed;
    l_ops = 0;
    l_crash_points = 0;
    l_images = 0;
    l_exhaustive = 0;
    l_failures = [];
  }

let collecting l = List.length l.l_failures < l.l_config.max_failures

let record l point message =
  if collecting l then l.l_failures <- { crash_point = point; message } :: l.l_failures

(* One crash point: recover every image [explore] yields. *)
let inject l point =
  l.l_crash_points <- l.l_crash_points + 1;
  let try_image img =
    l.l_images <- l.l_images + 1;
    match l.l_recover (Bytes.copy img) with
    | Ok () -> ()
    | Error message -> record l point message
    | exception e -> record l point ("recovery raised " ^ Printexc.to_string e)
  in
  let c = l.l_config in
  if explore ~limit:c.exhaustive_limit ~samples:c.samples_per_point l.l_machine l.l_rng try_image
  then l.l_exhaustive <- l.l_exhaustive + 1

let verdict l =
  {
    crash_points = l.l_crash_points;
    images_tested = l.l_images;
    exhaustive_points = l.l_exhaustive;
    failures = List.rev l.l_failures;
  }

let run ?(config = default_config) ~machine ~recover ~steps ~step () =
  let l = live config ~machine ~recover ~who:"Crashtest.run" in
  inject l (-1);
  for i = 0 to steps - 1 do
    step i;
    if collecting l then inject l i
  done;
  verdict l

let live_inject l = if collecting l then inject l l.l_ops

let attach ?(config = default_config) ?(every = 4) ~machine ~recover () =
  let l = live config ~machine ~recover ~who:"Crashtest.attach" in
  if every <= 0 then invalid_arg "Crashtest.attach: every must be positive";
  let emit kind _loc =
    match (kind : Pmtest_trace.Event.kind) with
    | Pmtest_trace.Event.Op _ ->
      l.l_ops <- l.l_ops + 1;
      if l.l_ops mod every = 0 then live_inject l
    | _ -> ()
  in
  (l, { Pmtest_trace.Sink.emit })

let live_verdict l =
  live_inject l;
  verdict l

let pp_verdict ppf v =
  if survived v then
    Format.fprintf ppf "survived %d crash points (%d durable images tested, %d exhaustive)"
      v.crash_points v.images_tested v.exhaustive_points
  else begin
    Format.fprintf ppf "@[<v>%d violation(s) over %d images:" (List.length v.failures)
      v.images_tested;
    List.iter
      (fun f -> Format.fprintf ppf "@,  after step %d: %s" f.crash_point f.message)
      v.failures;
    Format.fprintf ppf "@]"
  end
