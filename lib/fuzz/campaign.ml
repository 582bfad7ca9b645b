open Pmtest_util
open Pmtest_model
open Pmtest_trace

type cfg = {
  model : Model.kind;
  count : int;
  seed : int;
  gen : Gen.cfg;
  oracle_share : int;
  shrink : bool;
}

let default_cfg model =
  {
    model;
    count = 1000;
    seed = 0;
    gen = Gen.default_cfg model;
    oracle_share = 3;
    shrink = true;
  }

type finding = {
  found_seed : int;
  pair : Cross.pair;
  detail : string;
  program : Gen.program;
  shrunk : Event.t array;
}

type stats = {
  programs : int;
  events : int;
  applied : (Cross.pair * int) list;
  skipped : (Cross.pair * int) list;
  findings : finding list;
  gen_seconds : float;
  pair_seconds : (Cross.pair * float) list;
}

let program_for_seed cfg s =
  let rng = Rng.create s in
  if cfg.oracle_share > 0 && Rng.int rng cfg.oracle_share = 0 then
    Gen.oracle_program ~with_checkers:true (Gen.oracle_cfg cfg.model) rng
  else Gen.generate { cfg.gen with Gen.model = cfg.model } rng

let run ?(obs = Pmtest_obs.Obs.disabled) ?(on_program = fun _ -> ()) cfg =
  let module Obs = Pmtest_obs.Obs in
  let n_pairs = List.length Cross.all_pairs in
  let applied = Array.make n_pairs 0 in
  let skipped = Array.make n_pairs 0 in
  let pair_time = Array.make n_pairs 0.0 in
  let findings = ref [] in
  let events = ref 0 in
  let gen_seconds = ref 0.0 in
  (* Wall time on the monotonic clock, in seconds. *)
  let seconds_since t0 = float_of_int (Obs.now_ns () - t0) *. 1e-9 in
  for i = 0 to cfg.count - 1 do
    on_program i;
    let s = cfg.seed + i in
    let t0 = Obs.now_ns () in
    let program = program_for_seed cfg s in
    gen_seconds := !gen_seconds +. seconds_since t0;
    let entries = Array.length program.Gen.events in
    events := !events + entries;
    (* Each program plays the role of one section: generation is the
       trace, the cross-check pass is the engine check. *)
    Obs.sync_section obs ~seq:i ~entries @@ fun () ->
    let analysis = Cross.analyse program in
    List.iteri
      (fun pi pair ->
        let t0 = Obs.now_ns () in
        let outcome = Cross.compare_analysis pair analysis in
        pair_time.(pi) <- pair_time.(pi) +. seconds_since t0;
        match outcome with
        | Cross.Agree -> applied.(pi) <- applied.(pi) + 1
        | Cross.Skip _ -> skipped.(pi) <- skipped.(pi) + 1
        | Cross.Disagree detail ->
          applied.(pi) <- applied.(pi) + 1;
          let shrunk =
            if not cfg.shrink then program.Gen.events
            else
              Shrink.minimize
                ~pred:(fun evs -> Cross.disagrees pair { program with Gen.events = evs })
                program.Gen.events
          in
          findings := { found_seed = s; pair; detail; program; shrunk } :: !findings)
      Cross.all_pairs
  done;
  let assoc arr = List.mapi (fun pi pair -> (pair, arr.(pi))) Cross.all_pairs in
  {
    programs = cfg.count;
    events = !events;
    applied = assoc applied;
    skipped = assoc skipped;
    findings = List.rev !findings;
    gen_seconds = !gen_seconds;
    pair_seconds = List.mapi (fun pi pair -> (pair, pair_time.(pi))) Cross.all_pairs;
  }

let run_range ?obs ?on_program cfg ~lo ~hi =
  if hi < lo then invalid_arg "Campaign.run_range: inverted seed range";
  run ?obs ?on_program { cfg with seed = lo; count = hi - lo }

(* Everything result equality is judged on, and nothing that depends on
   the wall clock: the farm coordinator compares these digests across
   job attempts to detect nondeterminism, so [gen_seconds] and
   [pair_seconds] are deliberately excluded. *)
let digest s =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "programs %d\nevents %d\n" s.programs s.events;
  List.iter
    (fun (pair, n) ->
      Printf.bprintf buf "applied %s %d %d\n" (Cross.pair_name pair) n (List.assoc pair s.skipped))
    s.applied;
  List.iter
    (fun f ->
      Printf.bprintf buf "finding %d %s %s\n" f.found_seed (Cross.pair_name f.pair) f.detail;
      Array.iter
        (fun e ->
          Buffer.add_string buf (Serial.entry_to_line e);
          Buffer.add_char buf '\n')
        f.shrunk)
    s.findings;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_stats ppf s =
  Format.fprintf ppf "@[<v>%d program(s), %d trace entries" s.programs s.events;
  List.iter
    (fun (pair, n) ->
      let sk = List.assoc pair s.skipped in
      let t = List.assoc pair s.pair_seconds in
      Format.fprintf ppf "@,  %-18s applied %6d  skipped %6d  %8.3fs" (Cross.pair_name pair) n
        sk t)
    s.applied;
  Format.fprintf ppf "@,generation: %.3fs" s.gen_seconds;
  if s.findings = [] then Format.fprintf ppf "@,no disagreements@]"
  else begin
    Format.fprintf ppf "@,%d DISAGREEMENT(S):" (List.length s.findings);
    List.iter
      (fun f ->
        Format.fprintf ppf "@,  seed %d pair %s: %s (shrunk to %d event(s))" f.found_seed
          (Cross.pair_name f.pair) f.detail (Array.length f.shrunk))
      s.findings;
    Format.fprintf ppf "@]"
  end
