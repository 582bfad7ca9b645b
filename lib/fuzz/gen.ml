open Pmtest_util
open Pmtest_model
open Pmtest_trace

type program = { model : Model.kind; pm_size : int; events : Event.t array }

type cfg = {
  model : Model.kind;
  lines : int;
  min_ops : int;
  max_ops : int;
  tx : bool;
  exclusions : bool;
  threads : int;
  checker_freq : int;
}

let write_size = 8

let default_cfg model =
  {
    model;
    lines = 8;
    min_ops = 4;
    max_ops = 40;
    tx = true;
    exclusions = true;
    threads = 2;
    checker_freq = 6;
  }

let oracle_cfg model =
  {
    model;
    lines = 4;
    min_ops = 1;
    max_ops = 14;
    tx = false;
    exclusions = false;
    threads = 1;
    checker_freq = 0;
  }

(* Builder shared by both generators: every event gets a unique location
   fuzz:<index> so diagnostics from different tools can be keyed back to
   the event that raised them. *)
type builder = {
  cfg : cfg;
  rng : Rng.t;
  events : Event.t Vec.t;
  (* Ranges written so far, newest first; checker operands come from here
     so assertions are about data the program actually touched. *)
  mutable written : (int * int) list;
}

let emit b ?(thread = 0) kind =
  let loc = Loc.make ~file:"fuzz" ~line:(Vec.length b.events) in
  Vec.push b.events (Event.make ~thread ~loc kind)

let pm_size cfg = cfg.lines * Model.cache_line

(* A random in-bounds byte range, biased toward small, line-local writes
   but occasionally straddling a line boundary. *)
let random_range b =
  let size_limit = pm_size b.cfg in
  let size = 1 + Rng.int b.rng (if Rng.int b.rng 8 = 0 then 2 * Model.cache_line else 16) in
  let size = min size size_limit in
  let addr = Rng.int b.rng (size_limit - size + 1) in
  (addr, size)

let random_thread b = if b.cfg.threads <= 1 then 0 else Rng.int b.rng b.cfg.threads

let fence_op b =
  match b.cfg.model with
  | Model.X86 | Model.Eadr -> Model.Sfence
  | Model.Hops -> if Rng.bool b.rng then Model.Ofence else Model.Dfence
  | Model.Cxl -> Model.Gpf

let written_range b =
  match b.written with
  | [] -> None
  | ranges ->
    let arr = Array.of_list ranges in
    (* Bias toward recent writes: half the time take one of the last 3. *)
    let n = Array.length arr in
    let i = if Rng.bool b.rng then Rng.int b.rng (min 3 n) else Rng.int b.rng n in
    Some arr.(i)

let emit_checker b =
  match written_range b with
  | None -> ()
  | Some (addr, size) ->
    if Rng.bool b.rng then emit b ~thread:(random_thread b) (Event.Checker (Event.Is_persist { addr; size }))
    else (
      match written_range b with
      | None -> ()
      | Some (b_addr, b_size) ->
        emit b ~thread:(random_thread b)
          (Event.Checker
             (Event.Is_ordered_before { a_addr = addr; a_size = size; b_addr; b_size })))

let emit_op b op = emit b ~thread:(random_thread b) (Event.Op op)

(* A flat transaction block, always wrapped in a checker scope so the
   engine's Missing_log detection (which requires an active TX checker
   scope) matches pmemcheck's. *)
let emit_tx b =
  let thread = random_thread b in
  emit b ~thread (Event.Tx Event.Tx_checker_start);
  emit b ~thread (Event.Tx Event.Tx_begin);
  let body = 1 + Rng.int b.rng 5 in
  for _ = 1 to body do
    let addr, size = random_range b in
    (* Usually log before writing; sometimes skip the log (a seeded
       Missing_log), sometimes double-log (Duplicate_log). *)
    let roll = Rng.int b.rng 6 in
    if roll > 0 then emit b ~thread (Event.Tx (Event.Tx_add { addr; size }));
    if roll = 5 then emit b ~thread (Event.Tx (Event.Tx_add { addr; size }));
    emit b ~thread (Event.Op (Model.Write { addr; size }));
    b.written <- (addr, size) :: b.written
  done;
  emit b ~thread (Event.Tx (if Rng.int b.rng 8 = 0 then Event.Tx_abort else Event.Tx_commit));
  emit b ~thread (Event.Tx Event.Tx_checker_end)

let generate cfg rng =
  let b = { cfg; rng; events = Vec.create (); written = [] } in
  let span = cfg.max_ops - cfg.min_ops + 1 in
  let target = cfg.min_ops + Rng.int rng (max 1 span) in
  let ops = ref 0 in
  let since_checker = ref 0 in
  while !ops < target do
    let roll = Rng.int rng 100 in
    if roll < 40 then begin
      let addr, size = random_range b in
      emit_op b (Model.Write { addr; size });
      b.written <- (addr, size) :: b.written;
      incr ops
    end
    else if roll < 60 then begin
      (match cfg.model with
      | Model.X86 | Model.Eadr ->
        let addr, size =
          match written_range b with Some r when Rng.bool rng -> r | _ -> random_range b
        in
        emit_op b (Model.Clwb { addr; size })
      | Model.Hops | Model.Cxl -> emit_op b (fence_op b));
      incr ops
    end
    else if roll < 75 then begin
      emit_op b (fence_op b);
      incr ops
    end
    else if roll < 85 && cfg.tx then begin
      emit_tx b;
      incr ops
    end
    else if roll < 92 && cfg.exclusions then begin
      let addr, size = random_range b in
      emit b ~thread:(random_thread b) (Event.Control (Event.Exclude { addr; size }));
      (* Re-include the same range later about half the time. *)
      if Rng.bool rng then begin
        let addr2, size2 = random_range b in
        emit_op b (Model.Write { addr = addr2; size = size2 });
        b.written <- (addr2, size2) :: b.written;
        incr ops
      end;
      if Rng.bool rng then
        emit b ~thread:(random_thread b) (Event.Control (Event.Include { addr; size }))
    end
    else begin
      emit_checker b;
      incr ops
    end;
    incr since_checker;
    if cfg.checker_freq > 0 && !since_checker >= cfg.checker_freq then begin
      since_checker := 0;
      emit_checker b
    end
  done;
  (* End quiescently often enough that "no diagnostics" programs exist:
     flush-and-fence everything half the time. *)
  if Rng.bool rng then begin
    (match cfg.model with
    | Model.X86 | Model.Eadr ->
      List.iter (fun (addr, size) -> emit_op b (Model.Clwb { addr; size })) b.written;
      emit_op b Model.Sfence
    | Model.Hops -> emit_op b Model.Dfence
    | Model.Cxl -> emit_op b Model.Gpf)
  end;
  { model = cfg.model; pm_size = pm_size cfg; events = Vec.to_array b.events }

let oracle_program ?(with_checkers = false) cfg rng =
  let b = { cfg; rng; events = Vec.create (); written = [] } in
  let span = cfg.max_ops - cfg.min_ops + 1 in
  let target = cfg.min_ops + Rng.int rng (max 1 span) in
  let line_addr () = Rng.int rng cfg.lines * Model.cache_line in
  let written_lines = Hashtbl.create 8 in
  for _ = 1 to target do
    let roll = Rng.int rng 10 in
    (match cfg.model with
    | Model.X86 ->
      if roll < 5 then begin
        let addr = line_addr () in
        emit_op b (Model.Write { addr; size = write_size });
        Hashtbl.replace written_lines addr ()
      end
      else if roll < 8 then emit_op b (Model.Clwb { addr = line_addr (); size = write_size })
      else emit_op b Model.Sfence
    | Model.Hops ->
      if roll < 6 then begin
        let addr = line_addr () in
        emit_op b (Model.Write { addr; size = write_size });
        Hashtbl.replace written_lines addr ()
      end
      else if roll < 9 then emit_op b Model.Ofence
      else emit_op b Model.Dfence
    | Model.Eadr ->
      if roll < 6 then begin
        let addr = line_addr () in
        emit_op b (Model.Write { addr; size = write_size });
        Hashtbl.replace written_lines addr ()
      end
      else if roll < 8 then emit_op b (Model.Clwb { addr = line_addr (); size = write_size })
      else emit_op b Model.Sfence
    | Model.Cxl ->
      if roll < 6 then begin
        let addr = line_addr () in
        emit_op b (Model.Write { addr; size = write_size });
        Hashtbl.replace written_lines addr ()
      end
      else emit_op b Model.Gpf);
    if with_checkers && Hashtbl.length written_lines > 0 && Rng.int rng 4 = 0 then begin
      let lines = Array.of_seq (Hashtbl.to_seq_keys written_lines) in
      Array.sort compare lines;
      let a = Rng.pick rng lines in
      if Rng.bool rng || Array.length lines < 2 then
        emit b (Event.Checker (Event.Is_persist { addr = a; size = write_size }))
      else begin
        (* Ordering assertions only over distinct cache lines: same-line
           ordering is prefix-coherent in the crash-state model but the
           engine's interval comparison treats it as unordered, a
           documented precision gap, not a bug. *)
        let choices = Array.of_list (List.filter (fun x -> x <> a) (Array.to_list lines)) in
        let bl = Rng.pick rng choices in
        emit b
          (Event.Checker
             (Event.Is_ordered_before
                { a_addr = a; a_size = write_size; b_addr = bl; b_size = write_size }))
      end
    end
  done;
  { model = cfg.model; pm_size = pm_size cfg; events = Vec.to_array b.events }

let aligned_write addr size = size = write_size && addr mod Model.cache_line = 0

let oracle_eligible (p : program) =
  Array.for_all
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Op (Model.Write { addr; size } | Model.Clwb { addr; size }) ->
        aligned_write addr size
      | Event.Op (Model.Sfence | Model.Ofence | Model.Dfence | Model.Gpf) -> true
      | Event.Checker (Event.Is_persist { addr; size }) -> aligned_write addr size
      | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
        aligned_write a_addr a_size && aligned_write b_addr b_size
        && Model.line_of_addr a_addr <> Model.line_of_addr b_addr
      | Event.Tx _ | Event.Control _ -> false)
    p.events

let has_exclusion (p : program) =
  Array.exists
    (fun (e : Event.t) ->
      match e.Event.kind with Event.Control (Event.Exclude _ | Event.Include _) -> true | _ -> false)
    p.events

let has_lint_control (p : program) =
  Array.exists
    (fun (e : Event.t) ->
      match e.Event.kind with Event.Control (Event.Lint_off _ | Event.Lint_on _) -> true | _ -> false)
    p.events

let pp_event ppf (e : Event.t) =
  match e.Event.kind with
  | Event.Op (Model.Write { addr; size }) -> Format.fprintf ppf "w0x%x+%d" addr size
  | Event.Op (Model.Clwb { addr; size }) -> Format.fprintf ppf "f0x%x+%d" addr size
  | Event.Op Model.Sfence -> Format.pp_print_string ppf "s"
  | Event.Op Model.Ofence -> Format.pp_print_string ppf "o"
  | Event.Op Model.Dfence -> Format.pp_print_string ppf "d"
  | Event.Op Model.Gpf -> Format.pp_print_string ppf "g"
  | Event.Checker (Event.Is_persist { addr; size }) -> Format.fprintf ppf "cp0x%x+%d" addr size
  | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
    Format.fprintf ppf "co0x%x+%d<0x%x+%d" a_addr a_size b_addr b_size
  | Event.Tx Event.Tx_begin -> Format.pp_print_string ppf "tb"
  | Event.Tx Event.Tx_commit -> Format.pp_print_string ppf "tc"
  | Event.Tx Event.Tx_abort -> Format.pp_print_string ppf "ta"
  | Event.Tx (Event.Tx_add { addr; size }) -> Format.fprintf ppf "tA0x%x+%d" addr size
  | Event.Tx Event.Tx_checker_start -> Format.pp_print_string ppf "ts"
  | Event.Tx Event.Tx_checker_end -> Format.pp_print_string ppf "te"
  | Event.Control (Event.Exclude { addr; size }) -> Format.fprintf ppf "xe0x%x+%d" addr size
  | Event.Control (Event.Include { addr; size }) -> Format.fprintf ppf "xi0x%x+%d" addr size
  | Event.Control (Event.Lint_off { rule }) -> Format.fprintf ppf "lo(%s)" rule
  | Event.Control (Event.Lint_on { rule }) -> Format.fprintf ppf "li(%s)" rule

let pp_program ppf (p : program) =
  Format.fprintf ppf "%s[%d]:" (Model.kind_name p.model) p.pm_size;
  Array.iteri
    (fun i e ->
      if i > 0 then Format.pp_print_char ppf ';';
      (match (e : Event.t).Event.thread with 0 -> () | t -> Format.fprintf ppf "t%d:" t);
      pp_event ppf e)
    p.events

let program_to_string p = Format.asprintf "%a" pp_program p
