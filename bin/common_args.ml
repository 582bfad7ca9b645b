(* Shared Cmdliner terms.  Every subcommand that takes a persistency
   model, a worker count or an output-format switch gets it from here,
   so flag names, docs and defaults cannot drift between subcommands. *)

open Cmdliner
module Model = Pmtest_model.Model

let model_assoc = List.map (fun k -> (Model.kind_name k, k)) Model.all_kinds

let model_doc =
  Printf.sprintf "Persistency model: %s." (String.concat ", " Model.kind_names)

let model_opt ~doc = Arg.(value (opt (some (enum model_assoc)) None (info [ "model" ] ~doc)))

(* Model *sets* (the fuzz campaign runs several). *)
let models =
  Arg.(
    value
      (opt
         (enum
            [
              ("x86", [ Model.X86 ]);
              ("hops", [ Model.Hops ]);
              ("eadr", [ Model.Eadr ]);
              ("cxl", [ Model.Cxl ]);
              ("both", [ Model.X86; Model.Hops ]);
              ("all", Model.all_kinds);
            ])
         Model.all_kinds
         (info [ "model" ]
            ~doc:
              "Persistency model(s) to fuzz: x86, hops, eadr, cxl, both (x86+hops) or all.")))

let workers ?(default = 1) ?(doc = "PMTest worker threads.") () =
  Arg.(value (opt int default (info [ "workers" ] ~doc)))

let seed ?(default = 42) ?(doc = "Workload RNG seed.") () =
  Arg.(value (opt int default (info [ "seed" ] ~doc)))

let ops ?(default = 2000) ?(doc = "Operations to run.") () =
  Arg.(value (opt int default (info [ "ops" ] ~doc)))

let threads = Arg.(value (opt int 1 (info [ "threads" ] ~doc:"Server threads (memcached).")))

let section ?(default = 256) () =
  Arg.(
    value
      (opt int default
         (info [ "section" ] ~doc:"Trace entries per section when replaying a file or case.")))

let verbose ~doc = Arg.(value (flag (info [ "v"; "verbose" ] ~doc)))

let profile ~doc = Arg.(value (flag (info [ "profile" ] ~doc)))

let machine ~doc = Arg.(value (flag (info [ "machine" ] ~doc)))

let json =
  Arg.(
    value
      (opt (some string) None
         (info [ "json" ] ~docv:"FILE"
            ~doc:"Also write the profile as JSON lines to $(docv).")))

let socket ?(doc = "Path of the daemon's Unix domain socket.") () =
  Arg.(value (opt string "pmtestd.sock" (info [ "socket" ] ~doc)))
