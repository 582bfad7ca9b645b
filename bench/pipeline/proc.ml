(* Process plumbing: peak RSS, directory cleanup, and the out-of-process
   pmtestd the attach workload talks to. *)

module Server = Pmtest_server.Server

(* Peak resident set ([VmHWM]) of this process in KiB; 0 where /proc is
   not available. *)
let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0
          | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with Some kb -> kb | None -> scan ())
        in
        scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* --- The daemon child ----------------------------------------------------

   The benchmark re-executes itself with [--daemon SOCKET]: the child runs
   [Server.start] with 1 shard and 1 worker, prints "ready", serves until
   its stdin closes, drains, and prints its own peak RSS in KiB.  Closing
   stdin is the only stop signal, so a parent that dies for any reason
   still takes the daemon down with it. *)

let serve socket =
  let srv = Server.start { Server.default_config with Server.socket; shards = 1; workers = 1 } in
  print_string "ready\n";
  flush stdout;
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Server.stop srv;
  Printf.printf "%d\n%!" (vmhwm_kb ())

type daemon = { pid : int; to_child : out_channel; from_child : in_channel; socket : string }

let live : daemon list ref = ref []

let stop_daemon d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  close_out_noerr d.to_child;
  let kb = try int_of_string (input_line d.from_child) with End_of_file | Failure _ -> 0 in
  close_in_noerr d.from_child;
  ignore (Unix.waitpid [] d.pid);
  kb

let () = at_exit (fun () -> List.iter (fun d -> ignore (stop_daemon d)) !live)

let start_daemon ~socket =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--daemon"; socket |] child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  let d =
    {
      pid;
      to_child = Unix.out_channel_of_descr to_child;
      from_child = Unix.in_channel_of_descr from_child;
      socket;
    }
  in
  live := d :: !live;
  match input_line d.from_child with
  | "ready" -> d
  | _ | (exception End_of_file) ->
    ignore (stop_daemon d);
    failwith ("pmtestd child did not start on " ^ socket)
