let available = Ise_pool.Pool.fork_available

type t = {
  dir : string;
  jobs : int;
  trace_dir : string option;
  log : (string -> unit) option;
  wpids : int array;  (* worker pids; restart replaces entries *)
  real : string array;  (* sockets the workers themselves listen on *)
  public : string array;  (* what the supervisor connects to *)
  proxies : int array;  (* netchaos proxy pids; empty without netchaos *)
}

let fork_worker ~jobs ~log ?trace_out sock =
  match Unix.fork () with
  | 0 ->
    (* the child is a worker daemon and nothing else: any exit path
       must be _exit, so the parent's at_exit machinery (alcotest,
       telemetry flushes) never runs twice *)
    (try
       let cfg =
         { (Worker.default_config ~socket_path:sock) with
           jobs;
           trace_out;
           log = (match log with Some l -> l | None -> ignore);
         }
       in
       Worker.run cfg
     with _ -> ());
    Unix._exit 0
  | pid -> pid

(* block until the worker accepts — a restarted worker must first
   probe-and-replace its SIGKILLed predecessor's stale socket *)
let wait_ready sock =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec loop () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        ignore (Unix.select [] [] [] 0.05);
        loop ()
      end
  in
  loop ()

let trace_path trace_dir k =
  Option.map
    (fun d -> Filename.concat d (Printf.sprintf "worker%d.trace.json" k))
    trace_dir

let start ?(jobs = 1) ?log ?netchaos ?trace_dir ~dir ~n () =
  if not available then
    invalid_arg "Sim.start: fork is not available on this platform";
  if n <= 0 then invalid_arg "Sim.start: need at least one worker";
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let public =
    Array.init n (fun k -> Filename.concat dir (Printf.sprintf "worker%d.sock" k))
  in
  let real =
    match netchaos with
    | None -> public
    | Some _ ->
      Array.init n (fun k ->
          Filename.concat dir (Printf.sprintf "worker%d.real.sock" k))
  in
  Array.iter
    (fun s -> try Unix.unlink s with Unix.Unix_error _ -> ())
    (Array.append public real);
  (match trace_dir with
   | None -> ()
   | Some d -> (
     try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()));
  let wpids =
    Array.mapi
      (fun k sock ->
        fork_worker ~jobs ~log ?trace_out:(trace_path trace_dir k) sock)
      real
  in
  let proxies =
    match netchaos with
    | None -> [||]
    | Some (seed, profile) ->
      Array.init n (fun k ->
          Netchaos.spawn ?log ~listen:public.(k) ~upstream:real.(k)
            ~seed:(seed + (7919 * k)) ~profile ())
  in
  { dir; jobs; trace_dir; log; wpids; real; public; proxies }

let sockets t = Array.to_list t.public
let pids t = Array.to_list t.wpids

let reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill t k =
  if k < 0 || k >= Array.length t.wpids then invalid_arg "Sim.kill";
  (try Unix.kill t.wpids.(k) Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.wpids.(k)

let restart t k =
  if k < 0 || k >= Array.length t.wpids then invalid_arg "Sim.restart";
  t.wpids.(k) <-
    fork_worker ~jobs:t.jobs ~log:t.log
      ?trace_out:(trace_path t.trace_dir k)
      t.real.(k);
  wait_ready t.real.(k)

let stop t =
  Array.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    t.wpids;
  Array.iter Netchaos.stop_spawned t.proxies;
  Array.iter
    (fun s -> try Unix.unlink s with Unix.Unix_error _ -> ())
    (Array.append t.public t.real)
