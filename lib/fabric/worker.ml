open Ise_fuzz
module Framed = Ise_serve.Framed
module Trace = Ise_telemetry.Trace
module Registry = Ise_telemetry.Registry
module Json = Ise_telemetry.Json

type config = {
  socket_path : string;
  jobs : int;
  max_payload : int;
  trace_out : string option;
  log : string -> unit;
}

let default_config ~socket_path = {
  socket_path;
  jobs = 1;
  max_payload = 64 * 1024 * 1024;
  trace_out = None;
  log = ignore;
}

(* Pool jobs carry the campaign, so the pool's function is fixed at
   creation and the workers can be prespawned before any campaign
   arrives.  Each process (the daemon and every forked pool worker)
   memoizes the regenerated fuzz test stream per spec fingerprint: a
   campaign's generation cost is paid once per process, not once per
   shard.  Chaos campaigns need no memo — trials are self-contained. *)
let memo : (string * Ise_litmus.Lit_test.t array) option ref = ref None

let tests_for spec =
  let fp = Wire.spec_fp spec in
  match !memo with
  | Some (fp', tests) when fp' = fp -> tests
  | _ ->
    let tests = Campaign.tests_of_spec spec in
    memo := Some (fp, tests);
    tests

(* The trace context rides the pool's Codec job frames too, so a
   forked pool worker can attribute its work to the campaign's
   distributed trace (via the flight recorder, when one is enabled —
   a no-op otherwise). *)
type pool_job = {
  pj_campaign : Wire.campaign;
  pj_lo : int;
  pj_hi : int;
  pj_ctx : (string * string) option;  (* (trace_id, parent span id) *)
}

let check { pj_campaign = c; pj_lo = lo; pj_hi = hi; pj_ctx } :
    Wire.shard_payload =
  (match pj_ctx with
   | None -> ()
   | Some (trace_id, parent) ->
     Ise_obs.Recorder.note ~cat:"fabric"
       ~args:
         [ (Trace.ctx_key_trace, Json.String trace_id);
           (Trace.ctx_key_parent, Json.String parent);
           ("lo", Json.Int lo); ("hi", Json.Int hi) ]
       "pool-subrange");
  match c with
  | Wire.Fuzz spec ->
    Wire.Fuzz_raw (Campaign.check_range spec ~tests:(tests_for spec) ~lo ~hi)
  | Wire.Chaos cs ->
    Wire.Chaos_reports (Ise_chaos.Chaos_run.check_range cs ~lo ~hi)

let concat_payloads (ps : Wire.shard_payload list) : Wire.shard_payload =
  match ps with
  | Wire.Chaos_reports _ :: _ ->
    Wire.Chaos_reports
      (List.concat_map
         (function Wire.Chaos_reports rs -> rs | Wire.Fuzz_raw _ -> [])
         ps)
  | _ ->
    Wire.Fuzz_raw
      (List.concat_map
         (function Wire.Fuzz_raw rs -> rs | Wire.Chaos_reports _ -> [])
         ps)

type t = {
  cfg : config;
  framed : Framed.t;
  started : float;
  pool : (pool_job, Wire.shard_payload) Ise_pool.Pool.t option;
  registry : Registry.t;  (* drained into Telemetry frames *)
  trace : Trace.t;  (* wall-clock µs shard spans, written to trace_out *)
  pool_sink : Ise_telemetry.Sink.t;
      (* shares [registry]; its trace is a throwaway — pool spans use
         relative timestamps and would pollute the stitched timeline *)
  mutable stream : bool;  (* the supervisor asked for Telemetry frames *)
  mutable tele_seq : int;
  mutable campaign : Wire.campaign option;
  mutable shards_run : int;
  mutable pings : int;
  mutable errors : int;
}

let create cfg =
  let framed = Framed.create ~socket_path:cfg.socket_path () in
  (* fork the pool before any supervisor connects, so pool workers
     inherit a pristine address space (no connection fds) *)
  let pool =
    if cfg.jobs > 1 && Ise_pool.Pool.fork_available then begin
      let p = Ise_pool.Pool.create ~jobs:cfg.jobs check in
      Ise_pool.Pool.prespawn p;
      Some p
    end
    else None
  in
  let registry = Registry.create () in
  {
    cfg;
    framed;
    started = Unix.gettimeofday ();
    pool;
    registry;
    trace = Trace.create ();
    pool_sink = { Ise_telemetry.Sink.registry; trace = Trace.create () };
    stream = false;
    tele_seq = 0;
    campaign = None;
    shards_run = 0;
    pings = 0;
    errors = 0;
  }

let request_drain t = Framed.request_drain t.framed
let install_signal_handlers t = Framed.install_signal_handlers t.framed

let stats t = {
  Wire.ws_pid = Unix.getpid ();
  ws_jobs = t.cfg.jobs;
  ws_shards_run = t.shards_run;
  ws_pings = t.pings;
  ws_uptime_s = Unix.gettimeofday () -. t.started;
}

let send t conn resp =
  try Wire.write_response (Framed.fd conn) resp
  with Unix.Unix_error _ | Sys_error _ -> Framed.close_conn t.framed conn

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Atomic (tmp + rename) so a reader — or the stitcher — never sees a
   torn file, and written after *every* shard because a simulated
   worker dies by SIGKILL: the last drain is not guaranteed to run. *)
let flush_trace t =
  match t.cfg.trace_out with
  | None -> ()
  | Some path ->
    let doc =
      Trace.to_chrome_json
        ~meta:
          (("role", Json.String "worker")
           :: ("pid", Json.Int (Unix.getpid ()))
           :: Ise_obs.Runinfo.stamp ())
        t.trace
    in
    let tmp = path ^ ".tmp" in
    (try
       let oc = open_out_bin tmp in
       output_string oc (Json.to_string doc);
       close_out oc;
       Sys.rename tmp path
     with Sys_error _ -> ())

(* Delta-snapshot frame: everything the registry accumulated since the
   previous drain.  Observability-only — losing one (dead supervisor,
   faulted wire) loses a little visibility, never a result. *)
let send_telemetry t conn =
  if t.stream then begin
    let d = Registry.drain t.registry in
    if d <> [] then begin
      t.tele_seq <- t.tele_seq + 1;
      send t conn
        (Wire.Telemetry
           { tu_pid = Unix.getpid (); tu_seq = t.tele_seq; tu_metrics = d })
    end
  end

let send_error t conn kind msg =
  t.errors <- t.errors + 1;
  t.cfg.log (Printf.sprintf "error to supervisor: %s (%s)"
               (Framed.err_name kind) msg);
  (try Wire.write_response (Framed.fd conn) (Wire.Error (kind, msg))
   with Unix.Unix_error _ | Sys_error _ -> ());
  Framed.close_conn t.framed conn

(* One shard: fan [lo, hi) out over the persistent pool in contiguous
   sub-ranges (results concatenated in order keep global check order),
   or run inline when the pool is disabled.  Any sub-range failure
   fails the whole shard — the supervisor's re-dispatch handles it. *)
let run_shard t campaign (j : Wire.job) =
  (* Shard span, parented under the supervisor's dispatch span when the
     job carries a context.  The "receive" instant is the stitcher's
     clock anchor: its (wall-clock) timestamp pairs with the dispatch
     span's begin on the supervisor side. *)
  let ctx =
    match j.Wire.j_ctx with
    | None -> None
    | Some (trace_id, dispatch_span) ->
      let span_id =
        Printf.sprintf "w%d-s%d-%d" (Unix.getpid ()) j.Wire.j_shard
          t.shards_run
      in
      Some
        { Trace.trace_id; span_id; parent_span_id = Some dispatch_span }
  in
  let span_name = Printf.sprintf "shard %d" j.Wire.j_shard in
  (match ctx with
   | None -> ()
   | Some c ->
     let now = now_us () in
     Trace.instant t.trace ~cat:"fabric" ~ctx:c ~name:"receive" ~tid:0 now;
     Trace.span_begin t.trace ~cat:"fabric"
       ~args:[ ("lo", Json.Int j.Wire.j_lo); ("hi", Json.Int j.Wire.j_hi) ]
       ~ctx:c ~name:span_name ~tid:0 now);
  let started = Unix.gettimeofday () in
  let sub_results =
    match t.pool with
    | Some pool when j.Wire.j_hi - j.Wire.j_lo > 1 ->
      let parts =
        Plan.partition ~count:(j.Wire.j_hi - j.Wire.j_lo) ~shards:t.cfg.jobs
      in
      let pj_ctx =
        Option.map (fun c -> (c.Trace.trace_id, c.Trace.span_id)) ctx
      in
      let pjobs =
        Array.map
          (fun (a, b) ->
            { pj_campaign = campaign; pj_lo = j.Wire.j_lo + a;
              pj_hi = j.Wire.j_lo + b; pj_ctx })
          parts
      in
      let telemetry = if t.stream then Some t.pool_sink else None in
      let outcomes, _stats = Ise_pool.Pool.run ?telemetry pool pjobs in
      Array.to_list outcomes
      |> List.map (function
           | Ise_pool.Pool.Done payload -> Ok payload
           | Ise_pool.Pool.Failed err ->
             Error (Ise_pool.Pool.error_to_string err)
           | Ise_pool.Pool.Split _ -> assert false (* no bisect here *))
    | _ -> (
      match
        check
          { pj_campaign = campaign; pj_lo = j.Wire.j_lo; pj_hi = j.Wire.j_hi;
            pj_ctx = None }
      with
      | payload -> [ Ok payload ]
      | exception e -> [ Error (Printexc.to_string e) ])
  in
  let elapsed_ms = (Unix.gettimeofday () -. started) *. 1e3 in
  (match ctx with
   | None -> ()
   | Some c ->
     Trace.span_end t.trace ~cat:"fabric" ~ctx:c ~name:span_name ~tid:0
       (now_us ());
     flush_trace t);
  match
    List.find_map (function Error r -> Some r | Ok _ -> None) sub_results
  with
  | Some reason -> Wire.Shard_failed { shard = j.Wire.j_shard; reason }
  | None ->
    let payload =
      concat_payloads
        (List.filter_map (function Ok p -> Some p | Error _ -> None)
           sub_results)
    in
    t.shards_run <- t.shards_run + 1;
    Registry.incr (Registry.counter t.registry "fabric/worker/shards_done");
    Ise_util.Stats.add
      (Registry.histogram t.registry "fabric/worker/shard_ms")
      elapsed_ms;
    Wire.Shard_done
      { sr_shard = j.Wire.j_shard; sr_lo = j.Wire.j_lo; sr_hi = j.Wire.j_hi;
        sr_payload = payload }

let handle_request t conn (req : Wire.request) =
  match req with
  | Wire.Hello { proto; git_rev = _ } ->
    if proto <> Wire.version then
      send_error t conn Framed.Unsupported_proto
        (Printf.sprintf "worker speaks fabric protocol v%d, peer sent v%d"
           Wire.version proto)
    else begin
      Framed.mark_hello conn;
      send t conn
        (Wire.Hello_ok
           { proto = Wire.version; git_rev = Ise_obs.Runinfo.git_rev ();
             pid = Unix.getpid () })
    end
  | _ when not (Framed.hello_done conn) ->
    send_error t conn Framed.Bad_request "first request must be Hello"
  | Wire.Set_spec campaign -> (
    (* regenerating the stream / resolving the profiles validates the
       campaign's parameters before any Run is accepted *)
    let validated =
      match campaign with
      | Wire.Fuzz spec -> (
        match tests_for spec with
        | _tests ->
          Ok
            (Printf.sprintf "fuzz spec set: seed %d, %d tests"
               spec.Campaign.s_seed spec.Campaign.s_count)
        | exception e -> Error ("spec rejected: " ^ Printexc.to_string e))
      | Wire.Chaos cs -> (
        match Ise_chaos.Chaos_run.spec_profiles cs with
        | Ok _ ->
          Ok
            (Printf.sprintf "chaos spec set: seed %d, %d trials"
               cs.Ise_chaos.Chaos_run.cs_seed
               cs.Ise_chaos.Chaos_run.cs_trials)
        | Error msg -> Error ("spec rejected: " ^ msg))
    in
    match validated with
    | Ok msg ->
      t.campaign <- Some campaign;
      t.cfg.log msg;
      send t conn Wire.Spec_ok
    | Error msg -> send_error t conn Framed.Bad_request msg)
  | Wire.Ping token ->
    t.pings <- t.pings + 1;
    Registry.incr (Registry.counter t.registry "fabric/worker/pings");
    send t conn (Wire.Pong token);
    (* an idle streaming worker piggybacks its deltas on heartbeats *)
    send_telemetry t conn
  | Wire.Run j -> (
    match t.campaign with
    | None ->
      send_error t conn Framed.Bad_request "Run before Set_spec"
    | Some campaign ->
      let count = Wire.campaign_count campaign in
      if j.Wire.j_lo < 0 || j.Wire.j_hi > count || j.Wire.j_lo > j.Wire.j_hi
      then
        send_error t conn Framed.Bad_request
          (Printf.sprintf "shard range [%d, %d) outside [0, %d)"
             j.Wire.j_lo j.Wire.j_hi count)
      else begin
        t.cfg.log
          (Printf.sprintf "shard %d: units [%d, %d)" j.Wire.j_shard
             j.Wire.j_lo j.Wire.j_hi);
        if j.Wire.j_stream then t.stream <- true;
        match run_shard t campaign j with
        | resp ->
          send t conn resp;
          send_telemetry t conn
        | exception e ->
          send_error t conn Framed.Internal (Printexc.to_string e)
      end)
  | Wire.Worker_stats_req -> send t conn (Wire.Worker_stats (stats t))
  | Wire.Shutdown ->
    send t conn Wire.Shutting_down;
    t.cfg.log "shutdown requested by supervisor";
    request_drain t

let serve_forever t =
  t.cfg.log (Printf.sprintf "fabric worker on %s (pid %d, jobs %d, proto v%d)"
               t.cfg.socket_path (Unix.getpid ()) t.cfg.jobs Wire.version);
  Framed.serve t.framed ~proto:Wire.version ~max_payload:t.cfg.max_payload
    ~error:(fun conn kind msg -> send_error t conn kind msg)
    ~request:(fun conn (req : Wire.request) -> handle_request t conn req)
    ~on_drained:(fun () ->
      Option.iter Ise_pool.Pool.close t.pool;
      flush_trace t;
      t.cfg.log "drained; bye")

let run cfg =
  let t = create cfg in
  install_signal_handlers t;
  serve_forever t
