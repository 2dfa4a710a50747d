open Ise_fuzz
module Codec = Ise_pool.Codec

type liveness = {
  connect_retries : int;
  handshake_timeout_s : float;
  max_attempts : int;
  dispatch_timeout_s : float;
  heartbeat_s : float;
  miss_budget : int;
  rejoin_backoff_s : float;
}

let default_liveness = {
  connect_retries = 40;
  handshake_timeout_s = 5.0;
  max_attempts = 3;
  dispatch_timeout_s = 30.0;
  heartbeat_s = 2.0;
  miss_budget = 3;
  rejoin_backoff_s = 1.0;
}

(* Observability plane (all off by default).  Strictly read-only with
   respect to results: streaming, tracing and status snapshots change
   what the supervisor *records*, never what it dispatches, retries, or
   merges — the result path stays byte-identical with everything on. *)
type observe = {
  stream : bool;
      (* set [j_stream] on jobs and absorb the workers' Telemetry
         frames *)
  metrics : Ise_telemetry.Registry.t option;
      (* live aggregate sink for absorbed worker deltas + the
         supervisor's own fabric/* counters *)
  trace : Ise_telemetry.Trace.t option;
      (* dispatch spans, wall-clock µs domain *)
  trace_id : string;  (* campaign trace id; shipped in [j_ctx] *)
  status_out : string option;  (* periodic status JSON snapshot path *)
  status_period_s : float;
  on_status : Ise_telemetry.Json.t -> unit;  (* e.g. the [ise top] renderer *)
}

let default_observe = {
  stream = false;
  metrics = None;
  trace = None;
  trace_id = "";
  status_out = None;
  status_period_s = 0.5;
  on_status = ignore;
}

type config = {
  workers : string list;
  window : int;
  shards : int option;
  straggler_factor : float;
  straggler_floor : float;
  liveness : liveness;
  require_workers : int;
  max_payload : int;
  store : Ise_serve.Store.t option;
  await_rejoin_s : float;
  observe : observe;
  on_shard_done : int -> unit;
  log : string -> unit;
}

let default_config ~workers = {
  workers;
  window = 2;
  shards = None;
  straggler_factor = 4.0;
  straggler_floor = 0.5;
  liveness = default_liveness;
  require_workers = 0;
  max_payload = 64 * 1024 * 1024;
  store = None;
  await_rejoin_s = 0.0;
  observe = default_observe;
  on_shard_done = ignore;
  log = ignore;
}

exception Insufficient_workers of { wanted : int; got : int }

type shard_outcome =
  | Shard_ok of Wire.shard_payload
  | Shard_lost of string

type stats = {
  f_workers : int;
  f_shards : int;
  f_dispatched : int;
  f_redispatched : int;
  f_store_hits : int;
  f_inline : int;
  f_worker_losses : int;
  f_rejoins : int;
  f_pings : int;
  f_hb_losses : int;
  f_telemetry_frames : int;
  f_wall_s : float;
}

(* one connected worker *)
type wstate = {
  w_id : int;
  w_path : string;
  w_fd : Unix.file_descr;
  mutable w_buf : Bytes.t;
  mutable w_len : int;
  mutable w_inflight : (int * float) list;  (* shard, dispatch time *)
  mutable w_dead : bool;
  mutable w_hb_out : int;  (* pings sent and not yet answered by any frame *)
  mutable w_last_ping : float;
  mutable w_refreshes : int;  (* consecutive same-worker re-dispatches *)
  mutable w_done : int;  (* shards this worker completed first *)
  mutable w_draining : bool;  (* sent Shutting_down; loss imminent *)
  mutable w_tele : int;  (* Telemetry frames received *)
}

let set_handshake_timeout fd s =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let connect_worker cfg campaign ~retries id path =
  let rec attempt left =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec fd;
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some fd
    | exception
        Unix.Unix_error
          ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when left > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ignore (Unix.select [] [] [] 0.05);
      attempt (left - 1)
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None
  in
  match attempt retries with
  | None ->
    cfg.log (Printf.sprintf "worker %d (%s): connect failed" id path);
    None
  | Some fd ->
    let fail msg =
      cfg.log (Printf.sprintf "worker %d (%s): %s" id path msg);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None
    in
    (* a handshake must not hang on a stalled wire or a half-dead peer:
       bound each synchronous read, then return to untimed reads (the
       main loop is select-driven) *)
    if cfg.liveness.handshake_timeout_s > 0. then
      set_handshake_timeout fd cfg.liveness.handshake_timeout_s;
    let read_hs () =
      match Wire.read_response ~max_payload:cfg.max_payload fd with
      | r -> r
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
        Stdlib.Error "handshake timed out"
      | exception Unix.Unix_error (e, _, _) ->
        (* e.g. ECONNRESET from a faulted wire: a failed handshake,
           not a supervisor crash *)
        Stdlib.Error ("handshake read: " ^ Unix.error_message e)
    in
    (try
       Wire.write_request fd
         (Wire.Hello
            { proto = Wire.version; git_rev = Ise_obs.Runinfo.git_rev () })
     with Unix.Unix_error _ | Sys_error _ -> ());
    match read_hs () with
    | Stdlib.Error msg -> fail ("handshake failed: " ^ msg)
    | Stdlib.Ok (Wire.Error (kind, msg)) ->
      fail (Printf.sprintf "handshake rejected: %s (%s)"
              (Ise_serve.Framed.err_name kind) msg)
    | Stdlib.Ok (Wire.Hello_ok { proto; pid; _ }) ->
      if proto <> Wire.version then
        fail
          (Printf.sprintf "handshake failed: worker speaks v%d, we speak v%d"
             proto Wire.version)
      else begin
        (try Wire.write_request fd (Wire.Set_spec campaign)
         with Unix.Unix_error _ | Sys_error _ -> ());
        let rec await_spec_ok skips =
          match read_hs () with
          | Stdlib.Ok Wire.Spec_ok ->
            set_handshake_timeout fd 0.;
            cfg.log
              (Printf.sprintf "worker %d (%s): connected, pid %d" id path
                 pid);
            Some
              { w_id = id; w_path = path; w_fd = fd;
                w_buf = Bytes.create 65536; w_len = 0; w_inflight = [];
                w_dead = false; w_hb_out = 0; w_last_ping = 0.;
                w_refreshes = 0; w_done = 0; w_draining = false;
                w_tele = 0 }
          | Stdlib.Ok (Wire.Hello_ok _) when skips > 0 ->
            (* a wire-level duplicate of the Hello_ok already consumed
               (netchaos dup, or a retransmitting relay): skip it
               rather than failing the handshake *)
            await_spec_ok (skips - 1)
          | Stdlib.Ok (Wire.Error (kind, msg)) ->
            fail (Printf.sprintf "spec rejected: %s (%s)"
                    (Ise_serve.Framed.err_name kind) msg)
          | Stdlib.Ok _ -> fail "unexpected response to Set_spec"
          | Stdlib.Error msg -> fail ("Set_spec failed: " ^ msg)
        in
        await_spec_ok 3
      end
    | Stdlib.Ok _ -> fail "unexpected response to Hello"

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let run cfg campaign =
  let t0 = Unix.gettimeofday () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lv = cfg.liveness in
  let obs = cfg.observe in
  let count = Wire.campaign_count campaign in
  let nshards_req =
    match cfg.shards with
    | Some n -> max 1 n
    | None -> max 1 (4 * max 1 (List.length cfg.workers))
  in
  let ranges =
    if count = 0 then [||] else Plan.partition ~count ~shards:nshards_req
  in
  let nshards = Array.length ranges in
  let results : shard_outcome option array = Array.make nshards None in
  let attempts = Array.make nshards 0 in
  let dispatched_once = Array.make nshards false in
  let queued = Array.make nshards false in
  let pending = Queue.create () in
  let dispatched = ref 0 and redispatched = ref 0 and store_hits = ref 0 in
  let inline_runs = ref 0 and worker_losses = ref 0 in
  let pings = ref 0 and hb_losses = ref 0 in
  let tele_frames = ref 0 in
  (* open dispatch spans, keyed (worker id, shard) *)
  let dspans : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  let dspan_name sh = Printf.sprintf "dispatch shard %d" sh in
  let dspan_end w sh =
    match (obs.trace, Hashtbl.find_opt dspans (w.w_id, sh)) with
    | Some tr, Some span_id ->
      Hashtbl.remove dspans (w.w_id, sh);
      Ise_telemetry.Trace.span_end tr ~cat:"fabric"
        ~ctx:
          { Ise_telemetry.Trace.trace_id = obs.trace_id; span_id;
            parent_span_id = None }
        ~name:(dspan_name sh) ~tid:w.w_id (now_us ())
    | _ -> ()
  in
  let unfinished = ref nshards in
  let record sh payload =
    if results.(sh) = None then begin
      results.(sh) <- Some (Shard_ok payload);
      decr unfinished;
      (match cfg.store with
       | Some store ->
         let lo, hi = ranges.(sh) in
         Ise_serve.Store.add store (Wire.shard_key campaign ~lo ~hi)
           (Wire.shard_payload_to_string payload)
       | None -> ());
      cfg.on_shard_done sh
    end
  in
  (* store pre-pass: a shard already computed — by an earlier run or a
     re-dispatched duplicate of this one — never hits a worker *)
  (match cfg.store with
   | None -> ()
   | Some store ->
     Array.iteri
       (fun sh (lo, hi) ->
         match
           Option.bind
             (Ise_serve.Store.find store (Wire.shard_key campaign ~lo ~hi))
             Wire.shard_payload_of_string
         with
         | Some payload ->
           incr store_hits;
           record sh payload
         | None -> ())
       ranges);
  let enqueue sh =
    if results.(sh) = None && not queued.(sh) then begin
      queued.(sh) <- true;
      Queue.add sh pending
    end
  in
  Array.iteri (fun sh _ -> enqueue sh) ranges;
  let registry = Registry.create cfg.workers in
  let workers = ref [] in  (* every wstate ever admitted, dead included *)
  let next_id = ref 0 in
  let live () = List.filter (fun w -> not w.w_dead) !workers in
  let add_worker ~retries path =
    (* a handshake can fail transiently (wire faults, a worker still
       starting up): during the patient initial pass, retry the whole
       connect+handshake a few times before writing the path off —
       rejoin probes (retries = 0) stay single-shot so they cannot
       stall the dispatch loop *)
    let attempts = if retries > 0 then 3 else 1 in
    let rec admit k =
      match connect_worker cfg campaign ~retries !next_id path with
      | Some w ->
        incr next_id;
        workers := !workers @ [ w ];
        Registry.mark_alive registry path;
        true
      | None when k > 1 ->
        ignore (Unix.select [] [] [] 0.1);
        admit (k - 1)
      | None ->
        Registry.mark_down registry path ~now:(Unix.gettimeofday ());
        false
    in
    admit attempts
  in
  if !unfinished > 0 then
    List.iter
      (fun p -> ignore (add_worker ~retries:lv.connect_retries p))
      cfg.workers;
  let initial_workers = !next_id in
  if
    !unfinished > 0 && cfg.require_workers > 0
    && initial_workers < cfg.require_workers
  then begin
    List.iter
      (fun w -> try Unix.close w.w_fd with Unix.Unix_error _ -> ())
      (live ());
    raise
      (Insufficient_workers
         { wanted = cfg.require_workers; got = initial_workers })
  end;
  let ewma = Plan.ewma_create () in
  let inflight_count sh =
    List.fold_left
      (fun acc w ->
        if (not w.w_dead) && List.mem_assoc sh w.w_inflight then acc + 1
        else acc)
      0 !workers
  in
  let worker_lost w reason =
    if not w.w_dead then begin
      w.w_dead <- true;
      incr worker_losses;
      Registry.mark_down registry w.w_path ~now:(Unix.gettimeofday ());
      (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
      cfg.log
        (Printf.sprintf "worker %d (%s) lost: %s" w.w_id w.w_path reason);
      let inflight = w.w_inflight in
      w.w_inflight <- [];
      List.iter
        (fun (sh, _) ->
          if results.(sh) = None && inflight_count sh = 0 then enqueue sh)
        inflight
    end
  in
  let dispatch_to w sh ~redispatch =
    let lo, hi = ranges.(sh) in
    (* every dispatch (duplicates included) opens its own span; the
       worker parents its shard span under whichever dispatch reached
       it, so a stitched timeline shows exactly which attempt won *)
    let span_id = Printf.sprintf "d-%d-%d-w%d" sh attempts.(sh) w.w_id in
    let j_ctx =
      if obs.trace <> None then Some (obs.trace_id, span_id) else None
    in
    (* the span must begin BEFORE the frame hits the socket: the
       worker's "receive" instant is the stitcher's clock anchor, and
       it must never precede its dispatch anchor on a shared clock *)
    (match obs.trace with
     | Some tr ->
       Hashtbl.replace dspans (w.w_id, sh) span_id;
       Ise_telemetry.Trace.span_begin tr ~cat:"fabric"
         ~args:
           [ ("worker", Ise_telemetry.Json.Int w.w_id);
             ("lo", Ise_telemetry.Json.Int lo);
             ("hi", Ise_telemetry.Json.Int hi);
             ("attempt", Ise_telemetry.Json.Int attempts.(sh)) ]
         ~ctx:
           { Ise_telemetry.Trace.trace_id = obs.trace_id; span_id;
             parent_span_id = None }
         ~name:(dspan_name sh) ~tid:w.w_id (now_us ())
     | None -> ());
    match
      Wire.write_request w.w_fd
        (Wire.Run
           { j_shard = sh; j_lo = lo; j_hi = hi; j_ctx; j_stream = obs.stream })
    with
    | () ->
      incr dispatched;
      if redispatch || dispatched_once.(sh) then begin
        incr redispatched;
        cfg.log
          (Printf.sprintf "re-dispatch shard %d (units %d-%d) to worker %d"
             sh lo (hi - 1) w.w_id)
      end;
      dispatched_once.(sh) <- true;
      attempts.(sh) <- attempts.(sh) + 1;
      w.w_inflight <- (sh, Unix.gettimeofday ()) :: w.w_inflight;
      true
    | exception (Unix.Unix_error _ | Sys_error _) ->
      dspan_end w sh;  (* the job never left: close the span *)
      worker_lost w "write failed";
      false
  in
  let dispatch_pending () =
    let progress = ref true in
    while !progress && not (Queue.is_empty pending) do
      progress := false;
      (* least-loaded live worker with window room *)
      let target =
        List.fold_left
          (fun best w ->
            if List.length w.w_inflight >= cfg.window then best
            else
              match best with
              | Some b
                when List.length b.w_inflight <= List.length w.w_inflight ->
                best
              | _ -> Some w)
          None (live ())
      in
      match target with
      | None -> ()
      | Some w ->
        let sh = Queue.pop pending in
        queued.(sh) <- false;
        if results.(sh) = None then begin
          if dispatch_to w sh ~redispatch:false then progress := true
          else enqueue sh
        end
        else progress := true
    done
  in
  let handle_response w (resp : Wire.response) =
    match resp with
    | Wire.Shard_done sr ->
      let sh = sr.Wire.sr_shard in
      if sh < 0 || sh >= nshards then worker_lost w "bogus shard id"
      else if ranges.(sh) <> (sr.Wire.sr_lo, sr.Wire.sr_hi) then
        (* sealed payloads make this a worker bug, not wire damage;
           the echoed range exposes it *)
        worker_lost w
          (Printf.sprintf "shard %d result range [%d, %d) does not match"
             sh sr.Wire.sr_lo sr.Wire.sr_hi)
      else begin
        (match List.assoc_opt sh w.w_inflight with
         | Some td ->
           Plan.observe ewma (Unix.gettimeofday () -. td);
           w.w_inflight <- List.remove_assoc sh w.w_inflight
         | None -> ());
        dspan_end w sh;
        if results.(sh) = None then w.w_done <- w.w_done + 1;
        (* first result wins; a duplicate from a straggler is dropped *)
        record sh sr.Wire.sr_payload
      end
    | Wire.Shard_failed { shard = sh; reason } ->
      if sh < 0 || sh >= nshards then worker_lost w "bogus shard id"
      else begin
        w.w_inflight <- List.remove_assoc sh w.w_inflight;
        dspan_end w sh;
        cfg.log
          (Printf.sprintf "shard %d failed on worker %d: %s" sh w.w_id
             reason);
        if results.(sh) = None && inflight_count sh = 0 then begin
          if attempts.(sh) < lv.max_attempts then enqueue sh
          else begin
            results.(sh) <- Some (Shard_lost reason);
            decr unfinished;
            cfg.on_shard_done sh
          end
        end
      end
    | Wire.Pong _ -> ()  (* any inbound frame already cleared w_hb_out *)
    | Wire.Error (kind, msg) ->
      (* the worker closes the connection after a typed error *)
      worker_lost w
        (Printf.sprintf "error frame: %s (%s)"
           (Ise_serve.Framed.err_name kind) msg)
    | Wire.Telemetry tu ->
      (* observability-only: folded into the live aggregate registry,
         never consulted by dispatch or merge *)
      w.w_tele <- w.w_tele + 1;
      incr tele_frames;
      ignore tu.Wire.tu_seq;
      (match obs.metrics with
       | Some reg -> Ise_telemetry.Registry.absorb reg tu.Wire.tu_metrics
       | None -> ())
    | Wire.Shutting_down ->
      w.w_draining <- true;
      worker_lost w "shutting down"
    | Wire.Hello_ok _ | Wire.Spec_ok | Wire.Worker_stats _ -> ()
  in
  let read_chunk = Bytes.create 65536 in
  let handle_readable w =
    match Unix.read w.w_fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> worker_lost w "eof"
    | n ->
      (* bytes mean the worker is alive (clear heartbeat debt), but
         only a frame that *decodes* clears the refresh budget *)
      w.w_hb_out <- 0;
      if w.w_len + n > Bytes.length w.w_buf then begin
        let cap = max (w.w_len + n) (2 * Bytes.length w.w_buf) in
        let bigger = Bytes.create cap in
        Bytes.blit w.w_buf 0 bigger 0 w.w_len;
        w.w_buf <- bigger
      end;
      Bytes.blit read_chunk 0 w.w_buf w.w_len n;
      w.w_len <- w.w_len + n;
      let continue = ref true in
      while !continue && not w.w_dead do
        match
          Codec.decode ~max_payload:cfg.max_payload ~proto:Wire.version
            w.w_buf ~pos:0 ~len:w.w_len
        with
        | Codec.Need_more -> continue := false
        | Codec.Corrupt e ->
          worker_lost w ("corrupt frame: " ^ Codec.error_to_string e)
        | Codec.Frame { payload; consumed } -> (
          Bytes.blit w.w_buf consumed w.w_buf 0 (w.w_len - consumed);
          w.w_len <- w.w_len - consumed;
          match (Codec.unseal payload : Wire.response option) with
          | Some resp ->
            w.w_refreshes <- 0;
            handle_response w resp
          | None ->
            (* a well-formed frame whose sealed payload failed its
               digest or marshal check: corruption in transit, stream
               still in sync (the codec validated the header). The
               worker is healthy — it computed and memoized the
               result — so re-request its in-flight work on the
               same connection instead of tearing it down, bounded
               by the same refresh budget as straggler refreshes *)
            if w.w_refreshes > lv.miss_budget then begin
              incr hb_losses;
              worker_lost w "undecodable responses beyond refresh budget"
            end
            else begin
              w.w_refreshes <- w.w_refreshes + 1;
              cfg.log
                (Printf.sprintf
                   "worker %d (%s): corrupted response payload; \
                    re-queueing in-flight shards"
                   w.w_id w.w_path);
              (* back to the pending queue, not straight back to [w]:
                 the scheduler can then place the shard on a healthier
                 path, and a worker death mid-redispatch cannot orphan
                 a shard (the queue is the single source of truth) *)
              let inflight = w.w_inflight in
              w.w_inflight <- [];
              List.iter
                (fun (sh, _) ->
                  if results.(sh) = None && inflight_count sh = 0 then
                    enqueue sh)
                inflight
            end)
      done
    | exception
        Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      worker_lost w "connection reset"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let redispatch_stragglers () =
    let dl_straggler =
      Plan.deadline ~factor:cfg.straggler_factor ~floor:cfg.straggler_floor
        ewma
    in
    let dl_timeout =
      if lv.dispatch_timeout_s > 0. then lv.dispatch_timeout_s else infinity
    in
    let dl = min dl_straggler dl_timeout in
    if dl < infinity then begin
      let now = Unix.gettimeofday () in
      List.iter
        (fun w ->
          List.iter
            (fun (sh, td) ->
              if (not w.w_dead) && results.(sh) = None && now -. td > dl
              then begin
                (* duplicate to a peer only while this is the sole
                   in-flight copy — but never exempt a duplicated shard
                   from the absolute timeout below: under wire faults
                   *every* copy's result can be lost, and a shard whose
                   holders all wait on each other would deadlock the
                   campaign *)
                let peer =
                  if inflight_count sh > 1 then None
                  else
                    List.find_opt
                      (fun p ->
                        p != w
                        && List.length p.w_inflight < cfg.window
                        && not (List.mem_assoc sh p.w_inflight))
                      (live ())
                in
                match peer with
                | Some p -> ignore (dispatch_to p sh ~redispatch:true)
                | None ->
                  if now -. td > dl_timeout then begin
                    (* no peer to duplicate to and the absolute timeout
                       passed: the Run frame (or its result) may have
                       been lost on the wire — resend to the same
                       worker, unless it has stopped answering
                       entirely *)
                    if w.w_refreshes > lv.miss_budget then begin
                      incr hb_losses;
                      worker_lost w
                        (Printf.sprintf
                           "unresponsive: %d re-dispatches unanswered"
                           w.w_refreshes)
                    end
                    else begin
                      w.w_refreshes <- w.w_refreshes + 1;
                      w.w_inflight <- List.remove_assoc sh w.w_inflight;
                      ignore (dispatch_to w sh ~redispatch:true)
                    end
                  end
              end)
            w.w_inflight)
        (live ())
    end
  in
  let heartbeats () =
    if lv.heartbeat_s > 0. then begin
      let now = Unix.gettimeofday () in
      List.iter
        (fun w ->
          (* ping only idle workers: a worker crunching a shard is
             single-threaded and legitimately silent — in-flight work
             is policed by dispatch_timeout_s instead *)
          if (not w.w_dead) && w.w_inflight = [] then begin
            if w.w_hb_out > lv.miss_budget then begin
              incr hb_losses;
              worker_lost w
                (Printf.sprintf "heartbeat: %d ping(s) unanswered"
                   w.w_hb_out)
            end
            else if now -. w.w_last_ping >= lv.heartbeat_s then begin
              match
                Wire.write_request w.w_fd (Wire.Ping !pings)
              with
              | () ->
                incr pings;
                w.w_hb_out <- w.w_hb_out + 1;
                w.w_last_ping <- now
              | exception (Unix.Unix_error _ | Sys_error _) ->
                worker_lost w "write failed (ping)"
            end
          end)
        (live ())
    end
  in
  let rejoin_probes () =
    (* one probe per loop iteration, backoff-gated per path: a probe
       blocks for at most the handshake timeout, so probing is rationed *)
    if !unfinished > 0 then
      match
        Registry.due registry ~now:(Unix.gettimeofday ())
          ~backoff:lv.rejoin_backoff_s
      with
      | [] -> ()
      | path :: _ -> ignore (add_worker ~retries:0 path)
  in
  (* live status snapshots: schema [ise-fabric-status/v1], consumed by
     [ise top] and validated in tier-1 tests.  Built only when a sink
     is configured, written atomically (tmp + rename) so a concurrent
     reader never sees a torn document. *)
  let status_enabled = obs.status_out <> None || obs.metrics <> None in
  let status_json () =
    let module J = Ise_telemetry.Json in
    let now = Unix.gettimeofday () in
    let elapsed = now -. t0 in
    let done_ = nshards - !unfinished in
    let rate = if elapsed > 0. then float_of_int done_ /. elapsed else 0. in
    let eta =
      if !unfinished = 0 then 0.
      else if rate > 0. then float_of_int !unfinished /. rate
      else -1.
    in
    (* mirror the supervisor's own counters into the aggregate
       registry so one scrape shows the whole campaign *)
    (match obs.metrics with
     | Some reg ->
       let setc n v =
         Ise_telemetry.Registry.set_counter
           (Ise_telemetry.Registry.counter reg n) v
       in
       setc "fabric/shards" nshards;
       setc "fabric/done" done_;
       setc "fabric/dispatched" !dispatched;
       setc "fabric/redispatched" !redispatched;
       setc "fabric/store_hits" !store_hits;
       setc "fabric/worker_losses" !worker_losses;
       setc "fabric/rejoins" (Registry.rejoins registry);
       setc "fabric/pings" !pings;
       setc "fabric/hb_losses" !hb_losses;
       setc "fabric/telemetry_frames" !tele_frames;
       Ise_telemetry.Registry.set
         (Ise_telemetry.Registry.gauge reg "fabric/shards_per_s")
         rate
     | None -> ());
    let worker_json w =
      let state =
        if w.w_draining then "draining"
        else if w.w_dead then "down"
        else "up"
      in
      J.Obj
        [ ("id", J.Int w.w_id); ("path", J.String w.w_path);
          ("proto", J.Int Wire.version); ("state", J.String state);
          ("inflight", J.Int (List.length w.w_inflight));
          ("done", J.Int w.w_done);
          ("telemetry_frames", J.Int w.w_tele) ]
    in
    J.Obj
      ([ ("schema", J.String "ise-fabric-status/v1");
         ("run_id", J.String (Ise_obs.Runinfo.run_id ()));
         ("ts_us", J.Int (now_us ()));
         ("shards", J.Int nshards); ("done", J.Int done_);
         ("wall_s", J.Float elapsed);
         ("shards_per_s", J.Float rate);
         ("eta_s", J.Float eta);
         ("ewma_ms", J.Float (Plan.mean ewma *. 1e3));
         ( "counters",
           J.Obj
             [ ("dispatched", J.Int !dispatched);
               ("redispatched", J.Int !redispatched);
               ("store_hits", J.Int !store_hits);
               ("inline", J.Int !inline_runs);
               ("worker_losses", J.Int !worker_losses);
               ("rejoins", J.Int (Registry.rejoins registry));
               ("pings", J.Int !pings);
               ("hb_losses", J.Int !hb_losses);
               ("telemetry_frames", J.Int !tele_frames) ] );
         ("workers", J.List (List.map worker_json !workers)) ]
      @
      match obs.metrics with
      | Some reg -> [ ("metrics", Ise_telemetry.Registry.to_json reg) ]
      | None -> [])
  in
  let emit_status () =
    if status_enabled then begin
      let doc = status_json () in
      (match obs.status_out with
       | Some path ->
         let tmp = path ^ ".tmp" in
         (try
            let oc = open_out_bin tmp in
            output_string oc (Ise_telemetry.Json.to_string doc);
            output_char oc '\n';
            close_out oc;
            Sys.rename tmp path
          with Sys_error _ -> ())
       | None -> ());
      obs.on_status doc
    end
  in
  let last_status = ref 0. in
  let maybe_status () =
    if status_enabled then begin
      let now = Unix.gettimeofday () in
      if now -. !last_status >= obs.status_period_s then begin
        last_status := now;
        emit_status ()
      end
    end
  in
  (* main loop: dispatch, multiplex, watch stragglers and liveness,
     re-admit returning workers *)
  let revive_budget = ref 3 in
  let rec drive () =
    while !unfinished > 0 && live () <> [] do
      dispatch_pending ();
      let fds = List.map (fun w -> w.w_fd) (live ()) in
      if fds <> [] then begin
        (match Unix.select fds [] [] 0.05 with
         | readable, _, _ ->
           List.iter
             (fun fd ->
               match List.find_opt (fun w -> w.w_fd = fd) (live ()) with
               | Some w -> handle_readable w
               | None -> ())
             readable
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        redispatch_stragglers ();
        heartbeats ();
        rejoin_probes ();
        maybe_status ()
      end
    done;
    (* every worker is down: sweep all Down paths once (backoff
       ignored) before giving up on the fabric — bounded so a fabric
       that keeps dying cannot livelock the campaign *)
    if !unfinished > 0 && !revive_budget > 0 then begin
      decr revive_budget;
      if List.exists (fun p -> add_worker ~retries:0 p) (Registry.down registry)
      then drive ()
    end
  in
  drive ();
  (* no workers left (or none ever connected): finish inline so the
     campaign always completes — dead fabric degrades to single-host *)
  if !unfinished > 0 then begin
    let tests =
      lazy
        (match campaign with
         | Wire.Fuzz spec -> Campaign.tests_of_spec spec
         | Wire.Chaos _ -> [||])
    in
    let check_inline lo hi =
      match campaign with
      | Wire.Fuzz spec ->
        Wire.Fuzz_raw
          (Campaign.check_range spec ~tests:(Lazy.force tests) ~lo ~hi)
      | Wire.Chaos cs ->
        Wire.Chaos_reports (Ise_chaos.Chaos_run.check_range cs ~lo ~hi)
    in
    Array.iteri
      (fun sh (lo, hi) ->
        if results.(sh) = None then begin
          incr inline_runs;
          cfg.log
            (Printf.sprintf "running shard %d (units %d-%d) inline" sh lo
               (hi - 1));
          match check_inline lo hi with
          | payload -> record sh payload
          | exception e ->
            results.(sh) <- Some (Shard_lost (Printexc.to_string e));
            decr unfinished;
            cfg.on_shard_done sh
        end)
      ranges
  end;
  (* bounded rejoin barrier: a soak that kills and restarts a worker
     wants the rejoin path exercised even when the campaign drains
     before any probe lands — under heavy wire faults the single-shot
     probes can be starved for the whole (short) campaign.  Keep
     probing the Down paths until one rejoins or the grace expires;
     results are already complete, so this only extends wall clock. *)
  if cfg.await_rejoin_s > 0.0 && Registry.rejoins registry = 0
     && Registry.down registry <> []
  then begin
    let deadline = Unix.gettimeofday () +. cfg.await_rejoin_s in
    cfg.log
      (Printf.sprintf "awaiting a rejoin for up to %.0fs" cfg.await_rejoin_s);
    while Registry.rejoins registry = 0 && Unix.gettimeofday () < deadline do
      match
        Registry.due registry ~now:(Unix.gettimeofday ())
          ~backoff:lv.rejoin_backoff_s
      with
      | [] -> ignore (Unix.select [] [] [] 0.05)
      | path :: _ -> ignore (add_worker ~retries:0 path)
    done
  end;
  (* trailing telemetry: a worker sends its last delta right after its
     final Shard_done, which usually lands after the drive loop has
     already drained — sweep the sockets briefly so the aggregate
     registry sees every shard.  Results are complete; this is
     read-only and bounded. *)
  if obs.stream && !tele_frames > 0 then begin
    let deadline = Unix.gettimeofday () +. 0.25 in
    let continue = ref true in
    while !continue && Unix.gettimeofday () < deadline do
      match List.map (fun w -> w.w_fd) (live ()) with
      | [] -> continue := false
      | fds -> (
        match Unix.select fds [] [] 0.05 with
        | [], _, _ -> continue := false
        | readable, _, _ ->
          List.iter
            (fun fd ->
              match List.find_opt (fun w -> w.w_fd = fd) (live ()) with
              | Some w -> handle_readable w
              | None -> ())
            readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done
  end;
  List.iter
    (fun w ->
      if not w.w_dead then begin
        w.w_dead <- true;
        (try Unix.close w.w_fd with Unix.Unix_error _ -> ())
      end)
    !workers;
  emit_status ();
  let outcomes =
    Array.map
      (function Some o -> o | None -> Shard_lost "unreachable")
      results
  in
  ( ranges,
    outcomes,
    {
      f_workers = !next_id;
      f_shards = nshards;
      f_dispatched = !dispatched;
      f_redispatched = !redispatched;
      f_store_hits = !store_hits;
      f_inline = !inline_runs;
      f_worker_losses = !worker_losses;
      f_rejoins = Registry.rejoins registry;
      f_pings = !pings;
      f_hb_losses = !hb_losses;
      f_telemetry_frames = !tele_frames;
      f_wall_s = Unix.gettimeofday () -. t0;
    } )
