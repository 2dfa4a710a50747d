open Ise_fuzz
module Codec = Ise_pool.Codec

(* Bump on any change to the message types or the payload envelope.
   Must differ from the pool's 0 and from [Ise_serve.Proto.version]
   (see there): the protocol byte alone keeps serve and fabric frames
   from being unmarshalled as each other's types. *)
let version = 3

(* not used in-tree; see wire.mli *)
let hello_proto = version

type campaign =
  | Fuzz of Campaign.spec
  | Chaos of Ise_chaos.Chaos_run.spec

let campaign_count = function
  | Fuzz s -> s.Campaign.s_count
  | Chaos cs -> cs.Ise_chaos.Chaos_run.cs_trials

let campaign_seed = function
  | Fuzz s -> s.Campaign.s_seed
  | Chaos cs -> cs.Ise_chaos.Chaos_run.cs_seed

type job = {
  j_shard : int;
  j_lo : int;
  j_hi : int;
  j_ctx : (string * string) option;
      (* (trace_id, dispatch span id): the worker parents its shard
         span under the supervisor's dispatch span *)
  j_stream : bool;  (* stream Telemetry frames after this shard *)
}

type request =
  | Hello of { proto : int; git_rev : string }
  | Set_spec of campaign
  | Run of job
  | Ping of int
  | Worker_stats_req
  | Shutdown

type shard_payload =
  | Fuzz_raw of Campaign.raw_failure list
  | Chaos_reports of Ise_chaos.Chaos_run.report list

type shard_result = {
  sr_shard : int;
  sr_lo : int;
  sr_hi : int;
  sr_payload : shard_payload;
}

type worker_stats = {
  ws_pid : int;
  ws_jobs : int;
  ws_shards_run : int;
  ws_pings : int;
  ws_uptime_s : float;
}

type telemetry_update = {
  tu_pid : int;
  tu_seq : int;
  tu_metrics : Ise_telemetry.Registry.drained;
}

type response =
  | Hello_ok of { proto : int; git_rev : string; pid : int }
  | Spec_ok
  | Pong of int
  | Shard_done of shard_result
  | Shard_failed of { shard : int; reason : string }
  | Worker_stats of worker_stats
  | Telemetry of telemetry_update
  | Shutting_down
  | Error of Ise_serve.Framed.err_kind * string

(* ------------------------------------------------------------------ *)
(* framed I/O                                                          *)

let write_request ?(proto = version) fd (req : request) =
  Codec.send ~proto fd req

let write_response fd (resp : response) = Codec.send ~proto:version fd resp

let read_response ?max_payload fd : (response, string) Stdlib.result =
  match Codec.recv ?max_payload ~proto:version fd with
  | Ok resp -> Ok resp
  | Stdlib.Error `Eof -> Stdlib.Error "connection closed by worker"
  | Stdlib.Error (`Corrupt e) ->
    Stdlib.Error ("corrupt response: " ^ Codec.error_to_string e)

(* ------------------------------------------------------------------ *)
(* shard cache keys and payloads                                       *)

let spec_fp (s : Campaign.spec) =
  Digest.to_hex (Digest.string (Marshal.to_string s []))

let campaign_fp = function
  | Fuzz s -> spec_fp s
  | Chaos cs -> Digest.to_hex (Digest.string (Marshal.to_string cs []))

let campaign_domain = function
  | Fuzz _ -> "fuzz-shard"
  | Chaos _ -> "chaos-shard"

let shard_key c ~lo ~hi =
  Ise_serve.Store.key ~test_fp:(campaign_fp c)
    ~cfg_fp:
      (Ise_serve.Cache.config_fp ~domain:(campaign_domain c)
         [ string_of_int (campaign_seed c);
           string_of_int lo;
           string_of_int hi ])

let shard_payload_to_string (p : shard_payload) = Codec.seal p

let shard_payload_of_string str : shard_payload option = Codec.unseal str
