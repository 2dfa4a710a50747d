(** The fabric wire protocol: supervisor↔worker messages and shard
    cache keys.

    Same stack and discipline as {!Ise_serve.Proto}: {!Ise_pool.Codec}
    frames whose protocol byte is {!version}, payloads sealed by
    {!Ise_pool.Codec.seal} ([Marshal] plus an MD5 digest — [Marshal]
    is safe because supervisor and workers are the same [ise]
    executable image), a mandatory {!Hello} handshake, and typed
    {!Ise_serve.Framed.err_kind} error frames for anything malformed.

    {b One version.}  There is no negotiation: every frame carries
    {!version}, and both ends of a {!Hello}/{!Hello_ok} exchange
    require the peer's [proto] to equal it.  A worker answers any
    other version with an [Unsupported_proto] error frame; a
    supervisor that gets a {!Hello_ok} at another version logs a
    failed handshake and never dispatches to that worker.  Every
    message — {!Ping}, trace context, {!Telemetry} — is therefore
    available on every connection.  Every payload read off the wire
    goes through {!Ise_pool.Codec.unseal}: digest, then structural
    marshal validation, then unmarshal.

    A connection carries one campaign: the supervisor sends
    {!Set_spec} once — the full {!campaign} description, from which
    the worker re-derives the test/trial stream — and then streams
    {!Run} jobs that name only shard {e ranges}.  Shipping the spec
    once and ranges thereafter keeps per-shard frames tiny regardless
    of campaign size. *)

open Ise_fuzz

val version : int
(** The fabric protocol version (3): the Codec protocol byte of every
    frame, and the [proto] of {!Hello}/{!Hello_ok}.  It differs from
    {!Ise_serve.Proto.version} and from the pool's 0, so a frame sent
    to the wrong kind of endpoint is refused from its header with
    [Unsupported_proto] and never unmarshalled as this module's
    types. *)

val hello_proto : int
(** Equal to {!version}.  Kept only so the benchmark under
    [perfbench/], which frames its Hello with it, still compiles; no
    in-tree code uses it. *)

(** {1 Campaigns} *)

type campaign =
  | Fuzz of Campaign.spec
  | Chaos of Ise_chaos.Chaos_run.spec

val campaign_count : campaign -> int
(** Tests (fuzz) or trials (chaos) — the unit {!Plan.partition}
    shards. *)

val campaign_seed : campaign -> int

(** {1 Messages} *)

type job = {
  j_shard : int;  (** shard index, echoed back in the result *)
  j_lo : int;  (** global test/trial range [j_lo, j_hi) *)
  j_hi : int;
  j_ctx : (string * string) option;
      (** [(trace_id, dispatch_span_id)] — the worker parents its
          shard span under the supervisor's dispatch span.  [None]
          when tracing is off *)
  j_stream : bool;
      (** ask the worker to follow Shard_done / Pong with a
          {!Telemetry} delta-snapshot *)
}

type request =
  | Hello of { proto : int; git_rev : string }
      (** mandatory first request of every connection; [proto] must
          be {!version}, [git_rev] is informational *)
  | Set_spec of campaign  (** the campaign; must precede any {!Run} *)
  | Run of job
  | Ping of int
      (** liveness probe; the worker echoes the token in {!Pong} *)
  | Worker_stats_req
  | Shutdown  (** ask the worker to drain and exit *)

type shard_payload =
  | Fuzz_raw of Campaign.raw_failure list  (** in global check order *)
  | Chaos_reports of Ise_chaos.Chaos_run.report list
      (** in global trial order *)

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
  ws_pings : int;  (** pings answered *)
  ws_uptime_s : float;
}

type telemetry_update = {
  tu_pid : int;  (** sender's pid, for per-worker attribution *)
  tu_seq : int;  (** per-worker monotonic sequence number *)
  tu_metrics : Ise_telemetry.Registry.drained;
      (** delta since the worker's previous drain *)
}

type response =
  | Hello_ok of { proto : int; git_rev : string; pid : int }
      (** [proto] is the worker's {!version} *)
  | Spec_ok
  | Pong of int
  | Shard_done of shard_result
  | Shard_failed of { shard : int; reason : string }
      (** the shard's checks raised or its pool lost workers; the
          supervisor re-dispatches *)
  | Worker_stats of worker_stats
  | Telemetry of telemetry_update
      (** unsolicited delta-snapshot, sent after Shard_done/Pong
          when the campaign streams.  Observability-only — the
          supervisor folds it into live aggregates and it never
          touches the result path *)
  | Shutting_down
  | Error of Ise_serve.Framed.err_kind * string
      (** typed error frame; the worker closes the connection after
          sending one *)

(** {1 Framed I/O}

    {!Ise_pool.Codec.send}/{!Ise_pool.Codec.recv} at {!version}. *)

val write_request : ?proto:int -> Unix.file_descr -> request -> unit
(** [proto] (default {!version}) is the frame's protocol byte.  The
    argument is kept only so the benchmark under [perfbench/], which
    passes {!hello_proto}, still compiles; every in-tree caller uses
    the default. *)

val write_response : Unix.file_descr -> response -> unit

val read_response :
  ?max_payload:int -> Unix.file_descr -> (response, string) result
(** Blocking read of one response frame; [Error] describes EOF, a
    protocol-byte mismatch, or a frame or payload that does not
    decode. *)

(** {1 Shard cache keys} *)

val spec_fp : Campaign.spec -> string
(** Fingerprint of a fuzz campaign description (params, counts,
    variants, seed) — the "what program" half of a shard key. *)

val campaign_fp : campaign -> string

val shard_key : campaign -> lo:int -> hi:int -> string
(** {!Ise_serve.Store} key of one shard's payload: campaign
    fingerprint × (seed, range) under the ["fuzz-shard"] /
    ["chaos-shard"] domain of {!Ise_serve.Cache.config_fp}, so
    {!Ise_serve.Cache.store_abi} and the enumeration-engine epoch
    invalidate shard results exactly like litmus and replay results. *)

val shard_payload_to_string : shard_payload -> string
val shard_payload_of_string : string -> shard_payload option
(** [None] if the payload does not decode (digest-checked). *)
