(** The fabric supervisor: partitions a campaign into shard ranges,
    dispatches them across workers, and survives everything.

    Dispatch discipline:

    - a worker is admitted only after a strict handshake: its
      {!Wire.Hello_ok} must carry {!Wire.version}, and any other
      version is logged as a failed handshake;
    - each worker holds at most [window] shards in flight;
    - a completed shard feeds the {!Plan.ewma} of shard wall-clock,
      and any shard in flight longer than the EWMA deadline (or the
      absolute [dispatch_timeout_s]) is {e duplicated} to an idle
      worker — first result wins, the late duplicate is dropped;
    - a worker that vanishes (EOF, reset, typed error frame, exhausted
      heartbeat budget) has its in-flight shards re-queued for the
      survivors, and its socket path goes {e Down} in the
      {!Registry} — the supervisor keeps probing Down paths
      (backoff-gated) and {e re-admits} a worker that comes back
      mid-campaign;
    - idle workers are pinged every [heartbeat_s];
      more than [miss_budget] unanswered pings marks the worker lost.
      Busy workers are legitimately silent (the worker loop is
      single-threaded), so in-flight shards are policed by
      [dispatch_timeout_s] instead;
    - a shard whose checks {e fail} (worker-side exception) is retried
      up to [max_attempts] times, then reported {!Shard_lost};
    - when a [store] is given, every shard is looked up before
      dispatch ({!Wire.shard_key}) and written through on completion,
      so repeated or re-dispatched shards hit the store;
    - if every worker dies — or none ever connects — the remaining
      shards run inline in the supervisor: a dead fabric degrades to a
      single-host run instead of hanging.  Set [require_workers] to
      make a thin fabric an {e error} instead
      ({!Insufficient_workers}).

    The supervisor never shrinks, logs failures, or builds reports —
    it only collects raw per-shard results, in an array indexed by
    shard.  {!Merge.merge} / {!Merge.merge_chaos} fold them in shard
    order, which is what makes the fabric output byte-identical to a
    local run. *)

(** Everything time-and-failure related, in one place. *)
type liveness = {
  connect_retries : int;  (** 50 ms connect retries per worker *)
  handshake_timeout_s : float;  (** per-read bound during handshake *)
  max_attempts : int;  (** dispatch attempts before {!Shard_lost} *)
  dispatch_timeout_s : float;
      (** absolute in-flight bound; past it a shard is duplicated to a
          peer, or resent to the same worker when no peer has room *)
  heartbeat_s : float;  (** idle-worker ping interval; 0 disables *)
  miss_budget : int;  (** unanswered pings tolerated before loss *)
  rejoin_backoff_s : float;  (** min delay between probes of a Down path *)
}

val default_liveness : liveness
(** 40 connect retries, 5 s handshake timeout, 3 attempts, 30 s
    dispatch timeout, 2 s heartbeats with budget 3, 1 s rejoin
    backoff. *)

(** The observability plane, all off by default.  Strictly read-only
    with respect to results: streaming, tracing and status snapshots
    change what the supervisor {e records}, never what it dispatches,
    retries or merges — campaign output stays byte-identical with
    everything enabled. *)
type observe = {
  stream : bool;
      (** set [j_stream] on every job and absorb the
          {!Wire.Telemetry} frames they send back *)
  metrics : Ise_telemetry.Registry.t option;
      (** live aggregate sink: absorbed worker deltas plus the
          supervisor's own [fabric/*] counters *)
  trace : Ise_telemetry.Trace.t option;
      (** dispatch spans (wall-clock µs).  When set, workers receive a
          [j_ctx] and parent their shard spans under the
          dispatch span — the raw material for [ise trace stitch] *)
  trace_id : string;  (** campaign trace id shipped in every [j_ctx] *)
  status_out : string option;
      (** path for the periodic [ise-fabric-status/v1] JSON snapshot,
          written atomically (tmp + rename) every [status_period_s]
          and once more after the campaign drains *)
  status_period_s : float;
  on_status : Ise_telemetry.Json.t -> unit;
      (** in-process status consumer (the [--top] renderer); fired on
          the same cadence as [status_out] *)
}

val default_observe : observe
(** No streaming, no sinks, 0.5 s status period. *)

type config = {
  workers : string list;  (** worker socket paths *)
  window : int;  (** max shards in flight per worker *)
  shards : int option;  (** shard count; default [4 × workers] *)
  straggler_factor : float;  (** deadline = factor × EWMA mean *)
  straggler_floor : float;  (** minimum deadline, seconds *)
  liveness : liveness;
  require_workers : int;
      (** if > 0, raise {!Insufficient_workers} when fewer workers
          complete the initial handshake — instead of silently
          degrading to inline *)
  max_payload : int;
  store : Ise_serve.Store.t option;  (** shard-result cache *)
  await_rejoin_s : float;
      (** if > 0 and a worker was lost but none rejoined by the time
          the campaign drains, keep probing Down paths for up to this
          many seconds before returning — soak runs use it so the
          rejoin assertion cannot race a short campaign.  Results are
          unaffected; only wall clock extends.  Default 0 (off). *)
  observe : observe;
  on_shard_done : int -> unit;
      (** fired once per shard on first completion (tests use it to
          kill workers mid-campaign) *)
  log : string -> unit;
}

val default_config : workers:string list -> config
(** window 2, shards [4 × workers], straggler factor 4.0 / floor
    0.5 s, {!default_liveness}, no required minimum, 64 MiB payloads,
    no store, silent. *)

exception Insufficient_workers of { wanted : int; got : int }

type shard_outcome =
  | Shard_ok of Wire.shard_payload
  | Shard_lost of string
      (** every attempt failed, even inline — mirrors a lost pool
          shard: the merge counts its tests in [r_lost_tests] *)

type stats = {
  f_workers : int;  (** handshakes completed, rejoins included *)
  f_shards : int;
  f_dispatched : int;  (** Run frames sent, duplicates included *)
  f_redispatched : int;  (** straggler/loss re-dispatches *)
  f_store_hits : int;  (** shards answered by the store pre-pass *)
  f_inline : int;  (** shards computed in the supervisor *)
  f_worker_losses : int;
  f_rejoins : int;  (** Down paths re-admitted mid-campaign *)
  f_pings : int;  (** heartbeat pings sent *)
  f_hb_losses : int;  (** losses declared by heartbeat/unresponsiveness *)
  f_telemetry_frames : int;  (** {!Wire.Telemetry} frames absorbed *)
  f_wall_s : float;
}

val run :
  config -> Wire.campaign -> (int * int) array * shard_outcome array * stats
(** Execute the campaign across the fabric.  Returns the shard ranges
    (from {!Plan.partition}), one outcome per shard in shard order,
    and dispatch statistics.  Always returns: worker loss degrades to
    re-dispatch, then rejoin, then inline execution.  The only
    exception is {!Insufficient_workers}, raised before any dispatch
    when [require_workers] is unmet. *)
