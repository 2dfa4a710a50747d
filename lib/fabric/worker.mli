(** The [ise fabric worker] daemon: executes shard-range jobs for a
    fabric supervisor.

    Built on {!Ise_serve.Framed}, so it has the same connection
    discipline as [ise serve]: Hello-first handshake, typed error
    frames for malformed/oversized/version-skewed traffic,
    SIGTERM/SIGINT drain that unlinks the socket, and stale-socket
    replacement on startup.  A misbehaving supervisor — or a hostile
    wire — can never wedge or crash the worker: every mutated frame
    {!Ise_fabric.Netchaos.Mutate} can produce decodes to a typed
    error, an error frame, or a clean close.

    Protocol: the worker speaks exactly {!Wire.version}; a Hello at any
    other version is answered with an [Unsupported_proto] error frame.
    {!Wire.Ping} is answered with {!Wire.Pong}.  A job with [j_stream]
    set switches the worker into streaming mode: after every Shard_done (and after
    every Pong while idle) it sends one {!Wire.Telemetry} frame
    carrying the delta of its metrics registry since the previous
    drain — shards done, shard wall-clock histogram, pings, and the
    per-pool-worker job-latency histograms from {!Ise_pool.Pool}.

    Work model: {!Wire.Set_spec} installs the campaign — fuzz
    ({!Ise_fuzz.Campaign.check_range}) or chaos
    ({!Ise_chaos.Chaos_run.check_range}); each {!Wire.Run} job names a
    global unit range, fanned out over a persistent {!Ise_pool.Pool}
    of [jobs] forked processes in contiguous sub-ranges (results
    concatenated in order), or run inline when [jobs <= 1].  The fuzz
    test stream is regenerated from the spec and memoized per spec
    fingerprint, so only ranges cross the wire.  Raw results go back
    unshrunk and unlogged: shrinking, reporting and merging are the
    supervisor's (deterministic) job. *)

type config = {
  socket_path : string;
  jobs : int;  (** pool fan-out inside this worker; [<= 1] inline *)
  max_payload : int;
  trace_out : string option;
      (** Chrome trace file for this worker's shard spans (wall-clock
          µs domain), rewritten atomically after every traced shard —
          a SIGKILLed worker still leaves its last-completed-shard
          trace for [ise trace stitch].  Spans are only emitted for
          jobs that carry a {!Wire.job.j_ctx}, so the file stays an
          empty skeleton unless the supervisor traces the campaign *)
  log : string -> unit;
}

val default_config : socket_path:string -> config
(** [jobs = 1], 64 MiB max payload, no trace file, silent. *)

type t

val create : config -> t
(** Binds and listens (replacing a dead predecessor's stale socket,
    refusing to steal a live one), and prespawns the pool when
    [jobs > 1]. *)

val request_drain : t -> unit
val install_signal_handlers : t -> unit
val stats : t -> Wire.worker_stats

val serve_forever : t -> unit
val run : config -> unit
(** [create] + {!install_signal_handlers} + {!serve_forever}. *)
