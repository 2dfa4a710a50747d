(** The serve wire protocol: request/response payloads and cache keys.

    Frames are {!Ise_pool.Codec} frames whose protocol byte carries
    {!version}; payloads are values of the types below, sealed by
    {!Ise_pool.Codec.seal} — [Marshal] plus an MD5 digest, safe for
    the same reason the pool's pipes are: daemon and client are the
    same [ise] executable image.  Three guards keep that assumption
    honest:

    - the Codec protocol byte must equal {!version} on {e every}
      frame, so a frame from another build is answered with a typed
      [Unsupported_proto] frame, never mis-decoded;
    - every payload goes through {!Ise_pool.Codec.unseal} (digest,
      then structural marshal validation, then unmarshal), so a
      corrupt one is a typed [Malformed_frame], never a crash;
    - the first request on a connection must be {!Hello}, carrying the
      client's protocol version and git revision; the daemon answers
      any version other than its own with [Unsupported_proto].  There
      is no negotiation.  The git revision is informational only.

    Cache keys pair {!Ise_litmus.Lit_test.fingerprint} (what program)
    with a configuration fingerprint (how it was run): machine
    configuration, run parameters, {!store_abi}, and the
    enumeration-engine epoch {!Ise_model.Enum.epoch}.  [store_abi]
    must be bumped whenever the {e meaning or rendering} of a stored
    result changes — new summary-line format, new pass criterion,
    simulator semantic fix; the engine epoch is bumped by
    [Ise_model.Enum] itself when the enumerator changes — either bump
    makes stale entries unreachable instead of wrong.  The git
    revision is deliberately {e not} part of the key: rebuilding the
    tree must not empty the cache. *)

open Ise_litmus

val version : int
(** The one application-protocol version (4), carried in the Codec
    protocol byte and in {!Hello}.  It differs from
    [Ise_fabric.Wire.version] and from the pool's 0, so a fabric
    frame sent to the daemon (or a serve frame sent to a fabric
    worker) is refused from its header with [Unsupported_proto] and
    never unmarshalled as the wrong message type. *)

val store_abi : int
(** Result-store compatibility epoch (see above for the bump rule). *)

(** {1 Run parameters and cache keys} *)

type run_params = {
  seeds : int;
  inject_faults : bool;
  timer_interrupts : bool;
  model : Ise_model.Axiom.model;
}

val default_params : run_params
(** [ise litmus] defaults: 20 seeds, faults injected, no timer, WC. *)

val cfg_of_params : run_params -> Ise_sim.Config.t

val litmus_key : Lit_test.t -> run_params -> string
(** [(test fingerprint, config fingerprint)] joined — the result-store
    key of a litmus run. *)

val litmus_key_at : enum_epoch:int -> Lit_test.t -> run_params -> string
(** {!litmus_key} with an explicit engine epoch in place of
    {!Ise_model.Enum.epoch} — lets the epoch-invalidation test build
    the key a {e previous} engine would have used and prove an
    epoch bump makes old entries miss. *)

val replay_key : Ise_fuzz.Corpus.entry -> seeds:int -> string
(** Store key of a corpus-entry replay: test fingerprint × (variant,
    expectation, seeds, {!store_abi}, engine epoch). *)

(** {1 Cached payload} *)

type litmus_payload = { lp_line : string; lp_pass : bool }
(** What the store holds per litmus run: the canonical
    {!Lit_run.summary_line} rendering and the CLI pass bit
    ([pass && contract_ok]). *)

val litmus_payload_to_string : litmus_payload -> string
val litmus_payload_of_string : string -> litmus_payload option
(** Bare [Marshal] (the store checksums its entries itself); [None] if
    the payload fails {!Ise_pool.Codec.unmarshal_opt} — defence in
    depth, the store checksum already rejects torn entries. *)

val replay_payload_to_string : (unit, string) result -> string
val replay_payload_of_string : string -> (unit, string) result option

(** {1 Requests} *)

type request =
  | Hello of { proto : int; git_rev : string }
      (** mandatory first request of every connection *)
  | Litmus of { tests : Lit_test.t list; params : run_params }
  | Fuzz_replay of { entry : Ise_fuzz.Corpus.entry; seeds : int }
  | Stats_req
  | Metrics_req
      (** ask for a Prometheus text-format dump of the daemon's
          metrics — the scrapable face of {!server_stats} *)
  | Shutdown  (** ask the daemon to drain and exit *)

(** {1 Responses} *)

type litmus_reply = {
  r_line : string;  (** byte-identical to a cold [ise litmus -j 1] line *)
  r_pass : bool;
  r_cached : bool;
}

type store_view = {
  v_mem_hits : int;
  v_disk_hits : int;
  v_misses : int;
  v_writes : int;
  v_corrupt_skipped : int;
  v_mem_evictions : int;
}

type server_stats = {
  ss_pid : int;
  ss_uptime_s : float;
  ss_git_rev : string;
  ss_connections : int;  (** accepted over the daemon's lifetime *)
  ss_requests : int;
  ss_litmus_runs : int;  (** cold runs actually executed *)
  ss_replays : int;  (** cold corpus replays executed *)
  ss_errors : int;  (** typed error frames sent *)
  ss_store : store_view option;  (** [None] when caching is disabled *)
}

type err_kind = Framed.err_kind =
  | Unsupported_proto
  | Bad_request  (** well-formed frame, invalid at this point (no Hello…) *)
  | Frame_too_large
  | Malformed_frame  (** framing or payload did not decode *)
  | Internal
      (** shared with every framed daemon — see {!Framed.err_kind} *)

val err_name : err_kind -> string

type response =
  | Hello_ok of { proto : int; git_rev : string }
  | Litmus_done of litmus_reply list  (** in request order *)
  | Replay_done of { result : (unit, string) result; cached : bool }
  | Stats of server_stats
  | Metrics of string
      (** Prometheus text exposition
          ({!Ise_telemetry.Registry.to_prometheus}) of the daemon's
          counters and store view *)
  | Shutting_down
  | Error of err_kind * string
      (** typed error frame; the daemon closes the connection after
          sending one *)

(** {1 Framed I/O} *)

val write_request : Unix.file_descr -> request -> unit
val write_response : Unix.file_descr -> response -> unit

val read_response :
  ?max_payload:int ->
  Unix.file_descr ->
  (response, string) result
(** Blocking read of one response frame; [Error] describes EOF, a
    protocol-byte mismatch, or a frame or payload that does not
    decode.  The three functions are {!Ise_pool.Codec.send}/
    {!Ise_pool.Codec.recv} at {!version}. *)
