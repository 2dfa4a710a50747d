open Ise_litmus

(* Bump on any change to the message types or the payload envelope.
   The handshake is strict equality, and daemon and client ship in the
   same executable image, so a bump is always safe: there is no
   mixed-version serve deployment to stay compatible with.  The value
   must differ from the pool's 0 and from [Ise_fabric.Wire.version]:
   the protocol byte is what keeps a fabric peer pointed at a serve
   socket (or the reverse) from having its frames unmarshalled as this
   module's types, since [Codec.valid_marshal] checks structure, not
   type.  A bump skips values those endpoints use. *)
let version = 4
let store_abi = Cache.store_abi

(* ------------------------------------------------------------------ *)
(* run parameters and cache keys                                       *)

type run_params = {
  seeds : int;
  inject_faults : bool;
  timer_interrupts : bool;
  model : Ise_model.Axiom.model;
}

let default_params = {
  seeds = 20;
  inject_faults = true;
  timer_interrupts = false;
  model = Ise_model.Axiom.Wc;
}

let cfg_of_params p =
  Ise_sim.Config.with_consistency p.model Ise_sim.Config.default

let model_name = function
  | Ise_model.Axiom.Sc -> "sc"
  | Ise_model.Axiom.Pc -> "pc"
  | Ise_model.Axiom.Wc -> "wc"

(* The config fingerprint digests everything that changes what a run
   means: the store ABI epoch, the enumeration-engine epoch (a result
   computed by an older engine must miss, not masquerade as current),
   the full machine configuration (via Marshal — any Config.t field
   change invalidates), and the run parameters.  git_rev is
   deliberately excluded. *)
let config_fp_at ~enum_epoch p =
  let cfg = cfg_of_params p in
  Cache.config_fp ~enum_epoch ~domain:"litmus"
    [ Digest.to_hex (Digest.string (Marshal.to_string cfg []));
      string_of_int p.seeds;
      string_of_bool p.inject_faults;
      string_of_bool p.timer_interrupts;
      model_name p.model ]

let litmus_key_at ~enum_epoch test params =
  Store.key ~test_fp:(Lit_test.fingerprint test)
    ~cfg_fp:(config_fp_at ~enum_epoch params)

let litmus_key test params =
  litmus_key_at ~enum_epoch:Ise_model.Enum.epoch test params

let replay_key entry ~seeds =
  let open Ise_fuzz.Corpus in
  let cfg_fp =
    Cache.config_fp ~domain:"replay"
      [ entry.e_variant;
        (match entry.e_expect with
         | Must_pass -> "pass"
         | Must_fail -> "fail");
        entry.e_kind;
        string_of_int seeds ]
  in
  Store.key ~test_fp:(Lit_test.fingerprint entry.e_test) ~cfg_fp

(* ------------------------------------------------------------------ *)
(* cached payloads                                                     *)

(* bare marshal: the store checksums its entries itself *)

type litmus_payload = { lp_line : string; lp_pass : bool }

let litmus_payload_to_string (p : litmus_payload) = Marshal.to_string p []

let litmus_payload_of_string s : litmus_payload option =
  Ise_pool.Codec.unmarshal_opt s

let replay_payload_to_string (r : (unit, string) result) =
  Marshal.to_string r []

let replay_payload_of_string s : (unit, string) result option =
  Ise_pool.Codec.unmarshal_opt s

(* ------------------------------------------------------------------ *)
(* messages                                                            *)

type request =
  | Hello of { proto : int; git_rev : string }
  | Litmus of { tests : Lit_test.t list; params : run_params }
  | Fuzz_replay of { entry : Ise_fuzz.Corpus.entry; seeds : int }
  | Stats_req
  | Metrics_req
  | Shutdown

type litmus_reply = { r_line : string; r_pass : bool; r_cached : bool }

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
  ss_connections : int;
  ss_requests : int;
  ss_litmus_runs : int;
  ss_replays : int;
  ss_errors : int;
  ss_store : store_view option;
}

type err_kind = Framed.err_kind =
  | Unsupported_proto
  | Bad_request
  | Frame_too_large
  | Malformed_frame
  | Internal

let err_name = Framed.err_name

type response =
  | Hello_ok of { proto : int; git_rev : string }
  | Litmus_done of litmus_reply list
  | Replay_done of { result : (unit, string) result; cached : bool }
  | Stats of server_stats
  | Metrics of string
  | Shutting_down
  | Error of err_kind * string

(* ------------------------------------------------------------------ *)
(* framed I/O                                                          *)

let write_request fd (req : request) =
  Ise_pool.Codec.send ~proto:version fd req

let write_response fd (resp : response) =
  Ise_pool.Codec.send ~proto:version fd resp

let read_response ?max_payload fd : (response, string) result =
  match Ise_pool.Codec.recv ?max_payload ~proto:version fd with
  | Ok resp -> Ok resp
  | Error `Eof -> Error "connection closed by daemon"
  | Error (`Corrupt e) ->
    Error ("corrupt response: " ^ Ise_pool.Codec.error_to_string e)
