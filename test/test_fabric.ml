(* Tests for Ise_fabric: partition/EWMA plans, shard cache keys, the
   --shard range-union property, worker protocol discipline under
   malformed and hostile traffic, the resilience plane (netchaos
   wire-fault injection, heartbeats, rejoin, stale-socket hygiene,
   strict one-version handshakes), chaos campaigns over the fabric,
   and the
   headline guarantee — a campaign run across simulated workers
   (killed, restarted, proxied through deterministic wire faults, or
   answered entirely by the result store) merges to output
   byte-identical to a single-host run.  Fabric cases fork worker
   daemons and are skipped on platforms without [Unix.fork]. *)

module Codec = Ise_pool.Codec
module Framed = Ise_serve.Framed
module Store = Ise_serve.Store
module Campaign = Ise_fuzz.Campaign
module Corpus = Ise_fuzz.Corpus
module Plan = Ise_fabric.Plan
module Wire = Ise_fabric.Wire
module Netchaos = Ise_fabric.Netchaos
module Supervisor = Ise_fabric.Supervisor
module Merge = Ise_fabric.Merge
module Sim = Ise_fabric.Sim
module Chaos_run = Ise_chaos.Chaos_run
module Profile = Ise_chaos.Profile

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let tmp_dir () =
  let d = Filename.temp_file "ise-fabric" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let requires_fork () = Sim.available

let with_injected_bug f =
  Ise_model.Axiom.fuzz_unsound_strict_ppo := true;
  Fun.protect
    ~finally:(fun () -> Ise_model.Axiom.fuzz_unsound_strict_ppo := false)
    f

(* byte-level fingerprint of a report: counts plus every failure
   rendered as the corpus artifact it would be saved as *)
let fingerprint ~seed (r : Campaign.report) =
  ( r.Campaign.r_tests,
    r.Campaign.r_checks,
    r.Campaign.r_lost_tests,
    List.map
      (fun f -> Corpus.to_string (Campaign.entry_of_failure ~seed f))
      r.Campaign.r_failures )

(* short everything: tests poke at loss, not patience *)
let job ~shard ~lo ~hi =
  { Wire.j_shard = shard; j_lo = lo; j_hi = hi; j_ctx = None;
    j_stream = false }

let test_liveness =
  { Supervisor.default_liveness with
    handshake_timeout_s = 2.0;
    dispatch_timeout_s = 1.0;
    heartbeat_s = 0.2;
    rejoin_backoff_s = 0.1;
  }

(* ------------------------------------------------------------------ *)
(* plan                                                                *)

let test_plan_partition () =
  List.iter
    (fun (count, shards) ->
      let ranges = Plan.partition ~count ~shards in
      checkb "no empty shard" true
        (Array.for_all (fun (lo, hi) -> hi > lo) ranges);
      (* tiles [0, count) contiguously in order *)
      let expected_lo = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          checki "contiguous" !expected_lo lo;
          expected_lo := hi)
        ranges;
      checki "covers count" count !expected_lo;
      (* balanced: sizes differ by at most one *)
      let sizes = Array.map (fun (lo, hi) -> hi - lo) ranges in
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      checkb "balanced" true (mx - mn <= 1))
    [ (10, 3); (3, 10); (16, 4); (1, 1); (7, 7); (100, 9) ];
  checki "count=0 is empty" 0
    (Array.length (Plan.partition ~count:0 ~shards:4))

let test_plan_parse () =
  (match Plan.parse_shard "2/5" with
   | Ok (k, n) ->
     checki "k is 0-based" 1 k;
     checki "n" 5 n
   | Error msg -> Alcotest.failf "2/5 rejected: %s" msg);
  List.iter
    (fun s ->
      match Plan.parse_shard s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error _ -> ())
    [ ""; "0/5"; "6/5"; "1/0"; "a/b"; "1"; "1/2/3"; "-1/4" ]

let test_plan_ewma () =
  let e = Plan.ewma_create () in
  checkb "deadline infinite before first sample" true
    (Plan.deadline e = infinity);
  Plan.observe e 1.0;
  checkb "first sample sets the mean" true (Plan.mean e = 1.0);
  checkb "deadline = factor * mean" true
    (Plan.deadline ~factor:4.0 ~floor:0.1 e = 4.0);
  Plan.observe e 3.0;
  checkb "ewma moved toward the new sample" true
    (Plan.mean e > 1.0 && Plan.mean e < 3.0);
  checki "samples counted" 2 (Plan.samples e);
  let tiny = Plan.ewma_create () in
  Plan.observe tiny 0.001;
  checkb "floor bounds the deadline" true
    (Plan.deadline ~floor:0.5 tiny = 0.5)

(* ------------------------------------------------------------------ *)
(* shard cache keys                                                    *)

let test_shard_keys () =
  let spec = Campaign.spec ~count:10 ~seed:1 () in
  let key s = Wire.shard_key (Wire.Fuzz s) in
  let k = key spec ~lo:0 ~hi:5 in
  checks "key is deterministic" k (key spec ~lo:0 ~hi:5);
  checkb "range changes the key" true (k <> key spec ~lo:5 ~hi:10);
  let spec' = Campaign.spec ~count:10 ~seed:2 () in
  checkb "seed changes the key" true (k <> key spec' ~lo:0 ~hi:5);
  let spec'' = Campaign.spec ~count:10 ~seeds_per_test:3 ~seed:1 () in
  checkb "config changes the key" true (k <> key spec'' ~lo:0 ~hi:5);
  (* chaos campaigns live in their own key domain *)
  let cs = Chaos_run.spec ~trials:10 ~seed:1 ~profiles:Profile.all () in
  checkb "chaos and fuzz keys are domain-separated" true
    (k <> Wire.shard_key (Wire.Chaos cs) ~lo:0 ~hi:5);
  (* the fuzz-shard domain rides the shared key helper, so an
     enumeration-engine epoch bump invalidates shard results exactly
     like litmus and replay results *)
  let fp e =
    Ise_serve.Cache.config_fp ~enum_epoch:e ~domain:"fuzz-shard" [ "x" ]
  in
  checkb "epoch bump invalidates" true (fp 1 <> fp 2)

(* ------------------------------------------------------------------ *)
(* --shard: the union property                                         *)

let test_range_union () =
  with_injected_bug (fun () ->
      let variant =
        match Campaign.variant_named "wc+same+nofaults" with
        | Some v -> v
        | None -> Alcotest.fail "variant wc+same+nofaults missing"
      in
      let count = 12 in
      let run ?range () =
        Campaign.run ~count ~seeds_per_test:8 ~variants:[ variant ] ?range
          ~seed:5 ()
      in
      let full = run () in
      checkb "campaign finds the injected bug" true
        (full.Campaign.r_failures <> []);
      let parts =
        List.map
          (fun k -> run ~range:(Plan.shard_range ~count ~shards:3 k) ())
          [ 0; 1; 2 ]
      in
      checki "tests sum to the full run" full.Campaign.r_tests
        (List.fold_left (fun a r -> a + r.Campaign.r_tests) 0 parts);
      checki "checks sum to the full run" full.Campaign.r_checks
        (List.fold_left (fun a r -> a + r.Campaign.r_checks) 0 parts);
      let arts r =
        List.map
          (fun f -> Corpus.to_string (Campaign.entry_of_failure ~seed:5 f))
          r.Campaign.r_failures
      in
      checkb "failure artifacts concatenate to the full run" true
        (List.concat_map arts parts = arts full))

(* ------------------------------------------------------------------ *)
(* netchaos: the injector itself                                       *)

let sample_frames =
  List.init 120 (fun i ->
      Codec.encode ~proto:Wire.version
        (String.make (8 + (i mod 40)) (Char.chr (65 + (i mod 26)))))

let test_netchaos_deterministic () =
  let run () =
    let nc = Netchaos.create ~seed:7 ~profile:Netchaos.storm in
    let acts = List.map (Netchaos.frame_action nc) sample_frames in
    let stalls = List.init 20 (fun _ -> Netchaos.conn_stall nc) in
    (acts, stalls, Netchaos.counts nc)
  in
  let a1, s1, c1 = run () in
  let a2, s2, c2 = run () in
  checkb "same fault schedule for the same seed" true (a1 = a2 && s1 = s2);
  checkb "same counters" true (c1 = c2);
  let nc' = Netchaos.create ~seed:8 ~profile:Netchaos.storm in
  let a3 = List.map (Netchaos.frame_action nc') sample_frames in
  checkb "seed changes the schedule" true (a1 <> a3);
  (* calm is transparent *)
  let calm = Netchaos.create ~seed:7 ~profile:Netchaos.calm in
  checkb "calm passes everything" true
    (List.for_all
       (fun f -> Netchaos.frame_action calm f = Netchaos.Pass)
       sample_frames
    && Netchaos.conn_stall calm = None);
  (* every named profile resolves, and names round-trip *)
  List.iter
    (fun p ->
      match Netchaos.named p.Netchaos.name with
      | Some p' -> checks "named round-trips" p.Netchaos.name p'.Netchaos.name
      | None -> Alcotest.failf "profile %s not named" p.Netchaos.name)
    (Netchaos.calm :: Netchaos.all)

let decode_request m =
  match
    Codec.decode ~max_payload:(1 lsl 20) ~proto:Wire.version
      (Bytes.of_string m) ~pos:0 ~len:(String.length m)
  with
  | Codec.Frame { payload; _ } -> Some (Codec.unseal payload : Wire.request option)
  | Codec.Need_more | Codec.Corrupt _ -> None

let test_wire_hostility_decode () =
  let base =
    Codec.encode ~proto:Wire.version
      (Codec.seal (Wire.Run (job ~shard:1 ~lo:2 ~hi:9)))
  in
  (* any mutation — truncation, bit flips, version/proto skew, absurd
     length claims — must yield a typed decode result, never an
     exception *)
  for seed = 0 to 499 do
    let rng = Ise_util.Rng.create seed in
    match decode_request (Netchaos.Mutate.mutate rng base) with
    | Some _ | None -> ()
    | exception e ->
      Alcotest.failf "decode raised on mutation seed %d: %s" seed
        (Printexc.to_string e)
  done;
  (* the digest *guarantees* in-transit payload corruption surfaces as
     a typed decode failure, never a plausible wrong value *)
  for seed = 0 to 199 do
    let rng = Ise_util.Rng.create (1000 + seed) in
    match decode_request (Netchaos.Mutate.corrupt_payload rng ~max_bytes:4 base)
    with
    | Some None -> ()
    | Some (Some _) -> Alcotest.failf "corrupted payload decoded (seed %d)" seed
    | None -> Alcotest.fail "corrupt_payload damaged the framing"
  done;
  (* a peer can re-seal a corrupted stream with a correct digest, so
     the structural marshal validator must make [unseal] total on its
     own.  Such a stream fed straight to [Marshal.from_string] can
     build a wrong value (seed 133 of the Hello base below), raise
     (155) or segfault the runtime's intern loop (259), so simply
     running this loop without crashing is the assertion. *)
  let bases =
    [ Wire.Hello_ok { proto = Wire.version; git_rev = "cafe"; pid = 42 };
      Wire.Spec_ok;
      Wire.Shard_done
        { sr_shard = 0; sr_lo = 0; sr_hi = 4; sr_payload = Wire.Fuzz_raw [] };
    ]
  in
  let hello = Marshal.to_string (Wire.Hello { proto = 3; git_rev = "cafe" }) [] in
  List.iter
    (fun seed ->
      let s = Test_serve.scramble ~seed hello in
      checkb "crashing input is structurally corrupt" false
        (Codec.valid_marshal s);
      checkb "crashing input refused" true
        ((Codec.unseal (Test_serve.reseal s) : Wire.request option) = None))
    [ 133; 155; 259 ];
  List.iter
    (fun payload ->
      checkb "validator accepts a real payload" true
        (Codec.valid_marshal payload);
      for seed = 0 to 499 do
        let s = Test_serve.reseal (Test_serve.scramble ~seed payload) in
        match (Codec.unseal s : Wire.response option) with
        | Some _ | None -> ()
        | exception e ->
          Alcotest.failf "unseal raised on corruption seed %d: %s" seed
            (Printexc.to_string e)
      done)
    (hello :: List.map (fun r -> Marshal.to_string (r : Wire.response) []) bases)

(* ------------------------------------------------------------------ *)
(* worker protocol discipline                                          *)

let raw_connect socket =
  let rec attempt n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ when n > 0 ->
      Unix.close fd;
      ignore (Unix.select [] [] [] 0.05);
      attempt (n - 1)
    | exception e ->
      Unix.close fd;
      raise e
  in
  attempt 100

let expect_err fd kind =
  match Wire.read_response fd with
  | Ok (Wire.Error (k, _)) ->
    checks "typed error frame" (Framed.err_name kind) (Framed.err_name k)
  | Ok _ -> Alcotest.fail "expected a typed error frame"
  | Error msg -> Alcotest.failf "no error frame: %s" msg

let hello fd =
  Wire.write_request fd (Wire.Hello { proto = Wire.version; git_rev = "test" });
  match Wire.read_response fd with
  | Ok (Wire.Hello_ok _) -> ()
  | Ok _ -> Alcotest.fail "expected Hello_ok"
  | Error msg -> Alcotest.failf "hello failed: %s" msg

let with_sim ?(n = 1) ?jobs ?netchaos ?trace_dir f =
  let dir = tmp_dir () in
  let sim = Sim.start ?jobs ?netchaos ?trace_dir ~dir ~n () in
  Fun.protect ~finally:(fun () -> Sim.stop sim) (fun () -> f sim)

let test_worker_hello_discipline () =
  if not (requires_fork ()) then ()
  else
    with_sim (fun sim ->
        let socket = List.hd (Sim.sockets sim) in
        (* any request before Hello is refused *)
        let fd = raw_connect socket in
        Wire.write_request fd Wire.Worker_stats_req;
        expect_err fd Framed.Bad_request;
        Unix.close fd;
        (* strict equality, no negotiation: a Hello one version either
           side of ours is refused by name *)
        List.iter
          (fun proto ->
            let fd = raw_connect socket in
            Wire.write_request fd (Wire.Hello { proto; git_rev = "test" });
            expect_err fd Framed.Unsupported_proto;
            Unix.close fd)
          [ Wire.version + 1; Wire.version - 1 ];
        (* Run before Set_spec is a Bad_request, not a crash *)
        let fd = raw_connect socket in
        hello fd;
        Wire.write_request fd (Wire.Run (job ~shard:0 ~lo:0 ~hi:1));
        expect_err fd Framed.Bad_request;
        Unix.close fd)

let test_worker_malformed_traffic () =
  if not (requires_fork ()) then ()
  else
    with_sim (fun sim ->
        let socket = List.hd (Sim.sockets sim) in
        (* garbage bytes → typed Malformed_frame error *)
        let fd = raw_connect socket in
        let garbage = "this is not a frame at all.............." in
        ignore (Unix.write_substring fd garbage 0 (String.length garbage));
        expect_err fd Framed.Malformed_frame;
        Unix.close fd;
        (* a version-skewed frame (wrong protocol byte) is refused *)
        let fd = raw_connect socket in
        let skewed =
          Codec.encode ~proto:(Wire.version + 9) (Codec.seal Wire.Shutdown)
        in
        ignore (Unix.write_substring fd skewed 0 (String.length skewed));
        expect_err fd Framed.Unsupported_proto;
        Unix.close fd;
        (* an honest header claiming an absurd payload is refused from
           the header alone *)
        let fd = raw_connect socket in
        let header =
          String.sub
            (Codec.encode ~proto:Wire.version (String.make 256 'x'))
            0 Codec.header_bytes
        in
        let header =
          (* rewrite the BE32 length to 256 MiB, beyond max_payload *)
          let b = Bytes.of_string header in
          Bytes.set_int32_be b
            (Codec.header_bytes - 4)
            (Int32.of_int (256 * 1024 * 1024));
          Bytes.to_string b
        in
        ignore (Unix.write_substring fd header 0 (String.length header));
        expect_err fd Framed.Frame_too_large;
        Unix.close fd;
        (* a truncated frame followed by a hangup is just a dropped
           connection; the worker survives and serves the next one *)
        let fd = raw_connect socket in
        let frame =
          Codec.encode ~proto:Wire.version (Codec.seal Wire.Worker_stats_req)
        in
        ignore (Unix.write_substring fd frame 0 (String.length frame / 2));
        Unix.close fd;
        let fd = raw_connect socket in
        hello fd;
        let spec = Campaign.spec ~count:2 ~seeds_per_test:2 ~seed:1 () in
        Wire.write_request fd (Wire.Set_spec (Wire.Fuzz spec));
        (match Wire.read_response fd with
         | Ok Wire.Spec_ok -> ()
         | Ok _ | Error _ -> Alcotest.fail "Set_spec refused");
        Wire.write_request fd (Wire.Run (job ~shard:0 ~lo:0 ~hi:2));
        (match Wire.read_response fd with
         | Ok (Wire.Shard_done sr) ->
           checki "echoes the shard id" 0 sr.Wire.sr_shard
         | Ok _ | Error _ -> Alcotest.fail "worker did not survive abuse");
        (* a Run range outside the spec is a Bad_request *)
        Wire.write_request fd (Wire.Run (job ~shard:1 ~lo:0 ~hi:99));
        expect_err fd Framed.Bad_request;
        Unix.close fd)

let test_worker_wire_hostility () =
  if not (requires_fork ()) then ()
  else
    with_sim (fun sim ->
        let socket = List.hd (Sim.sockets sim) in
        let bases =
          [| Codec.encode ~proto:Wire.version
               (Codec.seal (Wire.Hello { proto = Wire.version; git_rev = "t" }));
             Codec.encode ~proto:Wire.version
               (Codec.seal (Wire.Run (job ~shard:0 ~lo:0 ~hi:1)));
             Codec.encode ~proto:1 (Codec.seal Wire.Worker_stats_req)
          |]
        in
        let rng = Ise_util.Rng.create 99 in
        for _ = 1 to 40 do
          let m = Netchaos.Mutate.mutate rng (Ise_util.Rng.choose rng bases) in
          let fd = raw_connect socket in
          (* a mutation can leave a frame the worker must wait on
             (truncation): bound our read instead of hanging the test *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.3;
          (try ignore (Unix.write_substring fd m 0 (String.length m))
           with Unix.Unix_error _ -> ());
          (match Wire.read_response fd with
           | Ok _ -> ()  (* typed error frame, or still a valid frame *)
           | Error _ -> ()  (* clean close / corrupt reply detected *)
           | exception
               Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
             ()  (* the worker is (correctly) waiting for more bytes *));
          Unix.close fd
        done;
        (* after 40 hostile connections the worker still works *)
        let fd = raw_connect socket in
        hello fd;
        let spec = Campaign.spec ~count:2 ~seeds_per_test:2 ~seed:1 () in
        Wire.write_request fd (Wire.Set_spec (Wire.Fuzz spec));
        (match Wire.read_response fd with
         | Ok Wire.Spec_ok -> ()
         | Ok _ | Error _ -> Alcotest.fail "worker wedged by hostile wire");
        Unix.close fd)

(* ------------------------------------------------------------------ *)
(* stale-socket hygiene                                                *)

let test_stale_socket_hygiene () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "stale.sock" in
  (* a SIGKILLed predecessor: the file exists, nobody listens *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  checkb "stale file exists" true (Sys.file_exists path);
  let _t = Framed.create ~socket_path:path () in
  checkb "stale socket replaced" true (Sys.file_exists path);
  (* a live owner is never stolen *)
  (match Framed.create ~socket_path:path () with
   | _ -> Alcotest.fail "stole a live daemon's socket"
   | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  (* SIGTERM drains and unlinks: no stale file left behind *)
  if requires_fork () then begin
    let dir2 = tmp_dir () in
    let sim = Sim.start ~dir:dir2 ~n:1 () in
    let sock = List.hd (Sim.sockets sim) in
    let fd = raw_connect sock in
    Unix.close fd;
    (match Sim.pids sim with
     | [ pid ] ->
       Unix.kill pid Sys.sigterm;
       let deadline = Unix.gettimeofday () +. 5.0 in
       while Sys.file_exists sock && Unix.gettimeofday () < deadline do
         ignore (Unix.select [] [] [] 0.05)
       done;
       checkb "SIGTERM unlinked the socket" true (not (Sys.file_exists sock))
     | _ -> Alcotest.fail "expected one worker");
    Sim.stop sim
  end

(* ------------------------------------------------------------------ *)
(* the fabric: byte-identity with a single-host run                    *)

let failing_spec () =
  let variant =
    match Campaign.variant_named "wc+same+nofaults" with
    | Some v -> v
    | None -> Alcotest.fail "variant wc+same+nofaults missing"
  in
  Campaign.spec ~count:12 ~seeds_per_test:8 ~variants:[ variant ] ~seed:5 ()

let reference_run (s : Campaign.spec) ~log =
  Campaign.run ~count:s.Campaign.s_count
    ~seeds_per_test:s.Campaign.s_seeds_per_test
    ~variants:s.Campaign.s_variants
    ~variants_per_test:s.Campaign.s_variants_per_test
    ~model_checks:s.Campaign.s_model_checks
    ~shrink_evals:s.Campaign.s_shrink_evals ~log ~seed:s.Campaign.s_seed ()

let test_fabric_identity () =
  if not (requires_fork ()) then ()
  else
    with_injected_bug (fun () ->
        let spec = failing_spec () in
        let ref_log = ref [] in
        let reference =
          reference_run spec ~log:(fun l -> ref_log := l :: !ref_log)
        in
        checkb "campaign finds the injected bug" true
          (reference.Campaign.r_failures <> []);
        with_sim ~n:4 (fun sim ->
            let cfg =
              Supervisor.default_config ~workers:(Sim.sockets sim)
            in
            let ranges, outcomes, stats =
              Supervisor.run cfg (Wire.Fuzz spec)
            in
            checki "all four workers connected" 4 stats.Supervisor.f_workers;
            checki "nothing ran inline" 0 stats.Supervisor.f_inline;
            let fab_log = ref [] in
            let merged =
              Merge.merge
                ~log:(fun l -> fab_log := l :: !fab_log)
                spec ~ranges ~outcomes
            in
            checkb "merged report is byte-identical" true
              (fingerprint ~seed:5 merged.Merge.m_report
              = fingerprint ~seed:5 reference);
            checkb "log stream is identical" true (!fab_log = !ref_log);
            (* corpus artifacts the CLI would save are the same bytes *)
            checkb "corpus entries identical" true
              (List.map Corpus.to_string merged.Merge.m_entries
              = List.map
                  (fun f ->
                    Corpus.to_string (Campaign.entry_of_failure ~seed:5 f))
                  reference.Campaign.r_failures);
            (* with run_id/time pinned, the ledger record a fabric run
               appends equals the single-host `ise fuzz run` record *)
            let pinned r =
              Merge.ledger_record ~run_id:"rid" ~git_rev:"rev" ~time:0. spec
                r
            in
            checkb "ledger record identical" true
              (pinned merged.Merge.m_report = pinned reference)))

let test_fabric_kill_mid_campaign () =
  if not (requires_fork ()) then ()
  else
    let spec = Campaign.spec ~count:16 ~seeds_per_test:4 ~seed:11 () in
    let reference = reference_run spec ~log:ignore in
    with_sim ~n:4 (fun sim ->
        let killed = ref false in
        let cfg =
          {
            (Supervisor.default_config ~workers:(Sim.sockets sim)) with
            Supervisor.shards = Some 16;
            on_shard_done =
              (fun _ ->
                (* SIGKILL a worker as soon as the first shard lands:
                   its in-flight shards must be re-dispatched to the
                   survivors without changing the merged output *)
                if not !killed then begin
                  killed := true;
                  Sim.kill sim 3
                end);
          }
        in
        let ranges, outcomes, stats = Supervisor.run cfg (Wire.Fuzz spec) in
        checkb "the loss was detected" true
          (stats.Supervisor.f_worker_losses >= 1);
        checkb "every shard completed" true
          (Array.for_all
             (function Supervisor.Shard_ok _ -> true | _ -> false)
             outcomes);
        let merged = Merge.merge spec ~ranges ~outcomes in
        checkb "killed-worker run is byte-identical" true
          (fingerprint ~seed:11 merged.Merge.m_report
          = fingerprint ~seed:11 reference))

let test_fabric_rejoin () =
  if not (requires_fork ()) then ()
  else
    (* heavy enough that the campaign outlives the rejoin probe: each
       of the 16 shards takes ~20ms, serialized by window = 1 *)
    let spec = Campaign.spec ~count:16 ~seeds_per_test:64 ~seed:11 () in
    let reference = reference_run spec ~log:ignore in
    with_sim ~n:2 (fun sim ->
        let fired = ref false in
        let cfg =
          {
            (Supervisor.default_config ~workers:(Sim.sockets sim)) with
            Supervisor.shards = Some 16;
            window = 1;
            liveness = { test_liveness with rejoin_backoff_s = 0.01 };
            on_shard_done =
              (fun _ ->
                (* kill worker 0 after the first shard, then restart
                   it: the registry must re-admit it mid-campaign *)
                if not !fired then begin
                  fired := true;
                  Sim.kill sim 0;
                  Sim.restart sim 0
                end);
          }
        in
        let ranges, outcomes, stats = Supervisor.run cfg (Wire.Fuzz spec) in
        checkb "the loss was detected" true
          (stats.Supervisor.f_worker_losses >= 1);
        checkb "the restarted worker rejoined" true
          (stats.Supervisor.f_rejoins >= 1);
        checkb "every shard completed" true
          (Array.for_all
             (function Supervisor.Shard_ok _ -> true | _ -> false)
             outcomes);
        let merged = Merge.merge spec ~ranges ~outcomes in
        checkb "rejoin run is byte-identical" true
          (fingerprint ~seed:11 merged.Merge.m_report
          = fingerprint ~seed:11 reference))

(* a fake worker that answers the Hello with [Hello_ok] at [proto],
   then acknowledges the spec and never answers anything again — at
   [Wire.version] the heartbeat's prey, at any other version a worker
   from a different build *)
let spawn_fake_worker ?(proto = Wire.version) path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    (try
       let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.bind srv (Unix.ADDR_UNIX path);
       Unix.listen srv 8;
       let recv fd = (Codec.recv ~proto:Wire.version fd : (Wire.request, _) result) in
       while true do
         let fd, _ = Unix.accept srv in
         (try
            (match recv fd with
             | Ok _ ->
               Wire.write_response fd
                 (Wire.Hello_ok
                    { proto; git_rev = "fake"; pid = Unix.getpid () });
               (match recv fd with
                | Ok _ -> Wire.write_response fd Wire.Spec_ok
                | Error _ -> ())
             | Error _ -> ());
            (* swallow everything (pings included), answer nothing *)
            let buf = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd buf 0 4096 with 0 -> () | _ -> drain ()
            in
            drain ()
          with _ -> ());
         try Unix.close fd with Unix.Unix_error _ -> ()
       done
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let with_fake_worker ?proto f =
  let path = Filename.concat (tmp_dir ()) "fake.sock" in
  let pid = spawn_fake_worker ?proto path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () -> f path)

let test_fabric_heartbeat_loss () =
  if not (requires_fork ()) then ()
  else
    (* the single shard must outlast miss_budget+1 heartbeat rounds of
       the 50ms supervisor loop (~0.15s): ~0.5s of fuzzing *)
    let spec = Campaign.spec ~count:16 ~seeds_per_test:96 ~seed:21 () in
    let reference = reference_run spec ~log:ignore in
    with_sim ~n:1 (fun sim ->
        with_fake_worker (fun silent_sock ->
            let workers = Sim.sockets sim @ [ silent_sock ] in
            let cfg =
              { (Supervisor.default_config ~workers) with
                (* one shard: the real worker crunches it while the
                   silent one sits idle — exactly the state heartbeats
                   police *)
                Supervisor.shards = Some 1;
                liveness =
                  { Supervisor.default_liveness with
                    heartbeat_s = 0.03;
                    miss_budget = 1;
                    (* no re-admission: the loss must come from
                       heartbeats and stay *)
                    rejoin_backoff_s = 1e9;
                  };
              }
            in
            let ranges, outcomes, stats =
              Supervisor.run cfg (Wire.Fuzz spec)
            in
            checkb "pings were sent" true (stats.Supervisor.f_pings >= 2);
            checkb "the silent worker was lost via heartbeat" true
              (stats.Supervisor.f_hb_losses >= 1);
            let merged = Merge.merge spec ~ranges ~outcomes in
            checkb "report unharmed by the silent worker" true
              (fingerprint ~seed:21 merged.Merge.m_report
              = fingerprint ~seed:21 reference)))

let test_netchaos_fault_identity () =
  if not (requires_fork ()) then ()
  else
    with_injected_bug (fun () ->
        let spec = failing_spec () in
        let reference = reference_run spec ~log:ignore in
        checkb "campaign finds the injected bug" true
          (reference.Campaign.r_failures <> []);
        let pinned r =
          Merge.ledger_record ~run_id:"rid" ~git_rev:"rev" ~time:0. spec r
        in
        (* every fault category (and all at once): the merged report,
           its corpus artifacts, and its ledger record are
           byte-identical to the clean single-host run *)
        List.iter
          (fun profile ->
            with_sim ~n:2 ~netchaos:(33, profile) (fun sim ->
                let cfg =
                  { (Supervisor.default_config ~workers:(Sim.sockets sim)) with
                    Supervisor.liveness = test_liveness;
                    straggler_floor = 0.3;
                  }
                in
                let ranges, outcomes, _stats =
                  Supervisor.run cfg (Wire.Fuzz spec)
                in
                let merged = Merge.merge spec ~ranges ~outcomes in
                checkb
                  (Printf.sprintf "netchaos %s: report byte-identical"
                     profile.Netchaos.name)
                  true
                  (fingerprint ~seed:5 merged.Merge.m_report
                  = fingerprint ~seed:5 reference);
                checkb
                  (Printf.sprintf "netchaos %s: ledger record identical"
                     profile.Netchaos.name)
                  true
                  (pinned merged.Merge.m_report = pinned reference)))
          (Netchaos.calm :: Netchaos.all))

let test_fabric_version_mismatch () =
  if not (requires_fork ()) then ()
  else
    let spec = Campaign.spec ~count:8 ~seeds_per_test:4 ~seed:13 () in
    let reference = reference_run spec ~log:ignore in
    with_sim ~n:2 (fun sim ->
        with_fake_worker ~proto:(Wire.version + 1) (fun other_build ->
            let log = ref [] in
            let cfg =
              { (Supervisor.default_config
                   ~workers:(Sim.sockets sim @ [ other_build ])) with
                Supervisor.log = (fun l -> log := l :: !log);
              }
            in
            let ranges, outcomes, stats =
              Supervisor.run cfg (Wire.Fuzz spec)
            in
            let contains sub l =
              let n = String.length sub in
              let rec at i =
                i + n <= String.length l
                && (String.sub l i n = sub || at (i + 1))
              in
              at 0
            in
            checkb "the mismatched handshake was logged as failed" true
              (List.exists
                 (fun l -> contains other_build l && contains "handshake failed" l)
                 !log);
            checki "only the real workers were admitted" 2
              stats.Supervisor.f_workers;
            checki "nothing ran inline" 0 stats.Supervisor.f_inline;
            let merged = Merge.merge spec ~ranges ~outcomes in
            checkb "byte-identical to a single-host run" true
              (fingerprint ~seed:13 merged.Merge.m_report
              = fingerprint ~seed:13 reference)))

(* Serve and fabric share the frame layout and the sealed envelope, and
   their Hellos have the same shape, so only the distinct protocol byte
   keeps one endpoint's frames from being unmarshalled as the other's
   types.  Each side must refuse the other from the frame header. *)
let test_serve_fabric_cross_talk () =
  checkb "pool, fabric and serve protocol bytes are distinct" true
    (List.length
       (List.sort_uniq compare [ 0; Wire.version; Ise_serve.Proto.version ])
    = 3);
  if not (requires_fork ()) then ()
  else begin
    let module Proto = Ise_serve.Proto in
    (* a fabric supervisor pointed at a serve daemon *)
    let spec = Campaign.spec ~count:8 ~seeds_per_test:4 ~seed:17 () in
    let reference = reference_run spec ~log:ignore in
    Test_serve.with_daemon (fun ~dir:_ ~socket:serve_socket ~pid:_ ->
        let fd = raw_connect serve_socket in
        Wire.write_request fd
          (Wire.Hello { proto = Wire.version; git_rev = "test" });
        (match (Codec.recv ~proto:Wire.version fd : (Wire.response, _) result) with
         | Error (`Corrupt (Codec.Unsupported_proto p)) ->
           checki "the reply is refused by its serve protocol byte"
             Proto.version p
         | Ok _ -> Alcotest.fail "a serve reply decoded as a fabric response"
         | Error _ -> Alcotest.fail "expected Unsupported_proto");
        Unix.close fd;
        let fd = raw_connect serve_socket in
        Wire.write_request fd
          (Wire.Hello { proto = Wire.version; git_rev = "test" });
        Test_serve.expect_err fd Proto.Unsupported_proto;
        Unix.close fd;
        with_sim ~n:1 (fun sim ->
            let log = ref [] in
            let cfg =
              { (Supervisor.default_config
                   ~workers:(Sim.sockets sim @ [ serve_socket ])) with
                Supervisor.log = (fun l -> log := l :: !log);
              }
            in
            let ranges, outcomes, stats = Supervisor.run cfg (Wire.Fuzz spec) in
            let contains sub l =
              let n = String.length sub in
              let rec at i =
                i + n <= String.length l
                && (String.sub l i n = sub || at (i + 1))
              in
              at 0
            in
            checkb "the serve socket's handshake was logged as failed" true
              (List.exists
                 (fun l ->
                   contains serve_socket l && contains "handshake failed" l)
                 !log);
            checki "only the fabric worker was admitted" 1
              stats.Supervisor.f_workers;
            let merged = Merge.merge spec ~ranges ~outcomes in
            checkb "byte-identical to a single-host run" true
              (fingerprint ~seed:17 merged.Merge.m_report
              = fingerprint ~seed:17 reference));
        (* the daemon still serves its own clients *)
        let c = Test_serve.connect_exn serve_socket in
        Ise_serve.Client.close c);
    (* a serve client pointed at a fabric worker *)
    with_sim (fun sim ->
        let socket = List.hd (Sim.sockets sim) in
        (match Ise_serve.Client.connect socket with
         | Ok _ -> Alcotest.fail "a serve client completed a fabric handshake"
         | Error _ -> ());
        List.iter
          (fun req ->
            let fd = raw_connect socket in
            Proto.write_request fd req;
            expect_err fd Framed.Unsupported_proto;
            Unix.close fd)
          [ Proto.Hello { proto = Proto.version; git_rev = "test" };
            Proto.Shutdown ];
        (* the worker still serves its own supervisors *)
        let fd = raw_connect socket in
        hello fd;
        Unix.close fd)
  end

(* ------------------------------------------------------------------ *)
(* observability plane                                                 *)

module Json = Ise_telemetry.Json
module Registry_t = Ise_telemetry.Registry
module Trace_t = Ise_telemetry.Trace

let test_fabric_streaming_observability () =
  if not (requires_fork ()) then ()
  else
    let spec = Campaign.spec ~count:24 ~seeds_per_test:4 ~seed:11 () in
    let reference = reference_run spec ~log:ignore in
    let trace_dir = tmp_dir () in
    with_sim ~n:4 ~trace_dir (fun sim ->
        let reg = Registry_t.create () in
        let tr = Trace_t.create () in
        let status_path = Filename.concat trace_dir "status.json" in
        let statuses = ref 0 in
        let observe =
          { Supervisor.stream = true;
            metrics = Some reg;
            trace = Some tr;
            trace_id = "t-obs";
            status_out = Some status_path;
            status_period_s = 0.02;
            on_status = (fun _ -> incr statuses);
          }
        in
        let cfg =
          { (Supervisor.default_config ~workers:(Sim.sockets sim)) with
            Supervisor.shards = Some 16;
            observe;
          }
        in
        let ranges, outcomes, stats = Supervisor.run cfg (Wire.Fuzz spec) in
        (* the headline property: telemetry is never on the result
           path — full streaming changes nothing in the merge *)
        let merged = Merge.merge spec ~ranges ~outcomes in
        checkb "byte-identical with streaming on" true
          (fingerprint ~seed:11 merged.Merge.m_report
          = fingerprint ~seed:11 reference);
        checkb "telemetry frames absorbed" true
          (stats.Supervisor.f_telemetry_frames > 0);
        checkb "status callback fired" true (!statuses >= 1);
        (* worker delta-snapshots accumulated into the live aggregate *)
        checkb "fleet shard completions" true
          (Registry_t.value
             (Registry_t.counter reg "fabric/worker/shards_done")
           >= 16);
        (match Registry_t.find_histogram reg "fabric/worker/shard_ms" with
         | None -> Alcotest.fail "no aggregated shard-latency histogram"
         | Some st ->
           checkb "latency samples streamed" true
             (Ise_util.Stats.count st >= 16);
           (* raw samples travel, so fleet-wide tail quantiles exist *)
           checkb "p999 computable" true
             (Ise_util.Stats.percentile st 99.9 >= 0.));
        (* the final snapshot validates against ise-fabric-status/v1 *)
        let ic = open_in_bin status_path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let doc =
          match Json.of_string text with
          | Ok d -> d
          | Error e -> Alcotest.failf "status does not parse: %s" e
        in
        let geti k =
          Option.value (Option.bind (Json.member k doc) Json.to_int)
            ~default:(-1)
        in
        checks "status schema"  "ise-fabric-status/v1"
          (Option.value ~default:"?"
             (Option.bind (Json.member "schema" doc) Json.to_str));
        checki "status shards" 16 (geti "shards");
        checki "status drained" 16 (geti "done");
        (match Option.bind (Json.member "workers" doc) Json.to_list with
         | Some ws -> checki "status workers" 4 (List.length ws)
         | None -> Alcotest.fail "status has no workers table");
        checkb "status counters present" true
          (Json.member "counters" doc <> None))

let test_fabric_trace_parenting () =
  if not (requires_fork ()) then ()
  else
    let spec = Campaign.spec ~count:16 ~seeds_per_test:4 ~seed:17 () in
    let trace_dir = tmp_dir () in
    with_sim ~n:4 ~trace_dir (fun sim ->
        let tr = Trace_t.create () in
        let observe =
          { Supervisor.default_observe with
            Supervisor.stream = true;
            trace = Some tr;
            trace_id = "t-stitch";
          }
        in
        let cfg =
          { (Supervisor.default_config ~workers:(Sim.sockets sim)) with
            Supervisor.shards = Some 8;
            observe;
          }
        in
        let _, outcomes, _ = Supervisor.run cfg (Wire.Fuzz spec) in
        checkb "every shard completed" true
          (Array.for_all
             (function Supervisor.Shard_ok _ -> true | _ -> false)
             outcomes);
        (* write the supervisor's trace next to the workers' and
           stitch the directory, exactly as the CLI does *)
        let sup_path = Filename.concat trace_dir "supervisor.trace.json" in
        let oc = open_out_bin sup_path in
        output_string oc
          (Json.to_string
             (Trace_t.to_chrome_json
                ~meta:[ ("role", Json.String "supervisor") ]
                tr));
        close_out oc;
        let files =
          Sys.readdir trace_dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".json")
          |> List.sort compare
          |> List.map (Filename.concat trace_dir)
        in
        checkb "supervisor + 4 workers traced" true (List.length files = 5);
        let doc, infos =
          match Ise_obs.Stitch.stitch_files files with
          | Ok r -> r
          | Error e -> Alcotest.failf "stitch failed: %s" e
        in
        List.iter
          (fun fi ->
            if fi.Ise_obs.Stitch.sf_role = "worker" then
              checkb "offset is causal" true
                (fi.Ise_obs.Stitch.sf_offset_us >= 0))
          infos;
        let evs =
          match Option.bind (Json.member "traceEvents" doc) Json.to_list with
          | Some e -> e
          | None -> Alcotest.fail "no traceEvents"
        in
        let sfield k ev = Option.bind (Json.member k ev) Json.to_str in
        let arg k ev =
          Option.bind (Json.member "args" ev) (fun a ->
              Option.bind (Json.member k a) Json.to_str)
        in
        let dispatch_spans =
          List.filter_map
            (fun ev ->
              match
                (Option.bind (Json.member "pid" ev) Json.to_int,
                 sfield "ph" ev)
              with
              | Some 0, Some "B" -> arg Trace_t.ctx_key_span ev
              | _ -> None)
            evs
        in
        (* the acceptance bar: every worker shard span parents under a
           supervisor dispatch span, and nothing is orphaned *)
        let shard_spans = ref 0 in
        List.iter
          (fun ev ->
            match
              (Option.bind (Json.member "pid" ev) Json.to_int,
               sfield "ph" ev, sfield "name" ev)
            with
            | Some pid, Some "B", Some name
              when pid > 0
                   && String.length name >= 6
                   && String.sub name 0 6 = "shard " ->
              incr shard_spans;
              (match arg Trace_t.ctx_key_parent ev with
               | Some parent ->
                 checkb "parent is a dispatch span" true
                   (List.mem parent dispatch_spans)
               | None -> Alcotest.fail "worker shard span has no parent");
              checkb "not orphaned" true
                (Option.bind (Json.member "args" ev) (Json.member "orphan")
                 = None)
            | _ -> ())
          evs;
        checkb "worker shard spans present" true (!shard_spans >= 8))

let test_fabric_store_cache () =
  if not (requires_fork ()) then ()
  else
    let spec = Campaign.spec ~count:8 ~seeds_per_test:4 ~seed:3 () in
    let dir = tmp_dir () in
    let once ~workers =
      let store = Store.open_ ~dir:(Filename.concat dir "store") () in
      let cfg =
        { (Supervisor.default_config ~workers) with
          Supervisor.store = Some store;
          (* pinned: the default scales with the worker count, and the
             two runs of this test use different fabrics *)
          shards = Some 8;
        }
      in
      Supervisor.run cfg (Wire.Fuzz spec)
    in
    let r1, o1, s1 =
      with_sim ~n:2 (fun sim -> once ~workers:(Sim.sockets sim))
    in
    checki "cold run hits nothing" 0 s1.Supervisor.f_store_hits;
    (* the second campaign is answered entirely by the store: no
       workers are even needed *)
    let r2, o2, s2 = once ~workers:[] in
    checki "warm run is all hits" s2.Supervisor.f_shards
      s2.Supervisor.f_store_hits;
    checki "nothing dispatched" 0 s2.Supervisor.f_dispatched;
    let m1 = Merge.merge spec ~ranges:r1 ~outcomes:o1 in
    let m2 = Merge.merge spec ~ranges:r2 ~outcomes:o2 in
    checkb "store round-trip preserves the report" true
      (fingerprint ~seed:3 m1.Merge.m_report
      = fingerprint ~seed:3 m2.Merge.m_report)

let test_fabric_inline_fallback () =
  (* no fork needed: every worker is unreachable, so the supervisor
     degrades to computing each shard inline — the campaign still
     completes, byte-identical *)
  let spec = Campaign.spec ~count:6 ~seeds_per_test:3 ~seed:9 () in
  let reference = reference_run spec ~log:ignore in
  let cfg =
    {
      (Supervisor.default_config ~workers:[ "/nonexistent/fabric.sock" ]) with
      Supervisor.liveness =
        { Supervisor.default_liveness with connect_retries = 0 };
    }
  in
  let ranges, outcomes, stats = Supervisor.run cfg (Wire.Fuzz spec) in
  checki "no worker connected" 0 stats.Supervisor.f_workers;
  checki "every shard ran inline" stats.Supervisor.f_shards
    stats.Supervisor.f_inline;
  let merged = Merge.merge spec ~ranges ~outcomes in
  checkb "inline fallback is byte-identical" true
    (fingerprint ~seed:9 merged.Merge.m_report = fingerprint ~seed:9 reference)

let test_fabric_require_workers () =
  let spec = Campaign.spec ~count:4 ~seeds_per_test:2 ~seed:2 () in
  let cfg =
    {
      (Supervisor.default_config ~workers:[ "/nonexistent/fabric.sock" ]) with
      Supervisor.require_workers = 1;
      liveness = { Supervisor.default_liveness with connect_retries = 0 };
    }
  in
  (match Supervisor.run cfg (Wire.Fuzz spec) with
   | _ -> Alcotest.fail "expected Insufficient_workers"
   | exception Supervisor.Insufficient_workers { wanted; got } ->
     checki "wanted" 1 wanted;
     checki "got" 0 got);
  (* without the floor the same dead fabric degrades to inline *)
  let cfg = { cfg with Supervisor.require_workers = 0 } in
  let _ranges, _outcomes, stats = Supervisor.run cfg (Wire.Fuzz spec) in
  checki "degrades without the floor" stats.Supervisor.f_shards
    stats.Supervisor.f_inline

(* ------------------------------------------------------------------ *)
(* chaos campaigns over the fabric                                     *)

let test_chaos_spec_mapping () =
  let profiles = Profile.all in
  let cs = Chaos_run.spec ~trials:7 ~seed:100 ~profiles () in
  for t = 0 to 6 do
    let s, p = Chaos_run.trial_of_spec cs t in
    checki "seed advances per trial" (100 + t) s;
    checks "profile rotates"
      (List.nth profiles (t mod List.length profiles)).Profile.name
      p.Profile.name
  done;
  (match
     Chaos_run.spec_profiles
       { cs with Chaos_run.cs_profiles = [ "no-such-profile" ] }
   with
   | Error n -> checks "unknown profile is reported by name" "no-such-profile" n
   | Ok _ -> Alcotest.fail "bogus profile accepted");
  match Chaos_run.spec ~seed:1 ~profiles:[] () with
  | _ -> Alcotest.fail "empty profile list accepted"
  | exception Invalid_argument _ -> ()

let test_chaos_fabric_identity () =
  if not (requires_fork ()) then ()
  else begin
    let profiles =
      match Profile.all with a :: b :: _ -> [ a; b ] | _ -> Profile.all
    in
    let cs = Chaos_run.spec ~trials:4 ~cores:2 ~stores:40 ~seed:77 ~profiles () in
    (* local = the sequential trial stream `ise chaos run -j 1` prints *)
    let local = Chaos_run.check_range cs ~lo:0 ~hi:4 in
    let render r = Format.asprintf "%a" Chaos_run.pp_report r in
    with_sim ~n:3 (fun sim ->
        let cfg =
          { (Supervisor.default_config ~workers:(Sim.sockets sim)) with
            Supervisor.shards = Some 4;
          }
        in
        let ranges, outcomes, stats = Supervisor.run cfg (Wire.Chaos cs) in
        checki "nothing ran inline" 0 stats.Supervisor.f_inline;
        let reports, lost = Merge.merge_chaos ~ranges ~outcomes () in
        checki "no lost trials" 0 lost;
        checki "all trials came back" 4 (Array.length reports);
        (* journals carry process-local run ids, so identity is judged
           on the rendered reports — what the CLI prints — and the
           watchdog/chaos counters *)
        checkb "fabric chaos reports identical to local" true
          (Array.to_list (Array.map render reports) = List.map render local))
  end

let suite =
  [
    Alcotest.test_case "plan: partition tiles and balances" `Quick
      test_plan_partition;
    Alcotest.test_case "plan: k/N parsing" `Quick test_plan_parse;
    Alcotest.test_case "plan: ewma straggler deadline" `Quick test_plan_ewma;
    Alcotest.test_case "wire: shard keys invalidate" `Quick test_shard_keys;
    Alcotest.test_case "campaign: shard ranges union to the full run" `Slow
      test_range_union;
    Alcotest.test_case "netchaos: seeded schedules are deterministic" `Quick
      test_netchaos_deterministic;
    Alcotest.test_case "wire: hostile frames decode to typed errors" `Quick
      test_wire_hostility_decode;
    Alcotest.test_case "worker: hello and spec discipline" `Quick
      test_worker_hello_discipline;
    Alcotest.test_case "worker: malformed traffic, typed errors" `Quick
      test_worker_malformed_traffic;
    Alcotest.test_case "worker: survives mutated-frame hostility" `Quick
      test_worker_wire_hostility;
    Alcotest.test_case "framed: stale-socket hygiene" `Quick
      test_stale_socket_hygiene;
    Alcotest.test_case "fabric: 4 workers = single host, byte-identical"
      `Slow test_fabric_identity;
    Alcotest.test_case "fabric: worker killed mid-campaign" `Slow
      test_fabric_kill_mid_campaign;
    Alcotest.test_case "fabric: killed worker restarts and rejoins" `Slow
      test_fabric_rejoin;
    Alcotest.test_case "fabric: silent worker lost via heartbeat" `Slow
      test_fabric_heartbeat_loss;
    Alcotest.test_case "fabric: byte-identity under every netchaos fault"
      `Slow test_netchaos_fault_identity;
    Alcotest.test_case "fabric: streaming telemetry, identity preserved"
      `Slow test_fabric_streaming_observability;
    Alcotest.test_case "fabric: stitched trace parents shard spans" `Slow
      test_fabric_trace_parenting;
    Alcotest.test_case "fabric: other-version worker refused" `Slow
      test_fabric_version_mismatch;
    Alcotest.test_case "fabric: store answers a repeated campaign" `Quick
      test_fabric_store_cache;
    Alcotest.test_case "fabric: dead fabric degrades to inline" `Quick
      test_fabric_inline_fallback;
    Alcotest.test_case "fabric: --require-workers fails fast" `Quick
      test_fabric_require_workers;
    Alcotest.test_case "chaos: spec maps trials like the CLI" `Quick
      test_chaos_spec_mapping;
    Alcotest.test_case "chaos: fabric dispatch = local trial stream" `Slow
      test_chaos_fabric_identity;
    Alcotest.test_case "fabric: serve and fabric peers refuse each other"
      `Quick test_serve_fabric_cross_talk;
  ]
