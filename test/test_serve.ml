(* Tests for Ise_serve: codec frame-version and protocol-byte checks,
   canonical litmus fingerprints (formatting-invariant, Table
   6-distinct), the content-addressed result store (round-trip,
   persistence, corruption recovery, LRU front, gc), and the daemon
   itself — strict Hello discipline, typed error frames for
   malformed/oversized/wrong-version input and sealed corrupt payloads,
   cache hit ≡ cold-run byte-identity, fingerprint invalidation,
   concurrent clients, and SIGTERM drain.  Daemon cases fork the
   server process and are skipped on platforms without [Unix.fork]. *)

module Codec = Ise_pool.Codec
module Cache = Ise_serve.Cache
module Store = Ise_serve.Store
module Proto = Ise_serve.Proto
module Server = Ise_serve.Server
module Client = Ise_serve.Client
module Lit_test = Ise_litmus.Lit_test
module Lit_run = Ise_litmus.Lit_run
open Ise_model

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let tmp_dir () =
  let d = Filename.temp_file "ise-serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* ------------------------------------------------------------------ *)
(* codec: one frame layout, one protocol byte per endpoint             *)

let decode_str ?max_payload ?proto s =
  Codec.decode ?max_payload ?proto (Bytes.of_string s) ~pos:0
    ~len:(String.length s)

let test_codec_v2_carries_proto () =
  let framed = Codec.encode ~proto:7 "new payload" in
  checki "header size" (Codec.header_bytes + 11) (String.length framed);
  (match decode_str ~proto:7 framed with
   | Codec.Frame { payload; consumed } ->
     checks "payload" "new payload" payload;
     checki "consumed" (String.length framed) consumed
   | _ -> Alcotest.fail "frame did not decode at its own protocol");
  (* a reader at any other protocol refuses from the header alone *)
  (match decode_str ~proto:8 framed with
   | Codec.Corrupt (Codec.Unsupported_proto 7) -> ()
   | _ -> Alcotest.fail "protocol byte not checked");
  match decode_str ~proto:8 (String.sub framed 0 6) with
  | Codec.Corrupt (Codec.Unsupported_proto 7) -> ()
  | _ -> Alcotest.fail "short frame at the wrong protocol not refused"

let test_codec_future_version_rejected () =
  (* hand-craft a version-3 frame: the reader must refuse at the
     version byte, never guess at the layout *)
  let b = Bytes.of_string (Codec.encode ~proto:0 "payload") in
  Bytes.set b 4 (Char.chr 3);
  (match Codec.decode b ~pos:0 ~len:(Bytes.length b) with
   | Codec.Corrupt (Codec.Unsupported_version 3) -> ()
   | _ -> Alcotest.fail "future version not rejected");
  (* and a truncated future frame is still Unsupported_version, not
     Need_more: rejection must not wait for bytes that never come *)
  match Codec.decode b ~pos:0 ~len:6 with
  | Codec.Corrupt (Codec.Unsupported_version 3) -> ()
  | _ -> Alcotest.fail "short future frame not rejected"

let test_codec_fd_pairing () =
  (* send/recv agree at one protocol and refuse across two *)
  let r, w = Unix.pipe () in
  Codec.send ~proto:3 w "over the wire";
  Codec.send ~proto:4 w "other build";
  (match Codec.recv ~proto:3 r with
   | Ok "over the wire" -> ()
   | _ -> Alcotest.fail "fd round-trip");
  (match (Codec.recv ~proto:3 r : (string, _) result) with
   | Error (`Corrupt (Codec.Unsupported_proto 4)) -> ()
   | _ -> Alcotest.fail "foreign protocol byte accepted");
  Unix.close r;
  Unix.close w

let test_codec_proto_byte_range () =
  (* the protocol byte is one unsigned byte: both ends of the range
     round-trip, anything outside it is refused at encode time *)
  List.iter
    (fun proto ->
      match decode_str ~proto (Codec.encode ~proto "p") with
      | Codec.Frame { payload = "p"; _ } -> ()
      | _ -> Alcotest.failf "proto %d did not round-trip" proto)
    [ 0; 255 ];
  List.iter
    (fun proto ->
      match Codec.encode ~proto "p" with
      | _ -> Alcotest.failf "proto %d accepted" proto
      | exception Invalid_argument _ -> ())
    [ -1; 256 ]

let test_codec_serve_frames_at_version () =
  (* Proto's framed I/O is Codec at Proto.version: a response written
     by the daemon side reads back, and a pool-protocol reader refuses
     the same frame from its header *)
  let r, w = Unix.pipe () in
  Proto.write_response w (Proto.Metrics "m 1\n");
  (match Proto.read_response r with
   | Ok (Proto.Metrics "m 1\n") -> ()
   | _ -> Alcotest.fail "response did not round-trip");
  Proto.write_request w Proto.Stats_req;
  (match (Codec.recv r : (Proto.request, _) result) with
   | Error (`Corrupt (Codec.Unsupported_proto v)) ->
     checki "refused byte is Proto.version" Proto.version v
   | _ -> Alcotest.fail "serve frame accepted at protocol 0");
  Unix.close r;
  Unix.close w

(* ------------------------------------------------------------------ *)
(* canonical fingerprints                                              *)

let mk ?(name = "t") ?(doc = "") ?(expect = []) threads cond =
  Lit_test.make ~name ~doc ~expect threads cond

let test_fingerprint_metadata_invariant () =
  let threads = [| [ Instr.Store (0, 1) ]; [ Instr.Load (0, 0) ] |] in
  let cond = [ Lit_test.Reg_is (1, 0, 1) ] in
  let a = mk ~name:"A" ~doc:"doc one" threads cond in
  let b =
    mk ~name:"B" ~doc:"entirely different"
      ~expect:[ (Axiom.Sc, Lit_test.Allowed) ]
      threads cond
  in
  checks "metadata does not change the hash" (Lit_test.fingerprint a)
    (Lit_test.fingerprint b);
  (* condition atom order is formatting, not semantics *)
  let c1 = mk threads [ Lit_test.Reg_is (1, 0, 1); Lit_test.Mem_is (0, 1) ] in
  let c2 = mk threads [ Lit_test.Mem_is (0, 1); Lit_test.Reg_is (1, 0, 1) ] in
  checks "atom order does not change the hash" (Lit_test.fingerprint c1)
    (Lit_test.fingerprint c2)

let test_fingerprint_renaming_invariant () =
  (* registers renamed per thread, locations renamed globally: r0/x,y
     vs r5/y,z spell the same program *)
  let a =
    mk
      [| [ Instr.Store (0, 1); Instr.Store (1, 1) ];
         [ Instr.Load (0, 1); Instr.Load (1, 0) ] |]
      [ Lit_test.Reg_is (1, 0, 1); Lit_test.Reg_is (1, 1, 0) ]
  in
  let b =
    mk
      [| [ Instr.Store (7, 1); Instr.Store (2, 1) ];
         [ Instr.Load (5, 2); Instr.Load (3, 7) ] |]
      [ Lit_test.Reg_is (1, 5, 1); Lit_test.Reg_is (1, 3, 0) ]
  in
  checks "renaming does not change the hash" (Lit_test.fingerprint a)
    (Lit_test.fingerprint b)

let test_fingerprint_corpus_roundtrip_stable () =
  (* serializing through the diff-friendly .lit format (and back) is a
     formatting change — the fingerprint must survive it *)
  List.iter
    (fun e ->
      let s = Ise_fuzz.Corpus.to_string e in
      match Ise_fuzz.Corpus.of_string s with
      | Error msg -> Alcotest.failf "corpus round-trip: %s" msg
      | Ok e' ->
        checks
          ("fingerprint stable through .lit: "
          ^ e.Ise_fuzz.Corpus.e_test.Lit_test.name)
          (Lit_test.fingerprint e.Ise_fuzz.Corpus.e_test)
          (Lit_test.fingerprint e'.Ise_fuzz.Corpus.e_test))
    (Ise_fuzz.Campaign.seed_entries ())

let test_fingerprint_table6_distinct () =
  (* every test of the Table 6 library hashes differently *)
  let fps =
    List.map
      (fun t -> (Lit_test.fingerprint t, t.Lit_test.name))
      Ise_litmus.Library.all
  in
  List.iteri
    (fun i (fp, name) ->
      List.iteri
        (fun j (fp', name') ->
          if i < j && fp = fp' then
            Alcotest.failf "%s and %s collide" name name')
        fps)
    fps

let test_fingerprint_semantic_change () =
  let base = [| [ Instr.Store (0, 1) ]; [ Instr.Load (0, 0) ] |] in
  let cond = [ Lit_test.Reg_is (1, 0, 1) ] in
  let fp t = Lit_test.fingerprint t in
  let orig = fp (mk base cond) in
  checkb "store value matters" false
    (fp (mk [| [ Instr.Store (0, 2) ]; [ Instr.Load (0, 0) ] |] cond) = orig);
  checkb "a fence matters" false
    (fp (mk [| [ Instr.Store (0, 1); Instr.Fence ]; [ Instr.Load (0, 0) ] |]
          cond)
     = orig);
  checkb "the condition matters" false
    (fp (mk base [ Lit_test.Reg_is (1, 0, 0) ]) = orig);
  checkb "thread order matters" false
    (fp (mk [| [ Instr.Load (0, 0) ]; [ Instr.Store (0, 1) ] |]
          [ Lit_test.Reg_is (0, 0, 1) ])
     = orig)

let default_params = { Proto.default_params with Proto.seeds = 2 }

let test_config_fingerprint_invalidates () =
  let t = List.hd Ise_litmus.Library.all in
  let key p = Proto.litmus_key t p in
  checks "same params, same key" (key default_params) (key default_params);
  checkb "seeds change the key" false
    (key default_params = key { default_params with Proto.seeds = 3 });
  checkb "model changes the key" false
    (key default_params
    = key { default_params with Proto.model = Axiom.Sc });
  checkb "fault injection changes the key" false
    (key default_params
    = key { default_params with Proto.inject_faults = false });
  let e = List.hd (Ise_fuzz.Campaign.seed_entries ()) in
  checkb "replay seeds change the key" false
    (Proto.replay_key e ~seeds:2 = Proto.replay_key e ~seeds:3)

let test_enum_epoch_invalidates () =
  (* a store populated by an engine one epoch older must miss under
     the current key — results enumerated by a superseded engine can
     not masquerade as current *)
  let t = List.hd Ise_litmus.Library.all in
  let old_key =
    Proto.litmus_key_at ~enum_epoch:(Enum.epoch - 1) t default_params
  in
  let cur_key = Proto.litmus_key t default_params in
  checkb "epoch is in the key" false (old_key = cur_key);
  checks "current epoch reproduces litmus_key"
    (Proto.litmus_key_at ~enum_epoch:Enum.epoch t default_params)
    cur_key;
  let dir = tmp_dir () in
  let s = Store.open_ ~dir () in
  Store.add s old_key "pre-bump result";
  checkb "pre-bump entry still addressable" true
    (Store.find s old_key = Some "pre-bump result");
  checkb "current key misses the pre-bump entry" true
    (Store.find s cur_key = None);
  Store.add s cur_key "post-bump result";
  checkb "post-bump hit" true (Store.find s cur_key = Some "post-bump result")

(* ------------------------------------------------------------------ *)
(* store                                                               *)

let test_cache_lru () =
  let c = Cache.create ~cap:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  ignore (Cache.find c "a");
  Cache.add c "c" 3;
  (* "b" was least recently used *)
  checkb "a survives" true (Cache.find c "a" = Some 1);
  checkb "b evicted" true (Cache.find c "b" = None);
  checkb "c present" true (Cache.find c "c" = Some 3);
  checki "one eviction" 1 (Cache.evictions c)

let test_store_roundtrip_and_persistence () =
  let dir = tmp_dir () in
  let s = Store.open_ ~dir () in
  Store.add s "k1" "payload one";
  checkb "memory hit" true (Store.find s "k1" = Some "payload one");
  (* a fresh handle on the same directory reads it back from disk *)
  let s2 = Store.open_ ~dir () in
  checkb "disk hit after reopen" true (Store.find s2 "k1" = Some "payload one");
  let c = Store.counters s2 in
  checki "disk hit counted" 1 c.Store.c_disk_hits;
  checkb "binary payloads survive" true
    (let bin = String.init 257 (fun i -> Char.chr (i land 0xff)) in
     Store.add s2 "k2" bin;
     Store.find (Store.open_ ~dir ()) "k2" = Some bin)

let corrupt_byte path off =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  let pos = if off >= 0 then off else n + off in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc s;
  close_out oc

let test_store_corrupt_entry_skipped () =
  let dir = tmp_dir () in
  let s = Store.open_ ~dir () in
  Store.add s "key" "sixteen byte load";
  (* flip the last payload byte on disk; a cold handle must treat the
     entry as a countable miss, not die *)
  corrupt_byte (Store.entry_path ~dir "key") (-1);
  let s2 = Store.open_ ~dir () in
  checkb "corrupt entry is a miss" true (Store.find s2 "key" = None);
  checki "corruption counted" 1 (Store.counters s2).Store.c_corrupt_skipped;
  (* the next add overwrites it and the store heals *)
  Store.add s2 "key" "fresh";
  checkb "healed" true (Store.find (Store.open_ ~dir ()) "key" = Some "fresh")

let test_store_torn_tail_skipped () =
  let dir = tmp_dir () in
  let s = Store.open_ ~dir () in
  Store.add s "key" "this payload will be torn";
  let path = Store.entry_path ~dir "key" in
  Unix.truncate path ((Unix.stat path).Unix.st_size - 5);
  let s2 = Store.open_ ~dir () in
  checkb "torn entry is a miss" true (Store.find s2 "key" = None);
  checki "torn tail counted" 1 (Store.counters s2).Store.c_corrupt_skipped

let test_store_lru_front () =
  let dir = tmp_dir () in
  let s = Store.open_ ~mem_entries:2 ~dir () in
  Store.add s "a" "1";
  Store.add s "b" "2";
  Store.add s "c" "3";
  let c = Store.counters s in
  checkb "memory front evicted" true (c.Store.c_mem_evictions >= 1);
  (* evicted entries are still served — from disk *)
  checkb "a" true (Store.find s "a" = Some "1");
  checkb "b" true (Store.find s "b" = Some "2");
  checkb "c" true (Store.find s "c" = Some "3")

let test_store_scan_and_gc () =
  let dir = tmp_dir () in
  let s = Store.open_ ~dir () in
  List.iteri
    (fun i k ->
      Store.add s k (String.make 10 'x');
      (* stamp distinct mtimes so gc age order is deterministic *)
      let t = Unix.gettimeofday () -. (10. *. float_of_int (4 - i)) in
      Unix.utimes (Store.entry_path ~dir k) t t)
    [ "a"; "b"; "c"; "d" ];
  corrupt_byte (Store.entry_path ~dir "b") (-1);
  let sc = Store.scan dir in
  checki "scan: valid entries" 3 sc.Store.ds_entries;
  checki "scan: corrupt entries" 1 sc.Store.ds_corrupt;
  checkb "scan: bytes counted" true (sc.Store.ds_bytes > 0);
  let g = Store.gc ~max_entries:2 dir in
  checki "gc: corrupt removed" 1 g.Store.gc_corrupt_deleted;
  checki "gc: kept the bound" 2 g.Store.gc_kept;
  checki "gc: evicted the oldest" 1 g.Store.gc_deleted;
  let s2 = Store.open_ ~dir () in
  checkb "oldest valid entry (a) gone" true (Store.find s2 "a" = None);
  checkb "newest entries survive" true
    (Store.find s2 "c" = Some (String.make 10 'x')
    && Store.find s2 "d" = Some (String.make 10 'x'))

(* ------------------------------------------------------------------ *)
(* daemon                                                              *)

let requires_fork () = Ise_pool.Pool.fork_available

(* fork a daemon on a fresh (or given) directory; the child _exits so
   alcotest's own at_exit machinery never runs twice *)
let with_daemon ?dir ?(jobs = 1) ?(cache = true) ?(max_payload = 4096 * 16) f =
  let dir = match dir with Some d -> d | None -> tmp_dir () in
  let socket = Filename.concat dir "d.sock" in
  let store_dir = if cache then Some (Filename.concat dir "store") else None in
  match Unix.fork () with
  | 0 ->
    (try
       Server.run
         {
           (Server.default_config ~socket_path:socket) with
           Server.store_dir;
           jobs;
           max_payload;
         }
     with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      (fun () -> f ~dir ~socket ~pid)

let connect_exn socket =
  match Client.connect ~retries:100 socket with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

(* a raw connection that skips the Hello exchange *)
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

let some_tests n =
  List.filteri (fun i _ -> i < n) Ise_litmus.Library.all

let expect_err fd kind =
  match Proto.read_response fd with
  | Ok (Proto.Error (k, _)) ->
    checks "typed error frame" (Proto.err_name kind) (Proto.err_name k)
  | Ok _ -> Alcotest.fail "expected a typed error frame"
  | Error msg -> Alcotest.failf "no error frame: %s" msg

let test_serve_hello_required () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let fd = raw_connect socket in
        Proto.write_request fd Proto.Stats_req;
        expect_err fd Proto.Bad_request;
        Unix.close fd)

let test_serve_unsupported_proto () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        (* strict equality, no negotiation: a Hello one version either
           side of ours is refused by name *)
        List.iter
          (fun proto ->
            let fd = raw_connect socket in
            Proto.write_request fd (Proto.Hello { proto; git_rev = "test" });
            expect_err fd Proto.Unsupported_proto;
            Unix.close fd)
          [ Proto.version + 1; Proto.version - 1; 99 ])

let test_serve_malformed_frame () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let fd = raw_connect socket in
        let garbage = "this is not a frame at all.............." in
        ignore (Unix.write_substring fd garbage 0 (String.length garbage));
        expect_err fd Proto.Malformed_frame;
        Unix.close fd)

let test_serve_oversized_frame () =
  if not (requires_fork ()) then ()
  else
    with_daemon ~max_payload:4096 (fun ~dir:_ ~socket ~pid:_ ->
        let fd = raw_connect socket in
        (* an honest header claiming a payload beyond the daemon's cap;
           only the header is sent, so the refusal must come from the
           claimed length, not from reading the body *)
        let header = String.sub (Codec.encode ~proto:Proto.version
                                   (String.make 8192 'x'))
                       0 Codec.header_bytes
        in
        ignore (Unix.write_substring fd header 0 (String.length header));
        expect_err fd Proto.Frame_too_large;
        Unix.close fd)

let test_serve_wrong_frame_proto () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let fd = raw_connect socket in
        (* well-formed frame, wrong application-protocol byte *)
        Codec.send ~proto:(Proto.version + 1) fd Proto.Stats_req;
        expect_err fd Proto.Unsupported_proto;
        Unix.close fd)

(* Up to five random byte overwrites of a marshal stream, then (one
   time in four) a truncation — the corruption a hostile peer can
   re-seal with a correct digest. *)
let scramble ~seed s =
  let rng = Ise_util.Rng.create (2000 + seed) in
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  for _ = 0 to Ise_util.Rng.int rng 4 do
    Bytes.set b (Ise_util.Rng.int rng n) (Char.chr (Ise_util.Rng.int rng 256))
  done;
  if Ise_util.Rng.int rng 4 = 0 && n > 1 then
    Bytes.sub_string b 0 (1 + Ise_util.Rng.int rng (n - 1))
  else Bytes.to_string b

let reseal s = Digest.string s ^ s

let test_serve_sealed_corrupt_request () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        (* a correctly framed and sealed Hello whose marshal stream is
           structurally corrupt: unmarshalled raw, this input segfaults
           the runtime *)
        let corrupt =
          scramble ~seed:259
            (Marshal.to_string
               (Proto.Hello { proto = Proto.version; git_rev = "cafe" })
               [])
        in
        checkb "input is structurally corrupt" false
          (Codec.valid_marshal corrupt);
        let fd = raw_connect socket in
        let frame = Codec.encode ~proto:Proto.version (reseal corrupt) in
        ignore (Unix.write_substring fd frame 0 (String.length frame));
        expect_err fd Proto.Malformed_frame;
        Unix.close fd;
        (* and the daemon still serves a fresh connection *)
        let c = connect_exn socket in
        (match Client.server_stats c with
         | Ok st -> checki "daemon logged the error" 1 st.Proto.ss_errors
         | Error msg -> Alcotest.failf "daemon gone after hostile frame: %s" msg);
        Client.close c)

let run_cold params t =
  (* the no-daemon reference: exactly what `ise litmus -j 1` prints *)
  let r =
    Lit_run.run ~seeds:params.Proto.seeds
      ~inject_faults:params.Proto.inject_faults
      ~timer_interrupts:params.Proto.timer_interrupts
      ~cfg:(Proto.cfg_of_params params) t
  in
  Lit_run.summary_line r

let litmus_exn c ~tests ~params =
  match Client.litmus c ~tests ~params with
  | Ok rs -> rs
  | Error msg -> Alcotest.failf "litmus rpc: %s" msg

let test_serve_cache_hit_byte_identity () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let tests = some_tests 3 in
        let c = connect_exn socket in
        let first = litmus_exn c ~tests ~params:default_params in
        let second = litmus_exn c ~tests ~params:default_params in
        Client.close c;
        checki "replies" 3 (List.length first);
        List.iter
          (fun (r : Proto.litmus_reply) ->
            checkb "first pass is cold" false r.Proto.r_cached)
          first;
        List.iter
          (fun (r : Proto.litmus_reply) ->
            checkb "second pass all hits" true r.Proto.r_cached)
          second;
        List.iter2
          (fun (a : Proto.litmus_reply) (b : Proto.litmus_reply) ->
            checks "hit is byte-identical to the cold response"
              a.Proto.r_line b.Proto.r_line;
            checkb "pass bit identical" true (a.Proto.r_pass = b.Proto.r_pass))
          first second;
        (* and both are byte-identical to a no-daemon run *)
        List.iter2
          (fun t (r : Proto.litmus_reply) ->
            checks "daemon line = local -j 1 line" (run_cold default_params t)
              r.Proto.r_line)
          tests second)

let test_serve_fingerprint_invalidation () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let tests = some_tests 2 in
        let c = connect_exn socket in
        ignore (litmus_exn c ~tests ~params:default_params);
        (* different run parameters → different config fingerprint →
           every lookup must miss *)
        let params' = { default_params with Proto.seeds = 3 } in
        let second = litmus_exn c ~tests ~params:params' in
        Client.close c;
        List.iter
          (fun (r : Proto.litmus_reply) ->
            checkb "changed fingerprint misses" false r.Proto.r_cached)
          second)

let test_serve_corrupt_store_recovery () =
  if not (requires_fork ()) then ()
  else begin
    let dir = tmp_dir () in
    let tests = some_tests 2 in
    (* first daemon fills the store *)
    with_daemon ~dir (fun ~dir:_ ~socket ~pid ->
        let c = connect_exn socket in
        ignore (litmus_exn c ~tests ~params:default_params);
        ignore (Client.shutdown c);
        Client.close c;
        ignore (Unix.waitpid [] pid));
    (* corrupt one entry on disk, then serve again from the same store *)
    let store_dir = Filename.concat dir "store" in
    let victim = Proto.litmus_key (List.hd tests) default_params in
    corrupt_byte (Store.entry_path ~dir:store_dir victim) (-1);
    with_daemon ~dir (fun ~dir:_ ~socket ~pid:_ ->
        let c = connect_exn socket in
        let replies = litmus_exn c ~tests ~params:default_params in
        Client.close c;
        (match replies with
         | [ a; b ] ->
           checkb "corrupt entry recomputed" false a.Proto.r_cached;
           checkb "intact entry still hits" true b.Proto.r_cached;
           List.iter2
             (fun t (r : Proto.litmus_reply) ->
               checks "recovered output byte-identical"
                 (run_cold default_params t) r.Proto.r_line)
             tests [ a; b ]
         | _ -> Alcotest.fail "expected two replies"))
  end

let test_serve_concurrent_clients () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let c1 = connect_exn socket in
        let c2 = connect_exn socket in
        let t = some_tests 1 in
        let r1 = litmus_exn c1 ~tests:t ~params:default_params in
        let s2 =
          match Client.server_stats c2 with
          | Ok s -> s
          | Error m -> Alcotest.failf "stats: %s" m
        in
        let r2 = litmus_exn c2 ~tests:t ~params:default_params in
        let r1' = litmus_exn c1 ~tests:t ~params:default_params in
        Client.close c1;
        Client.close c2;
        checkb "both clients accounted" true (s2.Proto.ss_connections >= 2);
        checkb "c2 hits c1's result" true
          (List.for_all (fun r -> r.Proto.r_cached) r2);
        checkb "c1 still served" true
          (List.for_all (fun r -> r.Proto.r_cached) r1');
        List.iter2
          (fun (a : Proto.litmus_reply) (b : Proto.litmus_reply) ->
            checks "same bytes for both clients" a.Proto.r_line b.Proto.r_line)
          r1 r2)

let test_serve_stats_counters () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let c = connect_exn socket in
        ignore (litmus_exn c ~tests:(some_tests 2) ~params:default_params);
        let s =
          match Client.server_stats c with
          | Ok s -> s
          | Error m -> Alcotest.failf "stats: %s" m
        in
        Client.close c;
        checki "cold runs counted" 2 s.Proto.ss_litmus_runs;
        checkb "requests counted" true (s.Proto.ss_requests >= 3);
        match s.Proto.ss_store with
        | None -> Alcotest.fail "store enabled but not reported"
        | Some v ->
          checki "write-through counted" 2 v.Proto.v_writes;
          checki "no corruption" 0 v.Proto.v_corrupt_skipped)

let test_serve_metrics_exposition () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let c = connect_exn socket in
        ignore (litmus_exn c ~tests:(some_tests 1) ~params:default_params);
        let text =
          match Client.metrics c with
          | Ok t -> t
          | Error m -> Alcotest.failf "metrics: %s" m
        in
        Client.close c;
        let has needle =
          let n = String.length needle and m = String.length text in
          let rec go i =
            i + n <= m && (String.sub text i n = needle || go (i + 1))
          in
          go 0
        in
        (* the documented schema: ise_-prefixed sanitized names with
           TYPE comments, counters mirroring server_stats *)
        checkb "litmus_runs counter" true
          (has "# TYPE ise_serve_litmus_runs counter"
           && has "ise_serve_litmus_runs 1");
        checkb "uptime gauge" true (has "# TYPE ise_serve_uptime_s gauge");
        checkb "store counters present" true (has "ise_serve_store_writes 1");
        String.iter
          (fun ch ->
            if ch = '/' then Alcotest.fail "unsanitized metric name")
          text)

let test_serve_replay_cached () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid:_ ->
        let entry = List.hd (Ise_fuzz.Campaign.seed_entries ()) in
        let c = connect_exn socket in
        let ask () =
          match Client.rpc c (Proto.Fuzz_replay { entry; seeds = 2 }) with
          | Ok (Proto.Replay_done { result; cached }) -> (result, cached)
          | Ok _ -> Alcotest.fail "unexpected replay response"
          | Error m -> Alcotest.failf "replay rpc: %s" m
        in
        let first = ask () in
        let second = ask () in
        Client.close c;
        (match first with
         | Ok (), false -> ()
         | _ -> Alcotest.fail "cold replay should pass uncached");
        match second with
        | Ok (), true -> ()
        | _ -> Alcotest.fail "second replay should be a cache hit")

let test_serve_sigterm_drains () =
  if not (requires_fork ()) then ()
  else
    with_daemon (fun ~dir:_ ~socket ~pid ->
        let c = connect_exn socket in
        ignore (litmus_exn c ~tests:(some_tests 1) ~params:default_params);
        Client.close c;
        Unix.kill pid Sys.sigterm;
        (match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ()
         | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
         | _ -> Alcotest.fail "daemon did not exit cleanly");
        checkb "socket file removed on drain" false (Sys.file_exists socket))

let test_serve_pool_fanout_identity () =
  (* a daemon fanning misses out over forked pool workers returns the
     same bytes as the in-process daemon path *)
  if not (requires_fork ()) then ()
  else begin
    let tests = some_tests 4 in
    let lines jobs =
      with_daemon ~jobs (fun ~dir:_ ~socket ~pid:_ ->
          let c = connect_exn socket in
          let rs = litmus_exn c ~tests ~params:default_params in
          Client.close c;
          List.map (fun r -> r.Proto.r_line) rs)
    in
    List.iter2 (checks "jobs=3 = jobs=1") (lines 1) (lines 3)
  end

let suite =
  [
    Alcotest.test_case "codec: v2 carries proto byte" `Quick
      test_codec_v2_carries_proto;
    Alcotest.test_case "codec: future version rejected" `Quick
      test_codec_future_version_rejected;
    Alcotest.test_case "codec: fd helpers pair across versions" `Quick
      test_codec_fd_pairing;
    Alcotest.test_case "codec: protocol byte range" `Quick
      test_codec_proto_byte_range;
    Alcotest.test_case "codec: serve frames at Proto.version" `Quick
      test_codec_serve_frames_at_version;
    Alcotest.test_case "fingerprint: metadata-invariant" `Quick
      test_fingerprint_metadata_invariant;
    Alcotest.test_case "fingerprint: renaming-invariant" `Quick
      test_fingerprint_renaming_invariant;
    Alcotest.test_case "fingerprint: stable through .lit round-trip" `Quick
      test_fingerprint_corpus_roundtrip_stable;
    Alcotest.test_case "fingerprint: Table 6 corpus distinct" `Quick
      test_fingerprint_table6_distinct;
    Alcotest.test_case "fingerprint: semantic changes alter it" `Quick
      test_fingerprint_semantic_change;
    Alcotest.test_case "keys: config fingerprint invalidates" `Quick
      test_config_fingerprint_invalidates;
    Alcotest.test_case "keys: engine epoch bump invalidates" `Quick
      test_enum_epoch_invalidates;
    Alcotest.test_case "cache: LRU eviction order" `Quick test_cache_lru;
    Alcotest.test_case "store: round-trip and persistence" `Quick
      test_store_roundtrip_and_persistence;
    Alcotest.test_case "store: corrupt entry skipped and healed" `Quick
      test_store_corrupt_entry_skipped;
    Alcotest.test_case "store: torn tail skipped" `Quick
      test_store_torn_tail_skipped;
    Alcotest.test_case "store: LRU front falls back to disk" `Quick
      test_store_lru_front;
    Alcotest.test_case "store: scan and gc bounds" `Quick
      test_store_scan_and_gc;
    Alcotest.test_case "serve: hello required first" `Quick
      test_serve_hello_required;
    Alcotest.test_case "serve: unsupported hello proto refused" `Quick
      test_serve_unsupported_proto;
    Alcotest.test_case "serve: malformed frame → typed error" `Quick
      test_serve_malformed_frame;
    Alcotest.test_case "serve: oversized frame → typed error" `Quick
      test_serve_oversized_frame;
    Alcotest.test_case "serve: wrong frame proto → typed error" `Quick
      test_serve_wrong_frame_proto;
    Alcotest.test_case "serve: sealed corrupt request → typed error" `Quick
      test_serve_sealed_corrupt_request;
    Alcotest.test_case "serve: cache hit ≡ cold run bytes" `Quick
      test_serve_cache_hit_byte_identity;
    Alcotest.test_case "serve: fingerprint change invalidates" `Quick
      test_serve_fingerprint_invalidation;
    Alcotest.test_case "serve: corrupt store entry recovered" `Quick
      test_serve_corrupt_store_recovery;
    Alcotest.test_case "serve: concurrent clients" `Quick
      test_serve_concurrent_clients;
    Alcotest.test_case "serve: lifetime counters" `Quick
      test_serve_stats_counters;
    Alcotest.test_case "serve: fuzz replay cached" `Quick
      test_serve_replay_cached;
    Alcotest.test_case "serve: prometheus metrics exposition" `Quick
      test_serve_metrics_exposition;
    Alcotest.test_case "serve: SIGTERM drains cleanly" `Quick
      test_serve_sigterm_drains;
    Alcotest.test_case "serve: pool fan-out byte-identity" `Quick
      test_serve_pool_fanout_identity;
  ]
