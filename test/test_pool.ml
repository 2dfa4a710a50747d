(* Tests for Ise_pool: the framing codec (round-trip, streaming decode,
   corruption detection) and the fork-based supervisor (ordering,
   failure isolation, crash retry, timeout kill, SIGINT drain, and the
   headline property: a fixed-seed campaign is byte-identical at -j 4
   and -j 1).  Fork-dependent cases are skipped on platforms without
   [Unix.fork]. *)

module Codec = Ise_pool.Codec
module Pool = Ise_pool.Pool
module Campaign = Ise_fuzz.Campaign
module Corpus = Ise_fuzz.Corpus

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* codec                                                               *)

let frame_of payload = Bytes.of_string (Codec.encode payload)

let decode_all ?max_payload buf =
  Codec.decode ?max_payload buf ~pos:0 ~len:(Bytes.length buf)

let test_codec_roundtrip () =
  let payloads =
    [ ""; "x"; "hello pool"; String.init 1000 (fun i -> Char.chr (i land 0xff)) ]
  in
  List.iter
    (fun p ->
      let framed = Codec.encode p in
      checki "frame length" (Codec.header_bytes + String.length p)
        (String.length framed);
      match decode_all (Bytes.of_string framed) with
      | Codec.Frame { payload = got; consumed; _ } ->
        checks "payload" p got;
        checki "consumed" (String.length framed) consumed
      | Codec.Need_more -> Alcotest.fail "complete frame decoded as Need_more"
      | Codec.Corrupt e -> Alcotest.failf "corrupt: %s" (Codec.error_to_string e))
    payloads

let test_codec_streaming_prefixes () =
  (* every strict prefix of a valid frame is Need_more, never Corrupt:
     the supervisor must be able to buffer partial reads *)
  let framed = frame_of "incremental payload" in
  for len = 0 to Bytes.length framed - 1 do
    match Codec.decode framed ~pos:0 ~len with
    | Codec.Need_more -> ()
    | Codec.Frame _ -> Alcotest.failf "prefix of %d bytes decoded a frame" len
    | Codec.Corrupt e ->
      Alcotest.failf "prefix of %d bytes corrupt: %s" len
        (Codec.error_to_string e)
  done

let test_codec_corruption () =
  let framed = frame_of "payload" in
  (* flip a magic byte *)
  let bad = Bytes.copy framed in
  Bytes.set bad 0 'X';
  (match decode_all bad with
  | Codec.Corrupt Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic not detected");
  (* unknown version byte *)
  let bad = Bytes.copy framed in
  Bytes.set bad 4 (Char.chr 99);
  (match decode_all bad with
  | Codec.Corrupt (Codec.Unsupported_version 99) -> ()
  | _ -> Alcotest.fail "bad version not detected");
  (* a length field above the cap is corruption, not an allocation *)
  (match decode_all ~max_payload:4 (frame_of "way past the cap") with
  | Codec.Corrupt (Codec.Oversized n) ->
    checki "claimed size" (String.length "way past the cap") n
  | _ -> Alcotest.fail "oversized frame not refused");
  (* garbage mid-buffer offsets honour pos *)
  let buf = Bytes.cat (Bytes.of_string "junk") framed in
  match Codec.decode buf ~pos:4 ~len:(Bytes.length framed) with
  | Codec.Frame { payload = p; _ } -> checks "offset decode" "payload" p
  | _ -> Alcotest.fail "decode at offset failed"

let test_codec_marshal_roundtrip () =
  let v = (42, "text", [ Some 1; None; Some 3 ]) in
  let sealed = Codec.seal v in
  checkb "sealed round-trip" true (Codec.unseal sealed = Some v);
  (* any flipped byte — digest or stream — is refused *)
  for i = 0 to String.length sealed - 1 do
    let b = Bytes.of_string sealed in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    checkb "corrupt payload refused" true
      ((Codec.unseal (Bytes.to_string b) : (int * string * int option list) option)
      = None)
  done

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let test_codec_fd_roundtrip () =
  with_pipe (fun r w ->
      Codec.send w "over the pipe";
      (match Codec.recv r with
      | Ok p -> checks "fd payload" "over the pipe" p
      | Error _ -> Alcotest.fail "fd round-trip failed");
      (* clean EOF at a frame boundary *)
      Unix.close w;
      match (Codec.recv r : (string, _) result) with
      | Error `Eof -> ()
      | Ok _ -> Alcotest.fail "read past EOF"
      | Error (`Corrupt e) ->
        Alcotest.failf "clean EOF reported corrupt: %s" (Codec.error_to_string e))

let test_codec_fd_truncated () =
  (* a stream cut mid-frame (worker killed mid-write) is Corrupt
     Truncated, never a silent Eof *)
  with_pipe (fun r w ->
      let framed = Codec.encode (Codec.seal "cut short") in
      let half = String.length framed / 2 in
      let n = Unix.write_substring w framed 0 half in
      checki "partial write" half n;
      Unix.close w;
      match (Codec.recv r : (string, _) result) with
      | Error (`Corrupt Codec.Truncated) -> ()
      | Error `Eof -> Alcotest.fail "mid-frame EOF reported as clean Eof"
      | Error (`Corrupt e) ->
        Alcotest.failf "wrong corruption: %s" (Codec.error_to_string e)
      | Ok _ -> Alcotest.fail "truncated frame decoded")

(* ------------------------------------------------------------------ *)
(* pool                                                                *)

let requires_fork () = Pool.fork_available

let rec render_outcome = function
  | Pool.Done r -> Printf.sprintf "done:%d" r
  | Pool.Failed e -> "failed:" ^ Pool.error_to_string e
  | Pool.Split (l, r) ->
    Printf.sprintf "split:(%s|%s)" (render_outcome l) (render_outcome r)

let test_pool_inline_matches_forked () =
  (* same inputs, same outcome array, whether forked or in-process;
     exceptions in f are deterministic Failed results in both paths *)
  let f i = if i mod 3 = 2 then failwith (Printf.sprintf "boom %d" i) else i * i in
  let items = Array.init 10 (fun i -> i) in
  let render (outs, _) =
    String.concat "," (Array.to_list (Array.map render_outcome outs))
  in
  let seq = render (Pool.map ~jobs:1 f items) in
  checkb "inline failures isolated" true
    (String.length seq > 0 && String.contains seq 'b' (* "boom" *));
  if requires_fork () then
    checks "forked = inline" seq (render (Pool.map ~jobs:3 f items))

let test_pool_results_in_order () =
  if not (requires_fork ()) then ()
  else begin
    (* later jobs finish first (earlier ones sleep longer), but
       on_result must still fire strictly in index order *)
    let n = 8 in
    let f i =
      Unix.sleepf (float_of_int (n - 1 - i) *. 0.02);
      i
    in
    let seen = ref [] in
    let outs, stats =
      Pool.map ~jobs:4
        ~on_result:(fun idx _ -> seen := idx :: !seen)
        f
        (Array.init n (fun i -> i))
    in
    checkb "emitted in index order" true
      (List.rev !seen = List.init n (fun i -> i));
    Array.iteri
      (fun i o -> checkb "identity result" true (o = Pool.Done i))
      outs;
    checki "all completed" n stats.Pool.st_completed;
    checkb "multiple workers" true (stats.Pool.st_workers > 1)
  end

let test_pool_crash_retry () =
  if not (requires_fork ()) then ()
  else begin
    (* job 0 SIGKILLs its own worker on first dispatch, then succeeds
       on retry (the flag file survives the crash); the batch completes *)
    let flag = Filename.temp_file "ise_pool_crash" ".flag" in
    Sys.remove flag;
    Fun.protect ~finally:(fun () -> if Sys.file_exists flag then Sys.remove flag)
    @@ fun () ->
    let f i =
      if i = 0 && not (Sys.file_exists flag) then begin
        Out_channel.with_open_bin flag (fun _ -> ());
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end;
      i + 100
    in
    let outs, stats =
      Pool.map ~jobs:2 ~max_retries:2 ~retry_backoff:0.01 f [| 0; 1 |]
    in
    checkb "crashed job retried to success" true (outs.(0) = Pool.Done 100);
    checkb "sibling job unaffected" true (outs.(1) = Pool.Done 101);
    checkb "crash counted" true (stats.Pool.st_crashes >= 1);
    checkb "retry counted" true (stats.Pool.st_retried >= 1)
  end

let test_pool_crash_exhausts_retries () =
  if not (requires_fork ()) then ()
  else begin
    (* a job that always kills its worker is isolated as Failed
       (Crashed _) once retries run out; the rest of the batch is fine *)
    let f i =
      if i = 0 then Unix.kill (Unix.getpid ()) Sys.sigkill;
      i
    in
    let outs, stats =
      Pool.map ~jobs:2 ~max_retries:1 ~retry_backoff:0.01 f [| 0; 1 |]
    in
    (match outs.(0) with
    | Pool.Failed (Pool.Crashed _) -> ()
    | o -> Alcotest.failf "expected Crashed, got %s" (render_outcome o));
    checkb "other job done" true (outs.(1) = Pool.Done 1);
    checki "retries bounded" 1 stats.Pool.st_retried
  end

let test_pool_timeout_kill () =
  if not (requires_fork ()) then ()
  else begin
    let t0 = Unix.gettimeofday () in
    let f i = if i = 0 then Unix.sleepf 30. ; i in
    let outs, stats =
      Pool.map ~jobs:2 ~job_timeout:0.3 ~kill_grace:0.2 ~max_retries:0 f
        [| 0; 1 |]
    in
    (match outs.(0) with
    | Pool.Failed (Pool.Timed_out s) -> checkb "ran ~timeout" true (s >= 0.25)
    | o -> Alcotest.failf "expected Timed_out, got %s" (render_outcome o));
    checkb "fast job unaffected" true (outs.(1) = Pool.Done 1);
    checki "timeout counted" 1 stats.Pool.st_timed_out;
    (* the 30 s sleeper was actually killed, not waited out *)
    checkb "killed promptly" true (Unix.gettimeofday () -. t0 < 10.)
  end

let test_pool_timeout_bisect () =
  if not (requires_fork ()) then ()
  else begin
    (* batch 0 contains one wedged item: the timed-out batch is split
       once, the clean half completes, the wedged half times out for
       good (halves are never re-split) *)
    let f batch =
      List.iter (fun i -> if i = 13 then Unix.sleepf 30.) batch;
      List.fold_left ( + ) 0 batch
    in
    let bisect = function
      | ([] | [ _ ]) -> None
      | batch ->
        let mid = List.length batch / 2 in
        Some (List.filteri (fun i _ -> i < mid) batch,
              List.filteri (fun i _ -> i >= mid) batch)
    in
    let outs, stats =
      Pool.map ~jobs:2 ~job_timeout:0.4 ~kill_grace:0.1 ~max_retries:0 ~bisect
        f
        [| [ 1; 2; 13; 4 ]; [ 5; 6 ] |]
    in
    (match outs.(0) with
    | Pool.Split (Pool.Done 3, Pool.Failed (Pool.Timed_out _)) -> ()
    | o -> Alcotest.failf "expected Split(done 3, timeout), got %s"
             (render_outcome o));
    checkb "clean batch unaffected" true (outs.(1) = Pool.Done 11);
    checki "one bisection" 1 stats.Pool.st_bisected;
    (* whole batch + wedged half both timed out *)
    checki "timeouts counted" 2 stats.Pool.st_timed_out
  end

let test_pool_sigint_drain () =
  if not (requires_fork ()) then ()
  else begin
    (* job 0 interrupts the supervisor; in-flight jobs finish, queued
       jobs come back Failed Cancelled, and map returns normally *)
    let f i =
      if i = 0 then begin
        Unix.kill (Unix.getppid ()) Sys.sigint;
        Unix.sleepf 0.2
      end
      else Unix.sleepf 0.4;
      i
    in
    let outs, stats = Pool.map ~jobs:2 ~max_retries:0 f [| 0; 1; 2; 3; 4 |] in
    checkb "in-flight job finished" true (outs.(0) = Pool.Done 0);
    checkb "queued jobs cancelled" true (stats.Pool.st_cancelled >= 1);
    checkb "tail job cancelled" true (outs.(4) = Pool.Failed Pool.Cancelled)
  end

(* ------------------------------------------------------------------ *)
(* determinism: -j 4 ≡ -j 1 on a fixed-seed campaign                   *)

let with_injected_bug f =
  Ise_model.Axiom.fuzz_unsound_strict_ppo := true;
  Fun.protect
    ~finally:(fun () -> Ise_model.Axiom.fuzz_unsound_strict_ppo := false)
    f

let report_fingerprint ~seed (r : Campaign.report) =
  let failures =
    List.map
      (fun f -> Corpus.to_string (Campaign.entry_of_failure ~seed f))
      r.Campaign.r_failures
  in
  String.concat "\n"
    (Printf.sprintf "tests=%d checks=%d lost=%d" r.Campaign.r_tests
       r.Campaign.r_checks r.Campaign.r_lost_tests
    :: failures)

let campaign_fingerprint ~jobs ~seed =
  let log_buf = Buffer.create 256 in
  let report =
    Campaign.run ~count:20 ~seeds_per_test:8 ~jobs
      ~log:(fun s -> Buffer.add_string log_buf (s ^ "\n"))
      ~seed ()
  in
  (report_fingerprint ~seed report, Buffer.contents log_buf)

let test_campaign_j4_equals_j1 () =
  if not (requires_fork ()) then ()
  else begin
    (* the acceptance criterion: same failures, same shrunk artifacts,
       same log stream, whatever the worker count — exercised with an
       injected model bug so the equality covers the failure path too *)
    with_injected_bug (fun () ->
        let fp1, log1 = campaign_fingerprint ~jobs:1 ~seed:7 in
        let fp4, log4 = campaign_fingerprint ~jobs:4 ~seed:7 in
        checks "report fingerprint -j4 = -j1" fp1 fp4;
        checks "log stream -j4 = -j1" log1 log4);
    (* and on the sound model (clean run, different seed) *)
    let fp1, log1 = campaign_fingerprint ~jobs:1 ~seed:11 in
    let fp4, log4 = campaign_fingerprint ~jobs:4 ~seed:11 in
    checks "clean fingerprint -j4 = -j1" fp1 fp4;
    checks "clean log -j4 = -j1" log1 log4
  end

(* ------------------------------------------------------------------ *)
(* persistent pools                                                    *)

let test_pool_persistent_reuse () =
  if not (requires_fork ()) then ()
  else begin
    (* three batches on one handle: workers fork once, then are reused
       — and every batch is byte-identical to the -j 1 inline run *)
    let f i = if i mod 5 = 3 then failwith "det boom" else i * 7 in
    let p = Pool.create ~jobs:3 f in
    Fun.protect ~finally:(fun () -> Pool.close p) @@ fun () ->
    let render (outs, _) =
      String.concat "," (Array.to_list (Array.map render_outcome outs))
    in
    let batches = [ Array.init 9 (fun i -> i);
                    Array.init 6 (fun i -> i + 100);
                    Array.init 9 (fun i -> 2 * i) ] in
    let spawned =
      List.map
        (fun items ->
          let (_, stats) as out = Pool.run p items in
          checks "persistent = inline bytes"
            (render (Pool.map ~jobs:1 f items))
            (render out);
          stats.Pool.st_spawned)
        batches
    in
    (match spawned with
     | first :: rest ->
       checki "first batch forks the workers" 3 first;
       List.iter (checki "later batches fork nothing" 0) rest
     | [] -> assert false);
    checki "workers alive between batches" 3 (Pool.alive_workers p);
    Pool.close p;
    checki "close reaps all workers" 0 (Pool.alive_workers p)
  end

let test_pool_persistent_streams_in_order () =
  if not (requires_fork ()) then ()
  else begin
    (* in-order on_result emission holds on the reused-worker path too *)
    let n = 8 in
    let f i = Unix.sleepf (float_of_int (n - 1 - i) *. 0.01); i in
    Pool.with_pool ~jobs:4 f @@ fun p ->
    ignore (Pool.run p (Array.init n (fun i -> i)));
    let seen = ref [] in
    let _ =
      Pool.run ~on_result:(fun idx _ -> seen := idx :: !seen) p
        (Array.init n (fun i -> i))
    in
    checkb "second batch emits in index order" true
      (List.rev !seen = List.init n (fun i -> i))
  end

let test_pool_persistent_survives_crash () =
  if not (requires_fork ()) then ()
  else begin
    (* a worker dying mid-stream fails its job (retries off) but the
       handle keeps working: the next batch transparently respawns *)
    let f i = if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill; i in
    let p = Pool.create ~jobs:2 ~max_retries:0 f in
    Fun.protect ~finally:(fun () -> Pool.close p) @@ fun () ->
    let outs, stats = Pool.run p [| 0; 1; 2; 3 |] in
    checkb "crash recorded" true (stats.Pool.st_crashes >= 1);
    (match outs.(1) with
     | Pool.Failed (Pool.Crashed _) -> ()
     | o -> Alcotest.failf "expected Crashed, got %s" (render_outcome o));
    checkb "other jobs completed" true
      (outs.(0) = Pool.Done 0 && outs.(2) = Pool.Done 2
       && outs.(3) = Pool.Done 3);
    (* same handle, clean batch — any dead worker is re-forked *)
    let g = Array.init 5 (fun i -> i + 10) in
    let outs2, stats2 = Pool.run p g in
    Array.iteri
      (fun i o -> checkb "post-crash batch ok" true (o = Pool.Done (i + 10)))
      outs2;
    checki "no crashes in clean batch" 0 stats2.Pool.st_crashes
  end

let test_pool_prespawn () =
  if not (requires_fork ()) then ()
  else begin
    let p = Pool.create ~jobs:2 (fun i -> i + 1) in
    Fun.protect ~finally:(fun () -> Pool.close p) @@ fun () ->
    checki "no workers before prespawn" 0 (Pool.alive_workers p);
    Pool.prespawn p;
    checki "prespawn forks all workers" 2 (Pool.alive_workers p);
    let outs, stats = Pool.run p [| 1; 2; 3 |] in
    checki "prespawned batch forks nothing" 0 stats.Pool.st_spawned;
    Array.iteri
      (fun i o -> checkb "result" true (o = Pool.Done (i + 2)))
      outs
  end

let suite =
  [
    Alcotest.test_case "codec: round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: streaming prefixes" `Quick
      test_codec_streaming_prefixes;
    Alcotest.test_case "codec: corruption detected" `Quick test_codec_corruption;
    Alcotest.test_case "codec: marshal round-trip" `Quick
      test_codec_marshal_roundtrip;
    Alcotest.test_case "codec: fd round-trip and EOF" `Quick
      test_codec_fd_roundtrip;
    Alcotest.test_case "codec: truncated stream" `Quick test_codec_fd_truncated;
    Alcotest.test_case "pool: forked = inline" `Quick
      test_pool_inline_matches_forked;
    Alcotest.test_case "pool: results in order" `Quick test_pool_results_in_order;
    Alcotest.test_case "pool: crash retried" `Quick test_pool_crash_retry;
    Alcotest.test_case "pool: crash isolated after retries" `Quick
      test_pool_crash_exhausts_retries;
    Alcotest.test_case "pool: timeout killed" `Quick test_pool_timeout_kill;
    Alcotest.test_case "pool: timeout bisected" `Quick
      test_pool_timeout_bisect;
    Alcotest.test_case "pool: SIGINT drains" `Quick test_pool_sigint_drain;
    Alcotest.test_case "pool: persistent workers reused" `Quick
      test_pool_persistent_reuse;
    Alcotest.test_case "pool: persistent streams in order" `Quick
      test_pool_persistent_streams_in_order;
    Alcotest.test_case "pool: persistent survives worker crash" `Quick
      test_pool_persistent_survives_crash;
    Alcotest.test_case "pool: prespawn" `Quick test_pool_prespawn;
    Alcotest.test_case "pool: campaign -j4 = -j1" `Slow
      test_campaign_j4_equals_j1;
  ]
