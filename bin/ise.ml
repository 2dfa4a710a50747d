(* ise: command-line front end for the imprecise-store-exceptions
   library — run litmus tests, workloads, and microbenchmarks without
   writing OCaml. *)

open Cmdliner
open Ise_sim

let model_conv =
  let parse = function
    | "sc" -> Ok Ise_model.Axiom.Sc
    | "pc" | "tso" -> Ok Ise_model.Axiom.Pc
    | "wc" | "rvwmo" -> Ok Ise_model.Axiom.Wc
    | s -> Error (`Msg (Printf.sprintf "unknown model %S (sc|pc|wc)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
       | Ise_model.Axiom.Sc -> "sc"
       | Ise_model.Axiom.Pc -> "pc"
       | Ise_model.Axiom.Wc -> "wc")
  in
  Arg.conv (parse, print)

let model_arg =
  Arg.(value & opt model_conv Ise_model.Axiom.Wc
       & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Consistency model (sc|pc|wc).")

(* ------------------------------------------------------------------ *)
(* parallelism plumbing                                                *)

let jobs_arg =
  Arg.(value & opt int (Ise_pool.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Parallel worker processes (default: detected core count; 1 \
                 runs in-process with no fork).")

(* ------------------------------------------------------------------ *)
(* telemetry plumbing                                                  *)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file (open in Perfetto or \
                 chrome://tracing).")

let telemetry_out_arg ~doc =
  Arg.(value & opt (some string) None
       & info [ "telemetry-out" ] ~docv:"FILE" ~doc)

let write_file path contents =
  match open_out path with
  | oc ->
    output_string oc contents;
    close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "cannot write trace: %s\n" msg;
    exit 1

(* every JSON artifact carries the run_id/git_rev stamp so traces,
   telemetry dumps, and ledger entries from one run are joinable *)
let write_trace sink path =
  let json =
    Ise_telemetry.Trace.to_chrome_json
      ~meta:(Ise_obs.Runinfo.stamp ())
      (Ise_telemetry.Sink.trace sink)
  in
  write_file path (Ise_telemetry.Json.to_string json);
  Printf.eprintf "wrote trace to %s\n%!" path

let write_telemetry sink path =
  let json =
    Ise_telemetry.Json.Obj
      (Ise_obs.Runinfo.stamp ()
      @ [ ( "metrics",
            Ise_telemetry.Registry.to_json
              (Ise_telemetry.Sink.registry sink) ) ])
  in
  write_file path (Ise_telemetry.Json.to_string_pretty json);
  Printf.eprintf "wrote telemetry to %s\n%!" path

(* a sink is created when any output flag needs one *)
let sink_for = function
  | None, None -> None
  | _ -> Some (Ise_telemetry.Sink.create ())

let write_outputs sink ~trace_out ~telemetry_out =
  match sink with
  | None -> ()
  | Some sink ->
    Option.iter (write_trace sink) trace_out;
    Option.iter (write_telemetry sink) telemetry_out

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* observability plumbing                                              *)

let journal_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "journal-dir" ] ~docv:"DIR"
           ~doc:"Keep per-worker flight-recorder crash journals in this \
                 directory (forked pool workers only; journals of \
                 cleanly-exited workers are removed).")

let ledger_arg =
  Arg.(value & opt (some string) None
       & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Append a run record (metrics, git rev, seed) to this \
                 newline-JSON ledger, for later $(b,ise compare).")

let append_ledger ~path record =
  Ise_obs.Ledger.append ~path record;
  Printf.eprintf "appended %s/%s record to %s\n%!"
    record.Ise_obs.Ledger.l_kind record.Ise_obs.Ledger.l_label path

let meta_bool meta k default =
  match List.assoc_opt k meta with
  | Some "true" -> true
  | Some "false" -> false
  | _ -> default

(* Builds the machine for a GAP kernel run (shared by `gap` and
   `stats`). *)
let gap_machine kernel nodes degree inject =
  let rng = Ise_util.Rng.create 1 in
  let g = Ise_workload.Graph.power_law rng ~nodes ~avg_degree:degree in
  let base = Config.default.Config.einject_base in
  let tr =
    match kernel with
    | "bfs" -> Ise_workload.Gap.bfs g ~base ~src:0
    | "sssp" -> Ise_workload.Gap.sssp ~max_rounds:3 g ~base ~src:0
    | "bc" -> Ise_workload.Gap.bc g ~base ~sources:[ 0 ]
    | k ->
      Printf.eprintf "unknown kernel %S (bfs|sssp|bc)\n" k;
      exit 1
  in
  let m = Machine.create ~programs:[| Ise_workload.Gap.stream_of tr |] () in
  Machine.set_trace_enabled m false;
  let os = Ise_os.Handler.install m in
  if inject then Ise_workload.Gap.mark_faulting m tr;
  (g, tr, m, os)

(* ------------------------------------------------------------------ *)
(* litmus                                                              *)

let litmus_cmd =
  let run list_only name seeds model no_faults jobs trace_out telemetry_out =
    if list_only then begin
      List.iter
        (fun t ->
          Printf.printf "%-16s %s\n" t.Ise_litmus.Lit_test.name
            t.Ise_litmus.Lit_test.doc)
        Ise_litmus.Library.all;
      0
    end
    else begin
      let tests =
        match name with
        | Some n -> (
          match
            List.find_opt
              (fun t -> t.Ise_litmus.Lit_test.name = n)
              Ise_litmus.Library.all
          with
          | Some t -> [| t |]
          | None ->
            Printf.eprintf "unknown test %S (see --list)\n" n;
            exit 1)
        | None -> Array.of_list Ise_litmus.Library.all
      in
      let cfg = Config.with_consistency model Config.default in
      (* one job per test; the worker returns the fully-formatted line
         so -j N output is byte-identical to -j 1 *)
      let run_one t =
        let r =
          Ise_litmus.Lit_run.run ~seeds ~inject_faults:(not no_faults) ~cfg t
        in
        ( Ise_litmus.Lit_run.summary_line r,
          r.Ise_litmus.Lit_run.pass && r.Ise_litmus.Lit_run.contract_ok )
      in
      let ok = ref true in
      let sink = sink_for (trace_out, telemetry_out) in
      let _outcomes, _stats =
        Ise_pool.Pool.map ~jobs ?telemetry:sink
          ~on_result:(fun i outcome ->
            match outcome with
            | Ise_pool.Pool.Done (line, pass) ->
              print_endline line;
              if not pass then ok := false
            | Ise_pool.Pool.Failed err ->
              Printf.printf "%-16s POOL FAILURE: %s\n"
                tests.(i).Ise_litmus.Lit_test.name
                (Ise_pool.Pool.error_to_string err);
              ok := false
            | Ise_pool.Pool.Split _ ->
              (* no bisect function is passed here *)
              assert false)
          run_one tests
      in
      write_outputs sink ~trace_out ~telemetry_out;
      if !ok then 0 else 1
    end
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List available tests.")
  in
  let name_arg =
    Arg.(value & opt (some string) None
         & info [ "t"; "test" ] ~docv:"NAME" ~doc:"Run a single test.")
  in
  let seeds_arg =
    Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Perturbed runs per test.")
  in
  let nofaults_arg =
    Arg.(value & flag & info [ "no-faults" ] ~doc:"Disable error injection.")
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Run litmus tests on the simulated machine (§6.3)")
    Term.(const run $ list_arg $ name_arg $ seeds_arg $ model_arg $ nofaults_arg
          $ jobs_arg $ trace_out_arg
          $ telemetry_out_arg
              ~doc:"Write the pool metrics registry (pool/* counters) as \
                    JSON.")

(* ------------------------------------------------------------------ *)
(* mbench                                                              *)

let mbench_cmd =
  let run stores batching =
    let r = Ise_workload.Mbench.run ~stores ~batching () in
    Printf.printf
      "stores=%d batching=%b\n\
       faulting stores handled: %d in %d invocations (avg batch %.1f)\n\
       cycles per faulting store: uarch=%.1f apply=%.1f other=%.1f total=%.1f\n"
      stores batching r.Ise_workload.Mbench.faulting_stores
      r.Ise_workload.Mbench.invocations r.Ise_workload.Mbench.avg_batch
      r.Ise_workload.Mbench.uarch_per_store r.Ise_workload.Mbench.apply_per_store
      r.Ise_workload.Mbench.other_per_store r.Ise_workload.Mbench.total_per_store;
    0
  in
  let stores_arg =
    Arg.(value & opt int 2000 & info [ "stores" ] ~doc:"Number of stores.")
  in
  let batching_arg =
    Arg.(value & flag & info [ "batching" ] ~doc:"Stream stores back-to-back.")
  in
  Cmd.v
    (Cmd.info "mbench" ~doc:"Figure 5 microbenchmark: per-store overhead")
    Term.(const run $ stores_arg $ batching_arg)

(* ------------------------------------------------------------------ *)
(* gap                                                                 *)

let gap_cmd =
  let run kernel nodes degree inject trace_out telemetry_out =
    let g, tr, m, os = gap_machine kernel nodes degree inject in
    let sink = sink_for (trace_out, telemetry_out) in
    Option.iter (Machine.attach_telemetry m) sink;
    Machine.run m;
    if sink <> None then Machine.record_final_stats m;
    write_outputs sink ~trace_out ~telemetry_out;
    let cs = Core.stats (Machine.core m 0) in
    Printf.printf
      "%s on %d nodes / %d edges: %d instrs in %d cycles (IPC %.2f)\n\
       exceptions: %d imprecise (%d faulting stores), %d precise\n\
       results verified: %b\n"
      tr.Ise_workload.Gap.name (Ise_workload.Graph.nodes g)
      (Ise_workload.Graph.nedges g) cs.Core.retired (Machine.cycles m)
      (float_of_int cs.Core.retired /. float_of_int (Machine.cycles m))
      cs.Core.imprecise_exceptions cs.Core.faulting_stores
      os.Ise_os.Handler.precise_faults
      (Ise_workload.Gap.verify m tr);
    0
  in
  let kernel_arg =
    Arg.(value & opt string "bfs"
         & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc:"bfs|sssp|bc")
  in
  let nodes_arg =
    Arg.(value & opt int 2000 & info [ "nodes" ] ~doc:"Graph nodes.")
  in
  let degree_arg =
    Arg.(value & opt int 8 & info [ "degree" ] ~doc:"Average degree.")
  in
  let inject_arg =
    Arg.(value & flag & info [ "inject" ] ~doc:"Mark all graph memory faulting.")
  in
  Cmd.v
    (Cmd.info "gap" ~doc:"Run a GAP kernel trace on the machine (§6.5)")
    Term.(const run $ kernel_arg $ nodes_arg $ degree_arg $ inject_arg
          $ trace_out_arg
          $ telemetry_out_arg
              ~doc:"Write the machine's metrics registry as JSON.")

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let stats_cmd =
  let run kernel nodes degree no_inject format prom trace_out telemetry_out
      sample_period =
    let format = if prom then "prom" else format in
    if sample_period <= 0 then begin
      Printf.eprintf "--sample-period must be positive\n";
      exit 1
    end;
    let _g, _tr, m, _os = gap_machine kernel nodes degree (not no_inject) in
    let sink = Ise_telemetry.Sink.create () in
    Machine.attach_telemetry ~sample_period m sink;
    Machine.run m;
    Machine.record_final_stats m;
    let reg = Ise_telemetry.Sink.registry sink in
    (match format with
     | "text" -> Format.printf "%a@." Ise_telemetry.Registry.pp_text reg
     | "csv" -> print_string (Ise_telemetry.Registry.to_csv reg)
     | "json" ->
       print_endline
         (Ise_telemetry.Json.to_string_pretty
            (Ise_telemetry.Registry.to_json reg))
     | "prom" -> print_string (Ise_telemetry.Registry.to_prometheus reg)
     | f ->
       Printf.eprintf "unknown format %S (text|csv|json|prom)\n" f;
       exit 1);
    (match trace_out with
     | Some path -> write_trace sink path
     | None -> ());
    (match telemetry_out with
     | Some path -> write_telemetry sink path
     | None -> ());
    0
  in
  let kernel_arg =
    Arg.(value & opt string "bfs"
         & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc:"bfs|sssp|bc")
  in
  let nodes_arg =
    Arg.(value & opt int 2000 & info [ "nodes" ] ~doc:"Graph nodes.")
  in
  let degree_arg =
    Arg.(value & opt int 8 & info [ "degree" ] ~doc:"Average degree.")
  in
  let noinject_arg =
    Arg.(value & flag
         & info [ "no-inject" ]
             ~doc:"Do not mark graph memory faulting (no exception episodes).")
  in
  let format_arg =
    Arg.(value & opt string "text"
         & info [ "f"; "format" ] ~docv:"FMT"
             ~doc:"text|csv|json|prom (prom = Prometheus text exposition)")
  in
  let period_arg =
    Arg.(value & opt int 200
         & info [ "sample-period" ] ~docv:"CYCLES"
             ~doc:"Probe sampling period in cycles.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a GAP kernel with full telemetry and dump the metrics \
             registry (optionally a Perfetto trace)")
    Term.(const run $ kernel_arg $ nodes_arg $ degree_arg $ noinject_arg
          $ format_arg
          $ Arg.(value & flag
                 & info [ "prom" ]
                     ~doc:"Shorthand for $(b,--format prom): Prometheus \
                           text exposition, scrapable as a node exporter \
                           dump.")
          $ trace_out_arg
          $ telemetry_out_arg
              ~doc:"Also write the (stamped) metrics registry as a JSON \
                    file, independent of --format."
          $ period_arg)

(* ------------------------------------------------------------------ *)
(* mix                                                                 *)

let mix_cmd =
  let run workload length cores model =
    let p =
      try Ise_workload.Mix.find workload
      with Not_found ->
        Printf.eprintf "unknown workload %S; available: %s\n" workload
          (String.concat ", "
             (List.map (fun p -> p.Ise_workload.Mix.name) Ise_workload.Mix.table3));
        exit 1
    in
    let mk () =
      Ise_workload.Mix.multicore_streams ~seed:5 ~length_per_core:length ~cores p
    in
    let cfg =
      match model with
      | Ise_model.Axiom.Sc ->
        { (Config.with_consistency model Config.default) with
          Config.sc_speculative_loads = true }
      | _ -> Config.with_consistency model Config.default
    in
    let r = Ise_aso.Aso_core.run ~cfg ~programs:mk () in
    Printf.printf
      "%s on %d cores x %d instrs under %s: %d cycles, IPC %.3f\n\
       SB occupancy watermark %d, outstanding-drain watermark %d\n"
      workload cores length
      (match model with
       | Ise_model.Axiom.Sc -> "SC"
       | Ise_model.Axiom.Pc -> "PC"
       | Ise_model.Axiom.Wc -> "WC")
      r.Ise_aso.Aso_core.cycles r.Ise_aso.Aso_core.ipc
      r.Ise_aso.Aso_core.sb_occupancy_watermark
      r.Ise_aso.Aso_core.sb_inflight_watermark;
    0
  in
  let workload_arg =
    Arg.(value & opt string "BFS" & info [ "w"; "workload" ] ~docv:"NAME"
         ~doc:"Table 3 workload name.")
  in
  let length_arg =
    Arg.(value & opt int 30_000 & info [ "length" ] ~doc:"Instructions per core.")
  in
  let cores_arg = Arg.(value & opt int 4 & info [ "cores" ] ~doc:"Cores.") in
  Cmd.v
    (Cmd.info "mix" ~doc:"Run a Table 3 instruction mix and report IPC")
    Term.(const run $ workload_arg $ length_arg $ cores_arg $ model_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let run name model =
    let test =
      match
        List.find_opt (fun t -> t.Ise_litmus.Lit_test.name = name)
          Ise_litmus.Library.all
      with
      | Some t -> t
      | None ->
        Printf.eprintf "unknown test %S (see `ise litmus --list`)\n" name;
        exit 1
    in
    let cfg = { Ise_model.Axiom.model; faults = Ise_model.Axiom.Precise } in
    Format.printf "%a@." Ise_litmus.Lit_test.pp test;
    let allowed = Ise_model.Check.allowed cfg test.Ise_litmus.Lit_test.threads in
    Format.printf "allowed outcomes under %s:@." (Ise_model.Axiom.name cfg);
    Ise_model.Outcome.Set.iter
      (fun o -> Format.printf "  %a@." Ise_model.Outcome.pp o)
      allowed;
    (* explain the test's own condition outcome *)
    let sat =
      Ise_model.Outcome.Set.filter
        (Ise_litmus.Lit_test.cond_holds test.Ise_litmus.Lit_test.cond)
        allowed
    in
    if not (Ise_model.Outcome.Set.is_empty sat) then begin
      Format.printf "the test's interesting outcome is ALLOWED; a witness:@.";
      match
        Ise_model.Check.explain cfg test.Ise_litmus.Lit_test.threads
          (Ise_model.Outcome.Set.choose sat)
      with
      | Ise_model.Check.Allowed_by witness -> print_endline witness
      | _ -> ()
    end
    else begin
      (* reconstruct a concrete forbidden target from the condition by
         taking any unreachable-or-forbidden completion: try every
         outcome of the weakest model *)
      let wc_all =
        Ise_model.Check.allowed
          { Ise_model.Axiom.model = Ise_model.Axiom.Wc;
            faults = Ise_model.Axiom.Split_stream }
          test.Ise_litmus.Lit_test.threads
      in
      let candidates =
        Ise_model.Outcome.Set.filter
          (Ise_litmus.Lit_test.cond_holds test.Ise_litmus.Lit_test.cond)
          wc_all
      in
      if Ise_model.Outcome.Set.is_empty candidates then
        print_endline
          "the interesting outcome is FORBIDDEN (not producible by any \
           candidate execution)"
      else begin
        let target = Ise_model.Outcome.Set.choose candidates in
        Format.printf "the outcome %a is FORBIDDEN; the cycle:@."
          Ise_model.Outcome.pp target;
        match Ise_model.Check.explain cfg test.Ise_litmus.Lit_test.threads target with
        | Ise_model.Check.Forbidden_cycle cycle ->
          List.iter (fun e -> Printf.printf "  %s ->\n" e) cycle
        | Ise_model.Check.Unreachable -> print_endline "  (unreachable)"
        | Ise_model.Check.Allowed_by _ -> print_endline "  (allowed?!)"
      end
    end;
    0
  in
  let name_arg =
    Arg.(required & opt (some string) None
         & info [ "t"; "test" ] ~docv:"NAME" ~doc:"Litmus test to explain.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Why a litmus outcome is allowed or forbidden (herd-style cycles)")
    Term.(const run $ name_arg $ model_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let corpus_arg =
  Arg.(value & opt string "corpus"
       & info [ "corpus" ] ~docv:"DIR" ~doc:"Regression-corpus directory.")

let fuzz_seeds_arg =
  Arg.(value & opt int 10
       & info [ "seeds-per-test" ] ~docv:"N"
           ~doc:"Perturbed operational runs per test and variant.")

let inject_bug_arg =
  Arg.(value & flag
       & info [ "inject-bug" ]
           ~doc:"Self-test: deliberately break the axiomatic oracle \
                 (strict ppo) before running, to prove the harness finds, \
                 shrinks, and records the resulting counterexamples.")

let with_injected_bug inject f =
  if inject then Ise_model.Axiom.fuzz_unsound_strict_ppo := true;
  Fun.protect
    ~finally:(fun () -> Ise_model.Axiom.fuzz_unsound_strict_ppo := false)
    f

let variants_of_spec spec =
  match spec with
  | "all" -> Ok Ise_fuzz.Campaign.all_variants
  | "base" -> Ok [ Ise_fuzz.Campaign.base_variant ]
  | "chaos" -> Ok Ise_fuzz.Campaign.chaos_variants
  | spec ->
    let names = String.split_on_char ',' spec in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match Ise_fuzz.Campaign.variant_named (String.trim n) with
        | Some v -> resolve (v :: acc) rest
        | None -> Error n)
    in
    resolve [] names

let shard_sizing_conv =
  let parse = function
    | "auto" -> Ok `Auto
    | "formula" -> Ok `Formula
    | s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (`Fixed n)
      | _ ->
        Error (`Msg (Printf.sprintf "bad shard size %S (auto|formula|N)" s)))
  in
  let print ppf = function
    | `Auto -> Format.pp_print_string ppf "auto"
    | `Formula -> Format.pp_print_string ppf "formula"
    | `Fixed n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let shard_size_arg =
  Arg.(value & opt shard_sizing_conv `Formula
       & info [ "shard-size" ] ~docv:"SPEC"
           ~doc:"Tests per parallel shard: 'formula' (count/(jobs*4), the \
                 default), 'auto' (a pilot round calibrates shard size from \
                 the pool's per-worker latency histograms), or a fixed \
                 count.  All policies produce byte-identical reports.")

let shard_spec_conv =
  let parse s =
    match Ise_fabric.Plan.parse_shard s with
    | Ok kn -> Ok kn
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (k, n) = Format.fprintf ppf "%d/%d" (k + 1) n in
  Arg.conv (parse, print)

let shard_arg ~what =
  Arg.(value & opt (some shard_spec_conv) None
       & info [ "shard" ] ~docv:"K/N"
           ~doc:
             (Printf.sprintf
                "Run only shard K of N (1-based, CI-matrix style): the \
                 contiguous %s range $(b,Ise_fabric.Plan.shard_range) \
                 assigns to shard K.  The union of all N shards of the same \
                 seed is exactly the unsharded run."
                what))

let fuzz_run_cmd =
  let run seed count seeds_per_test variants_spec corpus_dir no_save inject
      trace_out telemetry_out jobs shard_sizing journal_dir ledger shard =
    let variants =
      match variants_of_spec variants_spec with
      | Ok vs -> vs
      | Error n ->
        Printf.eprintf
          "unknown variant %S; valid names:\n  %s\n" n
          (String.concat "\n  "
             (List.map Ise_fuzz.Campaign.variant_name
                Ise_fuzz.Campaign.all_variants));
        exit 1
    in
    let sink = sink_for (trace_out, telemetry_out) in
    let range =
      Option.map
        (fun (k, n) -> Ise_fabric.Plan.shard_range ~count ~shards:n k)
        shard
    in
    let report =
      with_injected_bug inject (fun () ->
          Ise_fuzz.Campaign.run ~count ~seeds_per_test ~variants ~jobs
            ~shard_sizing ?journal_dir ?telemetry:sink ~log:prerr_endline
            ?range ~seed ())
    in
    write_outputs sink ~trace_out ~telemetry_out;
    (match ledger with
     | None -> ()
     | Some path ->
       append_ledger ~path
         (Ise_obs.Ledger.make ~kind:"fuzz" ~label:variants_spec ~seed
            ~config:
              (Printf.sprintf "count=%d seeds_per_test=%d jobs-independent"
                 count seeds_per_test)
            [ ("tests", float_of_int report.Ise_fuzz.Campaign.r_tests);
              ("checks", float_of_int report.Ise_fuzz.Campaign.r_checks);
              ( "failures",
                float_of_int
                  (List.length report.Ise_fuzz.Campaign.r_failures) );
              ( "lost_tests",
                float_of_int report.Ise_fuzz.Campaign.r_lost_tests )
            ]));
    Printf.printf "seed %d: %d tests, %d checks, %d failure(s)\n"
      report.Ise_fuzz.Campaign.r_seed report.Ise_fuzz.Campaign.r_tests
      report.Ise_fuzz.Campaign.r_checks
      (List.length report.Ise_fuzz.Campaign.r_failures);
    if report.Ise_fuzz.Campaign.r_lost_tests > 0 then
      Printf.eprintf "warning: %d test(s) lost to failed pool shards\n%!"
        report.Ise_fuzz.Campaign.r_lost_tests;
    List.iter
      (fun f ->
        Format.printf "@.%s under %s [%s]: %s@.%a@."
          f.Ise_fuzz.Campaign.f_test.Ise_litmus.Lit_test.name
          (Ise_fuzz.Campaign.variant_name f.Ise_fuzz.Campaign.f_variant)
          (Ise_fuzz.Campaign.kind_name f.Ise_fuzz.Campaign.f_kind)
          f.Ise_fuzz.Campaign.f_detail Ise_litmus.Lit_test.pp
          f.Ise_fuzz.Campaign.f_shrunk;
        if not no_save then begin
          let path =
            Ise_fuzz.Corpus.save ~dir:corpus_dir
              (Ise_fuzz.Campaign.entry_of_failure ~seed f)
          in
          Printf.printf "replay artifact: %s\n" path
        end)
      report.Ise_fuzz.Campaign.r_failures;
    if
      report.Ise_fuzz.Campaign.r_failures = []
      && report.Ise_fuzz.Campaign.r_lost_tests = 0
    then 0
    else 1
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N" ~doc:"Generated tests.")
  in
  let variants_arg =
    Arg.(value & opt string "all"
         & info [ "variants" ] ~docv:"SPEC"
             ~doc:"Lattice variants to sweep: 'all', 'base', 'chaos' (the \
                   fault-injection points), or a comma-separated list of \
                   variant names.")
  in
  let nosave_arg =
    Arg.(value & flag
         & info [ "no-save" ] ~doc:"Do not write failure artifacts.")
  in
  let telemetry_out_arg =
    Arg.(value & opt (some string) None
         & info [ "telemetry-out" ] ~docv:"FILE"
             ~doc:"Write the final metrics registry (fuzz/* and pool/* \
                   counters) as JSON.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a differential fuzzing campaign over the config lattice")
    Term.(const run $ seed_arg $ count_arg $ fuzz_seeds_arg $ variants_arg
          $ corpus_arg $ nosave_arg $ inject_bug_arg $ trace_out_arg
          $ telemetry_out_arg $ jobs_arg $ shard_size_arg $ journal_dir_arg
          $ ledger_arg $ shard_arg ~what:"test")

let fuzz_replay_cmd =
  let run corpus_dir files seeds inject =
    let entries =
      match files with
      | [] -> Ise_fuzz.Corpus.load_dir corpus_dir
      | fs -> List.map (fun f -> (f, Ise_fuzz.Corpus.load_file f)) fs
    in
    if entries = [] then begin
      Printf.eprintf "no corpus entries under %s\n" corpus_dir;
      exit 1
    end;
    let failed = ref 0 in
    with_injected_bug inject (fun () ->
        List.iter
          (fun (path, entry) ->
            match entry with
            | Error msg ->
              incr failed;
              Printf.printf "%-40s PARSE ERROR: %s\n%!" path msg
            | Ok e -> (
              match Ise_fuzz.Campaign.replay ~seeds e with
              | Ok () -> Printf.printf "%-40s ok\n%!" path
              | Error msg ->
                incr failed;
                Printf.printf "%-40s FAIL: %s\n%!" path msg))
          entries);
    if !failed = 0 then 0 else 1
  in
  let files_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE" ~doc:"Artifacts to replay (default: --corpus).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay corpus artifacts and compare with their expected verdicts")
    Term.(const run $ corpus_arg $ files_arg $ fuzz_seeds_arg $ inject_bug_arg)

let fuzz_shrink_cmd =
  let run file seeds inject =
    match Ise_fuzz.Corpus.load_file file with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
    | Ok e -> (
      match Ise_fuzz.Campaign.variant_named e.Ise_fuzz.Corpus.e_variant with
      | None ->
        Printf.eprintf "unknown variant %S\n" e.Ise_fuzz.Corpus.e_variant;
        1
      | Some v ->
        with_injected_bug inject (fun () ->
            match
              Ise_fuzz.Campaign.failing_check ~seeds v
                e.Ise_fuzz.Corpus.e_test
            with
            | None ->
              Printf.printf "nothing to shrink: every check passes\n";
              0
            | Some (kind, detail) ->
              Printf.printf "shrinking %s failure (%s)...\n%!"
                (Ise_fuzz.Campaign.kind_name kind)
                detail;
              let shrunk, steps =
                Ise_fuzz.Shrink.minimize
                  ~keeps_failing:(fun t ->
                    match Ise_fuzz.Campaign.failing_check ~seeds v t with
                    | Some (k, _) -> k = kind
                    | None -> false)
                  e.Ise_fuzz.Corpus.e_test
              in
              Format.printf "%d shrink step(s):@.%a@." steps
                Ise_litmus.Lit_test.pp shrunk;
              print_string
                (Ise_fuzz.Corpus.to_string
                   { e with Ise_fuzz.Corpus.e_test = shrunk });
              0))
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Artifact to minimize.")
  in
  Cmd.v
    (Cmd.info "shrink" ~doc:"Re-minimize a corpus artifact in place")
    Term.(const run $ file_arg $ fuzz_seeds_arg $ inject_bug_arg)

let fuzz_corpus_status_cmd =
  let run corpus_dir seeds cached store_dir =
    let entries = Ise_fuzz.Corpus.load_dir corpus_dir in
    Printf.printf "%d entr%s under %s\n" (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      corpus_dir;
    (* with --cached, replays route through the result store: a hit
       reuses the stored verdict, a miss replays and writes through *)
    let store =
      if cached then Some (Ise_serve.Store.open_ ~dir:store_dir ()) else None
    in
    let hits = ref 0 and misses = ref 0 in
    let replay e =
      match store with
      | None -> Ise_fuzz.Campaign.replay ~seeds e
      | Some store -> (
        let key = Ise_serve.Proto.replay_key e ~seeds in
        match
          Option.bind
            (Ise_serve.Store.find store key)
            Ise_serve.Proto.replay_payload_of_string
        with
        | Some r ->
          incr hits;
          r
        | None ->
          incr misses;
          let r = Ise_fuzz.Campaign.replay ~seeds e in
          Ise_serve.Store.add store key
            (Ise_serve.Proto.replay_payload_to_string r);
          r)
    in
    let failed = ref 0 in
    let parsed =
      List.filter_map
        (fun (path, e) ->
          match e with
          | Ok e ->
            let verdict =
              match replay e with
              | Ok () -> "replay-ok"
              | Error msg ->
                incr failed;
                "REPLAY FAIL: " ^ msg
            in
            Printf.printf "  %-32s %-24s %-18s expect-%-4s %s\n"
              (Filename.basename path) e.Ise_fuzz.Corpus.e_variant
              e.Ise_fuzz.Corpus.e_kind
              (match e.Ise_fuzz.Corpus.e_expect with
               | Ise_fuzz.Corpus.Must_pass -> "pass"
               | Ise_fuzz.Corpus.Must_fail -> "fail")
              verdict;
            Some e.Ise_fuzz.Corpus.e_test
          | Error msg ->
            incr failed;
            Printf.printf "  %-32s PARSE ERROR: %s\n" (Filename.basename path)
              msg;
            None)
        entries
    in
    Printf.printf "\nTable 6 relation coverage of the corpus:\n";
    List.iter
      (fun (cat, n) ->
        Printf.printf "  %-36s %d\n" (Ise_litmus.Classify.name cat) n)
      (Ise_litmus.Classify.coverage parsed);
    if cached then
      Printf.printf "\nresult store: %d hit(s), %d miss(es)\n" !hits !misses;
    (* non-zero on any parse or replay failure, so CI can gate on it *)
    if !failed = 0 then 0
    else begin
      Printf.printf "\n%d corpus entr%s failed\n" !failed
        (if !failed = 1 then "y" else "ies");
      1
    end
  in
  let cached_arg =
    Arg.(value & flag
         & info [ "cached" ]
             ~doc:"Route replays through the content-addressed result store \
                   and report hit/miss counts.")
  in
  let store_arg =
    Arg.(value & opt string ".ise-store"
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Result store directory (with $(b,--cached)).")
  in
  Cmd.v
    (Cmd.info "corpus-status"
       ~doc:"List corpus entries (replaying each) and their Table 6 relation \
             coverage; non-zero exit if any entry fails to parse or replay")
    Term.(const run $ corpus_arg $ fuzz_seeds_arg $ cached_arg $ store_arg)

let fuzz_seed_corpus_cmd =
  let run corpus_dir =
    List.iter
      (fun e ->
        let path = Ise_fuzz.Corpus.save ~dir:corpus_dir e in
        Printf.printf "wrote %s (%s)\n" path e.Ise_fuzz.Corpus.e_detail)
      (Ise_fuzz.Campaign.seed_entries ());
    0
  in
  Cmd.v
    (Cmd.info "seed-corpus"
       ~doc:"Write the hand-picked Table 6 seed entries into the corpus")
    Term.(const run $ corpus_arg)

let fuzz_cmd =
  Cmd.group
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: campaigns, replay, shrinking, corpus \
             (§6.3's observed ⊆ allowed at scale)")
    [ fuzz_run_cmd; fuzz_replay_cmd; fuzz_shrink_cmd; fuzz_corpus_status_cmd;
      fuzz_seed_corpus_cmd ]

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)

let with_handler_bug inject f =
  if inject then Ise_os.Handler.bug_drop_get := true;
  Fun.protect
    ~finally:(fun () -> Ise_os.Handler.bug_drop_get := false)
    f

let profiles_of_spec spec =
  match spec with
  | "all" -> Ok Ise_chaos.Profile.all
  | spec ->
    let names = String.split_on_char ',' spec in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match Ise_chaos.Profile.named (String.trim n) with
        | Some p -> resolve (p :: acc) rest
        | None -> Error n)
    in
    resolve [] names

let chaos_inject_bug_arg =
  Arg.(value & flag
       & info [ "inject-bug" ]
           ~doc:"Self-test: deliberately make the OS handler drop one \
                 retrieved record per batch, to prove the watchdog catches \
                 the lost store and the campaign shrinks it to a replayable \
                 artifact.")

let chaos_run_cmd =
  let run seed trials cores stores profiles_spec telemetry_out trace_out
      snapshot_out journal_out journal_dir ledger corpus_dir no_save inject
      jobs shard workers spawn spawn_jobs =
    let profiles =
      match profiles_of_spec profiles_spec with
      | Ok ps -> ps
      | Error n ->
        Printf.eprintf "unknown chaos profile %S; valid names:\n  %s\n" n
          (String.concat "\n  "
             (List.map
                (fun p -> p.Ise_chaos.Profile.name)
                Ise_chaos.Profile.all));
        exit 1
    in
    let trials =
      match trials with Some t -> t | None -> List.length profiles
    in
    let fabric = workers <> [] || spawn > 0 in
    if fabric && shard <> None then begin
      Printf.eprintf
        "--shard slices one host's trials; fabric dispatch already shards \
         — use one or the other\n";
      exit 1
    end;
    if spawn > 0 && not Ise_fabric.Sim.available then begin
      Printf.eprintf "--spawn needs fork(), unavailable on this platform\n";
      exit 1
    end;
    with_handler_bug inject @@ fun () ->
    let parr = Array.of_list profiles in
    let sink = sink_for (trace_out, telemetry_out) in
    (* trial t: profile rotates, seed advances — (seed, profile) fully
       determines the run, so the whole command is byte-identical for a
       fixed seed whatever the worker count *)
    let specs =
      Array.init trials (fun t ->
          (seed + t, parr.(t mod Array.length parr).Ise_chaos.Profile.name))
    in
    (* --shard slices the *global* trial stream: each trial's (seed,
       profile) is fixed by its global index before slicing, so the
       union of all shards is byte-for-byte the unsharded run *)
    let specs, trials =
      match shard with
      | None -> (specs, trials)
      | Some (k, n) ->
        let lo, hi = Ise_fabric.Plan.shard_range ~count:trials ~shards:n k in
        (Array.sub specs lo (hi - lo), hi - lo)
    in
    let run_one ?telemetry (s, pname) =
      let profile = Option.get (Ise_chaos.Profile.named pname) in
      Ise_chaos.Chaos_run.run_stress ?telemetry ~ncores:cores
        ~stores_per_core:stores ~seed:s ~profile ()
    in
    let reports =
      if fabric then begin
        (* dispatch the trial stream across fabric workers: the worker
           re-derives each trial's (seed, profile) from the spec and
           its global index, so the merged report stream is
           byte-identical to the local run above *)
        if sink <> None then
          Printf.eprintf
            "note: fabric dispatch records no per-trial telemetry; use \
             -j 1 without --workers/--spawn for complete traces\n%!";
        let cs =
          Ise_chaos.Chaos_run.spec ~trials ~cores ~stores ~seed ~profiles ()
        in
        let sim =
          if spawn = 0 then None
          else
            let dir =
              Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "ise-chaos-fabric-%d" (Unix.getpid ()))
            in
            Some (Ise_fabric.Sim.start ~jobs:spawn_jobs ~dir ~n:spawn ())
        in
        let workers =
          workers
          @ (match sim with None -> [] | Some s -> Ise_fabric.Sim.sockets s)
        in
        let cfg = Ise_fabric.Supervisor.default_config ~workers in
        let ranges, outcomes, stats =
          Ise_fabric.Supervisor.run cfg (Ise_fabric.Wire.Chaos cs)
        in
        (match sim with None -> () | Some s -> Ise_fabric.Sim.stop s);
        let reps, lost =
          Ise_fabric.Merge.merge_chaos ~log:prerr_endline ~ranges ~outcomes ()
        in
        Printf.eprintf
          "[fabric] %d worker(s), %d shard(s): %d dispatched, %d inline, \
           %d worker loss(es), %d rejoin(s), %.2fs\n%!"
          stats.Ise_fabric.Supervisor.f_workers
          stats.Ise_fabric.Supervisor.f_shards
          stats.Ise_fabric.Supervisor.f_dispatched
          stats.Ise_fabric.Supervisor.f_inline
          stats.Ise_fabric.Supervisor.f_worker_losses
          stats.Ise_fabric.Supervisor.f_rejoins
          stats.Ise_fabric.Supervisor.f_wall_s;
        if lost > 0 then
          Printf.eprintf "warning: %d trial(s) lost to failed shards\n%!"
            lost;
        reps
      end
      else if jobs <= 1 || not Ise_pool.Pool.fork_available then
        Array.map (fun spec -> run_one ?telemetry:sink spec) specs
      else begin
        if sink <> None then
          Printf.eprintf
            "note: at -j > 1, --telemetry-out/--trace-out record pool \
             metrics but not per-trial chaos counters; use -j 1 for \
             complete traces\n%!";
        let outcomes, _stats =
          Ise_pool.Pool.map ~jobs ?telemetry:sink ?journal_dir run_one specs
        in
        Array.mapi
          (fun i outcome ->
            match outcome with
            | Ise_pool.Pool.Done r -> r
            | Ise_pool.Pool.Failed err ->
              (* a crashed worker is re-run in-process: the report must
                 not depend on pool health *)
              Printf.eprintf "trial %d lost (%s); re-running in-process\n%!"
                i
                (Ise_pool.Pool.error_to_string err);
              run_one specs.(i)
            | Ise_pool.Pool.Split _ -> assert false)
          outcomes
      end
    in
    Array.iter
      (fun r -> Format.printf "%a@." Ise_chaos.Chaos_run.pp_report r)
      reports;
    let totals = Hashtbl.create 8 in
    let order = ref [] in
    Array.iter
      (fun r ->
        List.iter
          (fun (k, v) ->
            if not (Hashtbl.mem totals k) then order := k :: !order;
            Hashtbl.replace totals k
              (v + Option.value ~default:0 (Hashtbl.find_opt totals k)))
          r.Ise_chaos.Chaos_run.r_counts)
      reports;
    Printf.printf "== totals over %d trial(s) ==\n" trials;
    List.iter
      (fun k -> Printf.printf "%s=%d\n" k (Hashtbl.find totals k))
      (List.rev !order);
    let violations =
      Array.fold_left
        (fun a r -> a + List.length r.Ise_chaos.Chaos_run.r_violations)
        0 reports
    in
    Printf.printf "violations=%d\n" violations;
    write_outputs sink ~trace_out ~telemetry_out;
    (match snapshot_out with
     | Some path when violations > 0 ->
       let buf = Buffer.create 1024 in
       Array.iter
         (fun r ->
           match r.Ise_chaos.Chaos_run.r_snapshot with
           | Some s ->
             Buffer.add_string buf
               (Printf.sprintf "=== seed=%d profile=%s ===\n%s\n"
                  r.Ise_chaos.Chaos_run.r_seed
                  r.Ise_chaos.Chaos_run.r_profile s)
           | None -> ())
         reports;
       write_file path (Buffer.contents buf);
       Printf.eprintf "wrote watchdog snapshots to %s\n%!" path
     | _ -> ());
    (* the flight-recorder journal of the first violating trial (else
       the last trial) — feed it to `ise report --journal` *)
    (match journal_out with
     | Some path when Array.length reports > 0 ->
       let pick =
         match
           Array.find_opt
             (fun r -> r.Ise_chaos.Chaos_run.r_violations <> [])
             reports
         with
         | Some r -> r
         | None -> reports.(Array.length reports - 1)
       in
       write_file path pick.Ise_chaos.Chaos_run.r_journal;
       Printf.eprintf "wrote flight-recorder journal (seed %d, %s) to %s\n%!"
         pick.Ise_chaos.Chaos_run.r_seed pick.Ise_chaos.Chaos_run.r_profile
         path
     | _ -> ());
    (match ledger with
     | None -> ()
     | Some path ->
       (* offline episode-latency aggregates from every trial journal *)
       let ep_totals = ref [] in
       let episodes = ref 0 in
       let offline_anomalies = ref 0 in
       Array.iter
         (fun r ->
           match Ise_obs.Journal.parse r.Ise_chaos.Chaos_run.r_journal with
           | Error _ -> ()
           | Ok p ->
             let a =
               Ise_obs.Episode.analyze
                 ~ordered_interface:
                   (meta_bool p.Ise_obs.Journal.j_meta "ordered_interface"
                      true)
                 ~ordered_apply:
                   (meta_bool p.Ise_obs.Journal.j_meta "ordered_apply" true)
                 (Ise_obs.Episode.of_journal p)
             in
             offline_anomalies :=
               !offline_anomalies
               + List.length a.Ise_obs.Episode.an_anomalies;
             List.iter
               (fun ep ->
                 incr episodes;
                 match
                   (Ise_obs.Episode.phases_of ep).Ise_obs.Episode.ph_total
                 with
                 | Some t -> ep_totals := float_of_int t :: !ep_totals
                 | None -> ())
               a.Ise_obs.Episode.an_episodes)
         reports;
       let ep_mean =
         match !ep_totals with
         | [] -> 0.
         | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
       in
       let metrics =
         List.map
           (fun k -> (k, float_of_int (Hashtbl.find totals k)))
           (List.rev !order)
         @ [ ("violations", float_of_int violations);
             ("episodes", float_of_int !episodes);
             ("episode_total_cycles_mean", ep_mean);
             ("offline_anomalies", float_of_int !offline_anomalies)
           ]
       in
       append_ledger ~path
         (Ise_obs.Ledger.make ~kind:"chaos" ~label:profiles_spec ~seed
            ~config:
              (Printf.sprintf "trials=%d cores=%d stores=%d" trials cores
                 stores)
            metrics));
    if not inject then if violations = 0 then 0 else 1
    else begin
      (* the canary must be *caught*: stress violations, plus a chaos
         campaign that finds, shrinks, and records the lost store *)
      let chaos_light =
        List.filter
          (fun v -> v.Ise_fuzz.Campaign.v_chaos = Some "light")
          Ise_fuzz.Campaign.chaos_variants
      in
      let report =
        Ise_fuzz.Campaign.run ~count:4 ~seeds_per_test:3 ~variants:chaos_light
          ~variants_per_test:1 ~model_checks:false ~log:prerr_endline ~seed ()
      in
      List.iter
        (fun f ->
          Format.printf "@.%s under %s [%s]: %s@.%a@."
            f.Ise_fuzz.Campaign.f_test.Ise_litmus.Lit_test.name
            (Ise_fuzz.Campaign.variant_name f.Ise_fuzz.Campaign.f_variant)
            (Ise_fuzz.Campaign.kind_name f.Ise_fuzz.Campaign.f_kind)
            f.Ise_fuzz.Campaign.f_detail Ise_litmus.Lit_test.pp
            f.Ise_fuzz.Campaign.f_shrunk;
          if not no_save then begin
            let path =
              Ise_fuzz.Corpus.save ~dir:corpus_dir
                (Ise_fuzz.Campaign.entry_of_failure ~seed f)
            in
            Printf.printf "replay artifact: %s\n" path
          end)
        report.Ise_fuzz.Campaign.r_failures;
      let watchdog_failures =
        List.filter
          (fun f -> f.Ise_fuzz.Campaign.f_kind = Ise_fuzz.Campaign.Watchdog)
          report.Ise_fuzz.Campaign.r_failures
      in
      if violations > 0 && watchdog_failures <> [] then begin
        Printf.printf
          "injected bug caught: %d stress violation(s), %d shrunk \
           campaign failure(s)\n"
          violations
          (List.length watchdog_failures);
        0
      end
      else begin
        Printf.printf "injected bug NOT caught\n";
        1
      end
    end
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Root seed.")
  in
  let trials_arg =
    Arg.(value & opt (some int) None
         & info [ "trials" ] ~docv:"N"
             ~doc:"Stress trials; profiles rotate across them (default: one \
                   per selected profile).")
  in
  let cores_arg =
    Arg.(value & opt int 4
         & info [ "cores" ] ~docv:"N" ~doc:"Cores per stress machine.")
  in
  let stores_arg =
    Arg.(value & opt int 120
         & info [ "stores" ] ~docv:"N" ~doc:"Stores per core.")
  in
  let profiles_arg =
    Arg.(value & opt string "all"
         & info [ "profiles" ] ~docv:"SPEC"
             ~doc:"Chaos profiles: 'all' or a comma-separated list of \
                   profile names.")
  in
  let telemetry_out_arg =
    Arg.(value & opt (some string) None
         & info [ "telemetry-out" ] ~docv:"FILE"
             ~doc:"Write the final metrics registry (chaos/* counters and \
                   machine stats) as JSON.")
  in
  let snapshot_out_arg =
    Arg.(value & opt (some string) None
         & info [ "snapshot-out" ] ~docv:"FILE"
             ~doc:"On violations, write the watchdog's diagnostic snapshots \
                   here (CI uploads this as an artifact).")
  in
  let journal_out_arg =
    Arg.(value & opt (some string) None
         & info [ "journal-out" ] ~docv:"FILE"
             ~doc:"Write the flight-recorder journal of the first violating \
                   trial (or the last trial when all pass) — analyze it with \
                   $(b,ise report --journal).")
  in
  let nosave_arg =
    Arg.(value & flag
         & info [ "no-save" ]
             ~doc:"With --inject-bug: do not write failure artifacts.")
  in
  let workers_arg =
    Arg.(value & opt (list string) []
         & info [ "workers" ] ~docv:"SOCK,..."
             ~doc:"Dispatch trials across fabric worker sockets (each an \
                   $(b,ise fabric worker)); the merged report stream is \
                   byte-identical to the local run.")
  in
  let spawn_arg =
    Arg.(value & opt int 0
         & info [ "spawn" ] ~docv:"N"
             ~doc:"Additionally fork N local fabric workers for the run's \
                   duration.")
  in
  let spawn_jobs_arg =
    Arg.(value & opt int 1
         & info [ "spawn-jobs" ] ~docv:"N"
             ~doc:"Pool fan-out inside each --spawn worker.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Seeded fault-injection stress runs with the invariant watchdog \
             attached")
    Term.(const run $ seed_arg $ trials_arg $ cores_arg $ stores_arg
          $ profiles_arg $ telemetry_out_arg $ trace_out_arg
          $ snapshot_out_arg $ journal_out_arg $ journal_dir_arg $ ledger_arg
          $ corpus_arg $ nosave_arg $ chaos_inject_bug_arg $ jobs_arg
          $ shard_arg ~what:"trial" $ workers_arg $ spawn_arg
          $ spawn_jobs_arg)

let chaos_replay_cmd =
  let run corpus_dir files seeds inject =
    let entries =
      match files with
      | [] -> Ise_fuzz.Corpus.load_dir corpus_dir
      | fs -> List.map (fun f -> (f, Ise_fuzz.Corpus.load_file f)) fs
    in
    if entries = [] then begin
      Printf.eprintf "no corpus entries under %s\n" corpus_dir;
      exit 1
    end;
    let failed = ref 0 in
    with_handler_bug inject (fun () ->
        List.iter
          (fun (path, entry) ->
            match entry with
            | Error msg ->
              incr failed;
              Printf.printf "%-40s PARSE ERROR: %s\n%!" path msg
            | Ok e -> (
              match Ise_fuzz.Campaign.replay ~seeds e with
              | Ok () -> Printf.printf "%-40s ok\n%!" path
              | Error msg ->
                incr failed;
                Printf.printf "%-40s FAIL: %s\n%!" path msg))
          entries);
    if !failed = 0 then 0 else 1
  in
  let files_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE" ~doc:"Artifacts to replay (default: --corpus).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay chaos corpus artifacts (--inject-bug reproduces \
             handler-bug witnesses)")
    Term.(const run $ corpus_arg $ files_arg $ fuzz_seeds_arg
          $ chaos_inject_bug_arg)

let chaos_cmd =
  Cmd.group
    (Cmd.info "chaos"
       ~doc:"Deterministic fault injection: seeded stress runs, the \
             invariant watchdog, and chaos-hardened litmus replay")
    [ chaos_run_cmd; chaos_replay_cmd ]

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let report_cmd =
  let run journal trace format top check ordered_interface ordered_apply
      retry_threshold =
    let events, meta =
      match (journal, trace) with
      | Some _, Some _ ->
        Printf.eprintf "--journal and --trace are mutually exclusive\n";
        exit 1
      | None, None ->
        Printf.eprintf "need --journal FILE or --trace FILE\n";
        exit 1
      | Some path, None -> (
        match Ise_obs.Journal.load path with
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
        | Ok p ->
          if p.Ise_obs.Journal.j_corrupt <> [] then
            Printf.eprintf
              "note: %d corrupt line(s) skipped (truncated tail?)\n%!"
              (List.length p.Ise_obs.Journal.j_corrupt);
          (match List.assoc_opt "dropped" p.Ise_obs.Journal.j_meta with
           | Some d when d <> "0" ->
             Printf.eprintf
               "note: the bounded ring dropped %s event(s); early episodes \
                may look truncated\n%!" d
           | _ -> ());
          (Ise_obs.Episode.of_journal p, p.Ise_obs.Journal.j_meta))
      | None, Some path -> (
        match Ise_telemetry.Json.of_string (read_file path) with
        | Error msg ->
          Printf.eprintf "cannot parse %s: %s\n" path msg;
          exit 1
        | Ok json -> (
          match Ise_obs.Episode.of_chrome_json json with
          | Error msg ->
            Printf.eprintf "cannot read trace %s: %s\n" path msg;
            exit 1
          | Ok evs -> (evs, [])))
    in
    (* contract-order flags: CLI override > journal metadata > Table 5
       defaults (same-stream, ordered applies) *)
    let ordered_interface =
      match ordered_interface with
      | Some b -> b
      | None -> meta_bool meta "ordered_interface" true
    in
    let ordered_apply =
      match ordered_apply with
      | Some b -> b
      | None -> meta_bool meta "ordered_apply" true
    in
    let analysis =
      Ise_obs.Episode.analyze ~ordered_interface ~ordered_apply
        ~retry_threshold events
    in
    (match format with
     | "text" -> print_string (Ise_obs.Episode.report_text ~top analysis)
     | "md" -> print_string (Ise_obs.Episode.report_md ~top analysis)
     | "json" ->
       print_endline
         (Ise_telemetry.Json.to_string_pretty
            (Ise_obs.Episode.report_json ~top analysis))
     | f ->
       Printf.eprintf "unknown format %S (text|md|json)\n" f;
       exit 1);
    if check && not (Ise_obs.Episode.clean analysis) then 1 else 0
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Flight-recorder journal to analyze (from \
                   $(b,chaos run --journal-out) or a pool worker's \
                   crash journal).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Chrome trace-event JSON to analyze (from --trace-out).")
  in
  let format_arg =
    Arg.(value & opt string "text"
         & info [ "f"; "format" ] ~docv:"FMT" ~doc:"text|md|json")
  in
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N" ~doc:"Slowest episodes to list.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit non-zero when the offline analysis finds any \
                   contract anomaly.")
  in
  let oi_arg =
    Arg.(value & opt (some bool) None
         & info [ "ordered-interface" ] ~docv:"BOOL"
             ~doc:"Require GETs to replay PUT order (same-stream protocol); \
                   default: journal metadata, else true.")
  in
  let oa_arg =
    Arg.(value & opt (some bool) None
         & info [ "ordered-apply" ] ~docv:"BOOL"
             ~doc:"Require applies to follow GET order (PC); default: \
                   journal metadata, else true.")
  in
  let retry_arg =
    Arg.(value & opt int 4
         & info [ "retry-threshold" ] ~docv:"N"
             ~doc:"GET retries per store beyond which an episode is flagged \
                   as a retry storm.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Offline episode post-mortem: reconstruct per-fault episode \
             timelines from a journal or trace, re-validate the Table 5 \
             lifecycle, and break down per-phase latencies")
    Term.(const run $ journal_arg $ trace_arg $ format_arg $ top_arg
          $ check_arg $ oi_arg $ oa_arg $ retry_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_cmd =
  let run base_file new_file against kind label threshold overrides format =
    let thresholds =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | Some i -> (
            let name = String.sub spec 0 i in
            let v =
              String.sub spec (i + 1) (String.length spec - i - 1)
            in
            match float_of_string_opt v with
            | Some f when f >= 0. -> (name, f)
            | _ ->
              Printf.eprintf "bad --metric-threshold %S (NAME=FLOAT)\n" spec;
              exit 1)
          | None ->
            Printf.eprintf "bad --metric-threshold %S (NAME=FLOAT)\n" spec;
            exit 1)
        overrides
    in
    let load path =
      match Ise_obs.Ledger.load ~path with
      | Ok records -> records
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    let pick path records =
      match Ise_obs.Ledger.last ?kind ?label records with
      | Some r -> r
      | None ->
        Printf.eprintf "no matching run record in %s\n" path;
        exit 1
    in
    let base, cand =
      match (against, base_file, new_file) with
      | Some path, None, None -> (
        (* last two matching records of one ledger: did the newest run
           regress against its predecessor? *)
        let matching =
          List.filter
            (fun r ->
              (match kind with
               | None -> true
               | Some k -> r.Ise_obs.Ledger.l_kind = k)
              && match label with
                 | None -> true
                 | Some l -> r.Ise_obs.Ledger.l_label = l)
            (load path)
        in
        match List.rev matching with
        | cand :: base :: _ -> (base, cand)
        | _ ->
          Printf.eprintf "need two matching run records in %s\n" path;
          exit 1)
      | None, Some b, Some n -> (pick b (load b), pick n (load n))
      | _ ->
        Printf.eprintf
          "usage: ise compare BASE NEW | ise compare --against-ledger FILE\n";
        exit 1
    in
    let cmp =
      Ise_obs.Ledger.compare_records ~threshold ~thresholds ~base cand
    in
    (match format with
     | "text" -> print_string (Ise_obs.Ledger.comparison_text cmp)
     | "md" -> print_string (Ise_obs.Ledger.comparison_md cmp)
     | "json" ->
       print_endline
         (Ise_telemetry.Json.to_string_pretty
            (Ise_obs.Ledger.comparison_json cmp))
     | f ->
       Printf.eprintf "unknown format %S (text|md|json)\n" f;
       exit 1);
    if Ise_obs.Ledger.regressed cmp then 1 else 0
  in
  let base_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"BASE"
             ~doc:"Baseline ledger file (its last matching record is the \
                   baseline).")
  in
  let new_arg =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"NEW"
             ~doc:"Candidate ledger file (its last matching record is \
                   compared).")
  in
  let against_arg =
    Arg.(value & opt (some string) None
         & info [ "against-ledger" ] ~docv:"FILE"
             ~doc:"Compare the last two matching records of one ledger \
                   instead of two files.")
  in
  let kind_arg =
    Arg.(value & opt (some string) None
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Only consider records of this kind (bench|fuzz|chaos).")
  in
  let label_arg =
    Arg.(value & opt (some string) None
         & info [ "label" ] ~docv:"LABEL"
             ~doc:"Only consider records with this label.")
  in
  let threshold_arg =
    Arg.(value & opt float 0.02
         & info [ "threshold" ] ~docv:"FRAC"
             ~doc:"Default relative noise band; a gated metric regresses \
                   only strictly beyond it.")
  in
  let override_arg =
    Arg.(value & opt_all string []
         & info [ "metric-threshold" ] ~docv:"NAME=FRAC"
             ~doc:"Per-metric noise-band override (repeatable).")
  in
  let format_arg =
    Arg.(value & opt string "text"
         & info [ "f"; "format" ] ~docv:"FMT" ~doc:"text|md|json")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Diff two ledger run records metric-by-metric with noise \
             thresholds; exits non-zero on regression (the CI perf gate)")
    Term.(const run $ base_arg $ new_arg $ against_arg $ kind_arg $ label_arg
          $ threshold_arg $ override_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* serve / client / store                                              *)

let socket_arg =
  Arg.(value & opt string ".ise-serve.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket the daemon listens on.")

let serve_cmd =
  let run socket store jobs mem_entries quiet =
    let log =
      if quiet then ignore
      else fun msg -> Printf.eprintf "[ise-serve] %s\n%!" msg
    in
    let cfg =
      {
        (Ise_serve.Server.default_config ~socket_path:socket) with
        Ise_serve.Server.store_dir = store;
        jobs;
        mem_entries;
        log;
      }
    in
    Ise_serve.Server.run cfg;
    0
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Back the daemon with a content-addressed result store in \
                   this directory (omit to disable caching).")
  in
  let mem_arg =
    Arg.(value & opt int 512
         & info [ "mem-entries" ] ~docv:"N"
             ~doc:"In-memory LRU front of the result store.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No lifecycle logging.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived ISE service daemon: litmus, fuzz-replay, and \
             report requests over a Unix socket, backed by a \
             content-addressed result store")
    Term.(const run $ socket_arg $ store_arg $ jobs_arg $ mem_arg $ quiet_arg)

let connect_or_die socket =
  match Ise_serve.Client.connect ~retries:50 socket with
  | Ok c -> c
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let client_litmus_cmd =
  let run socket name seeds model no_faults require_hits =
    let tests =
      match name with
      | Some n -> (
        match
          List.find_opt
            (fun t -> t.Ise_litmus.Lit_test.name = n)
            Ise_litmus.Library.all
        with
        | Some t -> [ t ]
        | None ->
          Printf.eprintf "unknown test %S (see ise litmus --list)\n" n;
          exit 1)
      | None -> Ise_litmus.Library.all
    in
    let params =
      {
        Ise_serve.Proto.seeds;
        inject_faults = not no_faults;
        timer_interrupts = false;
        model;
      }
    in
    let c = connect_or_die socket in
    match Ise_serve.Client.litmus c ~tests ~params with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      Ise_serve.Client.close c;
      1
    | Ok replies ->
      Ise_serve.Client.close c;
      (* stdout is byte-identical to `ise litmus` on the same tests;
         cache accounting goes to stderr *)
      let ok = ref true and hits = ref 0 and misses = ref 0 in
      List.iter
        (fun r ->
          print_endline r.Ise_serve.Proto.r_line;
          if not r.Ise_serve.Proto.r_pass then ok := false;
          if r.Ise_serve.Proto.r_cached then incr hits else incr misses)
        replies;
      Printf.eprintf "result store: %d hit(s), %d miss(es)\n%!" !hits !misses;
      if require_hits && !misses > 0 then begin
        Printf.eprintf "--require-hits: %d response(s) were not cache hits\n"
          !misses;
        1
      end
      else if !ok then 0
      else 1
  in
  let name_arg =
    Arg.(value & opt (some string) None
         & info [ "t"; "test" ] ~docv:"NAME" ~doc:"Run a single test.")
  in
  let seeds_arg =
    Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Perturbed runs per test.")
  in
  let nofaults_arg =
    Arg.(value & flag & info [ "no-faults" ] ~doc:"Disable error injection.")
  in
  let require_hits_arg =
    Arg.(value & flag
         & info [ "require-hits" ]
             ~doc:"Exit non-zero unless every response was a cache hit (CI \
                   smoke assertion).")
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Run litmus tests through the daemon; output is byte-identical \
             to a local $(b,ise litmus) run")
    Term.(const run $ socket_arg $ name_arg $ seeds_arg $ model_arg
          $ nofaults_arg $ require_hits_arg)

let client_stats_cmd =
  let run socket =
    let c = connect_or_die socket in
    match Ise_serve.Client.server_stats c with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      Ise_serve.Client.close c;
      1
    | Ok s ->
      Ise_serve.Client.close c;
      Printf.printf
        "daemon pid=%d git=%s uptime=%.1fs\n\
         connections=%d requests=%d errors=%d\n\
         cold litmus runs=%d cold replays=%d\n"
        s.Ise_serve.Proto.ss_pid s.Ise_serve.Proto.ss_git_rev
        s.Ise_serve.Proto.ss_uptime_s s.Ise_serve.Proto.ss_connections
        s.Ise_serve.Proto.ss_requests s.Ise_serve.Proto.ss_errors
        s.Ise_serve.Proto.ss_litmus_runs s.Ise_serve.Proto.ss_replays;
      (match s.Ise_serve.Proto.ss_store with
       | None -> Printf.printf "result store: disabled\n"
       | Some v ->
         Printf.printf
           "result store: mem-hits=%d disk-hits=%d misses=%d writes=%d \
            corrupt-skipped=%d mem-evictions=%d\n"
           v.Ise_serve.Proto.v_mem_hits v.Ise_serve.Proto.v_disk_hits
           v.Ise_serve.Proto.v_misses v.Ise_serve.Proto.v_writes
           v.Ise_serve.Proto.v_corrupt_skipped
           v.Ise_serve.Proto.v_mem_evictions);
      0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the daemon's lifetime counters")
    Term.(const run $ socket_arg)

let client_metrics_cmd =
  let run socket =
    let c = connect_or_die socket in
    match Ise_serve.Client.metrics c with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      Ise_serve.Client.close c;
      1
    | Ok text ->
      Ise_serve.Client.close c;
      print_string text;
      0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Dump the daemon's metrics in Prometheus text format (scrape \
             target for long-lived daemons)")
    Term.(const run $ socket_arg)

let client_shutdown_cmd =
  let run socket =
    let c = connect_or_die socket in
    let r = Ise_serve.Client.shutdown c in
    Ise_serve.Client.close c;
    match r with
    | Ok () ->
      Printf.printf "daemon draining\n";
      0
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to drain and exit")
    Term.(const run $ socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,ise serve) daemon over its Unix socket")
    [ client_litmus_cmd; client_stats_cmd; client_metrics_cmd;
      client_shutdown_cmd ]

let store_dir_pos_arg =
  Arg.(value & opt string ".ise-store"
       & info [ "store" ] ~docv:"DIR" ~doc:"Result store directory.")

let store_stats_cmd =
  let run dir =
    let s = Ise_serve.Store.scan dir in
    Printf.printf "%s: %d entr%s, %d bytes, %d corrupt\n" dir
      s.Ise_serve.Store.ds_entries
      (if s.Ise_serve.Store.ds_entries = 1 then "y" else "ies")
      s.Ise_serve.Store.ds_bytes s.Ise_serve.Store.ds_corrupt;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Validate every entry of a result store and summarize it")
    Term.(const run $ store_dir_pos_arg)

let store_gc_cmd =
  let run dir max_entries max_bytes =
    let g = Ise_serve.Store.gc ?max_entries ?max_bytes dir in
    Printf.printf
      "%s: kept %d, deleted %d, removed %d corrupt, freed %d bytes\n" dir
      g.Ise_serve.Store.gc_kept g.Ise_serve.Store.gc_deleted
      g.Ise_serve.Store.gc_corrupt_deleted g.Ise_serve.Store.gc_bytes_freed;
    0
  in
  let max_entries_arg =
    Arg.(value & opt (some int) None
         & info [ "max-entries" ] ~docv:"N"
             ~doc:"Keep at most N newest valid entries.")
  in
  let max_bytes_arg =
    Arg.(value & opt (some int) None
         & info [ "max-bytes" ] ~docv:"B"
             ~doc:"Keep at most B bytes of valid entries.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Delete corrupt entries, then the oldest entries beyond the \
             bounds")
    Term.(const run $ store_dir_pos_arg $ max_entries_arg $ max_bytes_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and bound the content-addressed result store")
    [ store_stats_cmd; store_gc_cmd ]

(* ------------------------------------------------------------------ *)
(* fabric: distributed campaigns                                       *)

let netchaos_profile_names () =
  String.concat "\n  "
    (List.map
       (fun p -> p.Ise_fabric.Netchaos.name)
       (Ise_fabric.Netchaos.calm :: Ise_fabric.Netchaos.all))

let fabric_worker_cmd =
  let run socket jobs quiet =
    let log =
      if quiet then ignore
      else fun msg -> Printf.eprintf "[ise-fabric-worker] %s\n%!" msg
    in
    Ise_fabric.Worker.run
      { (Ise_fabric.Worker.default_config ~socket_path:socket) with
        jobs;
        log;
      };
    0
  in
  let socket_arg =
    Arg.(value & opt string ".ise-fabric-worker.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix domain socket this worker listens on.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No lifecycle logging.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Run a fabric worker daemon: executes campaign shard ranges for \
             a supervisor over a Unix socket, fanned out over a persistent \
             process pool")
    Term.(const run $ socket_arg $ jobs_arg $ quiet_arg)

let fabric_chaos_proxy_cmd =
  let run listen upstream seed profile quiet =
    match Ise_fabric.Netchaos.named profile with
    | None ->
      Printf.eprintf "unknown netchaos profile %S; valid names:\n  %s\n"
        profile
        (netchaos_profile_names ());
      1
    | Some p ->
      let log =
        if quiet then None
        else Some (fun msg -> Printf.eprintf "[ise-netchaos] %s\n%!" msg)
      in
      let nc = Ise_fabric.Netchaos.create ~seed ~profile:p in
      let proxy =
        Ise_fabric.Netchaos.create_proxy ?log ~listen ~upstream nc
      in
      let stop (_ : int) = Ise_fabric.Netchaos.stop_proxy proxy in
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
       with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
       with Invalid_argument _ -> ());
      Ise_fabric.Netchaos.run_proxy proxy;
      if not quiet then
        List.iter
          (fun (k, v) -> Printf.eprintf "%s=%d\n%!" k v)
          (Ise_fabric.Netchaos.counts nc);
      0
  in
  let listen_arg =
    Arg.(value & opt string ".ise-netchaos.sock"
         & info [ "listen" ] ~docv:"PATH"
             ~doc:"Socket the supervisor connects to.")
  in
  let upstream_arg =
    Arg.(required & opt (some string) None
         & info [ "upstream" ] ~docv:"PATH"
             ~doc:"The real worker's socket.")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Fault-schedule seed: (seed, profile) replays the same \
                   fault pattern against the same traffic.")
  in
  let profile_arg =
    Arg.(value & opt string "storm"
         & info [ "profile" ] ~docv:"NAME"
             ~doc:"Netchaos profile (calm, drop, delay, dup, reorder, \
                   corrupt, reset, stall, storm).")
  in
  let quiet_arg =
    Arg.(value & flag
         & info [ "q"; "quiet" ] ~doc:"No fault logging or final counters.")
  in
  Cmd.v
    (Cmd.info "chaos-proxy"
       ~doc:"Interpose a deterministic wire-fault injector between a fabric \
             supervisor and a worker: drops, delays, duplicates, reorders, \
             corrupts, resets, and stalls framed traffic on a seeded \
             schedule; SIGTERM stops it and prints injection counters")
    Term.(const run $ listen_arg $ upstream_arg $ seed_arg $ profile_arg
          $ quiet_arg)

(* One ise-fabric-status/v1 snapshot rendered as a terminal table.
   Shared by `ise top` and `fabric run --top`; writes to stderr so the
   campaign's stdout stays byte-identical to a local run. *)
let render_status ?(clear = true) doc =
  let module J = Ise_telemetry.Json in
  let i k o = Option.value (Option.bind (J.member k o) J.to_int) ~default:0 in
  let f k o =
    Option.value (Option.bind (J.member k o) J.to_float) ~default:0.
  in
  let s k o =
    Option.value (Option.bind (J.member k o) J.to_str) ~default:"?"
  in
  let buf = Buffer.create 1024 in
  if clear then Buffer.add_string buf "\027[H\027[2J";
  let eta = f "eta_s" doc in
  Buffer.add_string buf
    (Printf.sprintf
       "ise fabric  %d/%d shards  %.1f shards/s  wall %.1fs  %s\n"
       (i "done" doc) (i "shards" doc) (f "shards_per_s" doc)
       (f "wall_s" doc)
       (if eta < 0. then "eta --" else Printf.sprintf "eta %.0fs" eta));
  let c =
    match J.member "counters" doc with Some o -> o | None -> J.Obj []
  in
  Buffer.add_string buf
    (Printf.sprintf
       "dispatched %d (redispatch %d)  store hits %d  inline %d  losses %d \
        rejoins %d  pings %d  hb losses %d  telemetry %d\n\n"
       (i "dispatched" c) (i "redispatched" c) (i "store_hits" c)
       (i "inline" c) (i "worker_losses" c) (i "rejoins" c) (i "pings" c)
       (i "hb_losses" c) (i "telemetry_frames" c));
  Buffer.add_string buf
    (Printf.sprintf "%4s  %-8s  %5s  %8s  %6s  %5s  %s\n" "ID" "STATE"
       "PROTO" "INFLIGHT" "DONE" "TELE" "PATH");
  (match Option.bind (J.member "workers" doc) J.to_list with
   | None -> ()
   | Some ws ->
     List.iter
       (fun w ->
         Buffer.add_string buf
           (Printf.sprintf "%4d  %-8s  %5d  %8d  %6d  %5d  %s\n" (i "id" w)
              (String.uppercase_ascii (s "state" w))
              (i "proto" w) (i "inflight" w) (i "done" w)
              (i "telemetry_frames" w) (s "path" w)))
       ws);
  Buffer.add_string buf
    (Printf.sprintf "\newma %.0f ms   run %s\n" (f "ewma_ms" doc)
       (s "run_id" doc));
  prerr_string (Buffer.contents buf);
  flush stderr

let mkdir_p dir =
  try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let fabric_run_cmd =
  let run seed count seeds_per_test variants_spec workers spawn spawn_jobs
      shards window store_dir corpus_dir no_save ledger require_workers
      netchaos netchaos_seed soak_rejoin top status_out prom_out trace_dir
      quiet =
    let variants =
      match variants_of_spec variants_spec with
      | Ok vs -> vs
      | Error n ->
        Printf.eprintf "unknown variant %S\n" n;
        exit 1
    in
    if workers = [] && spawn = 0 then begin
      Printf.eprintf
        "need workers: --workers SOCK[,SOCK..] and/or --spawn N\n";
      exit 1
    end;
    if spawn > 0 && not Ise_fabric.Sim.available then begin
      Printf.eprintf "--spawn needs fork(), unavailable on this platform\n";
      exit 1
    end;
    let netchaos =
      match netchaos with
      | None -> None
      | Some name -> (
        match Ise_fabric.Netchaos.named name with
        | Some p -> Some (netchaos_seed, p)
        | None ->
          Printf.eprintf "unknown netchaos profile %S; valid names:\n  %s\n"
            name
            (netchaos_profile_names ());
          exit 1)
    in
    if netchaos <> None && spawn = 0 then begin
      Printf.eprintf
        "--netchaos proxies --spawn workers; for external --workers run \
         $(b,ise fabric chaos-proxy) in front of each\n";
      exit 1
    end;
    if soak_rejoin && spawn = 0 then begin
      Printf.eprintf "--soak-rejoin needs --spawn workers to kill\n";
      exit 1
    end;
    (* the observability plane: any of --top/--status-out/--prom-out/
       --trace-dir turns on telemetry streaming.  --top owns the
       terminal, so it implies --quiet. *)
    let observing =
      top || status_out <> None || prom_out <> None || trace_dir <> None
    in
    let log =
      if quiet || top then ignore
      else fun msg -> Printf.eprintf "[ise-fabric] %s\n%!" msg
    in
    let obs_metrics =
      if observing then Some (Ise_telemetry.Registry.create ()) else None
    in
    let sup_trace =
      match trace_dir with
      | Some dir ->
        mkdir_p dir;
        Some (Ise_telemetry.Trace.create ())
      | None -> None
    in
    let observe =
      { Ise_fabric.Supervisor.default_observe with
        Ise_fabric.Supervisor.stream = observing;
        metrics = obs_metrics;
        trace = sup_trace;
        trace_id = Printf.sprintf "ise-%s" (Ise_obs.Runinfo.run_id ());
        status_out;
        on_status = (if top then render_status ~clear:true else ignore);
      }
    in
    let spec =
      Ise_fuzz.Campaign.spec ~count ~seeds_per_test ~variants ~seed ()
    in
    let sim =
      if spawn = 0 then None
      else begin
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ise-fabric-%d" (Unix.getpid ()))
        in
        Some
          (Ise_fabric.Sim.start ~jobs:spawn_jobs ~log ?netchaos ?trace_dir
             ~dir ~n:spawn ())
      end
    in
    let workers =
      workers
      @ (match sim with None -> [] | Some s -> Ise_fabric.Sim.sockets s)
    in
    let store =
      Option.map
        (fun dir -> Ise_serve.Store.open_ ~dir ())
        store_dir
    in
    (* --soak-rejoin: on the first completed shard, SIGKILL spawned
       worker 0 and restart it — the registry must re-admit it while
       the campaign is still running *)
    let rejoin_fired = ref false in
    let on_shard_done (_ : int) =
      if soak_rejoin && not !rejoin_fired then begin
        rejoin_fired := true;
        match sim with
        | Some s ->
          log "soak: SIGKILL worker 0, restarting it";
          Ise_fabric.Sim.kill s 0;
          Ise_fabric.Sim.restart s 0
        | None -> ()
      end
    in
    let liveness =
      if soak_rejoin || netchaos <> None then
        (* probe eagerly so the killed worker is re-admitted fast, but
           bound each probe's handshake: under heavy wire faults a
           5 s timeout per blocking probe gives the soak a heavy wall-
           clock tail *)
        { Ise_fabric.Supervisor.default_liveness with
          rejoin_backoff_s = 0.5;
          handshake_timeout_s = 2.0;
          (* results get lost on a faulty wire far more often than on a
             healthy one — resend much sooner than the default 30 s *)
          dispatch_timeout_s = 5.0;
        }
      else Ise_fabric.Supervisor.default_liveness
    in
    let cfg =
      { (Ise_fabric.Supervisor.default_config ~workers) with
        Ise_fabric.Supervisor.window;
        shards;
        store;
        liveness;
        require_workers;
        await_rejoin_s = (if soak_rejoin then 30.0 else 0.0);
        observe;
        on_shard_done;
        log;
      }
    in
    let ranges, outcomes, stats =
      match Ise_fabric.Supervisor.run cfg (Ise_fabric.Wire.Fuzz spec) with
      | result -> result
      | exception Ise_fabric.Supervisor.Insufficient_workers { wanted; got }
        ->
        (match sim with None -> () | Some s -> Ise_fabric.Sim.stop s);
        Printf.eprintf
          "fabric: %d worker(s) required (--require-workers), only %d \
           completed the handshake; refusing to degrade to inline\n%!"
          wanted got;
        exit 3
    in
    (match sim with None -> () | Some s -> Ise_fabric.Sim.stop s);
    (* observability artifacts, written after the campaign drains *)
    (match trace_dir, sup_trace with
     | Some dir, Some tr ->
       let doc =
         Ise_telemetry.Trace.to_chrome_json
           ~meta:
             (("role", Ise_telemetry.Json.String "supervisor")
              :: ("pid", Ise_telemetry.Json.Int (Unix.getpid ()))
              :: Ise_obs.Runinfo.stamp ())
           tr
       in
       let path = Filename.concat dir "supervisor.trace.json" in
       write_file path (Ise_telemetry.Json.to_string doc);
       log (Printf.sprintf "wrote supervisor trace to %s" path)
     | _ -> ());
    (match prom_out, obs_metrics with
     | Some path, Some reg ->
       write_file path (Ise_telemetry.Registry.to_prometheus reg);
       log (Printf.sprintf "wrote prometheus snapshot to %s" path)
     | _ -> ());
    let merged =
      Ise_fabric.Merge.merge ~log:prerr_endline spec ~ranges ~outcomes
    in
    let report = merged.Ise_fabric.Merge.m_report in
    Printf.eprintf
      "[fabric] %d worker(s), %d shard(s): %d dispatched (%d re-dispatch), \
       %d store hit(s), %d inline, %d worker loss(es), %d rejoin(s), \
       %d ping(s), %d heartbeat loss(es), %.2fs\n%!"
      stats.Ise_fabric.Supervisor.f_workers
      stats.Ise_fabric.Supervisor.f_shards
      stats.Ise_fabric.Supervisor.f_dispatched
      stats.Ise_fabric.Supervisor.f_redispatched
      stats.Ise_fabric.Supervisor.f_store_hits
      stats.Ise_fabric.Supervisor.f_inline
      stats.Ise_fabric.Supervisor.f_worker_losses
      stats.Ise_fabric.Supervisor.f_rejoins
      stats.Ise_fabric.Supervisor.f_pings
      stats.Ise_fabric.Supervisor.f_hb_losses
      stats.Ise_fabric.Supervisor.f_wall_s;
    if soak_rejoin && stats.Ise_fabric.Supervisor.f_rejoins = 0 then begin
      Printf.eprintf
        "soak: worker 0 was killed and restarted but no rejoin was \
         observed within the 30s grace\n%!";
      exit 1
    end;
    (match ledger with
     | None -> ()
     | Some path ->
       append_ledger ~path
         (Ise_fabric.Merge.ledger_record ~label:variants_spec spec report));
    (* stdout below is byte-identical to `ise fuzz run` on the same
       seed — the point of the deterministic merge *)
    Printf.printf "seed %d: %d tests, %d checks, %d failure(s)\n"
      report.Ise_fuzz.Campaign.r_seed report.Ise_fuzz.Campaign.r_tests
      report.Ise_fuzz.Campaign.r_checks
      (List.length report.Ise_fuzz.Campaign.r_failures);
    if report.Ise_fuzz.Campaign.r_lost_tests > 0 then
      Printf.eprintf "warning: %d test(s) lost to failed fabric shards\n%!"
        report.Ise_fuzz.Campaign.r_lost_tests;
    List.iter2
      (fun f entry ->
        Format.printf "@.%s under %s [%s]: %s@.%a@."
          f.Ise_fuzz.Campaign.f_test.Ise_litmus.Lit_test.name
          (Ise_fuzz.Campaign.variant_name f.Ise_fuzz.Campaign.f_variant)
          (Ise_fuzz.Campaign.kind_name f.Ise_fuzz.Campaign.f_kind)
          f.Ise_fuzz.Campaign.f_detail Ise_litmus.Lit_test.pp
          f.Ise_fuzz.Campaign.f_shrunk;
        if not no_save then begin
          let path = Ise_fuzz.Corpus.save ~dir:corpus_dir entry in
          Printf.printf "replay artifact: %s\n" path
        end)
      report.Ise_fuzz.Campaign.r_failures merged.Ise_fabric.Merge.m_entries;
    if
      report.Ise_fuzz.Campaign.r_failures = []
      && report.Ise_fuzz.Campaign.r_lost_tests = 0
    then 0
    else 1
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N" ~doc:"Generated tests.")
  in
  let variants_arg =
    Arg.(value & opt string "all"
         & info [ "variants" ] ~docv:"SPEC"
             ~doc:"Lattice variants: 'all', 'base', 'chaos', or names.")
  in
  let workers_arg =
    Arg.(value & opt (list string) []
         & info [ "workers" ] ~docv:"SOCK,..."
             ~doc:"Worker daemon sockets (each an $(b,ise fabric worker)).")
  in
  let spawn_arg =
    Arg.(value & opt int 0
         & info [ "spawn" ] ~docv:"N"
             ~doc:"Additionally fork N local worker daemons for the run's \
                   duration (single-host fabric).")
  in
  let spawn_jobs_arg =
    Arg.(value & opt int 1
         & info [ "spawn-jobs" ] ~docv:"N"
             ~doc:"Pool fan-out inside each --spawn worker.")
  in
  let shards_arg =
    Arg.(value & opt (some int) None
         & info [ "shards" ] ~docv:"N"
             ~doc:"Shard count (default: 4 per worker).")
  in
  let window_arg =
    Arg.(value & opt int 2
         & info [ "window" ] ~docv:"N"
             ~doc:"Max shards in flight per worker.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Cache shard results in a content-addressed store: a \
                   repeated campaign (same spec, same enumeration epoch) is \
                   answered without dispatching.")
  in
  let nosave_arg =
    Arg.(value & flag
         & info [ "no-save" ] ~doc:"Do not write failure artifacts.")
  in
  let require_workers_arg =
    Arg.(value & opt int 0
         & info [ "require-workers" ] ~docv:"N"
             ~doc:"Fail (exit 3) unless at least N workers complete the \
                   handshake, instead of silently degrading to an inline \
                   run.")
  in
  let netchaos_arg =
    Arg.(value & opt (some string) None
         & info [ "netchaos" ] ~docv:"PROFILE"
             ~doc:"Interpose a deterministic wire-fault proxy (drop, delay, \
                   duplicate, reorder, corrupt, reset, stall — or 'storm') \
                   in front of every --spawn worker; the merged report must \
                   still be byte-identical.")
  in
  let netchaos_seed_arg =
    Arg.(value & opt int 42
         & info [ "netchaos-seed" ] ~docv:"N"
             ~doc:"Fault-schedule seed for --netchaos.")
  in
  let soak_rejoin_arg =
    Arg.(value & flag
         & info [ "soak-rejoin" ]
             ~doc:"After the first shard completes, SIGKILL spawned worker \
                   0 and restart it; fail unless the supervisor re-admits \
                   it (the nightly soak's rejoin assertion).")
  in
  let top_arg =
    Arg.(value & flag
         & info [ "top" ]
             ~doc:"Live campaign dashboard on stderr (refreshing table of \
                   per-worker state, throughput, ETA); implies --quiet and \
                   telemetry streaming.  Campaign stdout is unchanged.")
  in
  let status_out_arg =
    Arg.(value & opt (some string) None
         & info [ "status-out" ] ~docv:"FILE"
             ~doc:"Write an $(b,ise-fabric-status/v1) JSON snapshot to FILE \
                   (atomically, every 0.5s and once after the drain); \
                   $(b,ise top --status FILE) renders it from another \
                   terminal.")
  in
  let prom_out_arg =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"After the campaign drains, write the aggregated fleet \
                   metrics (worker deltas + supervisor counters) to FILE in \
                   Prometheus text format.")
  in
  let trace_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"Collect per-process Chrome traces under DIR: the \
                   supervisor's dispatch spans and each --spawn worker's \
                   shard spans (context-linked); merge with $(b,ise trace \
                   stitch DIR/*.json).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No dispatch logging.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a fuzzing campaign across fabric workers; the merged \
             report is byte-identical to a single-host run of the same seed")
    Term.(const run $ seed_arg $ count_arg $ fuzz_seeds_arg $ variants_arg
          $ workers_arg $ spawn_arg $ spawn_jobs_arg $ shards_arg
          $ window_arg $ store_arg $ corpus_arg $ nosave_arg $ ledger_arg
          $ require_workers_arg $ netchaos_arg $ netchaos_seed_arg
          $ soak_rejoin_arg $ top_arg $ status_out_arg $ prom_out_arg
          $ trace_dir_arg $ quiet_arg)

let fabric_cmd =
  Cmd.group
    (Cmd.info "fabric"
       ~doc:"Distributed campaign fabric: shard-range workers, a \
             straggler-aware supervisor, deterministic wire-fault \
             injection, and a deterministic merge")
    [ fabric_worker_cmd; fabric_run_cmd; fabric_chaos_proxy_cmd ]

(* ------------------------------------------------------------------ *)
(* trace: cross-process trace tooling                                  *)

let trace_stitch_cmd =
  let run files out =
    match Ise_obs.Stitch.stitch_files files with
    | Error msg ->
      Printf.eprintf "stitch: %s\n" msg;
      1
    | Ok (doc, infos) ->
      let text = Ise_telemetry.Json.to_string doc in
      (match out with
       | None -> print_string text
       | Some path ->
         write_file path text;
         List.iter
           (fun fi ->
             Printf.eprintf
               "  pid %d  %-10s  offset %+d us  %4d event(s)  %s\n"
               fi.Ise_obs.Stitch.sf_pid fi.Ise_obs.Stitch.sf_role
               fi.Ise_obs.Stitch.sf_offset_us fi.Ise_obs.Stitch.sf_events
               fi.Ise_obs.Stitch.sf_file)
           infos;
         Printf.eprintf "wrote stitched trace to %s\n%!" path);
      0
  in
  let files_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"TRACE.json"
             ~doc:"Per-process Chrome trace files (e.g. \
                   $(b,--trace-dir) output of a fabric run).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the stitched document here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "stitch"
       ~doc:"Merge per-process fabric trace files into one Perfetto \
             timeline: one lane per process, worker clocks normalized \
             against their dispatch anchors, orphan spans tagged. \
             Deterministic for fixed inputs.")
    Term.(const run $ files_arg $ out_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Distributed-trace tooling for fabric campaigns")
    [ trace_stitch_cmd ]

(* ------------------------------------------------------------------ *)
(* top: live campaign dashboard                                        *)

let top_cmd =
  let run status once period =
    let read () =
      match
        let ic = open_in_bin status in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with
      | s -> (
        match Ise_telemetry.Json.of_string s with
        | Ok doc -> Some (s, doc)
        | Error _ -> None (* torn read of a non-atomic writer: retry *))
      | exception Sys_error _ -> None
    in
    if once then begin
      match read () with
      | Some (raw, _) ->
        print_string raw;
        if raw = "" || raw.[String.length raw - 1] <> '\n' then
          print_newline ();
        0
      | None ->
        Printf.eprintf "no status snapshot at %s\n" status;
        1
    end
    else begin
      (* follow the file until the campaign reports done = shards *)
      let module J = Ise_telemetry.Json in
      let finished = ref false in
      let missing_logged = ref false in
      while not !finished do
        (match read () with
         | Some (_, doc) ->
           missing_logged := false;
           render_status ~clear:true doc;
           let geti k =
             Option.value (Option.bind (J.member k doc) J.to_int) ~default:0
           in
           if geti "shards" > 0 && geti "done" >= geti "shards" then
             finished := true
         | None ->
           if not !missing_logged then begin
             Printf.eprintf "waiting for %s ...\n%!" status;
             missing_logged := true
           end);
        if not !finished then ignore (Unix.select [] [] [] period)
      done;
      0
    end
  in
  let status_arg =
    Arg.(value & opt string (Filename.concat ".ise" "fabric-status.json")
         & info [ "status" ] ~docv:"FILE"
             ~doc:"Status snapshot to follow (the $(b,--status-out) of a \
                   running $(b,ise fabric run)).")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print one machine-readable ise-fabric-status/v1 JSON \
                   snapshot to stdout and exit (CI smoke / scripting).")
  in
  let period_arg =
    Arg.(value & opt float 0.5
         & info [ "period" ] ~docv:"S" ~doc:"Refresh period in seconds.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live fabric campaign dashboard: render the supervisor's \
             status snapshots as a refreshing per-worker table until the \
             campaign drains")
    Term.(const run $ status_arg $ once_arg $ period_arg)

(* ------------------------------------------------------------------ *)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  Printexc.record_backtrace true;
  (* process-global flight recorder: library code (campaign failures,
     chaos machines) records into it, and an uncaught exception dumps
     the ring so there is a post-mortem artifact even for CLI crashes *)
  ignore
    (Ise_obs.Recorder.enable ~capacity:2048
       ~meta:(Ise_obs.Runinfo.stamp_meta () @ [ ("kind", "cli") ])
       ());
  Ise_obs.Recorder.note "cli/start"
    ~args:
      [ ( "argv",
          Ise_telemetry.Json.String
            (String.concat " " (Array.to_list Sys.argv)) ) ];
  let info =
    Cmd.info "ise" ~version:"1.0"
      ~doc:"Imprecise Store Exceptions — litmus tests, workloads, benchmarks"
  in
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group ~default info
           [ litmus_cmd; mbench_cmd; gap_cmd; mix_cmd; explain_cmd; stats_cmd;
             chaos_cmd; fuzz_cmd; report_cmd; compare_cmd; serve_cmd;
             client_cmd; store_cmd; fabric_cmd; trace_cmd; top_cmd ])
    with e ->
      let bt = Printexc.get_backtrace () in
      let msg = Printexc.to_string e in
      Printf.eprintf "ise: uncaught exception: %s\n%s%!" msg bt;
      (match Ise_obs.Recorder.global () with
       | None -> ()
       | Some r ->
         Ise_obs.Recorder.note "cli/uncaught-exception"
           ~args:[ ("exn", Ise_telemetry.Json.String msg) ];
         (* per-run/per-pid journal names: concurrent crashing ise
            processes never clobber each other, and the oldest-first
            prune bounds the directory *)
         (match Ise_obs.Recorder.crash_dump r with
          | Some path ->
            Printf.eprintf "flight recorder dumped to %s\n%!" path
          | None -> ()));
      125
  in
  exit code
