(* The repository benchmark: the paper's experiments as a user runs
   them, timed from outside the libraries.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--size full|tiny] [--reference FILE] [--out DIR]

   Each workload sets up its inputs several times (the median is
   [setup_s]), then repeats one fixed unit of work until [--seconds]
   have passed (the median unit is [wall_s]).  Every unit prints a
   digest of its simulated results; units must agree with each other
   and, on the default seed, with the reference digest.  With
   [--trace 1] the benchmark alternates untraced and traced units,
   records spans around its calls into each layer, runs the per-layer
   probes, and reports the per-layer metrics instead of the end-to-end
   ones.  The last line of stdout is the JSON result. *)

open Ise_sim
module J = Ise_telemetry.Json
module Campaign = Ise_fuzz.Campaign
module Mix = Ise_workload.Mix
module Runner = Ise_workload.Runner

let default_seed = 1

type size = Full | Tiny

let sp = Span.create ()

(* ------------------------------------------------------------------ *)
(* Layer counters                                                      *)

(* Counts read from the layers' own statistics.  They accumulate only
   while [counting] is set — during traced units (divided by their
   number at the end) and during the probes (taken once). *)
let unit_counts : (string, float) Hashtbl.t = Hashtbl.create 64
let probe_counts : (string, float) Hashtbl.t = Hashtbl.create 64
let counting : (string, float) Hashtbl.t option ref = ref None

let count name v =
  Option.iter
    (fun tbl ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (prev +. v))
    !counting

let counti name v = count name (float_of_int v)

(* ------------------------------------------------------------------ *)
(* Workload interface                                                  *)

type unit_result = {
  digest_text : string;  (** canonical rendering of the simulated results *)
  attempted : int;
  failed : int;
  work : float;  (** simulated instructions or campaign checks *)
  cleanup : unit -> unit;  (** untimed, after the unit *)
}

type instance = {
  prepare : unit -> unit;  (** untimed, once, after the last set-up *)
  run_unit : unit -> unit_result;
  probe : unit -> (int * int) list;
      (** traced runs only: extra per-layer calls, outside any unit;
          returns (attempted, failed) pairs of the checks it makes *)
  teardown : unit -> unit;
}

type workload = {
  name : string;
  work_metric : string;  (** the name [work_per_s] is also printed under *)
  setup : unit -> instance;
}

let noop () = ()

let materialize (s : Sim_instr.stream) =
  let rec go acc = match s () with Some i -> go (i :: acc) | None -> acc in
  Array.of_list (List.rev (go []))

let stream_of_array a : Sim_instr.stream =
  let i = ref 0 in
  fun () ->
    if !i < Array.length a then begin
      let x = a.(!i) in
      incr i;
      Some x
    end
    else None

(* Counters every simulated run exposes, summed over cores. *)
let count_sim m =
  counti "sim.cycles" (Machine.cycles m);
  counti "sim.retired" (Machine.total_retired m);
  for i = 0 to Machine.ncores m - 1 do
    let s = Core.stats (Machine.core m i) in
    counti "sim.sb_full_stalls" s.Core.sb_full_stalls;
    counti "sim.rob_full_stalls" s.Core.rob_full_stalls;
    counti "sim.fsb_overflow_stalls" s.Core.fsb_overflow_stalls;
    counti "sim.drain_uarch_cycles" s.Core.drain_uarch_cycles
  done;
  let mem = Machine.mem m in
  counti "sim.l1_misses" (Memsys.l1_misses mem);
  counti "sim.l2_misses" (Memsys.l2_misses mem);
  counti "sim.dram_accesses" (Memsys.dram_accesses mem);
  counti "sim.noc_hop_cycles" (Memsys.noc_hop_cycles mem)

let count_handler (h : Ise_os.Handler.stats) =
  counti "os.invocations" h.Ise_os.Handler.invocations;
  counti "os.stores_handled" h.Ise_os.Handler.stores_handled;
  counti "os.apply_cycles" h.Ise_os.Handler.apply_cycles;
  counti "os.other_cycles" h.Ise_os.Handler.other_cycles;
  counti "os.precise_faults" h.Ise_os.Handler.precise_faults

(* ------------------------------------------------------------------ *)
(* table3-aso: ASO sizing searches (Table 3)                           *)

(* Table 3's runs have no exceptions; a hook firing is a failure. *)
let null_hooks : Machine.hooks =
  {
    Machine.on_imprecise = (fun _ -> failwith "unexpected imprecise exception");
    on_precise =
      (fun ~core:_ ~addr:_ ~code:_ ~retry:_ ->
        failwith "unexpected precise exception");
  }

let table3 ~size ~seed =
  let cores = 4 in
  let length, profiles =
    match size with
    | Full -> (800, Mix.table3)
    | Tiny -> (300, [ Mix.find "BFS"; Mix.find "Silo" ])
  in
  let systems =
    [ ("base", Config.default);
      ("2xmem", Config.with_2x_memory Config.default);
      ("4xskew", Config.with_4x_store_skew Config.default) ]
  in
  let setup () =
    let inputs =
      Span.with_ sp ~cat:"workload" ~name:"workload.gen" (fun () ->
          List.map
            (fun p ->
              ( p,
                Array.map materialize
                  (Mix.multicore_streams ~seed ~length_per_core:length ~cores p)
              ))
            profiles)
    in
    let runs = ref 0 in
    let programs arrays () =
      incr runs;
      counti "aso.runs" 1;
      Span.with_ sp ~cat:"aso" ~name:"aso.stream" (fun () ->
          Array.map stream_of_array arrays)
    in
    let run_unit () =
      runs := 0;
      let attempted = ref 0 and failed = ref 0 in
      let lines =
        List.concat_map
          (fun (p, arrays) ->
            List.map
              (fun (sys, cfg) ->
                incr attempted;
                counti "aso.sizings" 1;
                let label = Printf.sprintf "%s/%s" p.Mix.name sys in
                match
                  Span.with_ sp ~cat:"aso" ~name:"aso.size" (fun () ->
                      Ise_aso.Aso_core.size_for_wc_performance ~cfg
                        ~programs:(programs arrays) ())
                with
                | s ->
                  let open Ise_aso.Aso_core in
                  (* the search must reach its 98% target unless it
                     stopped at the checkpoint cap *)
                  let ok =
                    s.checkpoints >= 1 && s.checkpoints <= 64
                    && (s.aso_ipc >= 0.98 *. s.wc_ipc || s.checkpoints = 64)
                    && s.wc_speedup > 0.
                  in
                  if not ok then incr failed;
                  Printf.sprintf
                    "%s k=%d state_kb=%.3f wc_speedup=%.6f aso_ipc=%.6f \
                     wc_ipc=%.6f sc_ipc=%.6f%s"
                    label s.checkpoints s.state_kb s.wc_speedup s.aso_ipc
                    s.wc_ipc s.sc_ipc (if ok then "" else " BAD")
                | exception e ->
                  incr failed;
                  Printf.sprintf "%s RAISED %s" label (Printexc.to_string e))
              systems)
          inputs
      in
      {
        digest_text = String.concat "\n" lines;
        attempted = !attempted;
        failed = !failed;
        work = float_of_int (!runs * cores * length);
        cleanup = noop;
      }
    in
    (* Aso_core owns its machines, so the simulator's counters come
       from one direct WC run per profile, as the search's first run. *)
    let probe () =
      let wc = Config.with_consistency Ise_model.Axiom.Wc Config.default in
      List.map
        (fun (_, arrays) ->
          let m =
            Machine.create ~cfg:wc ~programs:(Array.map stream_of_array arrays) ()
          in
          Machine.set_hooks m null_hooks;
          Machine.set_trace_enabled m false;
          Span.with_ sp ~cat:"sim" ~name:"sim.run" (fun () -> Machine.run m);
          count_sim m;
          (1, if Machine.total_retired m = cores * length then 0 else 1))
        inputs
    in
    { prepare = noop; run_unit; probe; teardown = noop }
  in
  { name = "table3-aso"; work_metric = "sim_instrs_per_s"; setup }

(* ------------------------------------------------------------------ *)
(* fig6-faults: relative performance under imprecise exceptions       *)

let fig6 ~size ~seed =
  let nodes, silo_reqs, masstree_reqs =
    match size with Full -> (1500, 6_000, 20_000) | Tiny -> (300, 500, 1_500)
  in
  let base = Config.default.Config.einject_base in
  let setup () =
    let gaps, tails =
      Span.with_ sp ~cat:"workload" ~name:"workload.gen" (fun () ->
          let g =
            Ise_workload.Graph.power_law (Ise_util.Rng.create seed) ~nodes
              ~avg_degree:8
          in
          ( [ Ise_workload.Gap.bfs g ~base ~src:0;
              Ise_workload.Gap.sssp ~max_rounds:3 g ~base ~src:0;
              Ise_workload.Gap.bc g ~base ~sources:[ 0 ] ],
            [ Ise_workload.Tailbench.silo ~seed ~requests:silo_reqs ~base ();
              Ise_workload.Tailbench.masstree ~seed ~requests:masstree_reqs
                ~base () ] ))
    in
    let run_unit () =
      let attempted = ref 0 and failed = ref 0 and work = ref 0 in
      (* every run must retire its whole trace, faulting or not *)
      let check_retired ~expect retired =
        incr attempted;
        work := !work + retired;
        if retired <> expect then incr failed
      in
      let gap_line (tr : Ise_workload.Gap.trace) =
        (* Runner owns the machines; its verify callback, which runs
           right after each run ends, reads their counters and closes
           the run's span *)
        let last = ref (Unix.gettimeofday ()) in
        let verify m =
          Span.record sp ~cat:"sim" ~name:"sim.run" ~start:!last
            ~stop:(Unix.gettimeofday ());
          count_sim m;
          let ok =
            Span.with_ sp ~cat:"workload" ~name:"workload.verify" (fun () ->
                Ise_workload.Gap.verify m tr)
          in
          last := Unix.gettimeofday ();
          ok
        in
        match
          Span.with_ sp ~cat:"workload" ~name:"runner.compare" (fun () ->
              Runner.compare_with_faults
                ~mk_programs:(fun () -> [| Ise_workload.Gap.stream_of tr |])
                ~mark:(fun m -> Ise_workload.Gap.mark_faulting m tr)
                ~verify ())
        with
        | c ->
          let expect = Array.length tr.Ise_workload.Gap.instrs in
          check_retired ~expect c.Runner.baseline.Runner.retired;
          check_retired ~expect c.Runner.imprecise.Runner.retired;
          List.iter
            (fun (r : Runner.run) ->
              counti "os.invocations" r.Runner.handler_invocations;
              counti "os.precise_faults" r.Runner.precise_faults)
            [ c.Runner.baseline; c.Runner.imprecise ];
          Printf.sprintf
            "%s base_cycles=%d imprecise_cycles=%d retired=%d \
             imprecise_exns=%d precise=%d verify=ok"
            tr.Ise_workload.Gap.name c.Runner.baseline.Runner.cycles
            c.Runner.imprecise.Runner.cycles c.Runner.imprecise.Runner.retired
            c.Runner.imprecise.Runner.imprecise_exceptions
            c.Runner.imprecise.Runner.precise_faults
        | exception e ->
          attempted := !attempted + 2;
          failed := !failed + 2;
          Printf.sprintf "%s RAISED %s" tr.Ise_workload.Gap.name
            (Printexc.to_string e)
      in
      (* the request loops run on a machine of their own, as `bench fig6`
         runs them, so the handler record is ours *)
      let tail_line (tr : Ise_workload.Tailbench.trace) =
        let run fault =
          let m =
            Machine.create ~programs:[| Ise_workload.Tailbench.stream_of tr |] ()
          in
          Machine.set_trace_enabled m false;
          let os = Ise_os.Handler.install m in
          if fault then Ise_workload.Tailbench.mark_faulting m tr;
          Span.with_ sp ~cat:"sim" ~name:"sim.run" (fun () ->
              Machine.run ~max_cycles:500_000_000 m);
          count_sim m;
          count_handler os;
          check_retired
            ~expect:(Array.length tr.Ise_workload.Tailbench.instrs)
            (Machine.total_retired m);
          ( Machine.cycles m,
            Machine.total_retired m,
            (Core.stats (Machine.core m 0)).Core.imprecise_exceptions,
            os.Ise_os.Handler.precise_faults )
        in
        match (run false, run true) with
        | (base_cycles, _, _, _), (cycles, retired, exns, precise) ->
          Printf.sprintf
            "%s base_cycles=%d imprecise_cycles=%d retired=%d \
             imprecise_exns=%d precise=%d"
            tr.Ise_workload.Tailbench.name base_cycles cycles retired exns precise
        | exception e ->
          attempted := !attempted + 2;
          failed := !failed + 2;
          Printf.sprintf "%s RAISED %s" tr.Ise_workload.Tailbench.name
            (Printexc.to_string e)
      in
      let lines = List.map gap_line gaps @ List.map tail_line tails in
      {
        digest_text = String.concat "\n" lines;
        attempted = !attempted;
        failed = !failed;
        work = float_of_int !work;
        cleanup = noop;
      }
    in
    { prepare = noop; run_unit; probe = (fun () -> []); teardown = noop }
  in
  { name = "fig6-faults"; work_metric = "sim_instrs_per_s"; setup }

(* ------------------------------------------------------------------ *)
(* fabric-small: a campaign over the fabric                            *)

(* The byte-level campaign fingerprint `bench pool` and `bench fabric`
   compare: counts plus every failure as the corpus artifact it would
   be saved as. *)
let fingerprint ~seed (r : Campaign.report) =
  String.concat "\n"
    (Printf.sprintf "tests=%d checks=%d lost=%d failures=%d"
       r.Campaign.r_tests r.Campaign.r_checks r.Campaign.r_lost_tests
       (List.length r.Campaign.r_failures)
    :: List.map
         (fun f ->
           Ise_fuzz.Corpus.to_string (Campaign.entry_of_failure ~seed f))
         r.Campaign.r_failures)

(* A campaign report over [tests] tests is correct when every check
   ran and passed. *)
let report_failures (spec : Campaign.spec) ~tests (r : Campaign.report) =
  let vpt = spec.Campaign.s_variants_per_test in
  List.length r.Campaign.r_failures
  + (r.Campaign.r_lost_tests * vpt)
  + if r.Campaign.r_checks = tests * vpt then 0 else 1

let gen_tests spec =
  Span.with_ sp ~cat:"litmus" ~name:"litmus.gen" (fun () ->
      Campaign.tests_of_spec spec)

(* Counters Campaign.run keeps in its telemetry sink. *)
let count_campaign_sink sink ~wall_s ~jobs =
  let job_ms = ref 0. in
  List.iter
    (fun (name, snap) ->
      match snap with
      | Ise_telemetry.Registry.Snap_counter v -> (
        match name with
        | "pool/dispatched" -> counti "pool.dispatched" v
        | "pool/retried" -> counti "pool.retried" v
        | "pool/crashes" -> counti "pool.crashes" v
        | "pool/workers_spawned" -> counti "pool.spawned" v
        | "fuzz/checks" -> counti "fuzz.checks" v
        | "fuzz/failures" -> counti "fuzz.failures" v
        | _ -> ())
      | Ise_telemetry.Registry.Snap_histogram h
        when String.starts_with ~prefix:"pool/worker" name
             && String.ends_with ~suffix:"/job_ms" name ->
        job_ms := !job_ms +. (h.Ise_telemetry.Registry.s_mean *. float_of_int h.s_count)
      | _ -> ())
    (Ise_telemetry.Registry.snapshot (Ise_telemetry.Sink.registry sink));
  count "pool.job_ms" !job_ms;
  count "pool.capacity_ms" (float_of_int jobs *. wall_s *. 1000.)

(* The campaign's per-layer probes: one enumerator pass over its
   programs under SC/PC/WC; operational litmus runs and the staged
   check/report pipeline on a prefix of its tests; and the whole
   campaign once more through a -j 2 pool, whose report must equal the
   local one. *)
let campaign_probe (spec : Campaign.spec) tests ~local ~prefix () =
  Span.with_ sp ~cat:"model" ~name:"model.search" (fun () ->
      Array.iter
        (fun (t : Ise_litmus.Lit_test.t) ->
          List.iter
            (fun cfg ->
              let _, st = Ise_model.Enum.search cfg t.Ise_litmus.Lit_test.threads in
              counti "model.leaves" st.Ise_model.Enum.leaves;
              counti "model.pruned"
                (st.Ise_model.Enum.pruned_cycle + st.Ise_model.Enum.pruned_symmetry))
            Ise_model.Axiom.[ sc; pc; wc ])
        tests);
  let hi = min prefix (Array.length tests) in
  let lit_failed =
    Span.with_ sp ~cat:"litmus" ~name:"litmus.run" (fun () ->
        List.length
          (List.filter
             (fun r ->
               not (r.Ise_litmus.Lit_run.pass && r.Ise_litmus.Lit_run.contract_ok))
             (Ise_litmus.Lit_run.run_suite ~seeds:spec.Campaign.s_seeds_per_test
                ~cfg:(Campaign.cfg_of_variant Campaign.base_variant)
                (Array.to_list (Array.sub tests 0 hi)))))
  in
  let raws =
    Span.with_ sp ~cat:"fuzz" ~name:"fuzz.check" (fun () ->
        Campaign.check_range spec ~tests ~lo:0 ~hi)
  in
  let report =
    Span.with_ sp ~cat:"fuzz" ~name:"fuzz.report" (fun () ->
        Campaign.report_of_raw spec ~tests ~lost:0 raws)
  in
  let jobs = 2 and sink = Ise_telemetry.Sink.create () in
  let t0 = Unix.gettimeofday () in
  let pooled =
    Span.with_ sp ~cat:"pool" ~name:"pool.campaign" (fun () ->
        Campaign.run ~params:spec.Campaign.s_params ~count:spec.Campaign.s_count
          ~jobs ~telemetry:sink ~seed:spec.Campaign.s_seed ())
  in
  count_campaign_sink sink ~wall_s:(Unix.gettimeofday () -. t0) ~jobs;
  let pooled_ok = fingerprint ~seed:spec.Campaign.s_seed pooled = local in
  [ (hi, lit_failed); (hi, List.length report.Campaign.r_failures);
    (1, if pooled_ok then 0 else 1) ]

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* One Hello/Hello_ok exchange per worker: the workers are forked and
   listening, which is what set-up pays for. *)
let handshake sock =
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.005;
      connect (tries - 1)
  in
  let fd = connect 1000 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Ise_fabric.Wire.write_request ~proto:Ise_fabric.Wire.hello_proto fd
    (Ise_fabric.Wire.Hello
       { proto = Ise_fabric.Wire.version; git_rev = Ise_obs.Runinfo.git_rev () });
  match Ise_fabric.Wire.read_response fd with
  | Ok (Ise_fabric.Wire.Hello_ok _) -> ()
  | Ok _ -> failwith ("fabric handshake: unexpected reply from " ^ sock)
  | Error msg -> failwith ("fabric handshake: " ^ msg)

(* Default-size programs over two simulated fabric workers, dispatched
   cold into a fresh store, then again warm. *)
let fabric_small ~size ~seed ~tmp =
  let count_, shards = match size with Full -> (500, 125) | Tiny -> (24, 8) in
  let setup () =
    let spec = Campaign.spec ~count:count_ ~seed () in
    let tests = gen_tests spec in
    let dir = Filename.concat tmp "fabric" in
    let sim = Ise_fabric.Sim.start ~dir ~n:2 () in
    List.iter handshake (Ise_fabric.Sim.sockets sim);
    (* the oracle: a single-host -j 1 run, made once and not timed *)
    let local = ref "" in
    let prepare () =
      local := fingerprint ~seed (Campaign.run ~count:count_ ~seed ())
    in
    let iter = ref 0 in
    let run_unit () =
      incr iter;
      let store_dir = Filename.concat tmp (Printf.sprintf "store%d" !iter) in
      let pass store =
        let cfg =
          { (Ise_fabric.Supervisor.default_config
               ~workers:(Ise_fabric.Sim.sockets sim))
            with Ise_fabric.Supervisor.shards = Some shards; store = Some store }
        in
        Ise_fabric.Supervisor.run cfg (Ise_fabric.Wire.Fuzz spec)
      in
      let merge (ranges, outcomes, _) =
        Span.with_ sp ~cat:"fabric" ~name:"fabric.merge" (fun () ->
            (Ise_fabric.Merge.merge spec ~ranges ~outcomes).Ise_fabric.Merge.m_report)
      in
      let cold_store = Ise_serve.Store.open_ ~dir:store_dir () in
      let cold =
        Span.with_ sp ~cat:"fabric" ~name:"fabric.cold" (fun () -> pass cold_store)
      in
      let cold_r = merge cold in
      (* a fresh handle on the same directory: the warm pass reads what
         the cold pass wrote, as a second process would *)
      let warm_store = Ise_serve.Store.open_ ~dir:store_dir () in
      let warm =
        Span.with_ sp ~cat:"fabric" ~name:"fabric.warm" (fun () -> pass warm_store)
      in
      let warm_r = merge warm in
      let lost (_, outcomes, _) =
        Array.fold_left
          (fun n o ->
            match o with Ise_fabric.Supervisor.Shard_lost _ -> n + 1 | _ -> n)
          0 outcomes
      in
      let stats (_, _, s) = s in
      let cs = stats cold and ws = stats warm in
      List.iter
        (fun (s : Ise_fabric.Supervisor.stats) ->
          counti "fabric.dispatched" s.f_dispatched;
          counti "fabric.redispatched" s.f_redispatched;
          counti "fabric.inline" s.f_inline;
          counti "fabric.worker_losses" s.f_worker_losses)
        [ cs; ws ];
      counti "fabric.shards" cs.Ise_fabric.Supervisor.f_shards;
      List.iter
        (fun st ->
          let c = Ise_serve.Store.counters st in
          counti "store.writes" c.Ise_serve.Store.c_writes;
          counti "store.mem_hits" c.c_mem_hits;
          counti "store.disk_hits" c.c_disk_hits;
          counti "store.misses" c.c_misses)
        [ cold_store; warm_store ];
      let cold_fp = fingerprint ~seed cold_r and warm_fp = fingerprint ~seed warm_r in
      let mismatches =
        (if cold_fp = !local then 0 else 1)
        + (if warm_fp = cold_fp then 0 else 1)
        + if ws.Ise_fabric.Supervisor.f_store_hits = ws.f_shards then 0 else 1
      in
      {
        digest_text = cold_fp;
        attempted = cold_r.Campaign.r_checks + cs.f_shards + ws.f_shards + 3;
        failed =
          report_failures spec ~tests:count_ cold_r
          + report_failures spec ~tests:count_ warm_r + lost cold
          + lost warm + mismatches;
        work = float_of_int (cold_r.Campaign.r_checks + warm_r.Campaign.r_checks);
        cleanup = (fun () -> rm_rf store_dir);
      }
    in
    let teardown () =
      Ise_fabric.Sim.stop sim;
      rm_rf dir
    in
    let probe () = campaign_probe spec tests ~local:!local ~prefix:16 () in
    { prepare; run_unit; probe; teardown }
  in
  { name = "fabric-small"; work_metric = "checks_per_s"; setup }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let end_to_end_metrics =
  [ ("wall_s", "s"); ("setup_s", "s"); ("work_per_s", "1/s");
    ("peak_heap_mb", "MB") ]

let per_layer_metrics =
  [ ("sim.run_s", "s"); ("sim.runs", "count"); ("sim.run_ms_p50", "ms");
    ("sim.cycles_per_s", "1/s"); ("sim.cycles", "count");
    ("sim.retired", "count"); ("sim.sb_full_stalls", "count");
    ("sim.rob_full_stalls", "count"); ("sim.fsb_overflow_stalls", "count");
    ("sim.drain_uarch_cycles", "count"); ("sim.l1_misses", "count");
    ("sim.l2_misses", "count"); ("sim.dram_accesses", "count");
    ("sim.noc_hop_cycles", "count"); ("sim.self_s", "s");
    ("os.invocations", "count"); ("os.stores_handled", "count");
    ("os.apply_cycles", "count"); ("os.other_cycles", "count");
    ("os.precise_faults", "count");
    ("aso.sizing_s", "s"); ("aso.runs_per_sizing", "count");
    ("aso.stream_s", "s"); ("aso.self_s", "s");
    ("workload.gen_s", "s"); ("workload.self_s", "s");
    ("model.search_s", "s"); ("model.leaves", "count");
    ("model.leaves_per_s", "1/s"); ("model.pruned_frac", "frac");
    ("litmus.gen_s", "s"); ("litmus.run_s", "s");
    ("fuzz.check_s", "s"); ("fuzz.report_s", "s"); ("fuzz.checks", "count");
    ("fuzz.failures", "count");
    ("pool.dispatched", "count"); ("pool.retried", "count");
    ("pool.crashes", "count"); ("pool.spawned", "count");
    ("pool.busy_frac", "frac");
    ("fabric.dispatched", "count"); ("fabric.redispatched", "count");
    ("fabric.inline", "count"); ("fabric.worker_losses", "count");
    ("fabric.shards_per_s", "1/s"); ("fabric.merge_s", "s");
    ("fabric.self_s", "s");
    ("store.writes", "count"); ("store.mem_hits", "count");
    ("store.disk_hits", "count"); ("store.misses", "count");
    ("store.hit_frac", "frac"); ("store.warm_s", "s");
    ("bench.self_s", "s"); ("bench.trace_overhead_frac", "frac") ]

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per-layer metrics from the spans and counters of a traced run.
   Spans under a traced unit are divided by the number of traced units,
   spans under set-up by the number of set-ups, probe spans are taken
   once; counters likewise. *)
let per_layer ~traced_units ~setups ~overhead =
  let root = Span.roots sp in
  let div (s : Span.span) =
    match (root s).Span.name with
    | "unit" -> float_of_int traced_units
    | "setup" -> float_of_int setups
    | _ -> 1.
  in
  let spans name = List.filter (fun s -> s.Span.name = name) (Span.spans sp) in
  let total name =
    List.fold_left (fun acc s -> acc +. (Span.seconds s /. div s)) 0. (spans name)
  in
  let ncount name =
    List.fold_left (fun acc s -> acc +. (1. /. div s)) 0. (spans name)
  in
  let counters = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace counters k (v /. float_of_int traced_units))
    unit_counts;
  Hashtbl.iter
    (fun k v ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt counters k) in
      Hashtbl.replace counters k (prev +. v))
    probe_counts;
  let c name = Option.value ~default:0. (Hashtbl.find_opt counters name) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let m = Hashtbl.create 64 in
  let set k v = Hashtbl.replace m k v in
  List.iter (fun (k, _) -> set k (c k)) per_layer_metrics;
  let run_s = total "sim.run" in
  set "sim.run_s" run_s;
  set "sim.runs" (ncount "sim.run");
  set "sim.run_ms_p50" (1000. *. median (List.map Span.seconds (spans "sim.run")));
  set "sim.cycles_per_s" (ratio (c "sim.cycles") run_s);
  set "aso.sizing_s" (ratio (total "aso.size") (c "aso.sizings"));
  set "aso.runs_per_sizing" (ratio (c "aso.runs") (c "aso.sizings"));
  set "aso.stream_s" (total "aso.stream");
  set "workload.gen_s" (total "workload.gen");
  let search_s = total "model.search" in
  set "model.search_s" search_s;
  set "model.leaves_per_s" (ratio (c "model.leaves") search_s);
  set "model.pruned_frac"
    (ratio (c "model.pruned") (c "model.pruned" +. c "model.leaves"));
  set "litmus.gen_s" (total "litmus.gen");
  set "litmus.run_s" (total "litmus.run");
  set "fuzz.check_s" (total "fuzz.check");
  set "fuzz.report_s" (total "fuzz.report");
  set "pool.busy_frac" (ratio (c "pool.job_ms") (c "pool.capacity_ms"));
  set "fabric.shards_per_s" (ratio (c "fabric.shards") (total "fabric.cold"));
  set "fabric.merge_s" (total "fabric.merge");
  let hits = c "store.mem_hits" +. c "store.disk_hits" in
  set "store.hit_frac" (ratio hits (hits +. c "store.misses"));
  set "store.warm_s" (total "fabric.warm");
  List.iter
    (fun (cat, s) -> set (cat ^ ".self_s") (s /. float_of_int traced_units))
    (Span.self_seconds ~keep:(fun s -> (root s).Span.name = "unit") sp);
  set "bench.trace_overhead_frac" overhead;
  List.map (fun (k, u) -> (k, Hashtbl.find m k, u)) per_layer_metrics

(* ------------------------------------------------------------------ *)
(* Reference digests                                                   *)

let size_name = function Full -> "full" | Tiny -> "tiny"

(* Lines "<workload> <size> <seed> <md5>"; '#' starts a comment. *)
let lookup_reference ~file ~workload ~size ~seed =
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; s; sd; d ]
          when w = workload && s = size_name size && sd = string_of_int seed ->
          Some d
        | _ -> go ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

(* A fixed pure-OCaml loop, timed at the start and end of every run so
   drift of the host between runs shows beside the metrics. *)
let calibrate_ms () =
  let a = Array.init 4096 (fun i -> i * 7919) in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to 4_000 do
    for i = 0 to 4095 do
      acc := !acc + ((a.(i) lxor r) land 0xff)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  (Unix.gettimeofday () -. t0) *. 1000.

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and size = ref Full
  and reference = ref "perfbench/reference.txt"
  and out = ref ".bench_build/perfbench" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ( "--size",
        Arg.Symbol
          ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full),
        " input size (tiny is for the benchmark's own tests)" );
      ("--reference", Arg.Set_string reference, "FILE reference digests");
      ("--out", Arg.Set_string out, "DIR scratch and trace output") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let size = !size and seed = !seed in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  let tmp = Filename.concat !out (Printf.sprintf "tmp%d" (Unix.getpid ())) in
  mkdir_p tmp;
  let w =
    match !workload with
    | "table3-aso" -> table3 ~size ~seed
    | "fig6-faults" -> fig6 ~size ~seed
    | "fabric-small" -> fabric_small ~size ~seed ~tmp
    | other ->
      Printf.eprintf "unknown workload %S\n" other;
      exit 2
  in
  (* the fabric handshake asks git once; keep that out of set-up *)
  ignore (Ise_obs.Runinfo.git_rev ());
  let calib_start = calibrate_ms () in
  Span.set_on sp traced;
  let setups = match size with Full -> 9 | Tiny -> 2 in
  let setup_times = ref [] in
  let inst = ref None in
  for _ = 1 to setups do
    Option.iter (fun x -> x.teardown ()) !inst;
    let t0 = Unix.gettimeofday () in
    inst := Some (Span.with_ sp ~cat:"bench" ~name:"setup" w.setup);
    setup_times := (Unix.gettimeofday () -. t0) :: !setup_times
  done;
  let inst = Option.get !inst in
  Span.set_on sp false;
  (* the fabric workers are child processes: stop them whatever happens *)
  Fun.protect ~finally:(fun () ->
      Span.set_on sp false;
      inst.teardown ();
      rm_rf tmp)
  @@ fun () ->
  inst.prepare ();
  (* units: until the time is up, at least one (two when traced); a
     traced run alternates untraced and traced units, untraced first *)
  let untraced_times = ref [] and traced_times = ref [] in
  let attempted = ref 0 and failed = ref 0 and work = ref 0. in
  let first_digest = ref None in
  let deadline = Unix.gettimeofday () +. !seconds in
  let n = ref 0 in
  let min_units = if traced then 2 else 1 in
  let continue_ () =
    !n < min_units
    || Unix.gettimeofday () +. (0.5 *. median (!untraced_times @ !traced_times))
       < deadline
  in
  while continue_ () do
    let trace_this = traced && !n mod 2 = 1 in
    Span.set_on sp trace_this;
    counting := if trace_this then Some unit_counts else None;
    let t0 = Unix.gettimeofday () in
    let r = Span.with_ sp ~cat:"bench" ~name:"unit" inst.run_unit in
    let dt = Unix.gettimeofday () -. t0 in
    counting := None;
    r.cleanup ();
    if trace_this then traced_times := dt :: !traced_times
    else untraced_times := dt :: !untraced_times;
    attempted := !attempted + r.attempted;
    failed := !failed + r.failed;
    work := !work +. r.work;
    let d = Digest.to_hex (Digest.string r.digest_text) in
    (match !first_digest with
     | None ->
       first_digest := Some d;
       print_endline r.digest_text
     | Some d0 ->
       (* the simulator and campaigns are deterministic: every unit of a
          run must give the same results *)
       incr attempted;
       if d <> d0 then begin
         incr failed;
         Printf.printf "unit %d digest %s differs from the first unit's %s\n" !n d d0
       end);
    incr n
  done;
  let probe_checks =
    if traced then begin
      Span.set_on sp true;
      counting := Some probe_counts;
      let r = Span.with_ sp ~cat:"bench" ~name:"probe" inst.probe in
      counting := None;
      r
    end
    else []
  in
  List.iter
    (fun (a, f) ->
      attempted := !attempted + a;
      failed := !failed + f)
    probe_checks;
  (* the digest check against the reference, default seed only *)
  let digest = Option.value ~default:"" !first_digest in
  let ref_status =
    if seed <> default_seed then "unchecked (non-default seed)"
    else begin
      incr attempted;
      match lookup_reference ~file:!reference ~workload:w.name ~size ~seed with
      | Some d when d = digest -> "match"
      | Some d ->
        incr failed;
        "MISMATCH (reference " ^ d ^ ")"
      | None ->
        incr failed;
        "MISSING"
    end
  in
  let calib_end = calibrate_ms () in
  let wall = median !untraced_times in
  let units = List.length !untraced_times + List.length !traced_times in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  Printf.printf "digest %s %s %s seed=%d reference=%s\n" w.name (size_name size)
    digest seed ref_status;
  Printf.printf "calibration_ms start=%.3f end=%.3f\n" calib_start calib_end;
  Printf.printf "units=%d setups=%d unit_s=[%s]\n" units setups
    (String.concat " "
       (List.map (Printf.sprintf "%.4f")
          (List.rev !untraced_times @ List.rev !traced_times)));
  let failed_frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let metrics =
    if traced then begin
      let overhead =
        if !traced_times = [] || wall = 0. then 0.
        else (median !traced_times /. wall) -. 1.
      in
      let out_json =
        Filename.concat !out (Printf.sprintf "trace-%s-%d.json" w.name seed)
      in
      Span.write_chrome sp out_json;
      Printf.printf "trace written to %s\n" out_json;
      per_layer ~traced_units:(List.length !traced_times) ~setups ~overhead
    end
    else begin
      let work_per_s = !work /. float_of_int units /. wall in
      Printf.printf "metric %s %.6g 1/s\n" w.work_metric work_per_s;
      Printf.printf "metric failed_frac %.6g frac\n" failed_frac;
      let values =
        [ ("wall_s", wall); ("setup_s", median !setup_times);
          ("work_per_s", work_per_s); ("peak_heap_mb", heap_mb) ]
      in
      List.map (fun (k, u) -> (k, List.assoc k values, u)) end_to_end_metrics
    end
  in
  List.iter (fun (k, v, u) -> Printf.printf "metric %s %.6g %s\n" k v u) metrics;
  let result =
    J.Obj
      [ ("correct", J.Bool (!failed = 0));
        ("attempted", J.Int !attempted);
        ("failed", J.Int !failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (k, v, u) ->
                 (k, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
               metrics) ) ]
  in
  print_endline (J.to_string result)
