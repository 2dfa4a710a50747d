open Ise_sim

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let base = Config.default.Config.einject_base

let null_hooks =
  {
    Machine.on_imprecise = (fun _ -> Alcotest.fail "unexpected imprecise");
    on_precise =
      (fun ~core:_ ~addr:_ ~code:_ ~retry:_ -> Alcotest.fail "unexpected precise");
  }

let run_program ?(cfg = Config.default) ?(hooks = `Os) prog =
  let m = Machine.create ~cfg ~programs:[| Sim_instr.of_list prog |] () in
  (match hooks with
   | `Os -> ignore (Ise_os.Handler.install m)
   | `Null -> Machine.set_hooks m null_hooks);
  Machine.run m;
  m

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_in e 5 (fun () -> log := 5 :: !log);
  Engine.schedule_in e 2 (fun () -> log := 2 :: !log);
  Engine.schedule_in e 2 (fun () -> log := 20 :: !log);
  for _ = 1 to 6 do
    Engine.advance e;
    ignore (Engine.run_due e)
  done;
  check (Alcotest.list Alcotest.int) "firing order" [ 5; 20; 2 ] !log

let test_engine_skip () =
  let e = Engine.create () in
  Engine.schedule_in e 100 (fun () -> ());
  check Alcotest.bool "skips" true (Engine.skip_to_next_event e);
  check Alcotest.int "warped" 100 (Engine.now e)

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.advance e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: in the past")
    (fun () -> Engine.schedule_at e 0 (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let test_config_variants () =
  let c = Config.default in
  let c2 = Config.with_2x_memory c in
  check Alcotest.int "2x load" (2 * c.Config.dram_load_latency)
    c2.Config.dram_load_latency;
  let c4 = Config.with_4x_store_skew c in
  check Alcotest.int "4x store" (4 * c.Config.dram_load_latency)
    c4.Config.dram_store_latency;
  check Alcotest.int "loads unchanged" c.Config.dram_load_latency
    c4.Config.dram_load_latency

let test_config_pc_inflight () =
  let c = Config.with_consistency Ise_model.Axiom.Pc Config.default in
  check Alcotest.int "PC drains serially" 1 c.Config.sb_max_inflight

let test_config_mesh () =
  let c = Config.default in
  check Alcotest.int "corner to corner" 6 (Config.hops c 0 15);
  check Alcotest.int "self" 0 (Config.hops c 5 5)

(* ------------------------------------------------------------------ *)
(* Einject                                                             *)

let test_einject_basic () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  check Alcotest.bool "in region" true (Einject.contains e 0x1000);
  check Alcotest.bool "outside" false (Einject.contains e 0x5000);
  Einject.set_faulting e 0x2123;
  check Alcotest.bool "page marked" true (Einject.is_faulting e 0x2fff);
  check Alcotest.bool "other page clear" false (Einject.is_faulting e 0x1000);
  Einject.clear_faulting e 0x2000;
  check Alcotest.bool "cleared" false (Einject.is_faulting e 0x2123)

let test_einject_outside_ignored () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  (* below and above the region: both MMIO registers are dead writes *)
  Einject.set_faulting e 0x0fff;
  Einject.set_faulting e 0x9000;
  Einject.set_faulting e 0x5000;
  (* one past the last page *)
  check Alcotest.int "nothing marked" 0 (Einject.faulting_pages e);
  Einject.clear_faulting e 0x9000;
  check Alcotest.int "clr outside harmless" 0 (Einject.faulting_pages e);
  check Alcotest.bool "outside never faults" false (Einject.is_faulting e 0x9000)

let test_einject_idempotent () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  (* set/set and clr/clr are idempotent, like MMIO bitmap writes *)
  Einject.set_faulting e 0x2000;
  Einject.set_faulting e 0x2abc;
  check Alcotest.int "one page marked" 1 (Einject.faulting_pages e);
  Einject.clear_faulting e 0x2fff;
  Einject.clear_faulting e 0x2000;
  check Alcotest.int "clear is idempotent" 0 (Einject.faulting_pages e);
  Einject.clear_faulting e 0x3000;
  (* clr of an unmarked page *)
  check Alcotest.int "still none" 0 (Einject.faulting_pages e)

let test_einject_page_boundary () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  (* marking the last byte of a page marks that page alone *)
  Einject.set_faulting e 0x2fff;
  check Alcotest.bool "first byte of page" true (Einject.is_faulting e 0x2000);
  check Alcotest.bool "next page clear" false (Einject.is_faulting e 0x3000);
  check Alcotest.bool "previous page clear" false
    (Einject.is_faulting e 0x1fff);
  (* first and last pages of the region are reachable *)
  Einject.set_faulting e 0x1000;
  Einject.set_faulting e 0x4fff;
  check Alcotest.int "three pages marked" 3 (Einject.faulting_pages e);
  Einject.clear_all e;
  check Alcotest.int "clear_all" 0 (Einject.faulting_pages e)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_hit_miss () =
  let c = Cache.create ~sets:4 ~ways:2 () in
  check (Alcotest.option Alcotest.bool) "miss" None
    (Option.map (fun _ -> true) (Cache.lookup c 42));
  ignore (Cache.insert c 42 Cache.Shared);
  check Alcotest.bool "hit" true (Cache.lookup c 42 = Some Cache.Shared);
  check Alcotest.int "one hit" 1 (Cache.hits c);
  check Alcotest.int "one miss" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 () in
  ignore (Cache.insert c 0 Cache.Shared);
  ignore (Cache.insert c 1 Cache.Shared);
  ignore (Cache.lookup c 0);
  (* block 1 is now LRU *)
  let evicted = Cache.insert c 2 Cache.Shared in
  check (Alcotest.option Alcotest.int) "evicts LRU" (Some 1) evicted;
  check Alcotest.bool "0 still present" true (Cache.probe c 0 <> None)

let test_cache_state_transitions () =
  let c = Cache.create ~sets:4 ~ways:2 () in
  ignore (Cache.insert c 7 Cache.Exclusive);
  Cache.set_state c 7 Cache.Modified;
  check Alcotest.bool "modified" true (Cache.probe c 7 = Some Cache.Modified);
  Cache.invalidate c 7;
  check Alcotest.bool "gone" true (Cache.probe c 7 = None)

(* ------------------------------------------------------------------ *)
(* Memsys                                                              *)

let mk_memsys () =
  let cfg = Config.default in
  let engine = Engine.create () in
  let einj =
    Einject.create ~base:cfg.Config.einject_base ~pages:cfg.Config.einject_pages
      ~page_bits:cfg.Config.page_bits
  in
  (engine, einj, Memsys.create cfg engine einj)

let drain engine =
  let guard = ref 0 in
  while Engine.pending engine > 0 && !guard < 100_000 do
    Engine.advance engine;
    ignore (Engine.run_due engine);
    incr guard
  done

let test_memsys_write_read () =
  let engine, _, ms = mk_memsys () in
  let got = ref (-1) in
  Memsys.request ms ~core:0 ~addr:0x1000 (Memsys.Write { data = 77; mask = 0xFF })
    (fun _ -> ());
  drain engine;
  Memsys.request ms ~core:0 ~addr:0x1000 Memsys.Read (fun r ->
      match r with Memsys.Value v -> got := v | _ -> ());
  drain engine;
  check Alcotest.int "read back" 77 !got;
  check Alcotest.int "oracle" 77 (Memsys.peek ms 0x1000)

let test_memsys_hit_faster_than_miss () =
  let engine, _, ms = mk_memsys () in
  let t_done = ref 0 in
  Memsys.request ms ~core:0 ~addr:0x2000 Memsys.Read (fun _ ->
      t_done := Engine.now engine);
  drain engine;
  let miss_latency = !t_done in
  let start = Engine.now engine in
  Memsys.request ms ~core:0 ~addr:0x2000 Memsys.Read (fun _ ->
      t_done := Engine.now engine);
  drain engine;
  let hit_latency = !t_done - start in
  check Alcotest.bool "hit faster" true (hit_latency < miss_latency);
  check Alcotest.int "hit = l1 latency" Config.default.Config.l1_latency
    hit_latency

let test_memsys_denial () =
  let engine, einj, ms = mk_memsys () in
  Einject.set_faulting einj base;
  let result = ref None in
  Memsys.request ms ~core:0 ~addr:base (Memsys.Write { data = 1; mask = 0xFF })
    (fun r -> result := Some r);
  drain engine;
  (match !result with
   | Some (Memsys.Denied Ise_core.Fault.Bus_error) -> ()
   | _ -> Alcotest.fail "expected denial");
  check Alcotest.int "value not written" 0 (Memsys.peek ms base);
  check Alcotest.int "denial recorded" 1 (Memsys.denials ms)

let test_memsys_amo () =
  let engine, _, ms = mk_memsys () in
  Memsys.poke ms 0x3000 10;
  let old = ref (-1) in
  Memsys.request ms ~core:0 ~addr:0x3000 (Memsys.Atomic (Memsys.Add 5)) (fun r ->
      match r with Memsys.Value v -> old := v | _ -> ());
  drain engine;
  check Alcotest.int "old value" 10 !old;
  check Alcotest.int "updated" 15 (Memsys.peek ms 0x3000)

let test_memsys_byte_mask () =
  let engine, _, ms = mk_memsys () in
  Memsys.poke ms 0x4000 0x1122334455667788;
  Memsys.request ms ~core:0 ~addr:0x4000 (Memsys.Write { data = 0xFF; mask = 0x01 })
    (fun _ -> ());
  drain engine;
  check Alcotest.bool "only low byte replaced" true
    (Memsys.peek ms 0x4000 = 0x11223344556677FF)

let test_memsys_invalidation_counted () =
  let engine, _, ms = mk_memsys () in
  (* core 1 reads, core 2 writes: the write invalidates core 1 *)
  Memsys.request ms ~core:1 ~addr:0x5000 Memsys.Read (fun _ -> ());
  drain engine;
  Memsys.request ms ~core:2 ~addr:0x5000 (Memsys.Write { data = 3; mask = 0xFF })
    (fun _ -> ());
  drain engine;
  check Alcotest.bool "invalidations happened" true (Memsys.invalidations ms >= 1)

let test_memsys_same_block_serialises () =
  let engine, _, ms = mk_memsys () in
  let order = ref [] in
  Memsys.request ms ~core:0 ~addr:0x6000 (Memsys.Write { data = 1; mask = 0xFF })
    (fun _ -> order := 1 :: !order);
  Memsys.request ms ~core:1 ~addr:0x6000 (Memsys.Write { data = 2; mask = 0xFF })
    (fun _ -> order := 2 :: !order);
  drain engine;
  check (Alcotest.list Alcotest.int) "arrival order" [ 2; 1 ] !order;
  check Alcotest.int "last write wins" 2 (Memsys.peek ms 0x6000)

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)

let test_sb_pc_fifo () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Pc in
  ignore (Sb.push sb ~seq:0 ~addr:0x0 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x8 ~data:2 ~mask:0xFF);
  (match Sb.drainable sb ~max_inflight:4 with
   | [ e ] -> check Alcotest.int "head first" 0 e.Sb.seq
   | l -> Alcotest.fail (Printf.sprintf "expected 1 drain, got %d" (List.length l)));
  let e = List.hd (Sb.drainable sb ~max_inflight:4) in
  Sb.mark_inflight sb e;
  check (Alcotest.list Alcotest.int) "PC: one at a time" []
    (List.map (fun e -> e.Sb.seq) (Sb.drainable sb ~max_inflight:4))

let test_sb_wc_concurrent () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x0 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x8 ~data:2 ~mask:0xFF);
  check Alcotest.int "both drainable" 2
    (List.length (Sb.drainable sb ~max_inflight:4))

let test_sb_wc_coalesce () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x10 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x10 ~data:2 ~mask:0xFF);
  check Alcotest.int "coalesced" 1 (Sb.length sb);
  check (Alcotest.option Alcotest.int) "newest value" (Some 2)
    (Sb.forward sb ~addr:0x10)

let test_sb_same_word_order () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x20 ~data:1 ~mask:0xFF);
  let e0 = List.hd (Sb.drainable sb ~max_inflight:4) in
  Sb.mark_inflight sb e0;
  (* a same-word store pushed while the first is inflight cannot
     coalesce (the first is no longer waiting) nor drain before it *)
  ignore (Sb.push sb ~seq:1 ~addr:0x20 ~data:2 ~mask:0xFF);
  check (Alcotest.list Alcotest.int) "blocked behind inflight same word" []
    (List.map (fun e -> e.Sb.seq) (Sb.drainable sb ~max_inflight:4))

let test_sb_fault_keeps_entry () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x30 ~data:1 ~mask:0xFF);
  let e = List.hd (Sb.drainable sb ~max_inflight:4) in
  Sb.mark_inflight sb e;
  Sb.mark_faulted sb e Ise_core.Fault.Bus_error;
  check Alcotest.bool "fault flagged" true (Sb.has_fault sb);
  check Alcotest.int "entry stays" 1 (Sb.length sb);
  check Alcotest.int "no longer inflight" 0 (Sb.inflight sb)

let test_sb_capacity () =
  let sb = Sb.create ~capacity:2 ~mode:Ise_model.Axiom.Pc in
  ignore (Sb.push sb ~seq:0 ~addr:0x0 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x8 ~data:2 ~mask:0xFF);
  check Alcotest.bool "full rejects" false
    (Sb.push sb ~seq:2 ~addr:0x10 ~data:3 ~mask:0xFF)

(* ------------------------------------------------------------------ *)
(* Core + Machine                                                      *)

let st a v = Sim_instr.St { addr = Sim_instr.addr a; data = Sim_instr.Imm v }
let ld r a = Sim_instr.Ld { dst = r; addr = Sim_instr.addr a }

let test_machine_plain_run () =
  let m = run_program ~hooks:`Null [ st base 42; Sim_instr.Fence; ld 0 base ] in
  check Alcotest.int "value" 42 (Core.reg (Machine.core m 0) 0);
  check Alcotest.int "retired" 3 (Machine.total_retired m);
  check Alcotest.bool "contract trivially ok" true
    (Stdlib.Result.is_ok (Machine.check_contract m))

let test_machine_forwarding () =
  (* load after store to same address, no fence: must forward *)
  let m = run_program ~hooks:`Null [ st base 5; ld 0 base ] in
  check Alcotest.int "forwarded" 5 (Core.reg (Machine.core m 0) 0)

let test_machine_store_reg_data () =
  let m =
    run_program ~hooks:`Null
      [ st base 9; Sim_instr.Fence; ld 0 base;
        Sim_instr.St { addr = Sim_instr.addr (base + 64); data = Sim_instr.From_reg 0 } ]
  in
  check Alcotest.int "dependent store data" 9 (Machine.read_word m (base + 64))

let test_machine_amo () =
  let m =
    run_program ~hooks:`Null
      [ st base 10; Sim_instr.Fence;
        Sim_instr.Amo { dst = 0; addr = Sim_instr.addr base; op = Memsys.Add 7 } ]
  in
  check Alcotest.int "amo old" 10 (Core.reg (Machine.core m 0) 0);
  check Alcotest.int "amo result" 17 (Machine.read_word m base)

let test_machine_imprecise_flow () =
  let m =
    Machine.create ~programs:[| Sim_instr.of_list [ st base 99; ld 0 (base + 64) ] |] ()
  in
  let os = Ise_os.Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  let cs = Core.stats (Machine.core m 0) in
  check Alcotest.int "one imprecise exception" 1 cs.Core.imprecise_exceptions;
  check Alcotest.int "store applied by OS" 99 (Machine.read_word m base);
  check Alcotest.bool "handler ran" true (os.Ise_os.Handler.invocations >= 1);
  check Alcotest.bool "contract holds" true
    (Stdlib.Result.is_ok (Machine.check_contract m))

let test_machine_precise_load_flow () =
  let m = Machine.create ~programs:[| Sim_instr.of_list [ ld 0 base ] |] () in
  let os = Ise_os.Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "one precise fault" 1 os.Ise_os.Handler.precise_faults;
  check Alcotest.int "load retried, reads 0" 0 (Core.reg (Machine.core m 0) 0)

let test_machine_sc_store_precise () =
  let cfg = Config.with_consistency Ise_model.Axiom.Sc Config.default in
  let m = Machine.create ~cfg ~programs:[| Sim_instr.of_list [ st base 7 ] |] () in
  let os = Ise_os.Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "precise, not imprecise" 1 os.Ise_os.Handler.precise_faults;
  check Alcotest.int "no imprecise" 0
    (Core.stats (Machine.core m 0)).Core.imprecise_exceptions;
  check Alcotest.int "store completed" 7 (Machine.read_word m base)

let test_machine_replay_after_exception () =
  (* instructions after the faulting store must re-execute and produce
     correct results *)
  let m =
    Machine.create
      ~programs:
        [| Sim_instr.of_list
             [ st base 1; ld 0 (base + 4096); st (base + 8192) 3;
               ld 1 (base + 8192) ] |]
      ()
  in
  ignore (Ise_os.Handler.install m);
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "first store" 1 (Machine.read_word m base);
  check Alcotest.int "later store" 3 (Machine.read_word m (base + 8192));
  check Alcotest.int "later load sees it" 3 (Core.reg (Machine.core m 0) 1)

let test_machine_terminate () =
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st base 1 ] |] () in
  Machine.set_hooks m null_hooks;
  Core.terminate (Machine.core m 0);
  check Alcotest.bool "terminated is done" true (Core.is_done (Machine.core m 0));
  check Alcotest.bool "flag" true (Core.is_terminated (Machine.core m 0))

let test_machine_multicore_communication () =
  let x = base and y = base + 4096 in
  let prog0 = [ st x 1; Sim_instr.Fence; st y 1 ] in
  (* delay the consumer long enough that the producer has drained;
     the fence keeps the loads from issuing past the delay *)
  let prog1 =
    [ Sim_instr.Nop 2000; Sim_instr.Fence; ld 0 y; Sim_instr.Fence; ld 1 x ]
  in
  let m =
    Machine.create
      ~programs:[| Sim_instr.of_list prog0; Sim_instr.of_list prog1 |] ()
  in
  Machine.set_hooks m null_hooks;
  Machine.run m;
  check Alcotest.int "y visible" 1 (Core.reg (Machine.core m 1) 0);
  check Alcotest.int "x visible" 1 (Core.reg (Machine.core m 1) 1)

(* Reference interpreter: single-core programs must end with the same
   memory as sequential execution, faults or not. *)
let reference_memory prog =
  let mem = Hashtbl.create 16 in
  let regs = Array.make 64 0 in
  let read a = try Hashtbl.find mem (a lsr 3) with Not_found -> 0 in
  List.iter
    (fun i ->
      match i with
      | Sim_instr.Ld { dst; addr } -> regs.(dst) <- read addr.Sim_instr.base
      | Sim_instr.St { addr; data } ->
        let v =
          match data with
          | Sim_instr.Imm v -> v
          | Sim_instr.From_reg r -> regs.(r)
        in
        Hashtbl.replace mem (addr.Sim_instr.base lsr 3) v
      | Sim_instr.Amo { dst; addr; op } ->
        let old = read addr.Sim_instr.base in
        regs.(dst) <- old;
        let v = match op with Memsys.Swap v -> v | Memsys.Add v -> old + v in
        Hashtbl.replace mem (addr.Sim_instr.base lsr 3) v
      | Sim_instr.Fence | Sim_instr.Ctrl _ | Sim_instr.Nop _ -> ())
    prog;
  mem

let random_program rng n =
  let open Ise_util in
  List.init n (fun _ ->
      let a = base + (8 * Rng.int rng 64) in
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> st a (1 + Rng.int rng 100)
      | 4 | 5 | 6 ->
        Sim_instr.Ld { dst = Rng.int rng 8; addr = Sim_instr.addr a }
      | 7 -> Sim_instr.Fence
      | 8 -> Sim_instr.Amo { dst = Rng.int rng 8; addr = Sim_instr.addr a;
                             op = Memsys.Add 1 }
      | _ -> Sim_instr.Nop (1 + Rng.int rng 3))

let prop_single_core_sequential_memory =
  QCheck.Test.make
    ~name:"single-core final memory equals sequential reference (no faults)"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let prog = random_program rng 40 in
      let m = run_program ~hooks:`Null prog in
      let reference = reference_memory prog in
      Hashtbl.fold
        (fun w v ok -> ok && Machine.read_word m (w lsl 3) = v)
        reference true)

let prop_single_core_transparent_faults =
  QCheck.Test.make
    ~name:"fault injection is transparent to single-core results" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let prog = random_program rng 30 in
      let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
      ignore (Ise_os.Handler.install m);
      (* mark the whole working set faulting *)
      Einject.set_faulting (Machine.einject m) base;
      Machine.run m;
      let reference = reference_memory prog in
      Hashtbl.fold
        (fun w v ok -> ok && Machine.read_word m (w lsl 3) = v)
        reference true)

(* ------------------------------------------------------------------ *)
(* Midgard                                                             *)

let test_midgard_vma_membership () =
  let mg = Midgard.create () in
  Midgard.add_vma mg ~base:0x1000_0000 ~bytes:(64 * 4096);
  check Alcotest.bool "inside" true (Midgard.in_vma mg 0x1000_2000);
  check Alcotest.bool "outside" false (Midgard.in_vma mg 0x2000_0000)

let test_midgard_mapping () =
  let mg = Midgard.create () in
  Midgard.add_vma mg ~base:0x1000_0000 ~bytes:(4 * 4096);
  check Alcotest.bool "starts unmapped" false (Midgard.is_mapped mg 0x1000_0000);
  Midgard.map_page mg 0x1000_0123;
  check Alcotest.bool "mapped" true (Midgard.is_mapped mg 0x1000_0fff);
  Midgard.unmap_page mg 0x1000_0000;
  check Alcotest.bool "unmapped" false (Midgard.is_mapped mg 0x1000_0000);
  Midgard.map_all mg;
  check Alcotest.int "all pages" 4 (Midgard.pages_mapped mg)

let test_midgard_interceptor_denies () =
  let mg = Midgard.create () in
  let region = 0x1000_0000 in
  Midgard.add_vma mg ~base:region ~bytes:4096;
  let engine, _, ms = mk_memsys () in
  Memsys.add_interceptor ms (Midgard.interceptor mg);
  let result = ref None in
  Memsys.request ms ~core:0 ~addr:region (Memsys.Write { data = 1; mask = 0xFF })
    (fun r -> result := Some r);
  drain engine;
  (match !result with
   | Some (Memsys.Denied Ise_core.Fault.Page_fault) -> ()
   | _ -> Alcotest.fail "expected Midgard page fault");
  check Alcotest.int "fault recorded" 1 (Midgard.faults_taken mg);
  (* after the OS maps the page the access succeeds and pays the walk *)
  Midgard.map_page mg region;
  Memsys.request ms ~core:0 ~addr:region (Memsys.Write { data = 7; mask = 0xFF })
    (fun r -> result := Some r);
  drain engine;
  check Alcotest.bool "mapped access succeeds" true (!result = Some (Memsys.Value 0));
  check Alcotest.int "value written" 7 (Memsys.peek ms region);
  check Alcotest.bool "walks counted" true (Midgard.walks_performed mg >= 2)

let test_midgard_imprecise_store_flow () =
  (* the Example-2 scenario end to end: a store passes the front-end,
     retires, misses the LLC, and faults during the back-end
     translation; the OS maps the page and applies the store *)
  let mg = Midgard.create () in
  let region = base + 0x0800_0000 in
  (* outside the EInject marks *)
  Midgard.add_vma mg ~base:region ~bytes:(16 * 4096);
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st region 77 ] |] () in
  Memsys.add_interceptor (Machine.mem m) (Midgard.interceptor mg);
  let config =
    { Ise_os.Handler.costs = Ise_core.Batch.default_cost_model;
      policy = Ise_os.Handler.Midgard_paging { midgard = mg; major_pct = 0; io_latency = 0 } }
  in
  ignore (Ise_os.Handler.install ~config m);
  Machine.run m;
  check Alcotest.int "imprecise exception taken" 1
    (Core.stats (Machine.core m 0)).Core.imprecise_exceptions;
  check Alcotest.int "store applied after mapping" 77 (Machine.read_word m region);
  check Alcotest.bool "page now mapped" true (Midgard.is_mapped mg region)

(* ------------------------------------------------------------------ *)
(* Interrupts                                                          *)

let test_interrupt_pauses_core () =
  let m =
    Machine.create
      ~programs:[| Sim_instr.of_list (List.init 50 (fun i -> st (base + 8 * i) i)) |]
      ()
  in
  ignore (Ise_os.Handler.install m);
  Machine.enable_timer_interrupts m ~period:200 ~handler_cycles:100;
  Machine.run m;
  check Alcotest.bool "interrupts fired" true (Machine.interrupts_taken m >= 1)

let test_interrupt_deferred_during_handler () =
  (* exceptions in flight mask the timer (IE bit) *)
  let prog = List.init 8 (fun i -> st (base + (i * 4096)) (i + 1)) in
  let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
  ignore (Ise_os.Handler.install m);
  for i = 0 to 7 do
    Einject.set_faulting (Machine.einject m) (base + (i * 4096))
  done;
  Machine.enable_timer_interrupts m ~period:150 ~handler_cycles:50;
  Machine.run m;
  check Alcotest.bool "some deliveries deferred by IE" true
    (Machine.interrupts_deferred m >= 1);
  (* correctness is unaffected *)
  for i = 0 to 7 do
    check Alcotest.int "store landed" (i + 1)
      (Machine.read_word m (base + (i * 4096)))
  done

let test_interrupt_defers_exception_episode () =
  (* a fault arriving while the interrupt handler runs must wait for
     the handler to return before the episode starts *)
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st base 9 ] |] () in
  ignore (Ise_os.Handler.install m);
  Einject.set_faulting (Machine.einject m) base;
  (* interrupt immediately, long handler: the drain response (~100
     cycles) lands inside it *)
  Machine.enable_timer_interrupts m ~period:20 ~handler_cycles:400;
  Machine.run m;
  check Alcotest.int "exception still handled exactly once" 1
    (Core.stats (Machine.core m 0)).Core.imprecise_exceptions;
  check Alcotest.int "store applied" 9 (Machine.read_word m base)

let prop_multicore_disjoint_transparency =
  QCheck.Test.make
    ~name:"2-core disjoint-range programs: faults are transparent" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let mk_prog offset n =
        List.init n (fun _ ->
            let a = base + offset + (8 * Ise_util.Rng.int rng 32) in
            if Ise_util.Rng.int rng 3 = 0 then
              Sim_instr.Ld { dst = Ise_util.Rng.int rng 8; addr = Sim_instr.addr a }
            else
              Sim_instr.St
                { addr = Sim_instr.addr a;
                  data = Sim_instr.Imm (1 + Ise_util.Rng.int rng 50) })
      in
      let p0 = mk_prog 0 20 and p1 = mk_prog 8192 20 in
      let run inject =
        let m =
          Machine.create
            ~programs:[| Sim_instr.of_list p0; Sim_instr.of_list p1 |] ()
        in
        ignore (Ise_os.Handler.install m);
        if inject then begin
          Einject.set_faulting (Machine.einject m) base;
          Einject.set_faulting (Machine.einject m) (base + 8192)
        end;
        Machine.run m;
        List.map (fun w -> Machine.read_word m w)
          (List.init 64 (fun i -> base + (8 * i))
           @ List.init 64 (fun i -> base + 8192 + (8 * i)))
      in
      run false = run true)

(* ------------------------------------------------------------------ *)
(* Golden simulated counters                                           *)

(* Small fixed runs whose simulated counters are pinned exactly: any
   change to the core's bookkeeping that is meant to be timing-neutral
   must reproduce every figure below.  Between them the runs reach the
   flush, replay, FSB-overflow and terminate paths that the benchmark
   digests never exercise. *)

let materialise stream =
  let rec go acc =
    match stream () with Some i -> go (i :: acc) | None -> List.rev acc
  in
  go []

let instr_addr = function
  | Sim_instr.Ld { addr; _ } | Sim_instr.St { addr; _ }
  | Sim_instr.Amo { addr; _ } ->
    Some addr.Sim_instr.base
  | Sim_instr.Fence | Sim_instr.Ctrl _ | Sim_instr.Nop _ -> None

(* A faulting-region program over [pages] pages: stores with immediate
   and register data, loads with and without address dependencies,
   AMOs, fences, branches and compute. *)
let golden_program ~seed ~pages n =
  let rng = Ise_util.Rng.create seed in
  let open Ise_util in
  List.init n (fun _ ->
      let a = base + (4096 * Rng.int rng pages) + (8 * Rng.int rng 16) in
      let r = Rng.int rng 8 in
      match Rng.int rng 16 with
      | 0 | 1 | 2 | 3 -> st a (1 + Rng.int rng 1000)
      | 4 -> Sim_instr.St { addr = Sim_instr.addr a; data = Sim_instr.From_reg r }
      | 5 | 6 | 7 -> ld r a
      | 8 -> Sim_instr.Ld { dst = r; addr = Sim_instr.addr ~dep:(Rng.int rng 8) a }
      | 9 -> Sim_instr.Amo { dst = r; addr = Sim_instr.addr a; op = Memsys.Add 3 }
      | 10 -> Sim_instr.Fence
      | 11 -> Sim_instr.Ctrl r
      | _ -> Sim_instr.Nop (1 + Rng.int rng 4))

let golden_summary m (os : Ise_os.Handler.stats) progs =
  let core_line i =
    let s = Core.stats (Machine.core m i) in
    Printf.sprintf "%d/%d/%d/%d/%d/%d" s.Core.sb_full_stalls
      s.Core.rob_full_stalls s.Core.fsb_overflow_stalls
      s.Core.drain_uarch_cycles s.Core.imprecise_exceptions
      s.Core.precise_exceptions
  in
  let words =
    List.sort_uniq compare
      (List.concat_map
         (fun p ->
           List.filter_map
             (fun i -> Option.map (fun a -> a lsr 3) (instr_addr i))
             p)
         (Array.to_list progs))
  in
  let mem =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun w -> Printf.sprintf "%x=%d" w (Machine.read_word m (w lsl 3)))
               words)))
  in
  let mem_stats = Machine.mem m in
  Printf.sprintf
    "cycles=%d retired=%d cores=[%s] os=%d/%d/%d irq=%d/%d l1=%d/%d l2=%d/%d \
     dram=%d mem=%s"
    (Machine.cycles m) (Machine.total_retired m)
    (String.concat " " (List.init (Machine.ncores m) core_line))
    os.Ise_os.Handler.invocations os.Ise_os.Handler.precise_faults
    os.Ise_os.Handler.terminated_cores (Machine.interrupts_taken m)
    (Machine.interrupts_deferred m)
    (Memsys.l1_hits mem_stats) (Memsys.l1_misses mem_stats)
    (Memsys.l2_hits mem_stats) (Memsys.l2_misses mem_stats)
    (Memsys.dram_accesses mem_stats) mem

let golden_run ?(cfg = Config.default) ?(setup = fun _ -> ()) progs =
  let m =
    Machine.create ~cfg ~programs:(Array.map Sim_instr.of_list progs) ()
  in
  Machine.set_trace_enabled m false;
  let os = Ise_os.Handler.install m in
  setup m;
  Machine.run m;
  golden_summary m os progs

let mix_programs ~cores ~length name =
  Array.map materialise
    (Ise_workload.Mix.multicore_streams ~seed:11 ~length_per_core:length ~cores
       (Ise_workload.Mix.find name))

let mark_pages m pages =
  List.iter
    (fun p -> Einject.set_faulting (Machine.einject m) (base + (4096 * p)))
    pages

let golden_cases () =
  let wc = Config.default in
  let faulting = [| golden_program ~seed:3 ~pages:6 300 |] in
  let two_core =
    [| golden_program ~seed:4 ~pages:6 200; golden_program ~seed:5 ~pages:6 200 |]
  in
  let overflow =
    [| List.init 40 (fun i -> st (base + (4096 * (i mod 20)) + (8 * (i / 20))) (i + 1))
       @ [ ld 0 base; ld 1 (base + 4096) ] |]
  in
  let small_fsb policy =
    { wc with Config.fsb_entries = 4; fsb_overflow = policy }
  in
  let protection_page = base + (4096 * 40) in
  let terminate_setup m =
    Memsys.add_interceptor (Machine.mem m)
      { Memsys.int_name = "golden-protection";
        check =
          (fun ~addr ~write ->
            if write && addr lsr 12 = protection_page lsr 12 then
              Some Ise_core.Fault.Protection_fault
            else None);
        extra_latency = (fun ~addr:_ -> 0) }
  in
  [ ( "sc-speculative-loads",
      golden_run
        ~cfg:
          { (Config.with_consistency Ise_model.Axiom.Sc wc) with
            Config.sc_speculative_loads = true }
        (mix_programs ~cores:2 ~length:400 "BC") );
    ( "pc",
      golden_run ~cfg:(Config.with_consistency Ise_model.Axiom.Pc wc)
        (mix_programs ~cores:2 ~length:400 "Masstree") );
    ("wc", golden_run ~cfg:wc (mix_programs ~cores:2 ~length:400 "BFS"));
    ( "aso-4core",
      golden_run
        ~cfg:(Ise_aso.Aso_core.aso_config ~checkpoints:5 wc)
        (mix_programs ~cores:4 ~length:300 "Data Serving") );
    ( "split-faults-irq",
      golden_run
        ~cfg:{ wc with Config.protocol_mode = Ise_core.Protocol.Split_stream }
        ~setup:(fun m ->
          mark_pages m [ 0; 2; 4 ];
          Machine.enable_timer_interrupts m ~period:170 ~handler_cycles:40)
        faulting );
    ( "same-stream-faults-2core",
      golden_run ~cfg:wc ~setup:(fun m -> mark_pages m [ 1; 3; 5 ]) two_core );
    ( "precise-load",
      golden_run ~cfg:wc
        ~setup:(fun m -> mark_pages m [ 0; 1 ])
        [| [ ld 0 base; ld 1 (base + 4096); st (base + 8) 5;
             Sim_instr.Amo { dst = 2; addr = Sim_instr.addr (base + 16); op = Memsys.Add 1 };
             ld 3 (base + 8) ] |] );
    ( "fsb-stall",
      golden_run ~cfg:(small_fsb Config.Fsb_stall)
        ~setup:(fun m -> mark_pages m (List.init 20 Fun.id))
        overflow );
    ( "fsb-degrade",
      golden_run ~cfg:(small_fsb Config.Fsb_degrade)
        ~setup:(fun m -> mark_pages m (List.init 20 Fun.id))
        overflow );
    ( "terminate",
      golden_run ~cfg:wc ~setup:terminate_setup
        [| List.init 30 (fun i -> st (base + (8 * i)) i)
           @ [ st protection_page 1 ]
           @ List.init 30 (fun i -> st (base + 8192 + (8 * i)) i);
           golden_program ~seed:6 ~pages:2 120 |] ) ]

(* recorded on the issue loop that scanned every ROB entry each cycle;
   a timing-neutral change to the core must reproduce them exactly *)
let golden_expected =
  [
    ( "sc-speculative-loads",
      "cycles=1097 retired=800 cores=[0/366/0/0/0/0 0/409/0/0/0/0] os=0/0/0 irq=0/0 l1=267/361 l2=14/347 dram=347 mem=034fa9885aa8b5874620683b34cf09dc" );
    ( "pc",
      "cycles=5924 retired=800 cores=[0/354/0/0/0/0 0/343/0/0/0/0] os=0/0/0 irq=0/0 l1=18/206 l2=0/206 dram=206 mem=474eefa01230d59677a93e48fc299d18" );
    ( "wc",
      "cycles=559 retired=800 cores=[0/89/0/0/0/0 0/82/0/0/0/0] os=0/0/0 irq=0/0 l1=22/260 l2=0/260 dram=260 mem=62cb8eb4dbe0f4147434983f9f3bba54" );
    ( "aso-4core",
      "cycles=858 retired=1200 cores=[0/80/0/0/0/0 0/74/0/0/0/0 0/65/0/0/0/0 0/68/0/0/0/0] os=0/0/0 irq=0/0 l1=16/385 l2=0/385 dram=385 mem=1da9f00015e5ff47e46ad17cd001e831" );
    ( "split-faults-irq",
      "cycles=2515 retired=300 cores=[0/268/0/18/1/2] os=1/2/0 irq=4/10 l1=179/15 l2=0/15 dram=15 mem=88d549ab1a9624e9c8c0534aae34466a" );
    ( "same-stream-faults-2core",
      "cycles=2215 retired=400 cores=[0/78/0/44/2/1 0/327/0/18/1/1] os=3/2/0 irq=0/0 l1=183/97 l2=114/19 dram=19 mem=1c9464144bea1dc3873f0b46e9b5762f" );
    ( "precise-load",
      "cycles=1177 retired=5 cores=[0/0/0/0/0/2] os=0/2/0 irq=0/0 l1=4/5 l2=0/5 dram=5 mem=d69cf3db0b72f765586671fd9eff44e9" );
    ( "fsb-stall",
      "cycles=3612 retired=42 cores=[4/0/135/2302/1/0] os=1/0/0 irq=0/0 l1=2/72 l2=20/52 dram=52 mem=d6b43af968f1dde6077962059acdf867" );
    ( "fsb-degrade",
      "cycles=4100 retired=134 cores=[4/0/0/150/5/0] os=5/0/0 irq=0/0 l1=22/132 l2=0/132 dram=132 mem=d6b43af968f1dde6077962059acdf867" );
    ( "terminate",
      "cycles=462 retired=152 cores=[17/0/0/18/1/0 0/0/0/0/0/0] os=1/0/1 irq=0/0 l1=90/11 l2=3/8 dram=8 mem=6958297d0359b158aa3e00c65de1bc43" );
  ]

let test_golden_counters () =
  check
    Alcotest.(list (pair string string))
    "simulated counters" golden_expected (golden_cases ())

(* ------------------------------------------------------------------ *)
(* Issue-scan index consistency                                        *)

(* Checks every core's not-done chain and store ring once per cycle,
   from an event that only reads state (like the telemetry probe tick),
   and once more after the run. *)
let run_checking_indexes m =
  let engine = Machine.engine m in
  let cores = List.init (Machine.ncores m) (Machine.core m) in
  let failure = ref None in
  let check_all () =
    List.iter
      (fun c ->
        match Core.check_indexes c with
        | Ok () -> ()
        | Error msg ->
          if !failure = None then
            failure :=
              Some
                (Printf.sprintf "core %d, cycle %d: %s" (Core.id c)
                   (Engine.now engine) msg))
      cores
  in
  let rec tick () =
    check_all ();
    if not (List.for_all Core.is_done cores) then Engine.schedule_in engine 1 tick
  in
  Engine.schedule_in engine 1 tick;
  Machine.run m;
  check_all ();
  !failure

let test_index_consistency () =
  let wc = Config.default in
  let variants =
    [ ("WC+faults", wc, false);
      ("PC+faults", Config.with_consistency Ise_model.Axiom.Pc wc, false);
      ( "split+faults+irq",
        { wc with Config.protocol_mode = Ise_core.Protocol.Split_stream },
        true ) ]
  in
  let runs = ref 0 in
  let expect name = function
    | None -> incr runs
    | Some msg -> Alcotest.failf "%s: %s" name msg
  in
  List.iter
    (fun (vname, cfg, irq) ->
      List.iter
        (fun (lt : Ise_litmus.Lit_test.t) ->
          let progs = Ise_litmus.Lit_run.lower lt ~base in
          (* a second run with per-core start skew varies the overlap *)
          List.iter
            (fun skew ->
              let progs =
                Array.mapi
                  (fun i p ->
                    if skew && i > 0 then Sim_instr.Nop (23 * i) :: p else p)
                  progs
              in
              let m =
                Machine.create ~cfg
                  ~programs:(Array.map Sim_instr.of_list progs) ()
              in
              ignore (Ise_os.Handler.install m);
              let mark = Einject.set_faulting (Machine.einject m) in
              Array.iter
                (List.iter (fun i -> Option.iter mark (instr_addr i)))
                progs;
              if irq then
                Machine.enable_timer_interrupts m ~period:97 ~handler_cycles:30;
              expect
                (Printf.sprintf "%s %s" vname lt.Ise_litmus.Lit_test.name)
                (run_checking_indexes m))
            [ false; true ])
        Ise_litmus.Library.all)
    variants;
  let g =
    Ise_workload.Graph.power_law (Ise_util.Rng.create 7) ~nodes:150 ~avg_degree:4
  in
  let tr = Ise_workload.Gap.bfs g ~base ~src:0 in
  let m = Machine.create ~programs:[| Ise_workload.Gap.stream_of tr |] () in
  ignore (Ise_os.Handler.install m);
  Ise_workload.Gap.mark_faulting m tr;
  expect "GAP BFS with faults" (run_checking_indexes m);
  check Alcotest.bool "GAP results intact" true (Ise_workload.Gap.verify m tr);
  check Alcotest.bool "faults were taken" true
    ((Core.stats (Machine.core m 0)).Core.imprecise_exceptions > 0);
  check Alcotest.int "every run checked"
    ((6 * List.length Ise_litmus.Library.all) + 1)
    !runs

(* ------------------------------------------------------------------ *)
(* Sleeping cores ≡ stepping every core                                *)

(* The run loop from before stalled cores slept: every core is stepped
   on every iteration.  [Machine.run] skips a core whose last step made
   no progress until something wakes it; the two loops must agree on
   every simulated result, stall counters included. *)
let run_stepping_every_core ?(max_cycles = 50_000_000) m =
  let engine = Machine.engine m in
  let cores = Array.init (Machine.ncores m) (Machine.core m) in
  let all_done () = Array.for_all Core.is_done cores in
  let rec loop () =
    if all_done () then ()
    else if Engine.now engine > max_cycles then
      failwith
        (Printf.sprintf "Machine.run: exceeded %d cycles (livelock?)"
           max_cycles)
    else begin
      ignore (Engine.run_due engine);
      let progress = ref false in
      Array.iter (fun c -> if Core.step c then progress := true) cores;
      if all_done () then ()
      else if !progress then begin
        Engine.advance engine;
        loop ()
      end
      else if Engine.skip_to_next_event engine then loop ()
      else if Engine.pending engine > 0 then begin
        Engine.advance engine;
        loop ()
      end
      else
        failwith
          (Printf.sprintf "Machine.run: deadlock at cycle %d"
             (Engine.now engine))
    end
  in
  loop ()

let digest_lines l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* Everything a run leaves behind, one labelled line each, so a failing
   comparison names what moved. *)
let twin_summary ~outcome m (os : Ise_os.Handler.stats) progs =
  let ints l = String.concat "/" (List.map string_of_int l) in
  let core_lines i =
    let c = Machine.core m i in
    let s = Core.stats c in
    let fsb = Core.fsb c in
    [ ( Printf.sprintf "core%d stats" i,
        ints
          [ s.Core.retired; s.Core.loads; s.Core.stores; s.Core.fences;
            s.Core.imprecise_exceptions; s.Core.faulting_stores;
            s.Core.precise_exceptions; s.Core.drain_uarch_cycles;
            s.Core.sb_full_stalls; s.Core.rob_full_stalls;
            s.Core.fsb_overflow_stalls; s.Core.fsb_overflow_drops ] );
      ( Printf.sprintf "core%d state" i,
        Printf.sprintf "%s %b fsb=%s sb=%s regs=%s" (Core.phase_name c)
          (Core.is_done c)
          (ints
             Ise_core.Fsb.
               [ total_appended fsb; total_drained fsb; high_watermark fsb ])
          (ints [ Core.sb_occupancy_watermark c; Core.sb_inflight_watermark c ])
          (ints (List.init 64 (Core.reg c))) ) ]
  in
  let words =
    List.sort_uniq compare
      (List.concat_map
         (List.filter_map (fun i ->
              Option.map (fun a -> a lsr 3) (instr_addr i)))
         (Array.to_list progs))
  in
  let mem = Machine.mem m in
  let telemetry =
    match Machine.telemetry m with
    | None -> []
    | Some sink ->
      Machine.record_final_stats m;
      [ ("registry",
         Ise_telemetry.Registry.to_csv (Ise_telemetry.Sink.registry sink));
        ( "trace",
          digest_lines
            [ Ise_telemetry.Json.to_string
                (Ise_telemetry.Trace.to_chrome_json
                   (Ise_telemetry.Sink.trace sink)) ] ) ]
  in
  [ ("outcome", outcome); ("cycles", string_of_int (Machine.cycles m));
    ( "interrupts",
      ints [ Machine.interrupts_taken m; Machine.interrupts_deferred m ] );
    ( "handler",
      Printf.sprintf "%s batches=%d/%g"
        (ints
           Ise_os.Handler.
             [ os.invocations; os.stores_handled; os.faulting_handled;
               os.apply_cycles; os.other_cycles; os.io_requests;
               os.precise_faults; os.terminated_cores; os.apply_retries ])
        (Ise_util.Stats.count os.Ise_os.Handler.batch_sizes)
        (Ise_util.Stats.total os.Ise_os.Handler.batch_sizes) );
    ( "memsys",
      ints
        [ Memsys.l1_hits mem; Memsys.l1_misses mem; Memsys.l2_hits mem;
          Memsys.l2_misses mem; Memsys.dram_accesses mem;
          Memsys.noc_hop_cycles mem; Memsys.invalidations mem;
          Memsys.denials mem ] );
    ( "contract trace",
      Printf.sprintf "%d events %s"
        (List.length (Machine.trace m))
        (digest_lines
           (List.map (Format.asprintf "%a" Ise_core.Contract.pp_event)
              (Machine.trace m))) );
    ( "memory",
      digest_lines
        (List.map
           (fun w -> Printf.sprintf "%x=%d" w (Machine.read_word m (w lsl 3)))
           words) ) ]
  @ List.concat_map core_lines (List.init (Machine.ncores m) Fun.id)
  @ telemetry

(* Builds the same machine twice, runs one twin with each loop and
   compares everything.  [setup] installs the OS (and whatever else the
   case needs) and returns the handler's statistics. *)
let check_twins ?(cfg = Config.default)
    ?(setup = fun m -> Ise_os.Handler.install m) name progs =
  let run loop =
    let m =
      Machine.create ~cfg ~programs:(Array.map Sim_instr.of_list progs) ()
    in
    let os = setup m in
    let outcome =
      match loop m with () -> "ok" | exception Failure msg -> "Failure " ^ msg
    in
    twin_summary ~outcome m os progs
  in
  let max_cycles = 2_000_000 in
  let stepping = run (run_stepping_every_core ~max_cycles) in
  let sleeping = run (Machine.run ~max_cycles) in
  check Alcotest.(list (pair string string)) name stepping sleeping

let test_sleeping_matches_stepping () =
  let wc = Config.default in
  let mark_all m progs =
    let mark = Einject.set_faulting (Machine.einject m) in
    Array.iter (List.iter (fun i -> Option.iter mark (instr_addr i))) progs
  in
  let variants =
    [ ("WC+faults", wc, false);
      ("PC+faults", Config.with_consistency Ise_model.Axiom.Pc wc, false);
      ( "split+faults+irq",
        { wc with Config.protocol_mode = Ise_core.Protocol.Split_stream },
        true ) ]
  in
  List.iter
    (fun (vname, cfg, irq) ->
      List.iter
        (fun (lt : Ise_litmus.Lit_test.t) ->
          let progs = Ise_litmus.Lit_run.lower lt ~base in
          List.iter
            (fun skew ->
              let progs =
                Array.mapi
                  (fun i p ->
                    if skew && i > 0 then Sim_instr.Nop (23 * i) :: p else p)
                  progs
              in
              check_twins ~cfg
                ~setup:(fun m ->
                  let os = Ise_os.Handler.install m in
                  mark_all m progs;
                  if irq then
                    Machine.enable_timer_interrupts m ~period:97
                      ~handler_cycles:30;
                  os)
                (Printf.sprintf "%s %s%s" vname lt.Ise_litmus.Lit_test.name
                   (if skew then " skewed" else ""))
                progs)
            [ false; true ])
        Ise_litmus.Library.all)
    variants;
  check_twins ~cfg:wc "4-core Mix BFS"
    (mix_programs ~cores:4 ~length:1000 "BFS");
  check_twins
    ~cfg:{ wc with Config.sb_entries = 4 }
    "2-core Mix BFS, 4-entry store buffer"
    (mix_programs ~cores:2 ~length:1000 "BFS");
  check_twins
    ~cfg:(Config.with_consistency Ise_model.Axiom.Sc wc)
    "2-core SC Mix BC" (mix_programs ~cores:2 ~length:400 "BC");
  check_twins
    ~cfg:(Ise_aso.Aso_core.aso_config ~checkpoints:5 wc)
    "ASO 4-core Data Serving"
    (mix_programs ~cores:4 ~length:800 "Data Serving");
  check_twins ~cfg:wc
    ~setup:(fun m ->
      let os = Ise_os.Handler.install m in
      Machine.attach_telemetry ~sample_period:7 m
        (Ise_telemetry.Sink.create ());
      os)
    "telemetry, sample period 7"
    (mix_programs ~cores:2 ~length:2000 "BFS");
  (* a forwarded load completes while the ROB head waits on a miss:
     only the forwarding event can wake the core to start the chain of
     misses that depends on it *)
  let dep_ld r ~on a =
    Sim_instr.Ld { dst = r; addr = Sim_instr.addr ~dep:on a }
  in
  let page i = base + (4096 * i) in
  let chain =
    [ dep_ld 2 ~on:1 (page 3); dep_ld 3 ~on:2 (page 4);
      dep_ld 4 ~on:3 (page 5) ]
  in
  check_twins ~cfg:wc "ROB forward behind a miss"
    [| [ ld 0 (page 0); st (page 1) 1; ld 1 (page 1) ] @ chain |];
  (* the load's address waits on a ROB-forwarded load, so it issues
     after the store it reads has retired into the store buffer *)
  check_twins ~cfg:wc "store-buffer forward behind a miss"
    [| [ st (page 1) 1; st (page 6) 7; ld 0 (page 0); ld 7 (page 6);
         dep_ld 1 ~on:7 (page 1) ] @ chain |];
  let faulting =
    [| golden_program ~seed:21 ~pages:6 300;
       golden_program ~seed:22 ~pages:6 300 |]
  in
  List.iter
    (fun (profile : Ise_chaos.Profile.t) ->
      check_twins
        ~cfg:(Ise_chaos.Chaos_run.cfg_with_profile profile wc)
        ~setup:(fun m ->
          let plane = Ise_chaos.Plane.create ~seed:5 ~profile in
          let os =
            Ise_os.Handler.install
              ~max_apply_retries:profile.Ise_chaos.Profile.max_apply_retries
              ~apply_backoff:profile.Ise_chaos.Profile.apply_backoff
              ~on_apply_exhausted:profile.Ise_chaos.Profile.on_apply_exhausted
              ~chaos:(Ise_chaos.Plane.handler_chaos plane) m
          in
          Ise_chaos.Plane.install plane m;
          mark_pages m [ 0; 2; 4 ];
          os)
        ("chaos " ^ profile.Ise_chaos.Profile.name)
        faulting)
    Ise_chaos.Profile.all

let suite =
  [
    ("engine event order", `Quick, test_engine_order);
    ("engine skip to next", `Quick, test_engine_skip);
    ("engine rejects the past", `Quick, test_engine_past_raises);
    ("config latency variants", `Quick, test_config_variants);
    ("config PC inflight", `Quick, test_config_pc_inflight);
    ("config mesh distance", `Quick, test_config_mesh);
    ("einject mark/clear", `Quick, test_einject_basic);
    ("einject ignores outside", `Quick, test_einject_outside_ignored);
    ("einject set/clr idempotent", `Quick, test_einject_idempotent);
    ("einject page boundaries", `Quick, test_einject_page_boundary);
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache state transitions", `Quick, test_cache_state_transitions);
    ("memsys write/read", `Quick, test_memsys_write_read);
    ("memsys hit faster than miss", `Quick, test_memsys_hit_faster_than_miss);
    ("memsys EInject denial", `Quick, test_memsys_denial);
    ("memsys atomic", `Quick, test_memsys_amo);
    ("memsys byte mask", `Quick, test_memsys_byte_mask);
    ("memsys invalidations", `Quick, test_memsys_invalidation_counted);
    ("memsys per-block serialisation", `Quick, test_memsys_same_block_serialises);
    ("sb PC fifo", `Quick, test_sb_pc_fifo);
    ("sb WC concurrency", `Quick, test_sb_wc_concurrent);
    ("sb WC coalescing", `Quick, test_sb_wc_coalesce);
    ("sb same-word order", `Quick, test_sb_same_word_order);
    ("sb fault keeps entry", `Quick, test_sb_fault_keeps_entry);
    ("sb capacity", `Quick, test_sb_capacity);
    ("machine plain run", `Quick, test_machine_plain_run);
    ("machine store forwarding", `Quick, test_machine_forwarding);
    ("machine dependent store data", `Quick, test_machine_store_reg_data);
    ("machine amo", `Quick, test_machine_amo);
    ("machine imprecise flow", `Quick, test_machine_imprecise_flow);
    ("machine precise load flow", `Quick, test_machine_precise_load_flow);
    ("machine SC store is precise", `Quick, test_machine_sc_store_precise);
    ("machine replay after exception", `Quick, test_machine_replay_after_exception);
    ("machine terminate", `Quick, test_machine_terminate);
    ("machine multicore communication", `Quick, test_machine_multicore_communication);
    qtest prop_single_core_sequential_memory;
    qtest prop_single_core_transparent_faults;
    ("midgard vma membership", `Quick, test_midgard_vma_membership);
    ("midgard mapping", `Quick, test_midgard_mapping);
    ("midgard interceptor denies", `Quick, test_midgard_interceptor_denies);
    ("midgard imprecise store flow", `Quick, test_midgard_imprecise_store_flow);
    ("interrupt pauses core", `Quick, test_interrupt_pauses_core);
    ("interrupt deferred during handler", `Quick, test_interrupt_deferred_during_handler);
    ("interrupt defers exception episode", `Quick, test_interrupt_defers_exception_episode);
    qtest prop_multicore_disjoint_transparency;
    ("golden simulated counters", `Quick, test_golden_counters);
    ("issue-scan index consistency", `Quick, test_index_consistency);
    ("sleeping cores match stepping every core", `Quick,
     test_sleeping_matches_stepping);
  ]
