type env = {
  trace : Ise_core.Contract.event -> unit;
  on_imprecise : int -> unit;
  on_precise :
    core:int -> addr:int -> code:Ise_core.Fault.code -> retry:(unit -> unit)
    -> unit;
}

type stats = {
  mutable retired : int;
  mutable loads : int;
  mutable stores : int;
  mutable fences : int;
  mutable imprecise_exceptions : int;
  mutable faulting_stores : int;
  mutable precise_exceptions : int;
  mutable drain_uarch_cycles : int;
  mutable sb_full_stalls : int;
  mutable rob_full_stalls : int;
  mutable fsb_overflow_stalls : int;
  mutable fsb_overflow_drops : int;
}

let fresh_stats () =
  { retired = 0; loads = 0; stores = 0; fences = 0; imprecise_exceptions = 0;
    faulting_stores = 0; precise_exceptions = 0; drain_uarch_cycles = 0;
    sb_full_stalls = 0; rob_full_stalls = 0; fsb_overflow_stalls = 0;
    fsb_overflow_drops = 0 }

(* Chaos plane hooks (see {!Ise_chaos}): consulted by the FSBC on each
   append.  [None] — the default — costs one option match. *)
type chaos_hooks = {
  ch_put_delay : unit -> int;
  ch_backpressure : unit -> bool;
}

type rstatus = Waiting | Executing | Done

type rob_entry = {
  r_seq : int;  (* == ROB position, monotonic *)
  instr : Sim_instr.t;
  mutable r_status : rstatus;
  mutable r_value : int;
  mutable r_addr : int;  (* resolved effective address; -1 unknown *)
  mutable r_data : int;
  mutable ready_at : int;  (* Nop completion cycle *)
  mutable prefetched : bool;  (* SC: exclusive prefetch sent *)
  (* renamed source operands: producer ROB seq, or -1 = committed
     register file.  Captured at dispatch so dependencies always point
     backwards even when architectural registers are reused. *)
  a_dep : int;  (* address dependency *)
  d_dep : int;  (* data dependency *)
  c_dep : int;  (* control (branch) dependency *)
}

type phase =
  | Running
  | Paused  (* an interrupt handler is executing (IE set) *)
  | Waiting_drains
  | Draining_fsb
  | In_handler
  | Terminated

(* Telemetry handles, resolved once at attach time so hot paths touch
   plain mutable cells instead of the registry's hash table.  [None]
   (the default) costs one option match per site and no allocation. *)
type tel = {
  t_sink : Ise_telemetry.Sink.t;
  t_drained : Ise_telemetry.Registry.counter;
  t_drain_faults : Ise_telemetry.Registry.counter;
  t_episodes : Ise_telemetry.Registry.counter;
  t_flushes : Ise_telemetry.Registry.counter;
}

let nregs = 64

type t = {
  cfg : Config.t;
  engine : Engine.t;
  mem : Memsys.t;
  env : env;
  core_id : int;
  stream : Sim_instr.stream;
  mutable stream_done : bool;
  mutable replay : Sim_instr.t list;
  regs : int array;
  producers : int array;
  rob : rob_entry option array;
      (* indexed by [slot]: the length is a power of two at least
         [cfg.rob_entries]; capacity checks use the configured size *)
  rob_mask : int;
  mutable rob_head : int;
  mutable rob_tail : int;
  (* Not-done chain: every ROB entry that is not inert, in ROB order,
     as a doubly linked list over slots (-1 ends it).  An entry is
     inert once it is [Done] — unless it is a store whose address is
     unresolved ([r_addr < 0]), which still blocks younger loads.  The
     issue scan walks this chain instead of the whole ROB: an inert
     entry can neither progress nor change the ordering context. *)
  ch_next : int array;
  ch_prev : int array;
  mutable ch_first : int;
  mutable ch_last : int;
  (* Store ring: the seqs of the in-ROB [St]/[Amo] entries, oldest
     first, for store-to-load forwarding. *)
  st_ring : int array;
  mutable st_head : int;
  mutable st_count : int;
  (* Per-cycle set of words with an incomplete older load/AMO (WC
     po-loc): open addressing, emptied by bumping the generation. *)
  ws_keys : int array;
  ws_stamp : int array;
  mutable ws_gen : int;
  sb : Sb.t;
  fsb_ : Ise_core.Fsb.t;
  mutable phase : phase;
  stats : stats;
  mutable progress : bool;
  (* Sleep: a step without progress leaves the core frozen until an
     event or an exported mutator changes it, so the run loop skips it
     until then.  [slept] counts the skipped visits not yet credited;
     [idle_sb_stalls]/[idle_rob_stalls] are what the step that put the
     core to sleep added to the stall counters, and so what each of
     those visits would have added. *)
  mutable asleep : bool;
  mutable slept : int;
  mutable idle_sb_stalls : int;
  mutable idle_rob_stalls : int;
  mutable tel : tel option;
  mutable chaos : chaos_hooks option;
  mutable handler_invoked : bool;
      (* the OS hook has been called for the current episode (possibly
         early, under FSB-overflow stall backpressure) *)
  mutable overflow_replay : Ise_core.Fault.record list;
      (* records withheld from a full FSB under [Fsb_degrade]; they
         re-execute as ordinary stores after the handler resumes *)
  degraded_words : (int, unit) Hashtbl.t;
      (* word addresses with a withheld record this episode: later
         same-word records must degrade too, else the handler's S_OS
         apply of a newer write would be overwritten by the replayed
         older one (per-location order) *)
}

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create cfg engine mem env ~id ~program =
  let rob_len = pow2_at_least cfg.Config.rob_entries in
  let ws_len = pow2_at_least (2 * cfg.Config.rob_entries) in
  {
    cfg;
    engine;
    mem;
    env;
    core_id = id;
    stream = program;
    stream_done = false;
    replay = [];
    regs = Array.make nregs 0;
    producers = Array.make nregs (-1);
    rob = Array.make rob_len None;
    rob_mask = rob_len - 1;
    rob_head = 0;
    rob_tail = 0;
    ch_next = Array.make rob_len (-1);
    ch_prev = Array.make rob_len (-1);
    ch_first = -1;
    ch_last = -1;
    st_ring = Array.make rob_len 0;
    st_head = 0;
    st_count = 0;
    ws_keys = Array.make ws_len 0;
    ws_stamp = Array.make ws_len 0;
    ws_gen = 0;
    sb = Sb.create ~capacity:cfg.Config.sb_entries ~mode:cfg.Config.consistency;
    fsb_ =
      Ise_core.Fsb.create ~entries:cfg.Config.fsb_entries
        ~base:(0x7000_0000 + (id * 4096)) ();
    phase = Running;
    stats = fresh_stats ();
    progress = false;
    asleep = false;
    slept = 0;
    idle_sb_stalls = 0;
    idle_rob_stalls = 0;
    tel = None;
    chaos = None;
    handler_invoked = false;
    overflow_replay = [];
    degraded_words = Hashtbl.create 8;
  }

let id t = t.core_id
let fsb t = t.fsb_

(* ------------------------------------------------------------------ *)
(* Sleep and wake                                                      *)

let settle t =
  if t.slept > 0 then begin
    t.stats.sb_full_stalls <-
      t.stats.sb_full_stalls + (t.slept * t.idle_sb_stalls);
    t.stats.rob_full_stalls <-
      t.stats.rob_full_stalls + (t.slept * t.idle_rob_stalls);
    t.slept <- 0
  end

let wake t =
  if t.asleep then begin
    settle t;
    t.asleep <- false
  end

(* The only ways anything reaches the core from outside its own step:
   each closure wakes the core it belongs to, whichever context (this
   core's step, another core's memory completion, the OS) runs it. *)
let schedule t delay f =
  Engine.schedule_in t.engine delay (fun () ->
      wake t;
      f ())

let request t ~addr kind k =
  Memsys.request t.mem ~core:t.core_id ~addr kind (fun result ->
      wake t;
      k result)

let stats t =
  settle t;
  t.stats

let set_chaos t c =
  wake t;
  t.chaos <- c

let in_exception_drain t =
  match t.phase with
  | Waiting_drains | Draining_fsb -> true
  | Running | Paused | In_handler | Terminated -> false

let phase_name t =
  match t.phase with
  | Running -> "running"
  | Paused -> "paused"
  | Waiting_drains -> "waiting-drains"
  | Draining_fsb -> "draining-fsb"
  | In_handler -> "in-handler"
  | Terminated -> "terminated"
let reg t r = t.regs.(r)
let sb_occupancy t = Sb.length t.sb
let sb_occupancy_watermark t = Sb.occupancy_watermark t.sb
let sb_inflight_watermark t = Sb.inflight_watermark t.sb

let set_telemetry t sink =
  let registry = Ise_telemetry.Sink.registry sink in
  let name s = Printf.sprintf "core%d/%s" t.core_id s in
  t.tel <-
    Some
      { t_sink = sink;
        t_drained = Ise_telemetry.Registry.counter registry (name "sb/drained");
        t_drain_faults =
          Ise_telemetry.Registry.counter registry (name "sb/drain_faults");
        t_episodes =
          Ise_telemetry.Registry.counter registry (name "ise/episodes");
        t_flushes =
          Ise_telemetry.Registry.counter registry (name "rob/flushes") }

let rob_count t = t.rob_tail - t.rob_head
let rob_occupancy = rob_count

let slot t seq = seq land t.rob_mask

let get_entry t seq =
  if seq < t.rob_head || seq >= t.rob_tail then None
  else t.rob.(slot t seq)

let entry_live t (e : rob_entry) =
  match get_entry t e.r_seq with Some e' -> e' == e | None -> false

(* ------------------------------------------------------------------ *)
(* ROB indexes: not-done chain and store ring                          *)

let chain_append t s =
  t.ch_prev.(s) <- t.ch_last;
  t.ch_next.(s) <- -1;
  if t.ch_last < 0 then t.ch_first <- s else t.ch_next.(t.ch_last) <- s;
  t.ch_last <- s

(* The unlinked slot keeps its own links, so a scan standing on it can
   still step to its successor. *)
let chain_unlink t s =
  let p = t.ch_prev.(s) and n = t.ch_next.(s) in
  if p < 0 then t.ch_first <- n else t.ch_next.(p) <- n;
  if n < 0 then t.ch_last <- p else t.ch_prev.(n) <- p

(* A store with an unresolved address still blocks younger loads. *)
let inert (e : rob_entry) =
  e.r_status = Done
  && match e.instr with Sim_instr.St _ -> e.r_addr >= 0 | _ -> true

(* The only way an entry becomes [Done]; it is never called twice for
   one entry, since each completes from [Waiting] or [Executing] once. *)
let set_done t e =
  e.r_status <- Done;
  if inert e then chain_unlink t (slot t e.r_seq)

let clear_indexes t =
  t.ch_first <- -1;
  t.ch_last <- -1;
  t.st_count <- 0

let is_store_like (e : rob_entry) =
  match e.instr with Sim_instr.St _ | Sim_instr.Amo _ -> true | _ -> false

let check_indexes t =
  let live =
    List.filter_map (get_entry t)
      (List.init (t.rob_tail - t.rob_head) (fun i -> t.rob_head + i))
  in
  let seqs p = List.map (fun e -> e.r_seq) (List.filter p live) in
  let rec walk s prev acc n =
    if s < 0 then
      if prev = t.ch_last then Ok (List.rev acc)
      else Error "not-done chain: last does not end the chain"
    else if n > Array.length t.rob then Error "not-done chain: cycle"
    else if t.ch_prev.(s) <> prev then
      Error (Printf.sprintf "not-done chain: slot %d has a stale back link" s)
    else
      match t.rob.(s) with
      | None -> Error (Printf.sprintf "not-done chain: slot %d is empty" s)
      | Some e -> walk t.ch_next.(s) s (e.r_seq :: acc) (n + 1)
  in
  let ring =
    List.init t.st_count (fun i -> t.st_ring.((t.st_head + i) land t.rob_mask))
  in
  let show l = String.concat "," (List.map string_of_int l) in
  match walk t.ch_first (-1) [] 0 with
  | Error _ as err -> err
  | Ok chain ->
    let want_chain = seqs (fun e -> not (inert e)) in
    let want_ring = seqs is_store_like in
    if chain <> want_chain then
      Error
        (Printf.sprintf "not-done chain [%s], non-inert entries [%s]"
           (show chain) (show want_chain))
    else if ring <> want_ring then
      Error
        (Printf.sprintf "store ring [%s], in-ROB stores [%s]" (show ring)
           (show want_ring))
    else Ok ()

(* Incomplete-word set: a word is present when its stamp equals the
   current generation; at most [rob_entries] words are added per
   generation, so the table is never more than half full. *)
let ws_hash t w =
  let h = w * 0x9E3779B1 in
  (h lxor (h lsr 17)) land (Array.length t.ws_keys - 1)

let ws_add t w =
  let mask = Array.length t.ws_keys - 1 in
  let rec probe i =
    if t.ws_stamp.(i) <> t.ws_gen then begin
      t.ws_stamp.(i) <- t.ws_gen;
      t.ws_keys.(i) <- w
    end
    else if t.ws_keys.(i) <> w then probe ((i + 1) land mask)
  in
  probe (ws_hash t w)

let ws_mem t w =
  let mask = Array.length t.ws_keys - 1 in
  let rec probe i =
    t.ws_stamp.(i) = t.ws_gen
    && (t.ws_keys.(i) = w || probe ((i + 1) land mask))
  in
  probe (ws_hash t w)

(* ------------------------------------------------------------------ *)
(* Register dataflow (renamed at dispatch)                             *)

(* A producer seq is ready when it has completed or already retired
   (its value is then in the committed register file). *)
let dep_ready t seq =
  seq < 0
  ||
  match get_entry t seq with
  | Some e -> e.r_status = Done
  | None -> true

let dep_value t seq ~reg_fallback =
  if seq < 0 then t.regs.(reg_fallback)
  else
    match get_entry t seq with
    | Some e -> e.r_value
    | None -> t.regs.(reg_fallback)

let addr_ready t (e : rob_entry) (a : Sim_instr.addr_expr) =
  if dep_ready t e.a_dep then Some a.base else None

let data_ready t (e : rob_entry) = function
  | Sim_instr.Imm v -> Some v
  | Sim_instr.From_reg r ->
    if dep_ready t e.d_dep then Some (dep_value t e.d_dep ~reg_fallback:r)
    else None

(* ------------------------------------------------------------------ *)
(* Retirement                                                          *)

let word addr = addr lsr 3

let commit t e =
  (match e.instr with
   | Sim_instr.Ld { dst; _ } | Sim_instr.Amo { dst; _ } ->
     t.regs.(dst) <- e.r_value;
     if t.producers.(dst) = e.r_seq then t.producers.(dst) <- -1
   | _ -> ());
  (match e.instr with
   | Sim_instr.Ld _ -> t.stats.loads <- t.stats.loads + 1
   | Sim_instr.St _ -> t.stats.stores <- t.stats.stores + 1
   | Sim_instr.Fence -> t.stats.fences <- t.stats.fences + 1
   | _ -> ());
  let s = slot t e.r_seq in
  (* only a Done store with an unresolved address is still chained,
     and as the oldest entry it heads the chain *)
  if t.ch_first = s then chain_unlink t s;
  if t.st_count > 0 && t.st_ring.(t.st_head) = e.r_seq then begin
    t.st_head <- (t.st_head + 1) land t.rob_mask;
    t.st_count <- t.st_count - 1
  end;
  t.rob.(s) <- None;
  t.rob_head <- t.rob_head + 1;
  t.stats.retired <- t.stats.retired + 1;
  t.progress <- true

let retire t =
  let sc = t.cfg.Config.consistency = Ise_model.Axiom.Sc in
  let rec loop n =
    if n >= t.cfg.Config.retire_width then ()
    else
      match get_entry t t.rob_head with
      | None -> ()
      | Some e -> (
        match e.instr with
        | Sim_instr.Fence ->
          if Sb.is_empty t.sb && Sb.inflight t.sb = 0 then begin
            set_done t e;
            commit t e;
            loop (n + 1)
          end
        | Sim_instr.St _ when not sc ->
          if e.r_status = Done then begin
            if Sb.push t.sb ~seq:e.r_seq ~addr:e.r_addr ~data:e.r_data
                 ~mask:0xFF
            then begin
              commit t e;
              loop (n + 1)
            end
            else t.stats.sb_full_stalls <- t.stats.sb_full_stalls + 1
          end
        | _ ->
          if e.r_status = Done then begin
            commit t e;
            loop (n + 1)
          end)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Imprecise exception flow (§5.3)                                     *)

let record_of_sb_entry t (e : Sb.entry) =
  let code =
    match e.Sb.status with Sb.Faulted c -> c | _ -> Ise_core.Fault.No_exception
  in
  { Ise_core.Fault.core = t.core_id; seq = e.Sb.seq; addr = e.Sb.e_addr;
    data = e.Sb.e_data; byte_mask = e.Sb.e_mask; code }

(* Flush the pipeline: unretired instructions go back to the replay
   queue (they re-execute after the handler), renames are reset. *)
let flush_pipeline t =
  (match t.tel with
   | None -> ()
   | Some tel -> Ise_telemetry.Registry.incr tel.t_flushes);
  let replayed = ref [] in
  for seq = t.rob_tail - 1 downto t.rob_head do
    match t.rob.(slot t seq) with
    | Some e ->
      replayed := e.instr :: !replayed;
      t.rob.(slot t seq) <- None
    | None -> ()
  done;
  t.replay <- !replayed @ t.replay;
  t.rob_head <- t.rob_tail;
  clear_indexes t;
  Array.fill t.producers 0 nregs (-1)

let flush_and_invoke_handler t ~drain_cycles =
  (match t.tel with
   | None -> ()
   | Some tel ->
     let tr = Ise_telemetry.Sink.trace tel.t_sink in
     let now = Engine.now t.engine in
     Ise_telemetry.Trace.span_end tr ~cat:"ise" ~name:"fsb_drain"
       ~tid:t.core_id now;
     Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"pipeline_flush"
       ~tid:t.core_id now);
  flush_pipeline t;
  t.stats.drain_uarch_cycles <-
    t.stats.drain_uarch_cycles + drain_cycles + t.cfg.Config.pipeline_flush_cost;
  t.phase <- In_handler;
  if not t.handler_invoked then begin
    t.handler_invoked <- true;
    schedule t t.cfg.Config.pipeline_flush_cost (fun () ->
        if t.phase <> Terminated then t.env.on_imprecise t.core_id)
  end

(* Under [Fsb_stall] a full FSB invokes the handler before the drain
   completes: its GETs free ring entries so the stalled FSBC can make
   progress.  The handler polls until the drain finishes. *)
let invoke_handler_early t =
  if not t.handler_invoked then begin
    t.handler_invoked <- true;
    schedule t 1 (fun () ->
        if t.phase <> Terminated then t.env.on_imprecise t.core_id)
  end

(* A store dropped-to-precise re-executes after resume as an ordinary
   store with the record's payload. *)
let sim_instr_of_record (r : Ise_core.Fault.record) =
  Sim_instr.St
    { addr = Sim_instr.addr r.Ise_core.Fault.addr;
      data = Sim_instr.Imm r.Ise_core.Fault.data }

let start_fsb_drain t =
  t.phase <- Draining_fsb;
  (match t.tel with
   | None -> ()
   | Some tel ->
     Ise_telemetry.Trace.span_begin
       (Ise_telemetry.Sink.trace tel.t_sink)
       ~cat:"ise" ~name:"fsb_drain" ~tid:t.core_id (Engine.now t.engine));
  let entries = Sb.take_all t.sb in
  let tagged =
    List.map
      (fun (e : Sb.entry) ->
        let faulting =
          match e.Sb.status with Sb.Faulted _ -> true | _ -> false
        in
        { Ise_core.Protocol.payload = e; faulting })
      entries
  in
  let routing = Ise_core.Protocol.route t.cfg.Config.protocol_mode tagged in
  let drain_cost = t.cfg.Config.fsbc_drain_cost in
  let remaining =
    ref
      (List.length routing.Ise_core.Protocol.to_fsb
       + List.length routing.Ise_core.Protocol.to_memory)
  in
  let drain_cycles = ref 0 in
  let finish_if_ready () =
    if !remaining = 0 && t.phase = Draining_fsb then
      flush_and_invoke_handler t ~drain_cycles:!drain_cycles
  in
  let trace_put record =
    t.env.trace
      (Ise_core.Contract.Put
         { core = t.core_id; cycle = Engine.now t.engine; record });
    match t.tel with
    | None -> ()
    | Some tel ->
      Ise_telemetry.Trace.instant
        (Ise_telemetry.Sink.trace tel.t_sink)
        ~cat:"ise" ~name:"PUT" ~tid:t.core_id
        ~args:
          [ ("seq", Ise_telemetry.Json.Int record.Ise_core.Fault.seq);
            ("addr", Ise_telemetry.Json.Int record.Ise_core.Fault.addr) ]
        (Engine.now t.engine)
  in
  (* Append one record, honouring chaos backpressure and the configured
     overflow policy; [k] continues once the record is disposed of
     (appended, or withheld under [Fsb_degrade]). *)
  let put_record record k =
    let degrade () =
      t.stats.fsb_overflow_drops <- t.stats.fsb_overflow_drops + 1;
      Hashtbl.replace t.degraded_words (record.Ise_core.Fault.addr lsr 3) ();
      t.overflow_replay <- t.overflow_replay @ [ record ];
      remaining := !remaining - 1;
      finish_if_ready ();
      k ()
    in
    let rec attempt () =
      if t.phase = Terminated then ()
      else if
        Hashtbl.length t.degraded_words > 0
        && Hashtbl.mem t.degraded_words (record.Ise_core.Fault.addr lsr 3)
      then degrade ()
      else
        let forced =
          match t.chaos with Some c -> c.ch_backpressure () | None -> false
        in
        if (not forced) && Ise_core.Fsb.fsbc_append t.fsb_ record then begin
          trace_put record;
          drain_cycles := !drain_cycles + drain_cost;
          remaining := !remaining - 1;
          finish_if_ready ();
          k ()
        end
        else if forced then begin
          (* transient FSBC-port backpressure: the plane bounds it, so
             plain retry converges without anything being freed *)
          t.stats.fsb_overflow_stalls <- t.stats.fsb_overflow_stalls + 1;
          retry ()
        end
        else begin
          match t.cfg.Config.fsb_overflow with
          | Config.Fsb_fatal ->
            failwith "FSB overflow: sized below the store buffer"
          | Config.Fsb_stall ->
            (* genuine overflow: stall this append and invoke the
               handler early — its GETs free ring entries mid-drain *)
            t.stats.fsb_overflow_stalls <- t.stats.fsb_overflow_stalls + 1;
            invoke_handler_early t;
            retry ()
          | Config.Fsb_degrade -> degrade ()
        end
    and retry () =
      let backoff = max 1 (drain_cost * 4) in
      drain_cycles := !drain_cycles + backoff;
      schedule t backoff attempt
    in
    attempt ()
  in
  let chaos_put_delay () =
    match t.chaos with Some c -> c.ch_put_delay () | None -> 0
  in
  (* The FSBC writes the routed entries to the FSB as a sequential
     chain, one per drain slot: each append starts only when its
     predecessor has been disposed of, so per-record chaos delays and
     overflow stalls cannot reorder the PUT stream (interface rule 1) *)
  let rec append_chain = function
    | [] -> ()
    | (e : Sb.entry) :: rest ->
      schedule t (drain_cost + chaos_put_delay ()) (fun () ->
          if t.phase <> Terminated then
            put_record (record_of_sb_entry t e) (fun () -> append_chain rest))
  in
  append_chain routing.Ise_core.Protocol.to_fsb;
  (* Split stream: clean stores drain directly to memory, in FIFO
     order; any of them may fault in turn and joins the FSB late —
     the ordering hazard of §4.5. *)
  let rec drain_to_memory = function
    | [] -> ()
    | (e : Sb.entry) :: rest ->
      request t ~addr:e.Sb.e_addr
        (Memsys.Write { data = e.Sb.e_data; mask = e.Sb.e_mask })
        (fun result ->
          if t.phase = Terminated then ()
          else
            match result with
            | Memsys.Value _ ->
              remaining := !remaining - 1;
              finish_if_ready ();
              drain_to_memory rest
            | Memsys.Denied code ->
              t.stats.faulting_stores <- t.stats.faulting_stores + 1;
              let record =
                { (record_of_sb_entry t e) with Ise_core.Fault.code }
              in
              put_record record (fun () -> drain_to_memory rest))
  in
  if !remaining = 0 then
    schedule t 1 finish_if_ready
  else drain_to_memory routing.Ise_core.Protocol.to_memory

let begin_exception_episode t =
  t.phase <- Waiting_drains;
  t.stats.imprecise_exceptions <- t.stats.imprecise_exceptions + 1;
  (match t.tel with
   | None -> ()
   | Some tel ->
     Ise_telemetry.Registry.incr tel.t_episodes;
     let tr = Ise_telemetry.Sink.trace tel.t_sink in
     let now = Engine.now t.engine in
     Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"DETECT" ~tid:t.core_id
       now;
     Ise_telemetry.Trace.span_begin tr ~cat:"ise" ~name:"episode"
       ~tid:t.core_id now);
  t.env.trace
    (Ise_core.Contract.Detect { core = t.core_id; cycle = Engine.now t.engine })

(* Leaving a paused state (interrupt handler return, precise-fault
   retry): an imprecise exception detected meanwhile starts now. *)
let unpause t =
  if t.phase = Paused then
    if Sb.has_fault t.sb then begin_exception_episode t
    else t.phase <- Running

let on_drain_response t (entry : Sb.entry) result =
  match result with
  | Memsys.Value _ ->
    (match t.tel with
     | None -> ()
     | Some tel ->
       Ise_telemetry.Registry.incr tel.t_drained;
       Ise_telemetry.Trace.instant
         (Ise_telemetry.Sink.trace tel.t_sink)
         ~cat:"sb" ~name:"store_drain" ~tid:t.core_id
         ~args:[ ("addr", Ise_telemetry.Json.Int entry.Sb.e_addr) ]
         (Engine.now t.engine));
    Sb.complete t.sb entry
  | Memsys.Denied code ->
    (match t.tel with
     | None -> ()
     | Some tel ->
       Ise_telemetry.Registry.incr tel.t_drain_faults;
       Ise_telemetry.Trace.instant
         (Ise_telemetry.Sink.trace tel.t_sink)
         ~cat:"sb" ~name:"store_fault" ~tid:t.core_id
         ~args:[ ("addr", Ise_telemetry.Json.Int entry.Sb.e_addr) ]
         (Engine.now t.engine));
    Sb.mark_faulted t.sb entry code;
    t.stats.faulting_stores <- t.stats.faulting_stores + 1;
    (* while an interrupt handler executes (IE set), the detection is
       deferred: the episode starts when the handler returns (§5.3) *)
    if t.phase = Running then begin_exception_episode t

let drain_sb t =
  let picks = Sb.drainable t.sb ~max_inflight:t.cfg.Config.sb_max_inflight in
  List.iter
    (fun (entry : Sb.entry) ->
      Sb.mark_inflight t.sb entry;
      t.progress <- true;
      request t ~addr:entry.Sb.e_addr
        (Memsys.Write { data = entry.Sb.e_data; mask = entry.Sb.e_mask })
        (fun result -> on_drain_response t entry result))
    picks

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)

(* A precise exception flushes the pipeline (the faulting instruction
   and everything younger re-execute from the replay queue) and stalls
   the core for the handler's duration.  If an imprecise store
   exception was detected meanwhile, it takes priority at unpause
   (§5.3). *)
let take_precise_fault t ~addr ~code =
  t.stats.precise_exceptions <- t.stats.precise_exceptions + 1;
  flush_pipeline t;
  if t.phase = Running then t.phase <- Paused;
  t.env.on_precise ~core:t.core_id ~addr ~code ~retry:(fun () ->
      wake t;
      unpause t)

let forward_from_rob t (load : rob_entry) =
  (* nearest older store to the same word: forward if resolved; block
     if unresolved (conservative memory disambiguation).  The store
     ring holds every in-ROB store and AMO; walk it newest first. *)
  let rec scan i =
    if i < 0 then `Miss
    else
      let seq = t.st_ring.((t.st_head + i) land t.rob_mask) in
      if seq >= load.r_seq then scan (i - 1)
      else
        match t.rob.(slot t seq) with
        | Some e -> (
          match e.instr with
          | Sim_instr.St _ ->
            if e.r_addr < 0 then `Block  (* unresolved store address *)
            else if word e.r_addr = word load.r_addr then
              (* resolved same-word store: forward its data whether or
                 not the write has reached memory yet *)
              `Forward e.r_data
            else scan (i - 1)
          | Sim_instr.Amo _ when e.r_status <> Done -> `Block
          | _ ->
            (* a completed AMO's write is already in memory *)
            scan (i - 1))
        | None -> scan (i - 1)
  in
  scan (t.st_count - 1)

let issue_load t (e : rob_entry) =
  e.r_status <- Executing;
  t.progress <- true;
  match forward_from_rob t e with
  | `Forward v ->
    schedule t t.cfg.Config.l1_latency (fun () ->
        if entry_live t e then begin
          e.r_value <- v;
          set_done t e
        end)
  | `Block -> e.r_status <- Waiting  (* retry next cycle *)
  | `Miss -> (
    match Sb.forward t.sb ~addr:e.r_addr with
    | Some v ->
      schedule t t.cfg.Config.l1_latency (fun () ->
          if entry_live t e then begin
            e.r_value <- v;
            set_done t e
          end)
    | None ->
      request t ~addr:e.r_addr Memsys.Read (fun result ->
          if entry_live t e then
            match result with
            | Memsys.Value v ->
              e.r_value <- v;
              set_done t e
            | Memsys.Denied code -> take_precise_fault t ~addr:e.r_addr ~code))

let issue_amo t (e : rob_entry) op =
  e.r_status <- Executing;
  t.progress <- true;
  request t ~addr:e.r_addr (Memsys.Atomic op) (fun result ->
      if entry_live t e then
        match result with
        | Memsys.Value old ->
          e.r_value <- old;
          set_done t e
        | Memsys.Denied code -> take_precise_fault t ~addr:e.r_addr ~code)

let issue_sc_store t (e : rob_entry) =
  e.r_status <- Executing;
  t.progress <- true;
  request t ~addr:e.r_addr (Memsys.Write { data = e.r_data; mask = 0xFF })
    (fun result ->
      if entry_live t e then
        match result with
        | Memsys.Value _ -> set_done t e
        | Memsys.Denied code ->
          (* without a store buffer the fault is precise (§2.3) *)
          take_precise_fault t ~addr:e.r_addr ~code)

let issue t =
  let sc = t.cfg.Config.consistency = Ise_model.Axiom.Sc in
  let pc = t.cfg.Config.consistency = Ise_model.Axiom.Pc in
  let now = Engine.now t.engine in
  let all_older_done = ref true in
  let older_loadlike_done = ref true in
  let older_unresolved_store = ref false in
  let older_store_unissued = ref false in
  let fence_pending = ref false in
  (* same-word tracking for WC po-loc: words of incomplete accesses *)
  t.ws_gen <- t.ws_gen + 1;
  let blocked = ref false in
  let s = ref t.ch_first in
  while (not !blocked) && !s >= 0 do
    (match t.rob.(!s) with
     | None -> ()
     | Some e ->
       let is_head = e.r_seq = t.rob_head in
       (* try to make progress on this entry *)
       (match (e.instr, e.r_status) with
        | Sim_instr.Nop _, Waiting ->
          if now >= e.ready_at then begin
            set_done t e;
            t.progress <- true
          end
        | Sim_instr.Ctrl _, Waiting ->
          if dep_ready t e.c_dep then begin
            set_done t e;
            t.progress <- true
          end
        | Sim_instr.St { addr; data }, Waiting -> (
          match (addr_ready t e addr, data_ready t e data) with
          | Some a, Some d ->
            e.r_addr <- a;
            e.r_data <- d;
            if sc then begin
              (* SC without a store buffer: an exclusive prefetch warms
                 the block as soon as the address resolves, and the
                 write itself performs at the ROB head, so every store
                 pays a short commit-time latency (§2.3) *)
              if (not e.prefetched)
                 && e.r_seq - t.rob_head < t.cfg.Config.sc_store_issue_window
              then begin
                e.prefetched <- true;
                request t ~addr:a Memsys.Prefetch_exclusive ignore
              end;
              if is_head && (not !fence_pending) && not !older_store_unissued
              then issue_sc_store t e
            end
            else begin
              set_done t e;
              t.progress <- true
            end
          | _ -> ())
        | Sim_instr.St _, Done when sc && is_head ->
          ()  (* impossible: SC stores are Done only after completion *)
        | Sim_instr.Ld { addr; _ }, Waiting -> (
          match addr_ready t e addr with
          | Some a ->
            e.r_addr <- a;
            let word_blocked = ws_mem t (word a) in
            let eligible =
              (not !fence_pending)
              && (not word_blocked)
              && (if sc then
                    if t.cfg.Config.sc_speculative_loads then
                      not !older_unresolved_store
                    else !all_older_done
                  else if pc then
                    !older_loadlike_done && not !older_unresolved_store
                  else not !older_unresolved_store)
            in
            if eligible then issue_load t e
          | None -> ())
        | Sim_instr.Amo { addr; op; _ }, Waiting -> (
          match addr_ready t e addr with
          | Some a ->
            e.r_addr <- a;
            if is_head && Sb.is_empty t.sb && Sb.inflight t.sb = 0 then
              issue_amo t e op
          | None -> ())
        | _ -> ());
       (* update ordering context from this entry's (possibly new) state *)
       (match e.instr with
        | Sim_instr.Ctrl _ when e.r_status <> Done ->
          (* no branch speculation: nothing younger issues *)
          blocked := true
        | Sim_instr.Fence when e.r_status <> Done -> fence_pending := true
        | Sim_instr.St _ ->
          (* unresolved store addresses block younger loads (no memory
             disambiguation speculation); resolved stores are handled
             by ROB/SB forwarding *)
          if e.r_addr < 0 then older_unresolved_store := true;
          if e.r_status = Waiting then older_store_unissued := true
        | Sim_instr.Ld _ | Sim_instr.Amo _ ->
          if e.r_status <> Done then begin
            older_loadlike_done := false;
            (* same-word load-load order (CoRR); an address-dependent
               older load with an unknown address cannot block younger
               loads by word, which is acceptable because dependent
               loads are ordered by their dependency anyway *)
            if e.r_addr >= 0 then ws_add t (word e.r_addr)
          end
        | _ -> ());
       if e.r_status <> Done then all_older_done := false);
    (* read after processing: the entry may have unlinked itself *)
    s := t.ch_next.(!s)
  done

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let next_instr t =
  match t.replay with
  | i :: rest ->
    t.replay <- rest;
    Some i
  | [] ->
    if t.stream_done then None
    else (
      match t.stream () with
      | Some i -> Some i
      | None ->
        t.stream_done <- true;
        None)

let dispatch t =
  let dispatched = ref 0 in
  let stop = ref false in
  while (not !stop) && !dispatched < t.cfg.Config.dispatch_width do
    if rob_count t >= t.cfg.Config.rob_entries then begin
      t.stats.rob_full_stalls <- t.stats.rob_full_stalls + 1;
      stop := true
    end
    else
      match next_instr t with
      | None -> stop := true
      | Some instr ->
        let producer r = t.producers.(r) in
        let a_dep, d_dep, c_dep =
          match instr with
          | Sim_instr.Ld { addr; _ } | Sim_instr.Amo { addr; _ } ->
            ((match addr.Sim_instr.dep with Some r -> producer r | None -> -1),
             -1, -1)
          | Sim_instr.St { addr; data } ->
            ((match addr.Sim_instr.dep with Some r -> producer r | None -> -1),
             (match data with
              | Sim_instr.From_reg r -> producer r
              | Sim_instr.Imm _ -> -1),
             -1)
          | Sim_instr.Ctrl r -> (-1, -1, producer r)
          | Sim_instr.Fence | Sim_instr.Nop _ -> (-1, -1, -1)
        in
        let e =
          { r_seq = t.rob_tail; instr; r_status = Waiting; r_value = 0;
            r_addr = -1; r_data = 0; ready_at = 0; prefetched = false;
            a_dep; d_dep; c_dep }
        in
        (match instr with
         | Sim_instr.Nop n ->
           e.ready_at <- Engine.now t.engine + max 1 n;
           (* wake the core when the nop completes *)
           schedule t (max 1 n) ignore
         | Sim_instr.Ld { dst; _ } | Sim_instr.Amo { dst; _ } ->
           t.producers.(dst) <- e.r_seq
         | _ -> ());
        let s = slot t e.r_seq in
        t.rob.(s) <- Some e;
        chain_append t s;
        if is_store_like e then begin
          t.st_ring.((t.st_head + t.st_count) land t.rob_mask) <- e.r_seq;
          t.st_count <- t.st_count + 1
        end;
        t.rob_tail <- t.rob_tail + 1;
        incr dispatched;
        t.progress <- true
  done

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let step t =
  wake t;
  let sb_stalls = t.stats.sb_full_stalls
  and rob_stalls = t.stats.rob_full_stalls in
  t.progress <- false;
  (match t.phase with
   | Running ->
     retire t;
     issue t;
     drain_sb t;
     dispatch t
   | Paused ->
     (* the interrupt handler runs; retired stores keep draining in
        the background — no store-buffer drain is required to take an
        interrupt (§5.3) *)
     drain_sb t
   | Waiting_drains ->
     if Sb.inflight t.sb = 0 then begin
       start_fsb_drain t;
       t.progress <- true
     end
   | Draining_fsb | In_handler | Terminated -> ());
  if not t.progress then begin
    t.asleep <- true;
    t.idle_sb_stalls <- t.stats.sb_full_stalls - sb_stalls;
    t.idle_rob_stalls <- t.stats.rob_full_stalls - rob_stalls
  end;
  t.progress

let visit t =
  if t.asleep then begin
    t.slept <- t.slept + 1;
    false
  end
  else step t

let is_done t =
  match t.phase with
  | Terminated -> true
  | Running ->
    t.stream_done && t.replay = [] && rob_count t = 0 && Sb.is_empty t.sb
    && Sb.inflight t.sb = 0
  | _ -> false

(* Interrupt delivery: only a Running core accepts an interrupt (the
   IE bit is set during exception handling and while another handler
   runs).  Returns whether the interrupt was taken. *)
let interrupt t ~handler_cycles =
  wake t;
  match t.phase with
  | Running ->
    t.phase <- Paused;
    schedule t (max 1 handler_cycles) (fun () ->
        (* exceptions detected while the interrupt handler ran are
           taken now, in order, before user execution resumes *)
        unpause t);
    true
  | Paused | Waiting_drains | Draining_fsb | In_handler | Terminated -> false

let is_terminated t = t.phase = Terminated

let in_episode t =
  match t.phase with
  | Waiting_drains | Draining_fsb | In_handler -> true
  | Running | Paused | Terminated -> false

let terminate t =
  wake t;
  (match t.tel with
   | None -> ()
   | Some tel when in_episode t ->
     let tr = Ise_telemetry.Sink.trace tel.t_sink in
     let now = Engine.now t.engine in
     Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"TERMINATE"
       ~tid:t.core_id now;
     Ise_telemetry.Trace.span_end tr ~cat:"ise" ~name:"episode" ~tid:t.core_id
       now
   | Some _ -> ());
  t.env.trace
    (Ise_core.Contract.Terminate
       { core = t.core_id; cycle = Engine.now t.engine });
  t.phase <- Terminated;
  t.handler_invoked <- false;
  t.overflow_replay <- [];
  Hashtbl.reset t.degraded_words;
  t.replay <- [];
  t.stream_done <- true;
  ignore (Sb.take_all t.sb);
  for seqn = t.rob_head to t.rob_tail - 1 do
    t.rob.(slot t seqn) <- None
  done;
  t.rob_head <- t.rob_tail;
  clear_indexes t

let resume t =
  wake t;
  if t.phase <> Terminated then begin
    (match t.tel with
     | None -> ()
     | Some tel when in_episode t ->
       let tr = Ise_telemetry.Sink.trace tel.t_sink in
       let now = Engine.now t.engine in
       Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"RESUME" ~tid:t.core_id
         now;
       Ise_telemetry.Trace.span_end tr ~cat:"ise" ~name:"episode"
         ~tid:t.core_id now
     | Some _ -> ());
    t.env.trace
      (Ise_core.Contract.Resume
         { core = t.core_id; cycle = Engine.now t.engine });
    t.handler_invoked <- false;
    (* dropped-to-precise stores re-execute first: they are older than
       anything the pipeline flush put back in the replay queue *)
    (match t.overflow_replay with
     | [] -> ()
     | dropped ->
       t.replay <- List.map sim_instr_of_record dropped @ t.replay;
       t.overflow_replay <- [];
       Hashtbl.reset t.degraded_words);
    t.phase <- Running
  end
