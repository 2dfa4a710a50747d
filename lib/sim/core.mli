(** An out-of-order core: dispatch → issue → in-order retirement, with
    a store buffer, the FSB/FSBC extension, and the imprecise
    store-exception flow of §5.3.

    Consistency modes (Table 2's WC system, plus the SC and PC
    comparison points of §2.3/§3):
    - SC: stores issue to memory when oldest in the ROB and complete
      before retiring (no store buffer) — store faults are precise;
    - PC: retired stores drain FIFO, one outstanding at a time; loads
      issue in order among themselves (conservative TSO);
    - WC: retired stores drain concurrently and coalesce; loads issue
      when their dependencies resolve (same-address order kept).

    On an imprecise store exception the core stops dispatch, waits for
    outstanding drains, routes the store-buffer contents per the
    protocol mode (same-stream: everything to the FSB; split-stream:
    clean stores to memory), flushes the pipeline, and invokes the OS
    hook.  Unretired instructions replay after the handler resumes the
    core. *)

type env = {
  trace : Ise_core.Contract.event -> unit;
  on_imprecise : int -> unit;
      (** invoked (core id) once the FSB is populated and the pipeline
          is flushed; the handler must eventually call {!resume} *)
  on_precise :
    core:int -> addr:int -> code:Ise_core.Fault.code -> retry:(unit -> unit)
    -> unit;
      (** invoked for faults on loads/AMOs (and SC stores), which are
          precise; the handler resolves and calls [retry] *)
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
      (** FSBC drain + pipeline-flush cycles (Figure 5's µarch part) *)
  mutable sb_full_stalls : int;
  mutable rob_full_stalls : int;
      (** [sb_full_stalls] and [rob_full_stalls] count run-loop visits,
          not simulated stall cycles: each step that finds the store
          buffer (ROB) full adds one, and the run loop steps a stalled
          core once per iteration, so every extra iteration (a probe
          tick, an OS event) adds to them.  They therefore change with
          the telemetry probe period.  A core that sleeps through
          iterations (see {!visit}) is credited exactly what those
          steps would have added. *)
  mutable fsb_overflow_stalls : int;
      (** appends that found the FSB full (or chaos backpressure) and
          stalled under [Fsb_stall] *)
  mutable fsb_overflow_drops : int;
      (** records withheld from a full FSB under [Fsb_degrade] and
          re-executed as ordinary stores after resume *)
}

type t

val create :
  Config.t -> Engine.t -> Memsys.t -> env -> id:int ->
  program:Sim_instr.stream -> t

val id : t -> int
val step : t -> bool
(** One cycle; returns whether any pipeline activity happened.  A step
    without progress puts the core to sleep: its state is frozen until
    an engine event or memory completion the core scheduled, or one of
    the mutators below ({!resume}, {!terminate}, {!interrupt},
    {!set_chaos}, a precise fault's [retry]), wakes it. *)

val visit : t -> bool
(** One run-loop visit: {!step} an awake core; for a sleeping core,
    count the skipped step and return [false], which is what stepping
    it would have returned.  The skipped steps' stall counts are
    credited to {!stats} on wake, by {!settle}, and whenever {!stats}
    is read. *)

val settle : t -> unit
(** Credits the stall counts of the visits a sleeping core has skipped
    so far; the core stays asleep.  {!Machine.run} calls it at the end
    of a run. *)

val is_done : t -> bool
(** Program exhausted, pipeline and store buffer empty, no handler in
    flight. *)

val is_terminated : t -> bool
val terminate : t -> unit
(** Irrecoverable fault: discard all state and stop the core. *)

val resume : t -> unit
(** OS handler completion: restart dispatch (traces [Resume]). *)

val interrupt : t -> handler_cycles:int -> bool
(** Delivers an asynchronous interrupt: the core pauses for
    [handler_cycles] while retired stores keep draining in the
    background; an imprecise store exception detected meanwhile is
    deferred until the interrupt handler returns (the IE-bit
    serialisation of §5.3).  Returns [false] — the caller should queue
    the delivery — when the core cannot take interrupts (IE set). *)

val fsb : t -> Ise_core.Fsb.t
val stats : t -> stats
val reg : t -> int -> int
(** Architectural register value (committed state). *)

val sb_occupancy_watermark : t -> int
val sb_inflight_watermark : t -> int

(** {1 Chaos hooks}

    Consulted by the FSBC on each append when a fault-injection plane
    is attached ({!Ise_chaos} installs one); absent by default. *)

type chaos_hooks = {
  ch_put_delay : unit -> int;
      (** extra cycles before an FSBC append starts (a slow drain slot) *)
  ch_backpressure : unit -> bool;
      (** transient append-port backpressure: the append retries after a
          short stall.  The plane must bound consecutive [true]s so the
          retry always converges. *)
}

val set_chaos : t -> chaos_hooks option -> unit

val in_exception_drain : t -> bool
(** The core is between DETECT and the pipeline flush: waiting for
    outstanding drains or moving store-buffer contents to the FSB.  An
    early-invoked handler (FSB-overflow stall) polls this to know when
    the PUT stream is complete. *)

val phase_name : t -> string
(** Lower-case phase label for diagnostics and watchdog snapshots. *)

(** {1 Telemetry} *)

val set_telemetry : t -> Ise_telemetry.Sink.t -> unit
(** Registers this core's counters ([core<id>/sb/drained],
    [core<id>/sb/drain_faults], [core<id>/ise/episodes],
    [core<id>/rob/flushes]) and starts emitting trace spans/instants
    for exception episodes.  When never called the core performs no
    telemetry work beyond a single [option] check per site. *)

val sb_occupancy : t -> int
val rob_occupancy : t -> int
(** Instantaneous occupancies, for periodic probes. *)

(** {1 Testing} *)

val check_indexes : t -> (unit, string) result
(** Read-only consistency check of the issue-scan indexes, for tests:
    the not-done chain must list exactly the ROB entries that are not
    inert (not [Done], or a store with an unresolved address), and the
    store ring exactly the in-ROB stores and AMOs, both in ROB order. *)
