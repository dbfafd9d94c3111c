(** Structured trace bus: typed simulation events with sim-timestamps,
    fanned out to pluggable sinks.

    The bus is designed so that instrumented code costs nothing when
    nobody listens: every emit site is written

    {[ if Trace.active bus then Trace.emit bus (Flow_paused { ... }) ]}

    so with no sink attached ({!null}, or [create ~sinks:[]]) no event
    record is even allocated and a run is bit-for-bit identical to an
    uninstrumented one. Emitting never schedules simulator events and
    never consumes randomness, so attaching a sink cannot perturb a
    deterministic run either — it only observes it. *)

(** {1 Events} *)

type drop_cause = Loss | Overflow | Link_down | Stale_route

type event =
  | Flow_admitted of {
      flow : int;
      src : int;
      dst : int;
      size : int;
      deadline : float option;
    }  (** The experiment registered the flow (route pinned). *)
  | Flow_started of { flow : int }  (** First SYN left the sender. *)
  | Flow_established of { flow : int }
      (** The sender's first acknowledgment arrived — the handshake is
          over and data (or probing, if paused at birth) can begin. *)
  | Flow_paused of { flow : int; by : int; preempted_by : int option }
      (** The sender learned it is paused ([by] = pausing switch id).
          [preempted_by] names the more critical flow whose reserved
          rate exhausted the switch's capacity, when the pause is a
          preemption; [None] when the pause comes from the rate
          controller alone or from the RCP fallback (no single flow to
          blame). Carried by the scheduling feedback, so forensic
          attribution can build the who-preempted-whom table. *)
  | Flow_resumed of { flow : int; rate : float }
      (** The sender left the paused state with the given rate. *)
  | Flow_rate_set of { flow : int; rate : float }
      (** Granted rate changed while sending (bits/s). *)
  | Flow_completed of { flow : int; fct : float }
      (** All bytes delivered; [fct] = completion − start. *)
  | Flow_terminated of { flow : int }
      (** Early Termination / quenching (deliberate scheduling). *)
  | Flow_aborted of { flow : int; cause : string }
      (** Watchdog gave up (dead path); [cause] e.g. ["syn"],
          ["stall"]. *)
  | Flow_rx of { flow : int; bytes : int }
      (** Receiver accepted [bytes] new in-order payload bytes. *)
  | Flow_retransmit of { flow : int; kind : string }
      (** The sender re-sent data it had already transmitted. [kind] ∈
          ["fast"] (dup-ack fast retransmit / selective repair),
          ["timeout"] (TCP RTO go-back-N), ["watchdog"] (rate-based
          sender's stalled-progress go-back-N). Opens a loss-recovery
          window in forensic span reconstruction; the window closes at
          the next receiver progress. *)
  | Switch_flushed of { switch : int }
      (** A crash-reboot wiped one port's scheduler soft state. *)
  | Switch_rebuilt of { switch : int }
      (** A flushed port stored its first flow again — soft state is
          being rebuilt from traversing headers (§3.3). *)
  | Packet_dropped of { link : int; cause : drop_cause }
  | Fault of { desc : string }
      (** Injected fault or fault-handling side effect (reroute
          failure, stale route, reboot), named by its tally key or
          plan-event description. *)
  | Sweep_task of {
      index : int;
      key : string;
      state : string;
      attempts : int;
      elapsed : float;
      detail : string;
    }
      (** Supervised-sweep slot lifecycle ([state] ∈ ok / resumed /
          failed / timed-out / retry / crashed / respawned). Emitted on
          a {e wall-clock} bus by the {!Pdq_exec.Sweep} supervisor —
          the one event family whose timestamps are not simulated
          time. [detail] carries the exception or tripped budget. *)

(** {1 Sinks} *)

type sink

val memory : unit -> sink
(** In-memory sink for tests and benchmarks: keeps every event. *)

val memory_events : sink -> (float * event) list
(** Recorded (time, event) pairs, oldest first. Raises
    [Invalid_argument] on a non-memory sink. *)

val jsonl : out_channel -> sink
(** One JSON object per line, in emission order (see
    {!event_to_json}). The channel is flushed on every event so a
    crashed run still leaves a usable trace; closing it is the
    caller's business. *)

val callback : (time:float -> event -> unit) -> sink
(** Arbitrary consumer sink (streaming analysis, invariant monitors).
    The callback must not schedule simulator events or consume
    randomness — the bus contract is that sinks only observe. *)

(** {1 The bus} *)

type t

val null : t
(** The inactive bus: [active null = false], [emit] is a no-op. *)

val create : clock:(unit -> float) -> sinks:sink list -> t
(** A bus stamping events with [clock ()] (virtual sim time). With an
    empty sink list this returns {!null}. *)

val active : t -> bool
(** Whether any sink is attached — guard emit sites with this so the
    event is never allocated on quiet runs. *)

val emit : t -> event -> unit
(** Deliver the event (stamped with the bus clock) to every sink.
    No-op on {!null}. *)

val events_seen : t -> int
(** Events emitted through this bus so far (0 for {!null}). *)

(** {1 Rendering} *)

val json_escape : string -> string
(** Alias of {!Json.escape}, kept for [perfbench], which renders its own
    JSON through this name. Library code calls {!Json.escape}. *)

val event_to_json : time:float -> event -> string
(** One self-contained JSON object, e.g.
    [{"t":0.0012,"ev":"flow_paused","flow":3,"by":2}]. Floats are
    rendered with {!Json.j_float}, the shortest format that parses back
    to the same double, so {!event_of_json} is an exact inverse. *)

val event_of_json : string -> (float * event, string) result
(** Parse one line of a recorded JSONL trace back into its
    [(time, event)] pair through {!Json.parse} — the exact inverse of
    {!event_to_json} (including float values, bit for bit). Strict on
    every field the event needs: a malformed line, trailing bytes, an
    unknown event name or drop cause, a missing or mistyped field all
    return [Error] with a description, never a partial event. Fields
    the event does not read are ignored. *)
