(** Per-flow lifecycle reconstruction from a recorded (or live) trace.

    Folds the typed event stream of {!Pdq_telemetry.Trace} into
    contiguous per-flow spans — the handshake, sending intervals,
    paused epochs with the preempting flow identified, loss-recovery
    windows, fault-induced downtime — using a strict state machine: an
    event order the simulator cannot produce marks the flow malformed
    and is reported, never papered over. *)

type phase =
  | Handshake  (** First SYN out until the first acknowledgment. *)
  | Sending  (** Established, unpaused, not recovering from loss. *)
  | Paused of { by : int; preempted_by : int option }
      (** Paused by switch [by]; [preempted_by] names the more
          critical flow that claimed the capacity, when known. *)
  | Recovery of { kind : string; fault_induced : bool }
      (** From a retransmission ([kind] ∈ fast / timeout / watchdog)
          until the next receiver progress. [fault_induced] is true
          when an injected fault, a soft-state flush, or a dead-link /
          stale-route drop occurred between the start of the sending
          epoch the loss belongs to and the close of the window —
          downtime rather than garden-variety congestion loss. *)

type span = { phase : phase; t0 : float; t1 : float }

val duration : span -> float

type outcome =
  | Completed of { fct : float }
  | Terminated  (** Early Termination / quenching. *)
  | Aborted of { cause : string }
  | Unfinished  (** The trace ended with the flow mid-flight. *)

type flow_spans = {
  flow : int;
  admitted : float option;
  started : float option;
  finished : float option;
  size : int option;  (** From the admission record, when present. *)
  deadline : float option;
  spans : span list;  (** Chronological and contiguous. *)
  outcome : outcome;
  retransmits : int;
  peak_rate : float;  (** Highest granted rate observed (bits/s). *)
  rx_bytes : int;
}

type error = { at : float; flow : int; message : string }

type t = {
  flows : flow_spans list;  (** Well-formed flows, sorted by id. *)
  errors : error list;  (** One per malformed flow, oldest first. *)
}

val reconstruct : (float * Pdq_telemetry.Trace.event) list -> t
(** Fold a chronological event stream (from {!Replay} or a memory
    sink) into per-flow spans. Flows that trip the state machine are
    excluded from [flows] and described in [errors]; spans of flows
    the trace left unfinished are closed at the last timestamp. *)
