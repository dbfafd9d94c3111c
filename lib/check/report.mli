(** Structured invariant-violation reports.

    Every monitor in this library reduces a broken run to a list of
    these records: the simulated time at which the inequality failed,
    the entity it failed on (a link, a flow, a switch port) and the
    violated inequality itself, with the offending values inlined so a
    report is actionable without re-running the simulation. *)

type violation = {
  time : float;       (** Simulated seconds. *)
  entity : string;    (** e.g. ["link 3"], ["flow 12"], ["port 5"]. *)
  invariant : string; (** Short id: ["capacity"], ["bytes"],
                          ["flow_list"], ["deadline"], ["oracle"]. *)
  detail : string;    (** The violated inequality with values. *)
}

val violation :
  time:float -> entity:string -> invariant:string -> string -> violation

val pp : Format.formatter -> violation -> unit
(** One line: [[time] invariant entity: detail]. *)

val pp_list : Format.formatter -> violation list -> unit
(** Human-readable summary, one violation per line. *)

val write_jsonl : out_channel -> violation list -> unit
(** One JSON object per line, flushed (CI artifact format). *)
