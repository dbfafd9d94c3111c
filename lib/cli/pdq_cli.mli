(** The [pdq_sim] command line as a library, so the test suite can
    drive it in-process and assert on its exit-status discipline.

    The discipline itself is the {!Exit_code} variant; see its
    documentation for the full code list and precedence. *)

module Exit_code = Exit_code
(** The exit-status discipline shared by every subcommand. *)

val eval : ?argv:string array -> unit -> int
(** Evaluate the [pdq_sim] command (arguments default to
    [Sys.argv]) and return the process exit code without exiting.
    Output goes to stdout/stderr. *)
