type failure = {
  exn : string;
  backtrace : string;
  attempts : int;
  elapsed : float;
}

type timeout = { budget : string; attempts : int; elapsed : float }

type 'a t =
  | Ok of 'a
  | Failed of failure
  | Timed_out of timeout
  | Skipped

type 'a codec = { encode : 'a -> string; decode : string -> 'a }

let ok = function Ok r -> Some r | Failed _ | Timed_out _ | Skipped -> None
let is_ok t = ok t <> None

let get_ok = function
  | Ok r -> r
  | Failed f -> invalid_arg (Printf.sprintf "Task.get_ok: failed (%s)" f.exn)
  | Timed_out b ->
      invalid_arg (Printf.sprintf "Task.get_ok: timed out (%s)" b.budget)
  | Skipped -> invalid_arg "Task.get_ok: skipped"

let state = function
  | Ok _ -> "ok"
  | Failed _ -> "failed"
  | Timed_out _ -> "timed-out"
  | Skipped -> "skipped"

let cause = function
  | Ok _ -> None
  | Failed f -> Some f.exn
  | Timed_out b -> Some b.budget
  | Skipped -> Some "skipped"

(* Deterministic rendering: no elapsed wall time, so two runs of the
   same sweep print identical slot lines regardless of machine load. *)
let pp ppf = function
  | Ok _ -> Format.fprintf ppf "ok"
  | Failed f ->
      Format.fprintf ppf "FAILED after %d attempt%s: %s" f.attempts
        (if f.attempts = 1 then "" else "s")
        f.exn
  | Timed_out b ->
      Format.fprintf ppf "TIMED OUT (%s) after %d attempt%s" b.budget
        b.attempts
        (if b.attempts = 1 then "" else "s")
  | Skipped -> Format.fprintf ppf "skipped"
