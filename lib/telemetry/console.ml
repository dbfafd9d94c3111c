(* The threshold is read on every potential log call — including from
   worker domains during parallel sweeps — so it lives in an Atomic;
   emission is serialized by a mutex so lines from concurrent domains
   never interleave mid-line. The threshold starts from PDQ_DEBUG:
   unset keeps runs quiet, "trace" selects Trace, any other value
   Debug. *)

let current : Trace.severity option Atomic.t =
  Atomic.make
    (match Sys.getenv_opt "PDQ_DEBUG" with
    | None -> None
    | Some "trace" -> Some Trace.Trace
    | Some _ -> Some Trace.Debug)

let set_threshold th = Atomic.set current th

let enabled sev =
  match Atomic.get current with
  | None -> false
  | Some th -> Trace.severity_geq sev th

let err_ppf = Format.err_formatter
let out_lock = Mutex.create ()

let logf sev fmt =
  if enabled sev then begin
    Mutex.lock out_lock;
    Format.fprintf err_ppf "[%s] " (Trace.severity_name sev);
    Format.kfprintf
      (fun ppf ->
        Format.fprintf ppf "@.";
        Mutex.unlock out_lock)
      err_ppf fmt
  end
  else Format.ifprintf err_ppf fmt
