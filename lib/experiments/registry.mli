(** Every table of the evaluation, named once. Each entry is one bench
    target ([bench/main.exe --only NAME]) and one golden digest in the
    tests, checked at each worker-domain count the entry is pinned at;
    CI's slow-digest step runs the [Slow] ones. *)

type cost =
  | Quick  (** Pinned by [dune runtest]. *)
  | Slow  (** Takes seconds; pinned only under [PDQ_GOLDEN_SLOW=1]. *)

type domains =
  | One_and_two  (** Pinned at one and two worker domains, to one digest. *)
  | Only of int * string  (** Pinned at this count only, for the reason given. *)

type entry = {
  name : string;
  cost : cost;
  domains : domains;
  render : jobs:int option -> quick:bool -> Common.table list;
      (** The entry's tables in print order: [jobs] worker domains for
          its sweeps, [quick] for the trimmed sweeps bench runs by
          default and the goldens pin. *)
}

val all : entry list
(** Every entry, in bench's run order; names are unique. *)

val find : string -> entry option

val pinned_jobs : entry -> int list
(** The worker-domain counts of [domains]. *)
