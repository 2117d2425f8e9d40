(** Append-only JSONL result store — the campaign's checkpoint.

    One {!Job_result.t} per line, appended and flushed as each job
    finishes, so a killed campaign loses at most the line being
    written.  {!open_} tolerates exactly that: a trailing malformed or
    truncated line (or any corrupt line) is counted in {!dropped} and
    skipped, never fatal.  A final line without its newline is the
    torn record: it is cut off the file, even when what is left of it
    still parses, so the next append starts a fresh line.  When a job
    id appears on several lines — a failure re-run after a resume —
    the {e last} line wins.

    A store handle is not domain-safe; the campaign runner serializes
    access under its scheduler lock. *)

type t

val open_ : string -> (t, Iddq_util.Io_error.t) result
(** Load the records already at [path] (a missing file is an empty
    store) and open it for appending.  An unreadable or unwritable
    path is an [Error] with the path — never an exception — and no
    descriptor is leaked on the failure paths. *)

val path : t -> string

val find : t -> string -> Job_result.t option
(** Latest record for a job id. *)

val records : t -> Job_result.t list
(** Latest record per job id, in first-appearance order. *)

val count : t -> int

val dropped : t -> int
(** Malformed or truncated lines skipped while loading. *)

val append : t -> Job_result.t -> unit
(** Write one line and flush it to the OS. *)

val close : t -> unit
