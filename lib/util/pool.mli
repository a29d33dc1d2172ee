(** A fixed-size pool of OCaml 5 domains running single submitted jobs.

    The concurrent server runs every read statement and transaction
    update on a pool worker against a pinned graph snapshot while its
    connection threads block on sockets.  A statement runs on exactly
    one domain; there is no fan-out inside a statement.

    Worker domains are spawned lazily on first use and reused for the
    lifetime of the process; [parallelism] counts the caller, so a
    width of [n] spawns at most [n - 1] workers (hard-capped at 15;
    callers beyond that share them).  An exception raised by a job is caught on the
    worker and re-raised on the caller of {!await} with its original
    backtrace.  A submission from inside a worker runs inline, so the
    pool can never deadlock on its own job queue. *)

(** [recommended ()] is [Domain.recommended_domain_count ()]: the
    hardware-sized default for the server's reader pool. *)
val recommended : unit -> int

(** A single job submitted to the pool. *)
type 'a task

(** [submit ~parallelism f] schedules [f ()] on a pool worker.  Runs
    [f] inline (before returning) when [parallelism <= 1] or when
    called from a worker — a worker blocking on another worker's job
    could deadlock the queue. *)
val submit : parallelism:int -> (unit -> 'a) -> 'a task

(** [await t] blocks until the job finishes; returns its value or
    re-raises its exception with the original backtrace. *)
val await : 'a task -> 'a
