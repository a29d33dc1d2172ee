(** Fixed-size domain pool running single submitted jobs.

    Concurrency structure: one global job queue guarded by one mutex.
    Workers loop forever popping jobs; {!submit} enqueues one job and
    {!await} blocks on the job's own condition until the worker has
    stored its outcome.  The outcome is written and read only under the
    global mutex, which gives the necessary happens-before edges. *)

let recommended () = Domain.recommended_domain_count ()

(* hard cap on spawned worker domains: callers beyond it share them *)
let max_workers = 15

(* ------------------------------------------------------------------ *)
(* Worker pool                                                        *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()
let work_available = Condition.create ()
let jobs : (unit -> unit) Queue.t = Queue.create ()
let spawned = ref 0

(* set on worker domains: a job submitted from inside a job must run
   inline, otherwise a worker could block waiting for jobs that only
   blocked workers would run *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let worker () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock lock;
    while Queue.is_empty jobs do
      Condition.wait work_available lock
    done;
    let job = Queue.pop jobs in
    Mutex.unlock lock;
    job ();
    loop ()
  in
  loop ()

(* workers are daemons: they block on the queue between calls and die
   with the process *)
let ensure_workers n =
  let n = min n max_workers in
  if !spawned < n then begin
    Mutex.lock lock;
    while !spawned < n do
      incr spawned;
      ignore (Domain.spawn worker : unit Domain.t)
    done;
    Mutex.unlock lock
  end

(* ------------------------------------------------------------------ *)
(* Single-job submission (the server's read executor)                 *)
(* ------------------------------------------------------------------ *)

type 'a task_state =
  | T_pending
  | T_done of 'a
  | T_failed of exn * Printexc.raw_backtrace

type 'a task = { mutable state : 'a task_state; signal : Condition.t }

(** [submit ~parallelism f] runs [f ()] on a pool worker and returns a
    task to {!await}.  The serial fast path ([parallelism <= 1], or a
    call from inside a worker — a worker blocking on another worker's
    job could deadlock the queue) runs [f] inline before returning, so
    [await] never blocks in that case. *)
let submit ~parallelism (f : unit -> 'a) : 'a task =
  let t = { state = T_pending; signal = Condition.create () } in
  let run () =
    let r =
      try T_done (f ()) with e -> T_failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock lock;
    t.state <- r;
    Condition.broadcast t.signal;
    Mutex.unlock lock
  in
  if parallelism <= 1 || Domain.DLS.get in_worker then run ()
  else begin
    ensure_workers (parallelism - 1);
    Mutex.lock lock;
    Queue.add run jobs;
    Condition.broadcast work_available;
    Mutex.unlock lock
  end;
  t

(** [await t] blocks until [t]'s job has finished, then returns its
    result (re-raising its exception with the original backtrace). *)
let await (t : 'a task) : 'a =
  Mutex.lock lock;
  while (match t.state with T_pending -> true | _ -> false) do
    Condition.wait t.signal lock
  done;
  let s = t.state in
  Mutex.unlock lock;
  match s with
  | T_done v -> v
  | T_failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | T_pending -> assert false
