(** Shared server state: the committed head and the group committer.

    One value of this type is the database every connection sees.  It
    holds the latest committed graph (the {e head}) and a monotonically
    increasing version number; readers pin [(version, head)] in O(1)
    (the store is immutable) and never take another lock afterwards —
    readers never block writers and vice versa.

    Writes go through {!commit}, the single serialized committer with
    {b group commit}.  A committing connection enqueues a request
    carrying an {e unexecuted} closure and blocks; the first waiter to
    find no flush in flight becomes the {e leader}, drains the whole
    queue, executes the batch's closures serially against a working
    graph stacked on the head, writes every resulting journal entry to
    the sink as {e one} append (one [write] + one fsync, whatever the
    batch size), publishes the new head, and signals each waiter with
    its own outcome.

    Failure isolation: a member whose closure fails is dropped from the
    batch (its waiter gets that error; the others are unaffected); a
    batch whose {e flush} fails rolls back exactly its members — the
    head never moved, and nothing was journaled for them (rollback
    journals nothing).  Requests arriving while a flush is in flight
    stay unexecuted in the queue, so a failed flush can never cascade
    into them: they simply execute against the unchanged head under the
    next leader. *)

open Cypher_graph
open Cypher_core

type stats = {
  commits : int;  (** transactions committed (batch members published) *)
  flushes : int;  (** leader drains (batches executed and flushed) *)
  max_batch : int;  (** largest number of transactions one flush carried *)
  flush_failures : int;  (** batches rolled back by a failing sink *)
}

(* A commit request: the closure receives the head its batch is stacked
   on and returns the transaction's resulting graph plus the journal
   entries to write for it.  [rq_result] is written exactly once, under
   the lock, by the leader that resolved it. *)
type request = {
  rq_exec : Graph.t -> (Graph.t * Session.journal_entry list, string) result;
  mutable rq_result : (int, string) result option;
}

type t = {
  lock : Mutex.t;
  resolved : Condition.t;  (** broadcast whenever a batch resolves *)
  queue : request Queue.t;
  sink : (Session.journal_entry list -> unit) option;
      (** durability hook (e.g. [Store.append_entries]); [None] runs the
          server purely in memory *)
  mutable head : Graph.t;
  mutable version : int;
  mutable flushing : bool;  (** a leader is executing / flushing a batch *)
  mutable commits : int;
  mutable flushes : int;
  mutable max_batch : int;
  mutable flush_failures : int;
  mutable last_batch : int;
      (** size of the most recent batch — the commit-delay heuristic:
          when the previous flush carried siblings, the writers it
          resolved are mid-turnaround and worth waiting a tick for,
          even though the queue looks empty right now *)
}

let create ?sink graph =
  {
    lock = Mutex.create ();
    resolved = Condition.create ();
    queue = Queue.create ();
    sink;
    head = graph;
    version = 0;
    flushing = false;
    commits = 0;
    flushes = 0;
    max_batch = 0;
    flush_failures = 0;
    last_batch = 0;
  }

(** [current t] pins the latest committed state: [(version, head)].
    O(1); the returned graph is immutable and stays valid forever. *)
let current t =
  Mutex.lock t.lock;
  let r = (t.version, t.head) in
  Mutex.unlock t.lock;
  r

let stats t =
  Mutex.lock t.lock;
  let r =
    {
      commits = t.commits;
      flushes = t.flushes;
      max_batch = t.max_batch;
      flush_failures = t.flush_failures;
    }
  in
  Mutex.unlock t.lock;
  r

(* must hold the lock; takes the batch the leader will execute *)
let drain t =
  let xs = ref [] in
  while not (Queue.is_empty t.queue) do
    xs := Queue.pop t.queue :: !xs
  done;
  List.rev !xs

(** [commit t exec] runs one transaction through the committer and
    blocks until its batch resolves.  [exec head] is called on the
    committer's thread with the graph the transaction ends up stacked
    on (the head at batch execution time, extended by earlier batch
    members); it returns the transaction's resulting graph and journal
    entries, or an error to abort just this member.  Returns the new
    version on success. *)
let commit t exec : (int, string) result =
  let rq = { rq_exec = exec; rq_result = None } in
  Mutex.lock t.lock;
  Queue.add rq t.queue;
  let rec wait_or_lead () =
    match rq.rq_result with
    | Some r -> r
    | None ->
        if t.flushing || Queue.is_empty t.queue then begin
          Condition.wait t.resolved t.lock;
          wait_or_lead ()
        end
        else begin
          (* leader: take a batch and run it outside the lock, so
             readers pinning the head never wait behind an fsync *)
          t.flushing <- true;
          let working = ref t.head in
          let applied_rev = ref [] and failed_rev = ref [] in
          let taken = ref 0 in
          (* drains whatever is queued and executes it immediately —
             called under the lock, executes outside it.  Members are
             executed as they arrive, so execution rides inside the
             commit-delay window instead of extending the round after
             it. *)
          let take_and_exec () =
            let batch = drain t in
            taken := !taken + List.length batch;
            Mutex.unlock t.lock;
            List.iter
              (fun r ->
                match r.rq_exec !working with
                | Ok (g, entries) ->
                    working := g;
                    applied_rev := (r, g, entries) :: !applied_rev
                | Error m -> failed_rev := (r, m) :: !failed_rev
                | exception e ->
                    failed_rev := (r, Printexc.to_string e) :: !failed_rev)
              batch;
            Mutex.lock t.lock
          in
          (* commit delay: when other committers are queued (siblings)
             or the previous batch carried some — in which case the
             writers it resolved are mid-turnaround right now — hold
             the flush for a tick while requests keep arriving, so the
             batch carries them too.  Without the look-behind the
             committer alternates full and singleton flushes: after a
             full batch resolves, the first re-submitter finds an
             empty queue and fsyncs alone.  The sleep is a real
             blocking sleep (a plain yield does not reliably hand the
             core to the resolving connections); a lone committer
             (no siblings, last batch of one) never pays it. *)
          let target = max (Queue.length t.queue) t.last_batch in
          take_and_exec ();
          if target > 1 then begin
            let rec settle tries =
              if tries > 0 && !taken < target then begin
                Mutex.unlock t.lock;
                (* the kernel rounds any nanosleep up to ~80us here;
                   ask for the minimum — one tick is enough for every
                   runnable connection to answer its client and
                   re-enqueue *)
                Thread.delay 1e-6;
                Mutex.lock t.lock;
                if not (Queue.is_empty t.queue) then begin
                  take_and_exec ();
                  settle (tries - 1)
                end
                (* no arrivals in a whole tick: flush what we have *)
              end
            in
            settle 8
          end;
          Mutex.unlock t.lock;
          let applied = List.rev !applied_rev in
          let failed = !failed_rev in
          let entries = List.concat_map (fun (_, _, es) -> es) applied in
          let flushed =
            match t.sink with
            | Some sink when entries <> [] -> (
                try
                  sink entries;
                  Ok ()
                with
                | Errors.Error e -> Error (Errors.to_string e)
                | e -> Error (Printexc.to_string e))
            | _ -> Ok ()
          in
          Mutex.lock t.lock;
          t.flushes <- t.flushes + 1;
          let n = !taken in
          if n > t.max_batch then t.max_batch <- n;
          t.last_batch <- n;
          List.iter (fun (r, m) -> r.rq_result <- Some (Error m)) failed;
          (match flushed with
          | Ok () ->
              List.iter
                (fun (r, g, _) ->
                  t.version <- t.version + 1;
                  t.head <- g;
                  t.commits <- t.commits + 1;
                  r.rq_result <- Some (Ok t.version))
                applied
          | Error m ->
              (* the whole batch rolls back: the head never moved and
                 nothing durable was written for it.  Members-only by
                 construction — later requests are still unexecuted. *)
              t.flush_failures <- t.flush_failures + 1;
              List.iter
                (fun (r, _, _) ->
                  r.rq_result <- Some (Error ("journal flush failed: " ^ m)))
                applied);
          t.flushing <- false;
          Condition.broadcast t.resolved;
          wait_or_lead ()
        end
  in
  let r = wait_or_lead () in
  Mutex.unlock t.lock;
  r
