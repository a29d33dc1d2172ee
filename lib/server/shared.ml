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
  (* an unresolved request with no flush in flight is still queued: the
     only leader that could have taken it resolves it before clearing
     [flushing] *)
  let rec wait_or_lead () =
    match rq.rq_result with
    | Some r -> r
    | None when t.flushing ->
        Condition.wait t.resolved t.lock;
        wait_or_lead ()
    | None ->
        (* leader: take the queue once and run it outside the lock, so
           readers pinning the head never wait behind an fsync;
           requests arriving meanwhile wait for the next leader *)
        t.flushing <- true;
        let batch = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        let working = ref t.head in
        Mutex.unlock t.lock;
        let applied_rev = ref [] and failed = ref [] in
        List.iter
          (fun r ->
            match r.rq_exec !working with
            | Ok (g, entries) ->
                working := g;
                applied_rev := (r, g, entries) :: !applied_rev
            | Error m -> failed := (r, m) :: !failed
            | exception e -> failed := (r, Printexc.to_string e) :: !failed)
          batch;
        let applied = List.rev !applied_rev in
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
        t.max_batch <- max t.max_batch (List.length batch);
        List.iter (fun (r, m) -> r.rq_result <- Some (Error m)) !failed;
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
  in
  let r = wait_or_lead () in
  Mutex.unlock t.lock;
  r
