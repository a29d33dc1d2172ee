(** The reader pool ([Cypher_util.Pool]): single-job submission, the
    one form of parallelism the engine has.  The server runs every read
    and transaction update through [submit] and [await]
    ([Service.on_pool]); these tests pin the contract it relies on —
    the job's value or exception comes back to the caller, narrow pools
    and nested submissions run inline, and concurrent callers all
    complete. *)

module Pool = Cypher_util.Pool
open Test_util

let suite =
  [
    case "await returns the job's value" (fun () ->
        Alcotest.(check int) "value" 42
          (Pool.await (Pool.submit ~parallelism:2 (fun () -> 6 * 7))));
    case "at width 2 the job runs off the calling domain" (fun () ->
        (* the server's premise: a read leaves the connection thread's
           domain *)
        let worker = Pool.await (Pool.submit ~parallelism:2 Domain.self) in
        Alcotest.(check bool) "worker domain" true (worker <> Domain.self ()));
    case "a job's exception is re-raised on the caller" (fun () ->
        match Pool.await (Pool.submit ~parallelism:2 (fun () -> failwith "boom")) with
        | () -> Alcotest.fail "expected Failure"
        | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
    case "a worker keeps serving after a job raises" (fun () ->
        (* the raise is caught on the worker; its loop must survive it,
           or the next job at this width would never run *)
        for i = 1 to 5 do
          (match Pool.await (Pool.submit ~parallelism:2 (fun () -> raise Exit)) with
          | () -> Alcotest.fail "expected Exit"
          | exception Exit -> ());
          Alcotest.(check int) "next job" i (Pool.await (Pool.submit ~parallelism:2 (fun () -> i)))
        done);
    case "parallelism 0 and 1 run the job inline, before submit returns" (fun () ->
        let caller = Domain.self () in
        List.iter
          (fun parallelism ->
            let ran = ref None in
            let t = Pool.submit ~parallelism (fun () -> ran := Some (Domain.self ())) in
            Alcotest.(check bool)
              (Printf.sprintf "par=%d ran on the caller before await" parallelism)
              true
              (!ran = Some caller);
            Pool.await t)
          [ 0; 1 ]);
    case "a nested submit from a worker runs inline" (fun () ->
        (* the inner job must not wait for a free worker: with one
           worker busy running the outer job, that would deadlock *)
        let outer, inner =
          Pool.await
            (Pool.submit ~parallelism:2 (fun () ->
                 let outer = Domain.self () in
                 let inner = Pool.await (Pool.submit ~parallelism:2 Domain.self) in
                 (outer, inner)))
        in
        Alcotest.(check bool) "outer job left the caller" true (outer <> Domain.self ());
        Alcotest.(check bool) "inner job ran on the outer job's domain" true (inner = outer));
    case "8 threads submitting concurrently all complete" (fun () ->
        let results = Array.make 8 0 in
        let threads =
          List.init 8 (fun i ->
              Thread.create
                (fun () ->
                  for j = 1 to 50 do
                    let v = Pool.await (Pool.submit ~parallelism:3 (fun () -> (i * 1000) + j)) in
                    results.(i) <- results.(i) + v
                  done)
                ())
        in
        List.iter Thread.join threads;
        Array.iteri
          (fun i sum ->
            Alcotest.(check int)
              (Printf.sprintf "thread %d" i)
              ((i * 1000 * 50) + (50 * 51 / 2))
              sum)
          results);
  ]
