(** Issuing one connection's stream through any [send] function — a TCP
    socket in the wire run, the in-process dispatcher in the traced
    replay — timing each operation and checking each answer. *)

open Workload

let now () = Int64.to_int (Cypher_util.Mclock.now_ns ())

(** A growable float array. *)
module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(** Latencies in ms, per class. *)
type recorder = {
  read : Fvec.t;  (** every read statement (inside transactions too) *)
  write : Fvec.t;  (** auto-commit updates (from due time in open loop) *)
  tx : Fvec.t;  (** [:begin] to successful [:commit], retries included *)
  lag : Fvec.t;  (** open-loop generator lateness *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;  (** answers contradicting the data *)
  mutable elapsed_ns : int;  (** measured phase *)
  model : model;
}

let recorder () =
  {
    read = Fvec.create ();
    write = Fvec.create ();
    tx = Fvec.create ();
    lag = Fvec.create ();
    attempted = 0;
    failed = 0;
    wrong = [];
    elapsed_ns = 0;
    model = new_model ();
  }

let ms ns = float_of_int ns /. 1e6
let max_retries = 3

(* one request: [Ok latency] on an OK answer that passes its check *)
let exchange ~send rc req =
  let t0 = now () in
  let lines = send req.line in
  let dt = now () - t0 in
  match verdict req lines with
  | Pass -> Ok dt
  | Failed m -> Error m
  | Wrong m ->
      rc.wrong <- m :: rc.wrong;
      Error m

(** [run_op ~send ~measure ?due rc op] issues [op]; with [measure] its
    latency lands in [rc].  [due] (open loop) is when it should have
    been sent: the latency then counts from there. *)
let run_op ~send ~measure ?due rc op =
  let start = match due with Some t -> t | None -> now () in
  let record vec ns = if measure then Fvec.push vec (ms ns) in
  if measure then rc.attempted <- rc.attempted + 1;
  let ok =
    match op.cls with
    | Read | Write -> (
        let req = List.hd op.reqs in
        match exchange ~send rc req with
        | Ok _ ->
            record (if op.cls = Read then rc.read else rc.write) (now () - start);
            true
        | Error _ -> false)
    | Tx ->
        let rec attempt k =
          let rec go = function
            | [] -> true
            | req :: rest -> (
                match exchange ~send rc req with
                | Ok dt ->
                    if req.is_read then record rc.read dt;
                    go rest
                | Error _ ->
                    (* a failed statement leaves the transaction open; a
                       failed :commit has already closed it *)
                    if rest <> [] then ignore (send ":rollback" : string list);
                    false)
          in
          if go op.reqs then true
          else if k < max_retries then begin
            rc.model.retries <- rc.model.retries + 1;
            attempt (k + 1)
          end
          else false
        in
        let committed = attempt 0 in
        if committed then record rc.tx (now () - start);
        committed
  in
  if ok then op.ack rc.model else if measure then rc.failed <- rc.failed + 1

(** The start line both connections wait at between warm-up and the
    measured phase, so the measured phases overlap and the caller can
    read counters at the boundary. *)
type gate = { arrived : int Atomic.t; go : bool Atomic.t; aborted : bool Atomic.t }

let gate () = { arrived = Atomic.make 0; go = Atomic.make false; aborted = Atomic.make false }

(** A connection that failed: nobody waits for it any more. *)
let abort g = Atomic.set g.aborted true

let wait_go g =
  Atomic.incr g.arrived;
  while not (Atomic.get g.go || Atomic.get g.aborted) do
    Unix.sleepf 0.0002
  done;
  if not (Atomic.get g.go) then failwith "another connection failed"

(** [release g n f] waits until [n] connections arrived, runs [f], then
    lets them go. *)
let release g n f =
  while Atomic.get g.arrived < n && not (Atomic.get g.aborted) do
    Unix.sleepf 0.0002
  done;
  if Atomic.get g.aborted then failwith "a connection failed before the measured phase";
  f ();
  Atomic.set g.go true

(** [run_stream ~send ~gate gen plan conn] runs one connection: warm-up,
    the gate, then the measured operations (on a fixed schedule for the
    open-loop writer). *)
let run_stream ~send ~gate g (plan : plan) ~conn =
  let rc = recorder () in
  for _ = 1 to plan.warm do
    run_op ~send ~measure:false rc (next g)
  done;
  wait_go gate;
  let t0 = now () in
  let n = plan.ops.(conn) in
  let open_loop = g.env.workload = Analytic_writes && conn = open_loop_conn in
  for i = 0 to n - 1 do
    let op = next g in
    if open_loop then begin
      let due = t0 + Float.to_int (float_of_int i *. 1e9 /. open_loop_rate) in
      let wait = due - now () in
      if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
      Fvec.push rc.lag (ms (max 0 (now () - due)));
      run_op ~send ~measure:true ~due rc op
    end
    else run_op ~send ~measure:true rc op
  done;
  rc.elapsed_ns <- now () - t0;
  rc

