(** A small LRU cache for compiled statements, used by {!Session}.

    Keys are strings (normalized statement text plus a config
    fingerprint — see [Session.compile]); values are whatever the
    session stores (compiled {!Api.prepared} statements).  Recency is
    tracked with a monotonic tick per entry; eviction scans for the
    minimum tick, which is O(capacity) but only runs on insertion over a
    full cache — capacities are small (default 128) and the scan is
    orders of magnitude cheaper than the parse/plan work a hit saves.

    The cache keeps running counters (hits / misses / evictions /
    invalidations) surfaced through the observability layer. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

type 'a entry = { value : 'a; mutable tick : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create capacity =
  {
    capacity = max 0 capacity;
    tbl = Hashtbl.create (min 64 (max 1 capacity));
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let length t = Hashtbl.length t.tbl

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(** [find t key] looks the key up, counting a hit (and refreshing the
    entry's recency) or a miss. *)
let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.hits <- t.hits + 1;
      e.tick <- tick t;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      None

(** [peek t key] is {!find} without touching recency or counters. *)
let peek t key =
  Option.map (fun e -> e.value) (Hashtbl.find_opt t.tbl key)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best <= e.tick -> acc
        | _ -> Some (key, e.tick))
      t.tbl None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      t.evictions <- t.evictions + 1
  | None -> ()

(** [add t key v] inserts (or replaces) the binding as most recently
    used, evicting the least recently used entry if the cache is at
    capacity.  A zero-capacity cache stores nothing. *)
let add t key v =
  if t.capacity > 0 then begin
    if
      (not (Hashtbl.mem t.tbl key))
      && Hashtbl.length t.tbl >= t.capacity
    then evict_lru t;
    Hashtbl.replace t.tbl key { value = v; tick = tick t }
  end

(** [invalidate t] drops every entry and counts one invalidation event
    (index registration, config change). *)
let invalidate t =
  if Hashtbl.length t.tbl > 0 then Hashtbl.reset t.tbl;
  t.invalidations <- t.invalidations + 1

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
  }
