(** A small LRU cache for compiled statements, used by {!Session}.

    Keys are strings (normalized statement text plus a config
    fingerprint); values are whatever the session stores.  Running
    hit / miss / eviction / invalidation counters are kept for the
    observability layer. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

type 'a t

(** [create capacity] makes an empty cache holding at most [capacity]
    entries (clamped at 0; a zero-capacity cache stores nothing). *)
val create : int -> 'a t

val length : 'a t -> int

(** [find t key] looks the key up, counting a hit (and refreshing the
    entry's recency) or a miss. *)
val find : 'a t -> string -> 'a option

(** [peek t key] is {!find} without touching recency or counters. *)
val peek : 'a t -> string -> 'a option

(** [add t key v] inserts (or replaces) the binding as most recently
    used, evicting the least recently used entry when at capacity. *)
val add : 'a t -> string -> 'a -> unit

(** [invalidate t] drops every entry and counts one invalidation event
    (index registration, config change). *)
val invalidate : 'a t -> unit

val stats : 'a t -> stats
